#include "sim/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "balance/linux_load.hpp"
#include "balance/speed.hpp"
#include "topo/presets.hpp"
#include "workload/generator.hpp"

namespace speedbal {
namespace {

/// Reference answer for exec_in_window: the clipped overlap of every
/// recorded segment of `task` with [from, to), summed by a linear scan.
SimTime brute_exec_in_window(const Metrics& m, TaskId task, SimTime from,
                             SimTime to) {
  SimTime total = 0;
  for (const RunSegment& s : m.segments()) {
    if (s.task != task) continue;
    total += std::max<SimTime>(
        0, std::min(s.start + s.dur, to) - std::max(s.start, from));
  }
  return total;
}

TEST(Metrics, RecordsExecByCore) {
  Metrics m(4);
  m.record_run(1, 0, msec(10));
  m.record_run(1, 0, msec(5));
  m.record_run(1, 3, msec(20));
  const auto& per_core = m.exec_by_core(1);
  ASSERT_EQ(per_core.size(), 4u);
  EXPECT_EQ(per_core[0], msec(15));
  EXPECT_EQ(per_core[1], 0);
  EXPECT_EQ(per_core[3], msec(20));
  EXPECT_EQ(m.total_exec(1), msec(35));
}

TEST(Metrics, UnknownTaskHasZeroExec) {
  Metrics m(2);
  EXPECT_EQ(m.total_exec(42), 0);
  EXPECT_EQ(m.exec_by_core(42).size(), 2u);
}

TEST(Metrics, UnknownTaskVectorSizedToCores) {
  // Regression: the shared fallback vector must be sized to the core count
  // at construction, for every Metrics instance, before any run is
  // recorded — callers index it with raw core ids.
  Metrics wide(8);
  Metrics narrow(3);
  const auto& w = wide.exec_by_core(7);
  const auto& n = narrow.exec_by_core(7);
  ASSERT_EQ(w.size(), 8u);
  ASSERT_EQ(n.size(), 3u);
  for (const SimTime t : w) EXPECT_EQ(t, 0);
  for (const SimTime t : n) EXPECT_EQ(t, 0);
  EXPECT_EQ(w[7], 0);  // Indexable across the full core range.
}

TEST(Metrics, MigrationCountsByCause) {
  Metrics m(4);
  m.record_migration({usec(10), 1, 0, 1, MigrationCause::SpeedBalancer});
  m.record_migration({usec(20), 2, 1, 2, MigrationCause::LinuxPeriodic});
  m.record_migration({usec(30), 1, 1, 3, MigrationCause::SpeedBalancer});
  const auto by_cause = m.migration_counts_by_cause();
  ASSERT_EQ(by_cause.size(), 2u);
  EXPECT_EQ(by_cause.at(MigrationCause::SpeedBalancer), 2);
  EXPECT_EQ(by_cause.at(MigrationCause::LinuxPeriodic), 1);
}

TEST(Metrics, MigrationLogAndCounts) {
  Metrics m(4);
  m.record_migration({usec(10), 1, 0, 1, MigrationCause::SpeedBalancer});
  m.record_migration({usec(20), 2, 1, 2, MigrationCause::LinuxPeriodic});
  m.record_migration({usec(30), 1, 1, 3, MigrationCause::SpeedBalancer});
  EXPECT_EQ(m.migration_count(), 3);
  EXPECT_EQ(m.migration_count(MigrationCause::SpeedBalancer), 2);
  EXPECT_EQ(m.migration_count(MigrationCause::LinuxPeriodic), 1);
  EXPECT_EQ(m.migration_count(MigrationCause::Dwrr), 0);
  ASSERT_EQ(m.migrations().size(), 3u);
  EXPECT_EQ(m.migrations()[0].task, 1);
  EXPECT_EQ(m.migrations()[1].from, 1);
  EXPECT_EQ(m.migrations()[2].to, 3);
}

TEST(Metrics, SegmentsAndWindowQueries) {
  Metrics m(2);
  m.record_segment({1, 0, usec(0), usec(100)});
  m.record_segment({1, 1, usec(200), usec(100)});
  m.record_segment({2, 0, usec(100), usec(100)});
  ASSERT_EQ(m.segments().size(), 3u);
  // Full window.
  EXPECT_EQ(m.exec_in_window(1, 0, usec(300)), usec(200));
  // Clipped at both ends.
  EXPECT_EQ(m.exec_in_window(1, usec(50), usec(250)), usec(100));
  // Empty window / unknown task.
  EXPECT_EQ(m.exec_in_window(1, usec(400), usec(500)), 0);
  EXPECT_EQ(m.exec_in_window(9, 0, usec(300)), 0);
}

TEST(Metrics, CachedCauseTallyTracksEveryRecord) {
  // The per-cause totals are a running tally, not a log rescan; they must
  // stay exact across interleaved causes and agree with the full log.
  Metrics m(4);
  const MigrationCause causes[] = {
      MigrationCause::SpeedBalancer, MigrationCause::LinuxPeriodic,
      MigrationCause::LinuxNewIdle, MigrationCause::SpeedBalancer,
      MigrationCause::Hotplug};
  for (int round = 0; round < 100; ++round)
    for (const auto c : causes)
      m.record_migration({usec(round), 1, 0, 1, c});
  EXPECT_EQ(m.migration_count(), 500);
  EXPECT_EQ(m.migration_count(MigrationCause::SpeedBalancer), 200);
  EXPECT_EQ(m.migration_count(MigrationCause::LinuxPeriodic), 100);
  EXPECT_EQ(m.migration_count(MigrationCause::Hotplug), 100);
  EXPECT_EQ(m.migration_count(MigrationCause::Dwrr), 0);
  const auto by_cause = m.migration_counts_by_cause();
  ASSERT_EQ(by_cause.size(), 4u);
  std::int64_t sum = 0;
  for (const auto& [cause, n] : by_cause) sum += n;
  EXPECT_EQ(sum, m.migration_count());
}

TEST(Metrics, WindowQueryExactAtSegmentBoundaries) {
  Metrics m(2);
  // Three segments of task 1: [0,100), [200,300), [300,400).
  m.record_segment({1, 0, usec(0), usec(100)});
  m.record_segment({1, 1, usec(200), usec(100)});
  m.record_segment({1, 0, usec(300), usec(100)});
  // Window touching a segment edge exactly includes/excludes it.
  EXPECT_EQ(m.exec_in_window(1, usec(100), usec(200)), 0);
  EXPECT_EQ(m.exec_in_window(1, usec(100), usec(201)), usec(1));
  EXPECT_EQ(m.exec_in_window(1, usec(99), usec(200)), usec(1));
  // Window inside one segment.
  EXPECT_EQ(m.exec_in_window(1, usec(220), usec(280)), usec(60));
  // Window spanning all.
  EXPECT_EQ(m.exec_in_window(1, 0, usec(400)), usec(300));
  // Inverted / empty windows.
  EXPECT_EQ(m.exec_in_window(1, usec(300), usec(300)), 0);
  EXPECT_EQ(m.exec_in_window(1, usec(400), usec(100)), 0);
}

TEST(Metrics, OutOfOrderSegmentRecordingStillSums) {
  // The Simulator emits segments in time order, but external callers may
  // not; the interval accumulator must re-sort and keep windowed sums
  // exact.
  Metrics m(2);
  m.record_segment({1, 0, usec(200), usec(50)});
  m.record_segment({1, 1, usec(0), usec(100)});
  m.record_segment({1, 0, usec(120), usec(30)});
  EXPECT_EQ(m.exec_in_window(1, 0, usec(300)), usec(180));
  EXPECT_EQ(m.exec_in_window(1, usec(50), usec(130)), usec(60));
  EXPECT_EQ(m.exec_in_window(1, usec(130), usec(210)), usec(30));
}

TEST(Metrics, ResidencyFraction) {
  Metrics m(4);
  m.record_run(1, 0, usec(300));
  m.record_run(1, 3, usec(100));
  EXPECT_DOUBLE_EQ(m.residency_fraction(1, [](CoreId c) { return c == 0; }), 0.75);
  EXPECT_DOUBLE_EQ(m.residency_fraction(1, [](CoreId c) { return c < 2; }), 0.75);
  EXPECT_DOUBLE_EQ(m.residency_fraction(1, [](CoreId) { return true; }), 1.0);
  EXPECT_DOUBLE_EQ(m.residency_fraction(7, [](CoreId) { return true; }), 0.0);
}

TEST(Metrics, SegmentsMatchRunTotals) {
  // Simulator-level consistency: segment sums equal record_run sums.
  Metrics m(2);
  m.record_run(1, 0, usec(120));
  m.record_segment({1, 0, 0, usec(120)});
  m.record_run(1, 1, usec(80));
  m.record_segment({1, 1, usec(120), usec(80)});
  EXPECT_EQ(m.exec_in_window(1, 0, sec(1)), m.total_exec(1));
}

TEST(Metrics, QueriesSeeEveryRecord) {
  // Callers always observe exact values at the query point.
  Metrics m(2);
  m.record_run(1, 0, usec(100));
  m.record_segment({1, 0, usec(0), usec(100)});
  EXPECT_EQ(m.total_exec(1), usec(100));
  m.record_segment({1, 1, usec(100), usec(50)});
  EXPECT_EQ(m.exec_in_window(1, 0, usec(150)), usec(150));
}

TEST(Metrics, InterleavedWindowQueryIsExact) {
  // A query placed between two records must see exactly the records made
  // before it, at full precision.
  Metrics m(2);
  m.record_segment({1, 0, usec(0), usec(10)});
  EXPECT_EQ(m.exec_in_window(1, 0, usec(100)), usec(10));
  m.record_segment({1, 0, usec(10), usec(10)});
  m.record_segment({1, 0, usec(30), usec(10)});
  EXPECT_EQ(m.exec_in_window(1, 0, usec(100)), usec(30));
  EXPECT_EQ(m.exec_in_window(1, usec(5), usec(35)), usec(20));
}

TEST(Metrics, OutOfOrderAfterQueryStaysSorted) {
  // An out-of-order segment arriving after earlier ones were queried must
  // sorted-insert into the accumulated intervals, and the cumulative sums
  // must stay exact on both sides of the insertion point.
  Metrics m(2);
  m.record_segment({1, 0, usec(100), usec(10)});
  m.record_segment({1, 0, usec(300), usec(10)});
  EXPECT_EQ(m.exec_in_window(1, 0, usec(400)), usec(20));
  m.record_segment({1, 1, usec(200), usec(10)});  // Belongs in the middle.
  EXPECT_EQ(m.exec_in_window(1, 0, usec(400)), usec(30));
  EXPECT_EQ(m.exec_in_window(1, usec(150), usec(250)), usec(10));
  EXPECT_EQ(m.exec_in_window(1, usec(250), usec(400)), usec(10));
  // And in-order appends after the sorted insert still work.
  m.record_segment({1, 0, usec(400), usec(10)});
  EXPECT_EQ(m.exec_in_window(1, 0, usec(500)), usec(40));
}

TEST(Metrics, AdjacentSameCoreSegmentsMergeExactly) {
  // Contiguous same-core segments merge into one interval; windowed sums
  // across the merged span must be indistinguishable from unmerged ones.
  Metrics m(2);
  m.record_segment({1, 0, usec(0), usec(50)});
  m.record_segment({1, 0, usec(50), usec(50)});
  m.record_segment({1, 1, usec(100), usec(50)});  // Core switch: no merge.
  EXPECT_EQ(m.exec_in_window(1, 0, usec(150)), usec(150));
  EXPECT_EQ(m.exec_in_window(1, usec(25), usec(75)), usec(50));
  EXPECT_EQ(m.exec_in_window(1, usec(75), usec(125)), usec(50));
  ASSERT_EQ(m.segments().size(), 3u);  // The raw log never merges.
}

TEST(Metrics, ResetDropsIntervalsAndAcceptsNewRecords) {
  // reset() must drop all intervals and leave the instance fully usable for
  // a fresh run.
  Metrics m(2);
  for (int i = 0; i < 5000; ++i)
    m.record_segment({1, i % 2, usec(i * 10), usec(5)});
  EXPECT_EQ(m.exec_in_window(1, 0, usec(100'000)), usec(25'000));
  m.reset();
  EXPECT_EQ(m.total_exec(1), 0);
  EXPECT_EQ(m.exec_in_window(1, 0, usec(100'000)), 0);
  EXPECT_EQ(m.segments().size(), 0u);
  // Reuse after reset: the rows rebuild from scratch.
  for (int i = 0; i < 5000; ++i)
    m.record_segment({2, i % 2, usec(i * 10), usec(5)});
  EXPECT_EQ(m.exec_in_window(2, 0, usec(100'000)), usec(25'000));
  EXPECT_EQ(m.exec_in_window(1, 0, usec(100'000)), 0);
}

/// Random non-overlapping segments for `kTasks` tasks on `kCores` cores,
/// with gaps, exactly-adjacent same-core runs and adjacent core switches,
/// and queries interleaved between records. Every answer must equal the
/// brute-force sum over segments() as they stand at the query point.
class WindowIndexRig {
 public:
  static constexpr int kTasks = 4;
  static constexpr int kCores = 3;

  explicit WindowIndexRig(std::uint64_t seed) : rng_(seed) {
    cursor_.assign(kTasks, 0);
    core_.assign(kTasks, 0);
  }

  /// Pick a task and append its next segment; returns that segment.
  RunSegment record(Metrics& m) {
    const auto t = static_cast<std::size_t>(draw(kTasks));
    switch (draw(3)) {
      case 0:  // Same core, exactly adjacent: merges in the index.
        break;
      case 1:  // Adjacent, on a different core: never merges.
        core_[t] =
            static_cast<CoreId>((core_[t] + 1 + draw(kCores - 1)) % kCores);
        break;
      default:  // A gap on the same core.
        cursor_[t] += usec(1 + draw(50));
        break;
    }
    const RunSegment seg{static_cast<TaskId>(t), core_[t], cursor_[t],
                         usec(1 + draw(40))};
    cursor_[t] += seg.dur;
    m.record_segment(seg);
    return seg;
  }

  /// Run a few random queries (including empty/inverted windows and a
  /// task never recorded) and compare each with the brute-force sum.
  void check_queries(const Metrics& m, int queries) {
    const SimTime horizon =
        *std::max_element(cursor_.begin(), cursor_.end()) + usec(10);
    for (int q = 0; q < queries; ++q) {
      // Task kTasks never runs.
      const auto task = static_cast<TaskId>(draw(kTasks + 1));
      const SimTime from = draw(horizon);
      const SimTime to = draw(horizon);
      ASSERT_EQ(m.exec_in_window(task, from, to),
                from < to ? brute_exec_in_window(m, task, from, to) : 0)
          << "task " << task << " [" << from << ", " << to << ")";
    }
  }

  /// Leave a hole at the start of task 0's timeline so a later record can
  /// land before segments already indexed.
  void open_hole(SimTime width) { cursor_[0] += width; }

 private:
  std::int64_t draw(std::int64_t n) {
    return static_cast<std::int64_t>(rng_() % static_cast<std::uint64_t>(n));
  }

  std::mt19937_64 rng_;
  std::vector<SimTime> cursor_;
  std::vector<CoreId> core_;
};

TEST(Metrics, WindowIndexMatchesBruteForceWithInterleavedQueries) {
  Metrics m(WindowIndexRig::kCores);
  WindowIndexRig rig(20261017);
  rig.open_hole(usec(1000));
  for (int i = 0; i < 400; ++i) {
    rig.record(m);
    if (i % 7 == 0) rig.check_queries(m, 5);
    if (i == 200) {
      // The one out-of-order record: inside task 0's leading hole, after
      // its later segments have been indexed by the queries above.
      m.record_segment({0, 2, usec(300), usec(400)});
      rig.check_queries(m, 20);
    }
  }
  rig.check_queries(m, 200);
}

TEST(Metrics, WindowIndexRebuildsAfterResetMidRun) {
  Metrics m(WindowIndexRig::kCores);
  WindowIndexRig first(7919);
  for (int i = 0; i < 150; ++i) {
    first.record(m);
    if (i % 10 == 0) first.check_queries(m, 5);
  }
  // Records made after the last query are still unindexed at reset time.
  for (int i = 0; i < 20; ++i) first.record(m);
  m.reset();
  for (TaskId t = 0; t <= WindowIndexRig::kTasks; ++t)
    EXPECT_EQ(m.exec_in_window(t, 0, sec(1)), 0);
  WindowIndexRig second(1);
  for (int i = 0; i < 150; ++i) {
    second.record(m);
    if (i % 10 == 0) second.check_queries(m, 5);
  }
  second.check_queries(m, 100);
}

TEST(Metrics, WindowIndexMatchesBruteForceOnRotationRun) {
  // The inspect_rotation example's run: 3 threads x 2 s of work on 2 cores
  // under speed balancing. Every 100 ms window of every thread must match
  // the brute-force sum over the recorded segments.
  Simulator sim(presets::generic(2), {}, 42);
  LinuxLoadBalancer lb;
  lb.attach(sim);
  SpmdApp app(sim, workload::uniform_app(3, 1, 2e6));
  app.launch(SpmdApp::Placement::LinuxFork, workload::first_cores(2));
  SpeedBalancer sb({}, app.threads(), workload::first_cores(2));
  sb.attach(sim);
  sim.run_while_pending([&] { return app.finished(); }, sec(60));
  ASSERT_TRUE(app.finished());

  const Metrics& m = sim.metrics();
  const SimTime wall = app.elapsed();
  ASSERT_GT(wall, sec(2));
  for (const Task* t : app.threads()) {
    SimTime summed = 0;
    for (SimTime w = 0; w < sim.now(); w += msec(100)) {
      const SimTime exec = m.exec_in_window(t->id(), w, w + msec(100));
      ASSERT_EQ(exec, brute_exec_in_window(m, t->id(), w, w + msec(100)))
          << t->name() << " window at " << w;
      summed += exec;
    }
    EXPECT_EQ(summed, m.total_exec(t->id())) << t->name();
  }
}

TEST(Metrics, ManyRecordsAreLossless) {
  // Tens of thousands of records must never drop or double count one.
  Metrics m(2);
  constexpr int kN = 20'000;
  for (int i = 0; i < kN; ++i) m.record_run(1, i % 2, usec(1));
  EXPECT_EQ(m.total_exec(1), usec(kN));
  EXPECT_EQ(m.exec_by_core(1)[0], usec(kN / 2));
  EXPECT_EQ(m.exec_by_core(1)[1], usec(kN / 2));
}

TEST(Metrics, CauseNames) {
  EXPECT_STREQ(to_string(MigrationCause::SpeedBalancer), "speed");
  EXPECT_STREQ(to_string(MigrationCause::LinuxNewIdle), "linux-newidle");
  EXPECT_STREQ(to_string(MigrationCause::Dwrr), "dwrr");
  EXPECT_STREQ(to_string(MigrationCause::Ule), "ule");
}

}  // namespace
}  // namespace speedbal
