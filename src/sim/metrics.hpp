#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/recorder.hpp"
#include "sim/task.hpp"
#include "topo/topology.hpp"
#include "util/time.hpp"

namespace speedbal {

/// Why a migration happened; lets the experiments attribute migration
/// volume to each balancing mechanism.
enum class MigrationCause {
  ForkPlacement,    ///< Initial core choice at task start.
  WakePlacement,    ///< Idle-core selection when a sleeper wakes.
  Affinity,         ///< Explicit sched_setaffinity by a user-level balancer.
  LinuxPeriodic,    ///< Linux load balancer periodic pull.
  LinuxNewIdle,     ///< Linux new-idle balancing pull.
  LinuxPush,        ///< Linux migration-thread push to an idle core.
  SpeedBalancer,    ///< The paper's user-level speed balancer.
  Dwrr,             ///< DWRR round balancing steal.
  Ule,              ///< FreeBSD ULE push migration.
  Hotplug,          ///< Forced off an offlined core (perturbation drain).
};

/// Number of MigrationCause enumerators (dense, starting at 0).
inline constexpr std::size_t kNumMigrationCauses =
    static_cast<std::size_t>(MigrationCause::Hotplug) + 1;

const char* to_string(MigrationCause cause);
/// Inverse of to_string; returns Affinity for unrecognized strings.
MigrationCause parse_migration_cause(std::string_view s);

/// One recorded migration event.
struct MigrationRecord {
  SimTime time = 0;
  TaskId task = -1;
  CoreId from = -1;
  CoreId to = -1;
  MigrationCause cause = MigrationCause::Affinity;
};

/// One contiguous stretch of execution of a task on a core.
struct RunSegment {
  TaskId task = -1;
  CoreId core = -1;
  SimTime start = 0;
  SimTime dur = 0;
};

/// Run-wide observability: execution accounting per task per core, the
/// run-segment log, and the migration log. Collected unconditionally
/// (cheap); the property tests and figure harnesses read it back. The exec
/// table and the logs are written on every record; the per-task window
/// index behind `exec_in_window` is built from the segment log on the first
/// query after new records, so runs that never query it never pay for it.
class Metrics {
 public:
  explicit Metrics(int num_cores)
      : num_cores_(num_cores),
        empty_(static_cast<std::size_t>(num_cores), SimTime{0}) {
    cause_counts_.fill(0);
  }

  /// One contiguous execution stretch: the exec-table add and the segment
  /// append together. This is the Simulator's per-flush accounting call.
  void record_exec(TaskId task, CoreId core, SimTime start, SimTime dur) {
    record_run(task, core, dur);
    record_segment({task, core, start, dur});
  }

  /// Exec-table-only accounting (no segment); kept for callers that account
  /// execution without timestamps.
  void record_run(TaskId task, CoreId core, SimTime dur);

  /// Record a run segment with timestamps, without exec-table accounting
  /// (`record_exec` does both): one append to the segment log. Segment
  /// memory grows with accounting flushes, not context switches (perfbench
  /// sees ~0.92 segments per simulator event on cluster_dvfs and ~6.4 on
  /// spmd_npb); capture is always on because `segments()` feeds
  /// `export_run_to_recorder`. Segments of one task are expected in
  /// non-decreasing start order (they cannot overlap); an out-of-order one
  /// is tolerated and pays a sorted insert when the index catches up.
  void record_segment(const RunSegment& seg) { segments_.push_back(seg); }

  void record_migration(const MigrationRecord& rec);

  /// Attach an observability recorder: every subsequent migration is also
  /// appended to the recorder's telemetry buffer as a compact record (traced
  /// in batches at flush). Registers the MigrationCause names as the
  /// buffer's kind table. Null (the default) disables telemetry at the cost
  /// of one pointer test per migration.
  void set_recorder(obs::RunRecorder* rec);
  obs::RunRecorder* recorder() const { return recorder_; }

  const std::vector<RunSegment>& segments() const { return segments_; }

  /// Execution time of `task` within the window [from, to) (clipped).
  /// First indexes every segment recorded since the previous query
  /// (amortised O(1) per segment in start order), then answers in
  /// O(log segments-of-task) via the per-task interval accumulator. The
  /// query is `const` but updates that index, so one Metrics must not be
  /// queried from two threads at once.
  SimTime exec_in_window(TaskId task, SimTime from, SimTime to) const;

  /// Fraction of the task's execution spent on cores where `pred(core)`
  /// holds (e.g. "the fast queues" of the Section 4 analysis). Zero when
  /// the task never ran.
  double residency_fraction(TaskId task,
                            const std::function<bool(CoreId)>& pred) const;

  /// Total execution time of `task` on each core (indexed by CoreId).
  const std::vector<SimTime>& exec_by_core(TaskId task) const;
  SimTime total_exec(TaskId task) const;

  const std::vector<MigrationRecord>& migrations() const { return migrations_; }
  /// O(1): served from the running per-cause tally.
  std::int64_t migration_count(MigrationCause cause) const {
    return cause_counts_[static_cast<std::size_t>(cause)];
  }
  std::int64_t migration_count() const {
    return static_cast<std::int64_t>(migrations_.size());
  }
  /// Migration totals attributed to each cause that occurred at least once.
  /// Built from the running tally — does not rescan the migration log.
  std::map<MigrationCause, std::int64_t> migration_counts_by_cause() const;

  /// Clear all recorded state for reuse by another run.
  void reset();

  int num_cores() const { return num_cores_; }

 private:
  /// One run segment of a task, with the task's cumulative execution before
  /// this segment (`cum`), enabling O(log n) windowed sums.
  struct Interval {
    SimTime start = 0;
    SimTime dur = 0;
    SimTime cum = 0;
    SimTime end() const { return start + dur; }
  };

  /// Fold one segment into `intervals_`/`last_core_`.
  void index_segment(const RunSegment& seg) const;

  int num_cores_;
  /// Per-task per-core execution, indexed [task][core]; rows are allocated
  /// on a task's first run.
  std::vector<std::vector<SimTime>> exec_;
  std::vector<RunSegment> segments_;
  /// Per-task interval accumulator, indexed [task]; sorted by start, with
  /// exactly-adjacent same-core runs merged (exec_in_window is unaffected:
  /// contiguous intervals sum identically merged or split). Covers
  /// segments_[0, indexed_); exec_in_window indexes the rest first.
  mutable std::vector<std::vector<Interval>> intervals_;
  /// Core of the last interval per task, for the adjacent-merge check
  /// (intervals themselves don't store the core).
  mutable std::vector<std::int16_t> last_core_;
  mutable std::size_t indexed_ = 0;
  std::vector<MigrationRecord> migrations_;
  std::array<std::int64_t, kNumMigrationCauses> cause_counts_;
  /// Correctly-sized all-zero row returned for tasks that never ran, so
  /// callers may always index [core].
  std::vector<SimTime> empty_;
  obs::RunRecorder* recorder_ = nullptr;
};

/// Flush a finished run's metrics into the recorder: one bulk append of
/// compact run-segment records (the trace writer derives "run" spans from
/// them lazily) and "migrations.<cause>" aggregate counters. `node` tags the
/// segments with a cluster node id (-1 = single-machine run); node-tagged
/// segments render on per-node Chrome-trace tracks.
void export_run_to_recorder(const Metrics& metrics, obs::RunRecorder& rec,
                            int node = -1);

}  // namespace speedbal
