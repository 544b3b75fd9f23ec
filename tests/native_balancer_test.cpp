#include "native/speed_balancer.hpp"

#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/recorder.hpp"
#include "util/json.hpp"

namespace speedbal::native {
namespace {

namespace fs = std::filesystem;

std::string stat_line(pid_t tid, long utime, int cpu) {
  std::string line = std::to_string(tid) + " (w) R";
  for (int i = 0; i < 10; ++i) line += " 0";
  line += " " + std::to_string(utime) + " 0";
  for (int i = 0; i < 23; ++i) line += " 0";
  line += " " + std::to_string(cpu);
  for (int i = 0; i < 5; ++i) line += " 0";
  return line;
}

/// Synthetic /proc tree driving the balancer's measurement logic with
/// controlled utime deltas. Tids are chosen to be (almost certainly)
/// nonexistent so sched_setaffinity attempts fail harmlessly.
class FakeProc {
 public:
  FakeProc() {
    root_ = fs::temp_directory_path() /
            ("speedbal_bal_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
    fs::create_directories(root_);
  }
  ~FakeProc() { fs::remove_all(root_); }

  void set_thread(pid_t pid, pid_t tid, long utime, int cpu) {
    const fs::path dir = root_ / std::to_string(pid) / "task" / std::to_string(tid);
    fs::create_directories(dir);
    std::ofstream(dir / "stat") << stat_line(tid, utime, cpu) << "\n";
  }

  void remove(pid_t pid) { fs::remove_all(root_ / std::to_string(pid)); }

  std::string root() const { return root_.string(); }

 private:
  fs::path root_;
  static int counter_;
};
int FakeProc::counter_ = 0;

SysTopology two_cpu_topology() {
  SysTopology topo;
  for (int i = 0; i < 2; ++i) {
    SysCpu cpu;
    cpu.cpu = i;
    cpu.package_id = 0;
    cpu.numa_node = 0;
    cpu.thread_siblings = CpuSet::single(i);
    cpu.cache_siblings = CpuSet::of({0, 1});
    topo.cpus.push_back(cpu);
  }
  return topo;
}

constexpr pid_t kPid = 3999900;
constexpr pid_t kTidA = 3999901;
constexpr pid_t kTidB = 3999902;

bool improbable_pids_free() {
  return ::kill(kPid, 0) != 0 && ::kill(kTidA, 0) != 0 && ::kill(kTidB, 0) != 0;
}

NativeBalancerConfig test_config() {
  NativeBalancerConfig config;
  config.cores = CpuSet::of({0, 1});
  config.initial_round_robin = false;  // Tids are fake; do not pin.
  config.interval = std::chrono::milliseconds(1);
  return config;
}

TEST(NativeSpeedBalancer, MeasuresPerCoreSpeeds) {
  if (!improbable_pids_free()) GTEST_SKIP();
  FakeProc proc;
  const long hz = Procfs::ticks_per_second();
  proc.set_thread(kPid, kTidA, 0, 0);
  proc.set_thread(kPid, kTidB, 0, 1);
  NativeSpeedBalancer balancer(kPid, test_config(), Procfs(proc.root()),
                               two_cpu_topology());
  EXPECT_EQ(balancer.step(), 0);  // First pass: snapshot only.

  // Thread A consumed far more CPU than wall time (clamped to 1.0); thread
  // B consumed none.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  proc.set_thread(kPid, kTidA, 100 * hz, 0);
  proc.set_thread(kPid, kTidB, 0, 1);
  balancer.step();
  ASSERT_EQ(balancer.core_speeds().size(), 2u);
  EXPECT_NEAR(balancer.core_speeds().at(0), 1.0, 1e-9);
  EXPECT_NEAR(balancer.core_speeds().at(1), 0.0, 1e-9);
  EXPECT_NEAR(balancer.global_speed(), 0.5, 1e-9);
}

TEST(NativeSpeedBalancer, EmptyCoreReportsFullSpeed) {
  if (!improbable_pids_free()) GTEST_SKIP();
  FakeProc proc;
  proc.set_thread(kPid, kTidA, 0, 0);  // Both threads on CPU 0.
  proc.set_thread(kPid, kTidB, 0, 0);
  NativeSpeedBalancer balancer(kPid, test_config(), Procfs(proc.root()),
                               two_cpu_topology());
  balancer.step();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  const long hz = Procfs::ticks_per_second();
  proc.set_thread(kPid, kTidA, hz, 0);
  proc.set_thread(kPid, kTidB, hz, 0);
  balancer.step();
  // CPU 1 hosts no threads: attractive at full nominal speed.
  EXPECT_NEAR(balancer.core_speeds().at(1), 1.0, 1e-9);
}

TEST(NativeSpeedBalancer, ReportsTargetExit) {
  if (!improbable_pids_free()) GTEST_SKIP();
  FakeProc proc;
  proc.set_thread(kPid, kTidA, 0, 0);
  NativeSpeedBalancer balancer(kPid, test_config(), Procfs(proc.root()),
                               two_cpu_topology());
  EXPECT_EQ(balancer.step(), 0);
  proc.remove(kPid);
  EXPECT_EQ(balancer.step(), -1);
}

TEST(NativeSpeedBalancer, MigrationAttemptOnFakeTidsFailsSafely) {
  if (!improbable_pids_free()) GTEST_SKIP();
  FakeProc proc;
  const long hz = Procfs::ticks_per_second();
  proc.set_thread(kPid, kTidA, 0, 0);
  proc.set_thread(kPid, kTidB, 0, 1);
  NativeSpeedBalancer balancer(kPid, test_config(), Procfs(proc.root()),
                               two_cpu_topology());
  balancer.step();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  proc.set_thread(kPid, kTidA, 100 * hz, 0);  // CPU0 fast, CPU1 slow.
  proc.set_thread(kPid, kTidB, 0, 1);
  // A pull from CPU 1 is warranted, but sched_setaffinity on a fake tid
  // fails; the balancer must carry on without counting a migration.
  EXPECT_EQ(balancer.step(), 0);
  EXPECT_EQ(balancer.migrations(), 0);
}

// Pass-ending reasons: every per-core pass leaves exactly one of these.
// Candidate- and victim-level rejections do not end a pass; CoreOffline ends
// one only for the local core (no source) or a failed pull (a victim).
bool terminal(const obs::DecisionRecord& d) {
  switch (d.reason) {
    case obs::PullReason::AboveThreshold:
    case obs::PullReason::MigrationBlocked:
    case obs::PullReason::NumaBlocked:
    case obs::PullReason::DomainBlocked:
    case obs::PullReason::HotPotato:
      return false;
    case obs::PullReason::CoreOffline:
      return d.source < 0 || d.victim >= 0;
    default:
      return true;
  }
}

TEST(NativeSpeedBalancer, VanishedVictimStillEndsThePassWithARecord) {
  // CPU 0 fast, CPU 1 slow: local 0 picks source 1, but its fake tid makes
  // sched_setaffinity fail with ESRCH. The pass must still leave a record.
  if (!improbable_pids_free()) GTEST_SKIP();
  FakeProc proc;
  const long hz = Procfs::ticks_per_second();
  proc.set_thread(kPid, kTidA, 0, 0);
  proc.set_thread(kPid, kTidB, 0, 1);
  NativeSpeedBalancer balancer(kPid, test_config(), Procfs(proc.root()),
                               two_cpu_topology());
  obs::RunRecorder rec;
  balancer.set_recorder(&rec);
  balancer.step();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  proc.set_thread(kPid, kTidA, 100 * hz, 0);
  proc.set_thread(kPid, kTidB, 0, 1);
  EXPECT_EQ(balancer.step(), 0);

  std::map<int, std::vector<obs::DecisionRecord>> ends;
  for (const auto& d : rec.decisions().snapshot())
    if (terminal(d)) ends[d.local].push_back(d);
  ASSERT_EQ(ends[0].size(), 1u);
  ASSERT_EQ(ends[1].size(), 1u);
  EXPECT_EQ(ends[0][0].reason, obs::PullReason::NoVictim);
  EXPECT_EQ(ends[0][0].source, 1);
  EXPECT_EQ(ends[1][0].reason, obs::PullReason::BelowAverage);
}

TEST(NativeSpeedBalancer, RecorderCapturesTimelineAndDecisions) {
  if (!improbable_pids_free()) GTEST_SKIP();
  FakeProc proc;
  const long hz = Procfs::ticks_per_second();
  proc.set_thread(kPid, kTidA, 0, 0);
  proc.set_thread(kPid, kTidB, 0, 1);
  NativeSpeedBalancer balancer(kPid, test_config(), Procfs(proc.root()),
                               two_cpu_topology());
  obs::RunRecorder rec;
  balancer.set_recorder(&rec);
  balancer.step();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  proc.set_thread(kPid, kTidA, 100 * hz, 0);  // CPU0 fast, CPU1 slow.
  proc.set_thread(kPid, kTidB, 0, 1);
  balancer.step();

  // Every step after the first snapshot records one speed sample from the
  // centralized sweep, and the imbalance produces decision-log entries.
  EXPECT_GE(rec.timeline().size(), 1u);
  EXPECT_GT(rec.decisions().size(), 0u);
  const auto sample = rec.timeline().snapshot().back();
  EXPECT_EQ(sample.observer, -1);
  ASSERT_EQ(sample.core_speed.size(), 2u);
  EXPECT_NEAR(sample.core_speed[0], 1.0, 1e-9);

  // Both exports must be valid JSON with native data in them.
  std::ostringstream trace_os, report_os;
  rec.write_chrome_trace(trace_os);
  rec.write_report_json(report_os);
  const auto trace = JsonValue::parse(trace_os.str());
  EXPECT_GT(trace.at("traceEvents").size(), 0u);
  const auto report = JsonValue::parse(report_os.str());
  EXPECT_GE(report.at("global_speed").at("samples").as_int(), 1);
}

TEST(NativeSpeedBalancer, RecorderSafeAcrossThreads) {
  // TSan coverage: the balancer steps on a worker thread (as run() does)
  // while the main thread reads counters and snapshots, mirroring the CLI
  // exporting after join. All synchronization lives inside the recorder.
  if (!improbable_pids_free()) GTEST_SKIP();
  FakeProc proc;
  const long hz = Procfs::ticks_per_second();
  proc.set_thread(kPid, kTidA, 0, 0);
  proc.set_thread(kPid, kTidB, 0, 1);
  NativeSpeedBalancer balancer(kPid, test_config(), Procfs(proc.root()),
                               two_cpu_topology());
  obs::RunRecorder rec;
  balancer.set_recorder(&rec);

  std::atomic<bool> done{false};
  std::thread worker([&] {
    for (int i = 0; i < 20; ++i) {
      proc.set_thread(kPid, kTidA, (i + 1) * 10 * hz, 0);
      proc.set_thread(kPid, kTidB, 0, 1);
      if (balancer.step() < 0) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    done.store(true);
  });
  std::size_t reads = 0;
  while (!done.load()) {
    (void)rec.counters();
    (void)rec.timeline().snapshot();
    (void)rec.decisions().counts();
    ++reads;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  worker.join();
  EXPECT_GT(reads, 0u);
  EXPECT_GE(rec.timeline().size(), 1u);
}

TEST(NativeSpeedBalancer, BalancesRealSelfWithoutCrashing) {
  // Smoke test on the live process: measurement over real /proc; with a
  // single online CPU no migration targets exist, which must be handled.
  NativeBalancerConfig config;
  config.interval = std::chrono::milliseconds(10);
  config.initial_round_robin = false;  // Do not disturb the test runner.
  NativeSpeedBalancer balancer(::getpid(), config);
  EXPECT_GE(balancer.step(), 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(balancer.step(), 0);
  EXPECT_FALSE(balancer.core_speeds().empty());
}

}  // namespace
}  // namespace speedbal::native
