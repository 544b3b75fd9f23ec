#include "native/speed_balancer.hpp"

#include <algorithm>
#include <cerrno>

#include "util/log.hpp"

namespace speedbal::native {

namespace {
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
}  // namespace

NativeSpeedBalancer::NativeSpeedBalancer(pid_t target,
                                         NativeBalancerConfig config,
                                         Procfs procfs, SysTopology topo)
    : target_(target),
      config_(std::move(config)),
      procfs_(std::move(procfs)),
      topo_(std::move(topo)),
      rng_(config_.seed) {
  procfs_.set_fault_injector(config_.fault_injector);
  if (config_.cores.empty()) {
    for (int c = 0; c < online_cpus() && c < 64; ++c) cores_.push_back(c);
  } else {
    cores_ = config_.cores.cpus();
  }
  const auto n = static_cast<std::size_t>(
      cores_.empty() ? 0 : *std::max_element(cores_.begin(), cores_.end()) + 1);
  speed_.assign(n, 0.0);
  present_.assign(n, 0);
  cooldown_.reset(n);
}

void NativeSpeedBalancer::set_recorder(obs::RunRecorder* rec) {
  recorder_ = rec;
  trace_origin_ = Clock::now();
  if (rec != nullptr) rec->timeline().set_cores(cores_);
}

std::map<int, double> NativeSpeedBalancer::core_speeds() const {
  std::map<int, double> out;
  for (const int c : cores_)
    if (present_[static_cast<std::size_t>(c)] != 0)
      out[c] = speed_[static_cast<std::size_t>(c)];
  return out;
}

std::vector<int> NativeSpeedBalancer::quarantined_cores() const {
  std::vector<int> out;
  for (const auto& [c, until] : dead_until_)
    if (pass_count_ < until) out.push_back(c);
  return out;
}

void NativeSpeedBalancer::pin_round_robin() {
  const auto tids = procfs_.tids(target_);
  std::size_t i = 0;
  for (pid_t tid : tids) {
    auto [it, inserted] = tids_.emplace(tid, TidState{});
    it->second.seen = true;
    if (inserted && config_.initial_round_robin) {
      const int err =
          set_affinity_errno(tid, CpuSet::single(cores_[i % cores_.size()]),
                             config_.affinity_retry, config_.fault_injector);
      if (err != 0 && err != ESRCH) ++affinity_failures_;
    }
    ++i;
  }
}

bool NativeSpeedBalancer::measure(std::map<pid_t, int>& thread_core) {
  const std::int64_t fails_before = procfs_.read_failures();
  const auto samples = procfs_.all_task_times(target_);
  const auto now = Clock::now();
  if (procfs_.read_failures() > fails_before) {
    // The sweep was incomplete (stat reads failed past the retry budget):
    // balancing on partial speeds would mistake unread threads for absent
    // ones. Skip the pass; last_ticks stay put so the next delta is exact.
    ++sample_failures_;
    return false;
  }
  if (samples.empty()) return false;

  const double hz = static_cast<double>(Procfs::ticks_per_second());
  const double wall = have_sample_ ? seconds_between(last_sample_, now) : 0.0;

  std::map<int, std::pair<double, int>> acc;  // core -> (speed sum, count).
  for (const auto& s : samples) {
    auto& st = tids_[s.tid];
    if (have_sample_ && wall > 0.0) {
      const double cpu_s = static_cast<double>(s.total_ticks() - st.last_ticks) / hz;
      const double speed = std::clamp(cpu_s / wall, 0.0, 1.0);
      thread_core[s.tid] = s.cpu;
      auto& [sum, count] = acc[s.cpu];
      sum += speed;
      ++count;
    }
    st.last_ticks = s.total_ticks();
  }
  last_sample_ = now;
  const bool ready = have_sample_;
  have_sample_ = true;
  if (!ready) return false;

  for (int c : cores_) {
    const auto it = acc.find(c);
    // An empty core offers full speed to anything migrated there.
    speed_[static_cast<std::size_t>(c)] =
        it == acc.end() || it->second.second == 0
            ? 1.0
            : it->second.first / it->second.second;
    present_[static_cast<std::size_t>(c)] = 1;
  }
  return true;
}

int NativeSpeedBalancer::step() {
  ++pass_count_;
  if (!procfs_.alive(target_)) return -1;
  const std::int64_t ts_us =
      recorder_ == nullptr
          ? 0
          : std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                  trace_origin_)
                .count();
  const auto log_sample_failed = [&] {
    if (recorder_ == nullptr) return;
    obs::DecisionRecord rec;
    rec.ts_us = ts_us;
    rec.reason = obs::PullReason::SampleFailed;
    recorder_->decisions().add(rec);
  };
  // A target that exited but has not been reaped yet keeps its /proc entry
  // as a zombie; treat an all-zombie (or thread-less) process as exited, or
  // the balancer would spin forever waiting for its own caller's waitpid.
  {
    const std::int64_t fails_before = procfs_.read_failures();
    const auto samples = procfs_.all_task_times(target_);
    if (procfs_.read_failures() > fails_before) {
      // Incomplete probe: do NOT mistake unreadable threads for a dead
      // target — skip the pass and try again next interval.
      ++sample_failures_;
      log_sample_failed();
      return 0;
    }
    bool any_live = false;
    for (const auto& s : samples)
      if (s.state != 'Z' && s.state != 'X') {
        any_live = true;
        break;
      }
    if (!any_live) return -1;
  }
  pin_round_robin();  // Pick up dynamically spawned threads.

  std::map<pid_t, int> thread_core;
  const std::int64_t sample_fails_before = sample_failures_;
  if (!measure(thread_core)) {
    if (sample_failures_ > sample_fails_before) log_sample_failed();
    return 0;
  }
  const double global = speedbal::global_speed(speed_, present_);
  global_speed_ = global;

  std::int64_t sample_seq = -1;
  if (recorder_ != nullptr) {
    obs::SpeedSample sample;
    sample.ts_us = ts_us;
    sample.observer = -1;  // Sequential sweep, not a per-core balancer.
    sample.global = global;
    for (const int c : cores_) {
      const double s = speed_[static_cast<std::size_t>(c)];
      sample.core_speed.push_back(s);
      int managed = 0;
      for (const auto& [tid, core] : thread_core) {
        (void)tid;
        if (core == c) ++managed;
      }
      sample.queue_len.push_back(managed);
      sample.below_threshold.push_back(below_threshold(s, global, config_.threshold));
    }
    sample_seq = recorder_->timeline().add(std::move(sample));
  }
  if (global <= 0.0) return 0;

  // Per-core balancer passes in random order (the distributed balancers of
  // the paper wake with random jitter; order is the only difference).
  std::vector<int> order = cores_;
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[rng_.uniform_u64(i)]);

  // Graceful degradation: a core whose pulls failed with EINVAL has been
  // hotplugged out from under us; quarantine it for a few passes instead of
  // hammering a dead destination every interval.
  const auto quarantined = [&](int c) {
    const auto it = dead_until_.find(c);
    return it != dead_until_.end() && pass_count_ < it->second;
  };
  const std::int64_t now_us =
      std::chrono::duration_cast<std::chrono::microseconds>(
          Clock::now().time_since_epoch())
          .count();
  const PullParams rule{
      config_.threshold,
      std::chrono::duration_cast<std::chrono::microseconds>(
          config_.post_migration_block * config_.interval)
          .count(),
      /*shared_cache_block_scale=*/1.0, /*hot_potato_guard_us=*/0};
  const auto threads_on = [&](int source, auto&& visit) {
    for (const auto& [tid, core] : thread_core)
      if (core == source) visit(PullThread{tid, tids_[tid].migrations});
  };

  int moved = 0;
  for (int local : order) {
    const auto log = [&](obs::PullReason reason, int source,
                         double source_speed, std::int64_t victim = -1,
                         bool tie_break = false) {
      if (recorder_ == nullptr) return;
      obs::DecisionRecord rec;
      rec.ts_us = ts_us;
      rec.local = local;
      rec.source = source;
      rec.victim = victim;
      rec.tie_break = tie_break;
      rec.local_speed = speed_[static_cast<std::size_t>(local)];
      rec.source_speed = source_speed;
      rec.global = global;
      rec.reason = reason;
      rec.sample_seq = sample_seq;
      recorder_->decisions().add(rec);
    };
    if (quarantined(local)) {
      log(obs::PullReason::CoreOffline, -1, 0.0);
      continue;
    }
    const auto gate = [&](int c) -> Placement {
      if (quarantined(c)) return {obs::PullReason::CoreOffline};
      if (config_.block_numa && c < topo_.num_cpus() &&
          local < topo_.num_cpus() && !topo_.same_numa(local, c))
        return {obs::PullReason::NumaBlocked};
      return {};
    };
    const std::optional<PullChoice> pick =
        decide_pull(PullView{local, speed_, present_, global, now_us}, rule,
                    cooldown_, gate, threads_on, log);
    if (!pick) continue;

    const int source = pick->source;
    const double source_speed = speed_[static_cast<std::size_t>(source)];
    const auto victim = static_cast<pid_t>(pick->victim);
    const int err = set_affinity_errno(victim, CpuSet::single(local),
                                       config_.affinity_retry,
                                       config_.fault_injector);
    if (err == ESRCH) {
      // The tid exited between sampling and the pull: not a failure, but
      // the pass still ends with nothing pulled.
      log(obs::PullReason::NoVictim, source, source_speed, victim);
      continue;
    }
    if (err == EINVAL) {
      // The destination core vanished (hotplug): every pull into it would
      // fail the same way, so quarantine it instead of retrying blindly.
      dead_until_[local] = pass_count_ + config_.dead_core_backoff_passes;
      ++affinity_failures_;
      log(obs::PullReason::CoreOffline, source, source_speed, victim);
      if (recorder_ != nullptr) recorder_->incr("affinity.einval");
      continue;
    }
    if (err != 0) {
      ++affinity_failures_;
      log(obs::PullReason::AffinityFailed, source, source_speed, victim);
      if (recorder_ != nullptr) recorder_->incr("affinity.failed");
      continue;
    }
    dead_until_.erase(local);  // A successful pull proves the core is back.
    ++tids_[victim].migrations;
    ++migrations_;
    ++moved;
    cooldown_.mark(local, source, now_us);
    thread_core[victim] = local;
    log(obs::PullReason::Pulled, source, source_speed, victim, pick->tie_break);
    if (recorder_ != nullptr) {
      recorder_->trace().instant(ts_us, local, "migration", "migrate",
                                 {{"tid", static_cast<double>(victim)},
                                  {"from", static_cast<double>(source)},
                                  {"to", static_cast<double>(local)}},
                                 {{"cause", "speed"}});
      recorder_->incr("migrations.speed");
    }
    SB_LOG(Debug) << "native speedbalancer: tid " << victim << " core "
                  << source << " -> " << local;
  }
  return moved;
}

void NativeSpeedBalancer::run() {
  std::this_thread::sleep_for(config_.startup_delay);
  pin_round_robin();
  while (!stopping_.load(std::memory_order_relaxed)) {
    const auto jitter = std::chrono::milliseconds(
        rng_.uniform_u64(static_cast<std::uint64_t>(config_.interval.count()) + 1));
    std::this_thread::sleep_for(config_.interval + jitter);
    if (step() < 0) break;  // Target exited.
  }
}

void NativeSpeedBalancer::start() {
  stopping_.store(false);
  worker_ = std::thread([this] { run(); });
}

void NativeSpeedBalancer::stop() {
  stopping_.store(true);
  if (worker_.joinable()) worker_.join();
}

}  // namespace speedbal::native
