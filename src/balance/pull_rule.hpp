#pragma once

// The Section 5 pull rule, shared by the simulated SpeedBalancer and the
// native NativeSpeedBalancer. decide_pull is a pure step from one pass's
// speed observation to a pull decision: it takes no clock, simulator or
// syscall, and the callers keep measurement and migration on their side.
// Header-only and dependent on obs/decision_log.hpp alone, so the native
// library uses it without linking the simulator.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "obs/decision_log.hpp"

namespace speedbal {

/// "Never happened" stamp for the cooldown and hot-potato inputs.
inline constexpr std::int64_t kNeverUs = -1;

/// Rule constants; times in microseconds.
struct PullParams {
  double threshold = 0.9;  ///< T_s: pull only from s_k / s_global < T_s.
  std::int64_t block_us = 0;  ///< Post-migration block window.
  /// Block scale for a (local, source) pair that shares a cache.
  double shared_cache_block_scale = 1.0;
  /// A thread may not be pulled back along its last pull inside this
  /// window (hot-potato guard); 0 disables.
  std::int64_t hot_potato_guard_us = 0;
};

/// Per-core last-involved stamps, indexed by core id: both parties of a
/// migration sit out the block window so neither side's speed is stale.
class PullCooldown {
 public:
  void reset(std::size_t num_cores) { last_involved_.assign(num_cores, kNeverUs); }

  /// Stamp both parties of a migration performed at `now_us`.
  void mark(int local, int source, std::int64_t now_us) {
    last_involved_[static_cast<std::size_t>(local)] = now_us;
    last_involved_[static_cast<std::size_t>(source)] = now_us;
  }

  /// Whether `core` took part in a migration less than `window_us` ago.
  bool involved_within(int core, std::int64_t now_us,
                       std::int64_t window_us) const {
    const auto i = static_cast<std::size_t>(core);
    return i < last_involved_.size() && last_involved_[i] != kNeverUs &&
           now_us - last_involved_[i] < window_us;
  }

 private:
  std::vector<std::int64_t> last_involved_;
};

/// Global core speed: the mean over present cores, summed in ascending core
/// id order; 0 when no core is present.
inline double global_speed(std::span<const double> speed,
                           std::span<const std::uint8_t> present) {
  double sum = 0.0;
  int n = 0;
  for (std::size_t c = 0; c < speed.size(); ++c) {
    if (present[c] == 0) continue;
    sum += speed[c];
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

/// Whether a core at `speed` is slow enough to be a pull source.
inline bool below_threshold(double speed, double global, double threshold) {
  return global > 0.0 && speed / global < threshold;
}

/// One balancer pass's observation; speeds are indexed by core id.
struct PullView {
  int local = -1;
  std::span<const double> speed;
  std::span<const std::uint8_t> present;
  double global = 0.0;  ///< global_speed(speed, present); must be > 0.
  std::int64_t now_us = 0;
};

/// The caller's placement verdict on one candidate source core.
struct Placement {
  /// Set: the candidate is rejected for this reason (NUMA, domain level,
  /// quarantine).
  std::optional<obs::PullReason> rejected;
  /// The pair shares a cache, so its block scales by
  /// shared_cache_block_scale.
  bool shares_cache = false;
};

/// One managed thread on the chosen source core.
struct PullThread {
  std::int64_t id = -1;
  std::int64_t migrations = 0;
  /// When this thread's last pull moved it local -> source, the reverse of
  /// the pull under consideration; kNeverUs when it did not.
  std::int64_t reverse_pull_us = kNeverUs;
};

/// A pull the rule decided on; the caller performs (and logs) it.
struct PullChoice {
  int source = -1;
  std::int64_t victim = -1;
  /// The least-migrated pick was tied and fell back to the lowest id.
  bool tie_break = false;
};

/// Decide one pass for `view.local`. Pulls only if the local core is faster
/// than the global average, only from the slowest present core below T_s
/// that the gate admits and that is outside the (local, source) block
/// window, and takes that core's least-migrated thread, skipping threads
/// the hot-potato guard protects.
///
/// `gate(core) -> Placement`; `for_each_thread(source, visit)` calls
/// `visit(const PullThread&)` per managed thread on `source`;
/// `log(reason, source, source_speed, victim)` receives every rejection,
/// in this order: BelowAverage, then per candidate AboveThreshold, the
/// gate's reason, MigrationBlocked; then NoCandidate; then per thread
/// HotPotato; then NoVictim. Returns nullopt when no pull is due.
template <class Gate, class ForEachThread, class Log>
std::optional<PullChoice> decide_pull(const PullView& view,
                                      const PullParams& params,
                                      const PullCooldown& cooldown,
                                      Gate&& gate,
                                      ForEachThread&& for_each_thread,
                                      Log&& log) {
  using obs::PullReason;
  const int local = view.local;
  if (view.speed[static_cast<std::size_t>(local)] <= view.global) {
    log(PullReason::BelowAverage, -1, 0.0, -1);
    return std::nullopt;
  }

  // Pairs that share a cache may migrate more often (Section 5.2), so the
  // block is evaluated per (local, candidate) pair.
  const auto pair_blocked = [&](int c, bool shares_cache) {
    std::int64_t block = params.block_us;
    if (shares_cache)
      block = static_cast<std::int64_t>(static_cast<double>(block) *
                                        params.shared_cache_block_scale);
    return cooldown.involved_within(local, view.now_us, block) ||
           cooldown.involved_within(c, view.now_us, block);
  };

  PullChoice pick;
  double source_speed = std::numeric_limits<double>::max();
  for (int c = 0; c < static_cast<int>(view.speed.size()); ++c) {
    if (view.present[static_cast<std::size_t>(c)] == 0 || c == local) continue;
    const double s = view.speed[static_cast<std::size_t>(c)];
    if (!below_threshold(s, view.global, params.threshold)) {
      log(PullReason::AboveThreshold, c, s, -1);
      continue;
    }
    const Placement place = gate(c);
    if (place.rejected) {
      log(*place.rejected, c, s, -1);
      continue;
    }
    if (pair_blocked(c, place.shares_cache)) {
      log(PullReason::MigrationBlocked, c, s, -1);
      continue;
    }
    if (s < source_speed) {
      source_speed = s;
      pick.source = c;
    }
  }
  if (pick.source < 0) {
    log(PullReason::NoCandidate, -1, 0.0, -1);
    return std::nullopt;
  }

  // Least-migrated victim (avoids "hot-potato" threads that bounce between
  // queues); the guard makes that a hard rule for a thread this balancer
  // just pushed to the source.
  const auto ping_pong = [&](const PullThread& t) {
    return params.hot_potato_guard_us > 0 && t.reverse_pull_us != kNeverUs &&
           view.now_us - t.reverse_pull_us < params.hot_potato_guard_us;
  };
  bool found = false;
  std::int64_t victim_migrations = 0;
  int co_minimal = 0;  // Threads tied at the minimum migration count.
  for_each_thread(pick.source, [&](const PullThread& t) {
    if (ping_pong(t)) {
      log(PullReason::HotPotato, pick.source, source_speed, t.id);
      return;
    }
    if (!found || t.migrations < victim_migrations) {
      found = true;
      pick.victim = t.id;
      victim_migrations = t.migrations;
      co_minimal = 1;
    } else if (t.migrations == victim_migrations) {
      ++co_minimal;
      if (t.id < pick.victim) pick.victim = t.id;
    }
  });
  if (!found) {
    log(PullReason::NoVictim, pick.source, source_speed, -1);
    return std::nullopt;
  }
  pick.tie_break = co_minimal > 1;
  return pick;
}

}  // namespace speedbal
