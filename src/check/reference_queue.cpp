#include "check/reference_queue.hpp"

#include <map>
#include <vector>

#include "check/invariants.hpp"
#include "sim/event_queue.hpp"
#include "util/rng.hpp"

namespace speedbal::check {

void ReferenceEventQueue::schedule(int id, SimTime t) {
  by_id_[id] = pending_.insert({t, id});  // Equal keys: inserted last, fires last.
}

void ReferenceEventQueue::cancel(int id) {
  const auto it = by_id_.find(id);
  if (it == by_id_.end()) return;
  pending_.erase(it->second);
  by_id_.erase(it);
}

int ReferenceEventQueue::pop() {
  if (pending_.empty()) return -1;
  const auto it = pending_.begin();
  now_ = it->first;
  const int id = it->second;
  pending_.erase(it);
  by_id_.erase(id);
  return id;
}

namespace {

/// What a fired event does inside its handler: optionally schedule a child
/// (child_dt == 0 exercises schedule-at-the-current-timestamp during pop)
/// and optionally cancel another event, which by fire time may already have
/// executed — exercising cancel-of-a-stale-handle against recycled slots.
struct FirePlan {
  bool spawn_child = false;
  SimTime child_dt = 0;
  int cancel_id = -1;
};

struct Controller {
  EventQueue real;
  ReferenceEventQueue ref;
  std::map<int, EventHandle> handles;
  std::vector<FirePlan> plans;
  int next_id = 0;
  int last_fired = -1;

  int new_event(SimTime t, const FirePlan& plan) {
    const int id = next_id++;
    plans.push_back(plan);
    // The real handler mutates the REAL queue from inside run_next (that is
    // the scenario under test); the controller mirrors the same mutations
    // onto the reference queue after the pop returns.
    handles[id] = real.schedule(t, [this, id] { on_fire(id); });
    ref.schedule(id, t);
    return id;
  }

  void on_fire(int id) {
    last_fired = id;
    const FirePlan plan = plans[static_cast<std::size_t>(id)];
    if (plan.cancel_id >= 0) {
      const auto it = handles.find(plan.cancel_id);
      if (it != handles.end()) real.cancel(it->second);
    }
    if (plan.spawn_child) {
      const int child = next_id++;
      plans.push_back(FirePlan{});
      handles[child] = real.schedule(real.now() + plan.child_dt,
                                     [this, child] { on_fire(child); });
    }
  }
};

}  // namespace

int fuzz_event_queue(std::uint64_t seed, int ops,
                     std::vector<Violation>& violations) {
  Rng rng(seed);
  Controller ctl;
  int fired = 0;
  SimTime now = 0;

  const auto pop_both = [&]() -> bool {
    if (ctl.real.size() != ctl.ref.size()) {
      violations.push_back(Violation{
          "event-queue",
          "size disagrees after " + std::to_string(fired) + " pops: heap " +
              std::to_string(ctl.real.size()) + ", reference " +
              std::to_string(ctl.ref.size())});
      return false;
    }
    if (ctl.real.empty() != ctl.ref.empty()) {
      violations.push_back(Violation{
          "event-queue",
          "emptiness disagrees after " + std::to_string(fired) +
              " pops: heap " + std::string(ctl.real.empty() ? "empty" : "pending") +
              ", reference " + std::string(ctl.ref.empty() ? "empty" : "pending")});
      return false;
    }
    if (ctl.real.empty()) return false;
    ctl.last_fired = -1;
    ctl.real.run_next();
    const int want = ctl.ref.pop();
    const FirePlan plan = ctl.plans[static_cast<std::size_t>(want)];
    // Mirror the handler's mutations onto the reference queue. The child id
    // the real handler allocated is next_id - 1 (handlers allocate exactly
    // one id when they spawn); reconstruct the same id deterministically.
    if (plan.cancel_id >= 0) ctl.ref.cancel(plan.cancel_id);
    if (plan.spawn_child && ctl.last_fired == want)
      ctl.ref.schedule(ctl.next_id - 1, ctl.real.now() + plan.child_dt);
    ++fired;
    if (ctl.last_fired != want || ctl.real.now() != ctl.ref.now()) {
      violations.push_back(Violation{
          "event-queue",
          "pop " + std::to_string(fired) + ": heap fired id " +
              std::to_string(ctl.last_fired) + " at t=" +
              std::to_string(ctl.real.now()) + "us, reference expects id " +
              std::to_string(want) + " at t=" + std::to_string(ctl.ref.now()) +
              "us"});
      return false;
    }
    now = ctl.real.now();
    return true;
  };

  // Absolute times of recent far-future schedules, reused to land a second
  // event (scheduled from close by once time has advanced) on the exact
  // timestamp of a pending far event: the queue must keep (time, seq) order
  // between them.
  std::vector<SimTime> far_times;

  for (int i = 0; i < ops; ++i) {
    const double op = rng.uniform();
    if (op < 0.42) {
      // Schedule at now + dt; small dt range forces heavy same-time ties.
      FirePlan plan;
      if (rng.chance(0.30)) {
        plan.spawn_child = true;
        // Mostly immediate children; occasionally a far-future child,
        // scheduled from inside a pop.
        plan.child_dt = rng.chance(0.5)   ? 0
                        : rng.chance(0.1) ? rng.uniform_int(70'000, 400'000)
                                          : rng.uniform_int(0, 20);
      }
      if (ctl.next_id > 0 && rng.chance(0.25))
        plan.cancel_id = static_cast<int>(rng.uniform_int(0, ctl.next_id - 1));
      ctl.new_event(now + rng.uniform_int(0, 25), plan);
    } else if (op < 0.52) {
      // Far-future schedule, 70 ms to 2.5 s ahead.
      FirePlan plan;
      if (ctl.next_id > 0 && rng.chance(0.25))
        plan.cancel_id = static_cast<int>(rng.uniform_int(0, ctl.next_id - 1));
      const SimTime t = now + rng.uniform_int(70'000, 2'500'000);
      far_times.push_back(t);
      ctl.new_event(t, plan);
    } else if (op < 0.56) {
      // Re-hit a previously used far timestamp exactly: the earlier event
      // must still fire first (equal-time insertion order).
      if (far_times.empty()) continue;
      const SimTime t = far_times[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(far_times.size()) - 1))];
      if (t < now) continue;
      ctl.new_event(t, FirePlan{});
    } else if (op < 0.72) {
      // Cancel a random id: pending, fired, or already cancelled.
      if (ctl.next_id == 0) continue;
      const int id = static_cast<int>(rng.uniform_int(0, ctl.next_id - 1));
      const auto it = ctl.handles.find(id);
      if (it != ctl.handles.end()) ctl.real.cancel(it->second);
      ctl.ref.cancel(id);
    } else {
      if (!pop_both()) {
        if (!violations.empty()) return fired;
      }
    }
  }
  // Drain both queues completely.
  while (pop_both()) {
  }
  return fired;
}

}  // namespace speedbal::check
