// Table-driven tests of decide_pull, the Section 5 pull rule shared by the
// simulated and native speed balancers: every rejection reason it emits, in
// order, plus the T_s boundary, the shared-cache block, the hot-potato
// fallback, the lowest-id tie-break and sparse (native-style) core ids.

#include "balance/pull_rule.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace speedbal {
namespace {

using obs::PullReason;

struct Thread {
  int core = -1;
  std::int64_t id = -1;
  std::int64_t migrations = 0;
  std::int64_t reverse_pull_us = kNeverUs;
};

struct Logged {
  PullReason reason;
  int source;
  std::int64_t victim;
  bool operator==(const Logged&) const = default;
};

struct Case {
  std::string name{};
  int local = 0;
  std::vector<double> speed{};
  std::vector<std::uint8_t> present{};  // Empty: every core present.
  PullParams params{};
  std::int64_t now_us = 1000;
  std::vector<std::pair<int, std::int64_t>> involved{};  // (core, stamp).
  std::vector<std::pair<int, PullReason>> gate_rejects{};
  std::vector<int> shares_cache{};
  std::vector<Thread> threads{};
  std::vector<Logged> log{};
  // Expected pull; source -1 means no pull.
  int source = -1;
  std::int64_t victim = -1;
  bool tie_break = false;
};

struct Outcome {
  std::vector<Logged> log;
  std::optional<PullChoice> pick;
};

Outcome run(const Case& c) {
  std::vector<std::uint8_t> present = c.present;
  if (present.empty()) present.assign(c.speed.size(), 1);
  PullCooldown cooldown;
  cooldown.reset(c.speed.size());
  for (const auto& [core, at] : c.involved) cooldown.mark(core, core, at);

  const auto gate = [&](int core) -> Placement {
    for (const auto& [rejected, reason] : c.gate_rejects)
      if (rejected == core) return {reason};
    Placement p;
    for (const int s : c.shares_cache) p.shares_cache |= s == core;
    return p;
  };
  const auto threads_on = [&](int source, auto&& visit) {
    for (const Thread& t : c.threads)
      if (t.core == source) visit(PullThread{t.id, t.migrations, t.reverse_pull_us});
  };
  Outcome out;
  const auto log = [&](PullReason reason, int source, double, std::int64_t victim) {
    out.log.push_back({reason, source, victim});
  };
  const PullView view{c.local, c.speed, present,
                      global_speed(c.speed, present), c.now_us};
  out.pick = decide_pull(view, c.params, cooldown, gate, threads_on, log);
  return out;
}

PullParams params(double threshold = 0.9, std::int64_t block_us = 200,
                  double cache_scale = 1.0, std::int64_t guard_us = 0) {
  return PullParams{threshold, block_us, cache_scale, guard_us};
}

// Core 0 at full speed, core 1 at a quarter: global 0.625, 0.25/0.625 = 0.4.
const std::vector<double> kFastSlow = {1.0, 0.25};

std::vector<Case> cases() {
  return {
      {.name = "below average",
       .local = 1,
       .speed = kFastSlow,
       .params = params(),
       .log = {{PullReason::BelowAverage, -1, -1}}},
      {.name = "T_s boundary rejects s/global == T_s",
       .speed = {1.25, 0.75},
       .params = params(0.75),
       .threads = {{1, 10}},
       .log = {{PullReason::AboveThreshold, 1, -1},
               {PullReason::NoCandidate, -1, -1}}},
      {.name = "just under T_s pulls",
       .speed = {1.25, 0.75},
       .params = params(0.75 + 1e-9),
       .threads = {{1, 10}},
       .source = 1,
       .victim = 10},
      {.name = "gate reason logged per candidate",
       .speed = {1.0, 0.25, 0.25, 0.25},
       .params = params(),
       .gate_rejects = {{1, PullReason::NumaBlocked},
                        {2, PullReason::DomainBlocked},
                        {3, PullReason::CoreOffline}},
       .log = {{PullReason::NumaBlocked, 1, -1},
               {PullReason::DomainBlocked, 2, -1},
               {PullReason::CoreOffline, 3, -1},
               {PullReason::NoCandidate, -1, -1}}},
      {.name = "threshold is checked before the gate",
       .speed = {1.0, 1.0, 0.25},
       .params = params(),
       .gate_rejects = {{1, PullReason::NumaBlocked}, {2, PullReason::NumaBlocked}},
       .log = {{PullReason::AboveThreshold, 1, -1},
               {PullReason::NumaBlocked, 2, -1},
               {PullReason::NoCandidate, -1, -1}}},
      {.name = "blocked source",
       .speed = kFastSlow,
       .params = params(),
       .involved = {{1, 900}},
       .threads = {{1, 10}},
       .log = {{PullReason::MigrationBlocked, 1, -1},
               {PullReason::NoCandidate, -1, -1}}},
      {.name = "blocked local rejects every candidate",
       .speed = {1.0, 0.25, 0.25},
       .params = params(),
       .involved = {{0, 900}},
       .log = {{PullReason::MigrationBlocked, 1, -1},
               {PullReason::MigrationBlocked, 2, -1},
               {PullReason::NoCandidate, -1, -1}}},
      {.name = "block expires at exactly the window",
       .speed = kFastSlow,
       .params = params(),
       .involved = {{1, 800}},
       .threads = {{1, 10}},
       .source = 1,
       .victim = 10},
      {.name = "shared-cache pair uses the scaled block",
       .speed = {1.0, 0.25, 0.25},
       .params = params(0.9, 200, 0.5),
       .involved = {{1, 850}, {2, 850}},
       .shares_cache = {1},
       .threads = {{1, 11}, {2, 12}},
       .log = {{PullReason::MigrationBlocked, 2, -1}},
       .source = 1,
       .victim = 11},
      {.name = "slowest candidate wins, lowest id on a speed tie",
       .speed = {1.0, 0.3, 0.1, 0.1},
       .params = params(),
       .threads = {{1, 11}, {2, 12}, {3, 13}},
       .source = 2,
       .victim = 12},
      {.name = "no victim on the source",
       .speed = kFastSlow,
       .params = params(),
       .threads = {{0, 10}},
       .log = {{PullReason::NoVictim, 1, -1}}},
      {.name = "hot-potato skip falls back to the next victim",
       .speed = kFastSlow,
       .params = params(0.9, 200, 1.0, 300),
       .threads = {{1, 5, 0, 900}, {1, 7, 3}},
       .log = {{PullReason::HotPotato, 1, 5}},
       .source = 1,
       .victim = 7},
      {.name = "hot-potato guard expires",
       .speed = kFastSlow,
       .params = params(0.9, 200, 1.0, 300),
       .threads = {{1, 5, 0, 700}, {1, 7, 3}},
       .source = 1,
       .victim = 5},
      {.name = "guard 0 ignores reverse pulls",
       .speed = kFastSlow,
       .params = params(),
       .threads = {{1, 5, 0, 999}},
       .source = 1,
       .victim = 5},
      {.name = "only hot potatoes leaves no victim",
       .speed = kFastSlow,
       .params = params(0.9, 200, 1.0, 300),
       .threads = {{1, 5, 0, 900}},
       .log = {{PullReason::HotPotato, 1, 5}, {PullReason::NoVictim, 1, -1}}},
      {.name = "least-migrated victim",
       .speed = kFastSlow,
       .params = params(),
       .threads = {{1, 4, 2}, {1, 9, 1}, {1, 6, 3}},
       .source = 1,
       .victim = 9},
      {.name = "migration tie breaks to the lowest id",
       .speed = kFastSlow,
       .params = params(),
       .threads = {{1, 9, 1}, {1, 4, 1}, {1, 6, 2}},
       .source = 1,
       .victim = 4,
       .tie_break = true},
      {.name = "a tie above the minimum is no tie-break",
       .speed = kFastSlow,
       .params = params(),
       .threads = {{1, 9, 2}, {1, 4, 2}, {1, 6, 1}},
       .source = 1,
       .victim = 6},
      {.name = "sparse native-style core ids",
       .local = 4,
       .speed = {0.0, 0.2, 0.0, 0.0, 1.0, 0.0, 0.9, 0.0},
       .present = {0, 1, 0, 0, 1, 0, 1, 0},
       .params = params(),
       .threads = {{1, 3999902}, {1, 3999901}, {6, 3999903}},
       .log = {{PullReason::AboveThreshold, 6, -1}},
       .source = 1,
       .victim = 3999901,
       .tie_break = true},
  };
}

TEST(PullRule, Table) {
  for (const Case& c : cases()) {
    SCOPED_TRACE(c.name);
    const Outcome out = run(c);
    EXPECT_EQ(out.log, c.log);
    if (c.source < 0) {
      EXPECT_FALSE(out.pick.has_value());
      continue;
    }
    ASSERT_TRUE(out.pick.has_value());
    EXPECT_EQ(out.pick->source, c.source);
    EXPECT_EQ(out.pick->victim, c.victim);
    EXPECT_EQ(out.pick->tie_break, c.tie_break);
  }
}

TEST(PullRule, TableCoversEveryEmittedReason) {
  std::set<PullReason> seen;
  for (const Case& c : cases())
    for (const Logged& l : run(c).log) seen.insert(l.reason);
  for (const PullReason r :
       {PullReason::BelowAverage, PullReason::AboveThreshold,
        PullReason::NumaBlocked, PullReason::DomainBlocked,
        PullReason::CoreOffline, PullReason::MigrationBlocked,
        PullReason::NoCandidate, PullReason::HotPotato, PullReason::NoVictim})
    EXPECT_EQ(seen.count(r), 1u) << obs::to_string(r);
}

TEST(PullRule, GlobalSpeedAveragesPresentCores) {
  const std::vector<double> speed = {0.5, 9.0, 1.0, 0.0};
  const std::vector<std::uint8_t> present = {1, 0, 1, 1};
  EXPECT_DOUBLE_EQ(global_speed(speed, present), 0.5);
  const std::vector<std::uint8_t> none(speed.size(), 0);
  EXPECT_DOUBLE_EQ(global_speed(speed, none), 0.0);
}

TEST(PullRule, BelowThresholdNeedsAPositiveGlobal) {
  EXPECT_TRUE(below_threshold(0.4, 1.0, 0.9));
  EXPECT_FALSE(below_threshold(0.9, 1.0, 0.9));
  EXPECT_FALSE(below_threshold(0.0, 0.0, 0.9));
}

TEST(PullRule, CooldownStampsBothPartiesAndIgnoresUnknownCores) {
  PullCooldown cooldown;
  cooldown.reset(3);
  EXPECT_FALSE(cooldown.involved_within(0, 0, 100));
  cooldown.mark(0, 2, 50);
  EXPECT_TRUE(cooldown.involved_within(0, 149, 100));
  EXPECT_TRUE(cooldown.involved_within(2, 149, 100));
  EXPECT_FALSE(cooldown.involved_within(1, 149, 100));
  EXPECT_FALSE(cooldown.involved_within(0, 150, 100));
  EXPECT_FALSE(cooldown.involved_within(7, 149, 100));
}

}  // namespace
}  // namespace speedbal
