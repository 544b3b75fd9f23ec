#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include "topo/presets.hpp"
#include "workload/generator.hpp"

namespace speedbal {
namespace {

ExperimentConfig small_config(Policy policy, int repeats = 3) {
  ExperimentConfig cfg;
  cfg.topo = presets::generic(2);
  cfg.app = workload::uniform_app(3, 2, 500'000.0);
  cfg.policy = policy;
  cfg.cores = 2;
  cfg.repeats = repeats;
  cfg.time_cap = sec(60);
  return cfg;
}

TEST(Experiment, RunsRequestedRepeats) {
  const auto result = run_experiment(small_config(Policy::Pinned, 4));
  EXPECT_EQ(result.runs.size(), 4u);
  EXPECT_TRUE(result.all_completed());
  EXPECT_EQ(result.runtime.count, 4u);
}

TEST(Experiment, PinnedThreeOverTwoTakesStaticTime) {
  // 3 threads x 1 s total on 2 cores, pinned: 2 threads share a core, so
  // the app runs at half speed: 2 s.
  const auto result = run_experiment(small_config(Policy::Pinned));
  EXPECT_NEAR(result.mean_runtime(), 2.0, 0.05);
}

TEST(Experiment, SpeedBeatsPinnedOnUnevenCount) {
  const auto pinned = run_experiment(small_config(Policy::Pinned));
  const auto speed = run_experiment(small_config(Policy::Speed));
  EXPECT_LT(speed.mean_runtime(), 0.92 * pinned.mean_runtime());
}

TEST(Experiment, DeterministicForSameSeed) {
  const auto a = run_experiment(small_config(Policy::Speed));
  const auto b = run_experiment(small_config(Policy::Speed));
  ASSERT_EQ(a.runs.size(), b.runs.size());
  for (std::size_t i = 0; i < a.runs.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.runs[i].runtime_s, b.runs[i].runtime_s);
    EXPECT_EQ(a.runs[i].total_migrations, b.runs[i].total_migrations);
  }
}

TEST(Experiment, SeedChangesOutcomeUnderLoad) {
  auto cfg = small_config(Policy::Load, 6);
  cfg.seed = 1;
  const auto a = run_experiment(cfg);
  cfg.seed = 2;
  const auto b = run_experiment(cfg);
  // LOAD placement is stochastic: at least one run differs across seeds.
  bool any_diff = false;
  for (std::size_t i = 0; i < a.runs.size(); ++i)
    any_diff |= a.runs[i].runtime_s != b.runs[i].runtime_s ||
                a.runs[i].total_migrations != b.runs[i].total_migrations;
  EXPECT_TRUE(any_diff);
}

TEST(Experiment, PolicyMigrationsAttributed) {
  const auto speed = run_experiment(small_config(Policy::Speed));
  for (const auto& run : speed.runs) EXPECT_GT(run.policy_migrations, 0);
  const auto pinned = run_experiment(small_config(Policy::Pinned));
  for (const auto& run : pinned.runs) EXPECT_EQ(run.policy_migrations, 0);
}

TEST(Experiment, TimeCapMarksIncomplete) {
  auto cfg = small_config(Policy::Pinned, 1);
  cfg.time_cap = msec(50);  // Far below the 2 s required.
  const auto result = run_experiment(cfg);
  EXPECT_FALSE(result.all_completed());
  EXPECT_FALSE(result.runs[0].completed);
}

TEST(Experiment, CpuHogInjection) {
  auto with = small_config(Policy::Pinned);
  with.cpu_hog = true;
  with.cpu_hog_core = 0;
  const auto hogged = run_experiment(with);
  const auto clean = run_experiment(small_config(Policy::Pinned));
  EXPECT_GT(hogged.mean_runtime(), 1.2 * clean.mean_runtime());
}

TEST(Experiment, DwrrAndUlePoliciesRun) {
  const auto dwrr = run_experiment(small_config(Policy::Dwrr));
  EXPECT_TRUE(dwrr.all_completed());
  const auto ule = run_experiment(small_config(Policy::Ule));
  EXPECT_TRUE(ule.all_completed());
  // DWRR enforces global fairness: it beats the static 2 s; ULE with the
  // default threshold behaves like static pinning (Section 2 / Fig. 3).
  EXPECT_LT(dwrr.mean_runtime(), 1.9);
  EXPECT_NEAR(ule.mean_runtime(), 2.0, 0.15);
}

TEST(Experiment, PolicyNames) {
  EXPECT_STREQ(to_string(Policy::Load), "LOAD");
  EXPECT_STREQ(to_string(Policy::Speed), "SPEED");
  EXPECT_STREQ(to_string(Policy::Pinned), "PINNED");
  EXPECT_STREQ(to_string(Policy::Dwrr), "DWRR");
  EXPECT_STREQ(to_string(Policy::Ule), "ULE");
}

TEST(Experiment, MeanMigrationsAggregates) {
  const auto result = run_experiment(small_config(Policy::Speed));
  EXPECT_GT(result.mean_migrations(), 0.0);
}

TEST(Experiment, DefaultsToLoadWithBatchSpeedParams) {
  ExperimentConfig cfg;
  EXPECT_EQ(cfg.policy, Policy::Load);
  EXPECT_FALSE(cfg.speed.demand_scaled);
  EXPECT_EQ(cfg.sim.load_snapshot_period, msec(10));
  EXPECT_EQ(cfg.sim_params().load_snapshot_period, msec(10));
  // ULE's fork placement reads live queue states (paper footnote 1); the
  // override applies to the run, not to the configured value.
  cfg.policy = Policy::Ule;
  EXPECT_EQ(cfg.sim_params().load_snapshot_period, 0);
  EXPECT_EQ(cfg.sim.load_snapshot_period, msec(10));
}

}  // namespace
}  // namespace speedbal
