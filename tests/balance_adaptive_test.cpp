// Adaptive-controller tests: the prediction inputs (sample dispersion and
// the double-EWMA predictor) exercised as pure functions over forged sample
// streams, and the bandit state machine driven epoch-by-epoch through the
// observe_sample test hook — no simulator, so every assertion is about the
// controller itself, not the workload behind it.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "balance/adaptive.hpp"
#include "obs/recorder.hpp"
#include "obs/tuning_log.hpp"

namespace speedbal {
namespace {

using obs::SpeedSample;
using obs::TuningOutcome;
using obs::TuningRecord;

SpeedSample sample_at(std::int64_t ts_us, std::vector<double> speeds) {
  SpeedSample s;
  s.ts_us = ts_us;
  s.core_speed = std::move(speeds);
  return s;
}

// --- sample_dispersion: the per-pass imbalance statistic ---------------------

TEST(AdaptiveDispersion, UniformSpeedsCarryNoSignal) {
  EXPECT_DOUBLE_EQ(
      adapt::sample_dispersion(sample_at(0, {0.8, 0.8, 0.8, 0.8})), 0.0);
}

TEST(AdaptiveDispersion, MatchesHandComputedCoefficientOfVariation) {
  // speeds {1, 3}: mean 2, population stdev 1 -> CV 0.5.
  EXPECT_DOUBLE_EQ(adapt::sample_dispersion(sample_at(0, {1.0, 3.0})), 0.5);
  // speeds {1+e, 1-e}: CV is exactly e (the forged-ramp tests rely on this).
  EXPECT_NEAR(adapt::sample_dispersion(sample_at(0, {1.25, 0.75})), 0.25,
              1e-12);
}

TEST(AdaptiveDispersion, OfflineCoresAreExcludedNotAveragedIn) {
  // Speed <= 0 marks an offline / unmeasured core. Splicing any number of
  // them into the sample must leave the statistic over the live cores
  // untouched — an offlined core is a topology change, not an imbalance.
  const double live = adapt::sample_dispersion(sample_at(0, {1.0, 3.0}));
  EXPECT_DOUBLE_EQ(
      adapt::sample_dispersion(sample_at(0, {0.0, 1.0, 0.0, 3.0, -1.0})),
      live);
}

TEST(AdaptiveDispersion, FewerThanTwoLiveCoresYieldZero) {
  // No pair of live cores -> no imbalance signal, never NaN.
  EXPECT_DOUBLE_EQ(adapt::sample_dispersion(sample_at(0, {})), 0.0);
  EXPECT_DOUBLE_EQ(adapt::sample_dispersion(sample_at(0, {0.7})), 0.0);
  EXPECT_DOUBLE_EQ(adapt::sample_dispersion(sample_at(0, {0.7, 0.0, -2.0})),
                   0.0);
  EXPECT_DOUBLE_EQ(adapt::sample_dispersion(sample_at(0, {0.0, 0.0})), 0.0);
}

TEST(AdaptiveDispersion, ScaleInvariantAcrossForgedStreams) {
  // CV is scale-free: a DVFS step that slows *every* core equally is not
  // imbalance and must not move the statistic. Streams come from a fixed
  // arithmetic recurrence, so the test is deterministic without an RNG.
  double x = 0.37;
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> speeds;
    for (int c = 0; c < 8; ++c) {
      x = std::fmod(x * 997.0 + 0.123, 1.0);
      speeds.push_back(0.1 + x);
    }
    std::vector<double> scaled;
    for (const double v : speeds) scaled.push_back(v * 0.5);
    const double d = adapt::sample_dispersion(sample_at(0, speeds));
    EXPECT_GE(d, 0.0);
    EXPECT_NEAR(d, adapt::sample_dispersion(sample_at(0, scaled)), 1e-12);
  }
}

// --- Predictor: double-EWMA level + slope ------------------------------------

TEST(AdaptivePredictor, FirstObservationSetsLevelExactly) {
  adapt::Predictor p;
  EXPECT_FALSE(p.primed());
  p.observe(0.4);
  EXPECT_DOUBLE_EQ(p.level(), 0.4);
  EXPECT_DOUBLE_EQ(p.slope(), 0.0);  // One point carries no trend.
  EXPECT_FALSE(p.primed());
  p.observe(0.4);
  EXPECT_TRUE(p.primed());
}

TEST(AdaptivePredictor, ConstantStreamHasZeroSlopeAndFlatForecast) {
  adapt::Predictor p;
  for (int i = 0; i < 100; ++i) p.observe(0.25);
  EXPECT_NEAR(p.level(), 0.25, 1e-9);
  EXPECT_NEAR(p.slope(), 0.0, 1e-9);
  EXPECT_NEAR(p.forecast(5.0), 0.25, 1e-8);
}

TEST(AdaptivePredictor, RisingRampYieldsPositiveSlopeAndForecastLeadsLevel) {
  adapt::Predictor p;
  for (int i = 0; i < 50; ++i) p.observe(0.01 * i);
  EXPECT_GT(p.slope(), 0.0);
  EXPECT_GT(p.forecast(2.0), p.level());
}

TEST(AdaptivePredictor, StepDecayReversesTheSlopeSign) {
  adapt::Predictor p;
  for (int i = 0; i < 20; ++i) p.observe(0.4);
  for (int i = 0; i < 20; ++i) p.observe(0.1);
  EXPECT_LT(p.slope(), 0.0);
  EXPECT_LT(p.forecast(2.0), p.level());
}

TEST(AdaptivePredictor, GapInTheStreamCarriesStateAcross) {
  // A missed epoch is simply never observed (the controller closes epochs
  // on samples, not wall time). Dropping one element of a rising stream
  // must leave the predictor sane: level inside the observed envelope,
  // trend still recognized as rising.
  adapt::Predictor with_gap;
  const std::vector<double> xs = {0.10, 0.10, 0.12, 0.30, 0.32, 0.35};
  for (std::size_t i = 0; i < xs.size(); ++i)
    if (i != 3) with_gap.observe(xs[i]);
  EXPECT_GE(with_gap.level(), 0.10);
  EXPECT_LE(with_gap.level(), 0.35);
  EXPECT_GT(with_gap.slope(), 0.0);
  EXPECT_TRUE(with_gap.primed());
}

TEST(AdaptivePredictor, LevelStaysInsideTheObservedEnvelope) {
  // EWMA convexity: after every observation the level is a convex
  // combination of everything seen so far.
  adapt::Predictor p;
  double x = 0.81;
  double lo = 1.0, hi = 0.0;
  for (int i = 0; i < 200; ++i) {
    x = std::fmod(x * 613.0 + 0.271, 1.0);
    lo = std::min(lo, x);
    hi = std::max(hi, x);
    p.observe(x);
    EXPECT_GE(p.level(), lo - 1e-12);
    EXPECT_LE(p.level(), hi + 1e-12);
  }
}

// --- Controller: the bandit over the portfolio -------------------------------

AdaptiveParams controller_params() {
  AdaptiveParams p;
  p.enabled = true;
  p.samples_per_epoch = 1;  // One forged sample closes one epoch.
  p.min_dwell_epochs = 1;   // Tests that need the gate raise it themselves.
  return p;
}

/// Feed `n` epochs of the same per-core speeds, advancing `ts`.
void feed(AdaptiveSpeedBalancer& b, int n, const std::vector<double>& speeds,
          std::int64_t& ts) {
  for (int i = 0; i < n; ++i) {
    b.observe_sample(sample_at(ts, speeds));
    ts += 1000;
  }
}

TEST(AdaptiveController, BootstrapVisitsEveryArmThenSettles) {
  obs::RunRecorder rec;
  AdaptiveSpeedBalancer b(controller_params(), {}, {}, {});
  b.set_recorder(&rec);
  std::int64_t ts = 1000;
  feed(b, 12, {0.8, 0.8}, ts);  // Balanced: nothing to chase.

  const std::vector<TuningRecord> log = rec.tuning().snapshot();
  ASSERT_EQ(log.size(), 12u);
  // Epoch 1 scores arm 0 (the initial incumbent), then bootstrap walks the
  // unexplored arms 1, 2, 3 — one per epoch at dwell 1.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(log[static_cast<std::size_t>(i)].outcome,
              TuningOutcome::Bootstrap);
    EXPECT_EQ(log[static_cast<std::size_t>(i)].arm, i + 1);
    EXPECT_EQ(log[static_cast<std::size_t>(i)].prev_arm, i);
  }
  // All arms visited and indistinguishable (zero dispersion everywhere):
  // the bandit drifts home to the paper constants and stays.
  EXPECT_EQ(log[3].outcome, TuningOutcome::Switched);
  EXPECT_EQ(log[3].arm, 0);
  for (std::size_t i = 4; i < log.size(); ++i) {
    EXPECT_EQ(log[i].outcome, TuningOutcome::Kept);
    EXPECT_EQ(log[i].arm, 0);
  }
  EXPECT_EQ(b.current_arm(), 0);
  EXPECT_EQ(b.parameter_changes(), 4);
  EXPECT_EQ(b.epochs(), 12);
}

TEST(AdaptiveController, RecordsAreSelfDescribingAgainstThePortfolio) {
  // Every record's constant-set must be exactly the portfolio entry of its
  // arm — the property check_tuning_stability later verifies in the fuzzer.
  obs::RunRecorder rec;
  AdaptiveSpeedBalancer b(controller_params(), {}, {}, {});
  b.set_recorder(&rec);
  std::int64_t ts = 1000;
  feed(b, 8, {1.0, 0.6}, ts);
  const std::vector<TuningArm>& arms = b.portfolio();
  ASSERT_EQ(arms.size(), 4u);
  for (const TuningRecord& r : rec.tuning().snapshot()) {
    ASSERT_GE(r.arm, 0);
    ASSERT_LT(r.arm, static_cast<int>(arms.size()));
    const TuningArm& a = arms[static_cast<std::size_t>(r.arm)];
    EXPECT_EQ(r.interval_us, a.interval);
    EXPECT_DOUBLE_EQ(r.threshold, a.threshold);
    EXPECT_EQ(r.post_migration_block, a.post_migration_block);
    EXPECT_DOUBLE_EQ(r.cache_block_scale, a.shared_cache_block_scale);
  }
}

TEST(AdaptiveController, DwellGateSpacesEveryChange) {
  AdaptiveParams params = controller_params();
  params.min_dwell_epochs = 3;
  obs::RunRecorder rec;
  AdaptiveSpeedBalancer b(params, {}, {}, {});
  b.set_recorder(&rec);
  std::int64_t ts = 1000;
  feed(b, 14, {0.9, 0.9}, ts);

  std::int64_t last_change = -1;
  int changes = 0;
  for (const TuningRecord& r : rec.tuning().snapshot()) {
    if (r.arm == r.prev_arm) continue;
    if (last_change >= 0) {
      EXPECT_GE(r.epoch - last_change, 3);
    }
    last_change = r.epoch;
    ++changes;
  }
  // Bootstrap still reaches every arm (then drifts home), just three
  // epochs apart.
  EXPECT_EQ(changes, 4);
  EXPECT_EQ(b.parameter_changes(), 4);
}

TEST(AdaptiveController, ConvergesUnderAConstantPerturbation) {
  // A persistently imbalanced but *steady* machine (speeds {1.0, 0.5} every
  // pass, CV = 1/3): after bootstrap the rewards of all arms are equal, the
  // smoothed slope decays to zero (no anticipation re-trips), and hysteresis
  // pins the incumbent — the trajectory must stop changing, which is the
  // convergence half of the stability story (the fuzzer checks the dwell
  // half on live runs).
  obs::RunRecorder rec;
  AdaptiveSpeedBalancer b(controller_params(), {}, {}, {});
  b.set_recorder(&rec);
  std::int64_t ts = 1000;
  feed(b, 100, {1.0, 0.5}, ts);

  // Bootstrap plus the drift home to the paper constants; then converged.
  EXPECT_EQ(b.parameter_changes(), 4);
  EXPECT_EQ(b.current_arm(), 0);
  const std::vector<TuningRecord> log = rec.tuning().snapshot();
  ASSERT_EQ(log.size(), 100u);
  for (std::size_t i = 10; i < log.size(); ++i) {
    EXPECT_EQ(log[i].outcome, TuningOutcome::Kept);
    EXPECT_EQ(log[i].arm, 0);
  }
}

TEST(AdaptiveController, RisingDispersionTripsAnticipationToAggressiveArm) {
  obs::RunRecorder rec;
  AdaptiveSpeedBalancer b(controller_params(), {}, {}, {});
  b.set_recorder(&rec);
  std::int64_t ts = 1000;
  feed(b, 4, {1.0, 1.0}, ts);  // Quiet bootstrap; ends off the aggressive arm.
  ASSERT_NE(b.current_arm(), 1);

  // Ramp the imbalance: speeds {1+e, 1-e} have CV exactly e, so the forged
  // stream walks the dispersion 0.03, 0.06, ... 0.6 — a DVFS-ramp signature
  // (level high *and* still rising) the predictor must catch before it
  // plateaus.
  bool anticipated = false;
  for (int k = 1; k <= 20 && !anticipated; ++k) {
    const double e = 0.03 * k;
    b.observe_sample(sample_at(ts, {1.0 + e, 1.0 - e}));
    ts += 1000;
    const std::vector<TuningRecord> log = rec.tuning().snapshot();
    anticipated = log.back().outcome == TuningOutcome::Anticipated;
  }
  EXPECT_TRUE(anticipated) << "predictor never tripped on a 20-epoch ramp";
  EXPECT_EQ(b.current_arm(), 1);
  // The jump actually re-parameterized the wrapped balancer.
  EXPECT_EQ(b.inner().params().interval, b.portfolio()[1].interval);
  EXPECT_EQ(rec.tuning().count(TuningOutcome::Anticipated), 1);
}

TEST(AdaptiveController, AggressiveHoldPersistsUntilTheDisturbanceClears) {
  obs::RunRecorder rec;
  AdaptiveSpeedBalancer b(controller_params(), {}, {}, {});
  b.set_recorder(&rec);
  std::int64_t ts = 1000;
  feed(b, 5, {1.0, 1.0}, ts);  // Bootstrap + drift home to arm 0.
  ASSERT_EQ(b.current_arm(), 0);

  // Ramp until anticipation trips to the aggressive arm.
  for (int k = 1; k <= 20 && b.current_arm() != 1; ++k) {
    const double e = 0.03 * k;
    b.observe_sample(sample_at(ts, {1.0 + e, 1.0 - e}));
    ts += 1000;
  }
  ASSERT_EQ(b.current_arm(), 1);
  const std::int64_t changes_at_trip = b.parameter_changes();

  // A sustained disturbance (CV 0.4 every epoch): reward history would pull
  // the bandit off the aggressive arm — per-core dispersion is the same for
  // every arm under DVFS, so only churn shows up in the reward — but the
  // hold must pin it while the forecast stays above the trip level.
  feed(b, 20, {1.4, 0.6}, ts);
  EXPECT_EQ(b.current_arm(), 1);
  EXPECT_EQ(b.parameter_changes(), changes_at_trip);

  // Disturbance clears: the level decays below the trip threshold, the hold
  // releases, and the bandit returns to the paper constants.
  feed(b, 20, {1.0, 1.0}, ts);
  EXPECT_EQ(b.current_arm(), 0);
}

TEST(AdaptiveController, CongestionGatesTheAggressiveArm) {
  // A serving stack under deep queues (congestion EWMA above the gate) must
  // not jump to the aggressive arm no matter how hard dispersion ramps:
  // migrating busy-poll workers under backlog trades tail latency for
  // nothing.
  obs::RunRecorder rec;
  AdaptiveSpeedBalancer b(controller_params(), {}, {}, {});
  b.set_recorder(&rec);
  std::int64_t ts = 1000;
  feed(b, 5, {1.0, 1.0}, ts);
  for (int k = 1; k <= 30; ++k) {
    b.observe_congestion(5.0);  // Way above the 0.5 queued/worker gate.
    const double e = std::min(0.03 * k, 0.5);
    b.observe_sample(sample_at(ts, {1.0 + e, 1.0 - e}));
    ts += 1000;
  }
  EXPECT_EQ(rec.tuning().count(TuningOutcome::Anticipated), 0);
}

TEST(AdaptiveController, CongestionRetreatsToTheBaseArm) {
  // Queue pressure rising while the controller sits on an experimental arm
  // must pull it back to the base constants — freezing mid-experiment keeps
  // the very parameters that are building the backlog in force.
  obs::RunRecorder rec;
  AdaptiveSpeedBalancer b(controller_params(), {}, {}, {});
  b.set_recorder(&rec);
  std::int64_t ts = 1000;
  // One quiet epoch: bootstrap moves to arm 1.
  b.observe_sample(sample_at(ts, {1.0, 1.0}));
  ts += 1000;
  ASSERT_EQ(b.current_arm(), 1);
  // Backlog forms: the controller retreats home and parks (no further
  // bootstrap while congested).
  for (int k = 0; k < 10; ++k) {
    b.observe_congestion(3.0);
    b.observe_sample(sample_at(ts, {1.0, 1.0}));
    ts += 1000;
  }
  EXPECT_EQ(b.current_arm(), 0);
  const auto log = rec.tuning().snapshot();
  int retreats = 0;
  for (const TuningRecord& r : log)
    if (r.outcome == TuningOutcome::Switched && r.arm == 0 && r.prev_arm == 1)
      ++retreats;
  EXPECT_EQ(retreats, 1);
}

TEST(AdaptiveController, BootstrapVisitToTheAggressiveArmDoesNotStick) {
  // A stack whose *steady state* dispersion sits above the trip threshold
  // (oversubscribed serving runs at CV ~0.2 with nothing wrong) must not
  // let a bootstrap visit to the aggressive arm engage the hold: with no
  // disturbance forming (slope ~0), bootstrap finishes its round and the
  // bandit drifts home to the base constants.
  obs::RunRecorder rec;
  AdaptiveSpeedBalancer b(controller_params(), {}, {}, {});
  b.set_recorder(&rec);
  std::int64_t ts = 1000;
  feed(b, 40, {1.3, 0.7}, ts);  // CV 0.3 > trip threshold, every epoch.
  EXPECT_EQ(b.current_arm(), 0);
  EXPECT_EQ(rec.tuning().count(TuningOutcome::Anticipated), 0);
  EXPECT_EQ(rec.tuning().count(TuningOutcome::Bootstrap), 3);
}

TEST(AdaptiveController, CongestionDefersBootstrapExploration) {
  // Bootstrap must not experiment on a system under queue pressure: every
  // off-base arm visited while requests are backed up turns straight into
  // tail latency. Under sustained congestion the controller stays on the
  // base constants; once the backlog drains, exploration resumes.
  obs::RunRecorder rec;
  AdaptiveSpeedBalancer b(controller_params(), {}, {}, {});
  b.set_recorder(&rec);
  std::int64_t ts = 1000;
  for (int k = 0; k < 10; ++k) {
    b.observe_congestion(3.0);  // Above the 0.5 queued/worker gate.
    b.observe_sample(sample_at(ts, {1.0, 1.0}));
    ts += 1000;
  }
  EXPECT_EQ(b.current_arm(), 0);
  EXPECT_EQ(b.parameter_changes(), 0);
  EXPECT_EQ(rec.tuning().count(TuningOutcome::Bootstrap), 0);

  // Backlog drains (EWMA decays below the gate): bootstrap picks up where
  // it never started and visits the rest of the portfolio.
  for (int k = 0; k < 30; ++k) {
    b.observe_congestion(0.0);
    b.observe_sample(sample_at(ts, {1.0, 1.0}));
    ts += 1000;
  }
  EXPECT_EQ(rec.tuning().count(TuningOutcome::Bootstrap), 3);
}

TEST(AdaptiveController, RunsIdenticallyWithAndWithoutARecorder) {
  // The sampling-identity oracle depends on this: attaching observability
  // must not steer the controller.
  AdaptiveSpeedBalancer bare(controller_params(), {}, {}, {});
  obs::RunRecorder rec;
  AdaptiveSpeedBalancer recorded(controller_params(), {}, {}, {});
  recorded.set_recorder(&rec);
  std::int64_t ts_a = 1000, ts_b = 1000;
  for (int k = 0; k < 40; ++k) {
    const double e = 0.02 * (k % 13);
    bare.observe_sample(sample_at(ts_a, {1.0 + e, 1.0 - e}));
    recorded.observe_sample(sample_at(ts_b, {1.0 + e, 1.0 - e}));
    ts_a += 1000;
    ts_b += 1000;
    EXPECT_EQ(bare.current_arm(), recorded.current_arm());
  }
  EXPECT_EQ(bare.parameter_changes(), recorded.parameter_changes());
  EXPECT_EQ(bare.epochs(), recorded.epochs());
}

TEST(AdaptivePortfolio, ArmZeroIsTheConfiguredBase) {
  SpeedBalanceParams base;
  base.interval = msec(40);
  base.threshold = 0.85;
  base.post_migration_block = 5;
  base.shared_cache_block_scale = 0.75;
  const std::vector<TuningArm> arms = default_portfolio(base);
  ASSERT_EQ(arms.size(), 4u);
  EXPECT_EQ(arms[0].name, "paper");
  EXPECT_EQ(arms[0].interval, base.interval);
  EXPECT_DOUBLE_EQ(arms[0].threshold, base.threshold);
  EXPECT_EQ(arms[0].post_migration_block, base.post_migration_block);
  EXPECT_DOUBLE_EQ(arms[0].shared_cache_block_scale,
                   base.shared_cache_block_scale);
  // The aggressive arm is strictly faster-reacting than the base; the
  // conservative arm strictly slower.
  EXPECT_LT(arms[1].interval, base.interval);
  EXPECT_LE(arms[1].post_migration_block, base.post_migration_block);
  EXPECT_GT(arms[2].interval, base.interval);
}

}  // namespace
}  // namespace speedbal
