#include "check/config.hpp"

#include <algorithm>

#include "topo/presets.hpp"
#include "workload/generator.hpp"

namespace speedbal::check {

namespace {

/// The machine and its stack knobs, lowered the same way on every tier.
/// The SHARE knobs bind in every mode (the policy field decides whether a
/// ShareBalancer is actually built); the epoch reuses the speed balancer's
/// interval so a shrink step that shortens one shortens both.
void lower_stack(const FuzzScenario& sc, PolicyStackParams& p) {
  p.topo = presets::by_name(sc.topo);
  p.cores = sc.cores;
  p.policy = sc.policy;
  p.speed.interval = sc.balance_interval;
  p.speed.threshold = sc.threshold;
  p.adaptive.enabled = sc.adaptive;
  p.share.source = sc.share_count ? hetero::ShareParams::Source::Count
                                  : hetero::ShareParams::Source::Speed;
  p.share.interval = sc.balance_interval;
  p.share.min_share = sc.min_share;
  p.share.hysteresis = sc.share_hysteresis;
}

/// The serving block of a serve or cluster episode: `machines` machines of
/// the scenario's shape share its utilization.
void lower_serving(const FuzzScenario& sc, serve::ServingParams& p,
                   int machines) {
  lower_stack(sc, p);
  p.serve.workers = sc.workers;
  p.serve.idle =
      sc.serve_busy_poll ? serve::IdleMode::Yield : serve::IdleMode::Sleep;
  p.arrival.kind = sc.arrival;
  p.arrival.rate_rps =
      static_cast<double>(machines) *
      serve::rate_for_utilization(p.topo, sc.cores, sc.utilization,
                                  sc.mean_service_us);
  p.service.kind = sc.service;
  p.service.mean_us = sc.mean_service_us;
  p.duration = sc.duration;
  p.warmup = std::min(msec(100), sc.duration / 4);
  p.seed = sc.seed;
}

}  // namespace

ExperimentConfig spmd_experiment(const FuzzScenario& sc) {
  ExperimentConfig cfg;
  lower_stack(sc, cfg);
  BarrierConfig barrier;
  barrier.policy = sc.barrier;
  cfg.app = workload::uniform_app(sc.threads, sc.phases, sc.work_per_phase_us,
                                  barrier);
  cfg.app.work_jitter = sc.work_jitter;
  cfg.repeats = 1;
  cfg.jobs = 1;
  cfg.seed = sc.seed;
  cfg.time_cap = sec(600);
  for (const perturb::PerturbEvent& ev : sc.perturb) cfg.perturb.add(ev);
  return cfg;
}

serve::ServeConfig serve_experiment(const FuzzScenario& sc) {
  serve::ServeConfig cfg;
  lower_serving(sc, cfg, /*machines=*/1);
  // SHARE only reaches the request stream through dispatch weights, so a
  // SHARE serve episode exercises the weighted dispatcher (the SERVE-SHARE
  // default); other policies keep the generated default.
  if (sc.policy == Policy::Share)
    cfg.serve.dispatch = serve::DispatchPolicy::Weighted;
  for (const perturb::PerturbEvent& ev : sc.perturb) cfg.perturb.add(ev);
  return cfg;
}

cluster::ClusterConfig cluster_experiment(const FuzzScenario& sc) {
  cluster::ClusterConfig cfg;
  lower_serving(sc, cfg, sc.nodes);
  cfg.nodes = sc.nodes;
  cfg.dispatch = sc.cluster_dispatch;
  cfg.jsq_d = sc.jsq_d;
  cfg.hop = static_cast<SimTime>(sc.hop_us);
  cfg.rebalance.enabled = sc.cluster_rebalance;
  cfg.rebalance.epoch = msec(50);
  if (!sc.perturb.empty()) {
    perturb::PerturbTimeline timeline;
    for (const perturb::PerturbEvent& ev : sc.perturb) timeline.add(ev);
    cfg.node_perturb[sc.perturb_node] = std::move(timeline);
  }
  return cfg;
}

}  // namespace speedbal::check
