// Cluster subsystem tests: pool dispatch policy, ServeRuntime migration
// hooks (drain/retire), the global rebalancer, conservation across nodes,
// and replica determinism.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/policy.hpp"
#include "perturb/timeline.hpp"
#include "serve/server.hpp"
#include "topo/presets.hpp"
#include "util/rng.hpp"

namespace speedbal::cluster {
namespace {

// --- pick_pool unit behaviour ------------------------------------------------

TEST(ClusterDispatchPolicy, RoundRobinCyclesOverPools) {
  std::vector<PoolLoad> pools(3);
  std::uint64_t cursor = 0;
  Rng rng(1);
  EXPECT_EQ(pick_pool(ClusterDispatch::RoundRobin, 2, pools, cursor, rng), 0);
  EXPECT_EQ(pick_pool(ClusterDispatch::RoundRobin, 2, pools, cursor, rng), 1);
  EXPECT_EQ(pick_pool(ClusterDispatch::RoundRobin, 2, pools, cursor, rng), 2);
  EXPECT_EQ(pick_pool(ClusterDispatch::RoundRobin, 2, pools, cursor, rng), 0);
}

TEST(ClusterDispatchPolicy, LeastLoadedPicksMinAndBreaksTiesLow) {
  std::vector<PoolLoad> pools(4);
  pools[0].assigned = 3;
  pools[1].assigned = 1;
  pools[2].assigned = 1;
  pools[3].assigned = 5;
  std::uint64_t cursor = 0;
  Rng rng(1);
  EXPECT_EQ(pick_pool(ClusterDispatch::LeastLoaded, 2, pools, cursor, rng), 1);
}

TEST(ClusterDispatchPolicy, JsqDWithDPastPoolCountDegradesToFullJsq) {
  // d far beyond the pool count must sample every pool, i.e. behave as
  // plain least-loaded, never fault or loop.
  std::vector<PoolLoad> pools(3);
  pools[0].assigned = 7;
  pools[1].assigned = 2;
  pools[2].assigned = 9;
  std::uint64_t cursor = 0;
  Rng rng(99);
  for (int i = 0; i < 20; ++i)
    EXPECT_EQ(pick_pool(ClusterDispatch::JsqD, 64, pools, cursor, rng), 1);
}

TEST(ClusterDispatchPolicy, JsqDDrawCountIndependentOfLoads) {
  // Two rngs, same seed, different load vectors: after one pick each, the
  // rngs must still agree (the draw count depends only on d and n, so the
  // dispatch stream stays aligned across replicas with different traffic).
  std::vector<PoolLoad> a(6);
  std::vector<PoolLoad> b(6);
  for (int i = 0; i < 6; ++i) b[static_cast<std::size_t>(i)].assigned = 10 - i;
  std::uint64_t ca = 0;
  std::uint64_t cb = 0;
  Rng ra(42);
  Rng rb(42);
  pick_pool(ClusterDispatch::JsqD, 3, a, ca, ra);
  pick_pool(ClusterDispatch::JsqD, 3, b, cb, rb);
  EXPECT_EQ(ra.uniform_u64(1u << 30), rb.uniform_u64(1u << 30));
}

TEST(ClusterDispatchPolicy, NamesRoundTrip) {
  for (ClusterDispatch d : {ClusterDispatch::RoundRobin,
                            ClusterDispatch::LeastLoaded,
                            ClusterDispatch::JsqD})
    EXPECT_EQ(parse_cluster_dispatch(to_string(d)), d);
  EXPECT_THROW(parse_cluster_dispatch("jsq2"), std::invalid_argument);
}

// --- ServeRuntime migration hooks --------------------------------------------

serve::Request make_request(std::int64_t id, SimTime arrival,
                            double service_us) {
  serve::Request r;
  r.id = id;
  r.arrival = arrival;
  r.service_us = service_us;
  r.recorded = true;
  return r;
}

TEST(PoolMigrationHooks, DrainReturnsWaitingRequestsInShardFifoOrder) {
  Simulator sim(presets::generic(2), {}, 1);
  serve::ServeParams params;
  params.workers = 2;
  params.queue_capacity = 16;
  params.dispatch = serve::DispatchPolicy::RoundRobin;
  serve::ServeRuntime rt(sim, params);
  const std::vector<CoreId> cores = {0, 1};
  rt.open(cores, /*round_robin=*/true);

  // Long requests head each shard into service; the rest wait.
  for (int i = 0; i < 6; ++i)
    ASSERT_TRUE(rt.inject(make_request(i, 0, 50000.0)));
  sim.run_until(usec(100));  // Workers pick up their heads.
  EXPECT_EQ(rt.in_flight(), 6);
  EXPECT_EQ(rt.total_queued(), 4);

  const std::vector<serve::Request> drained = rt.drain_queued();
  ASSERT_EQ(drained.size(), 4u);
  // Round-robin dispatch interleaved ids over 2 shards: shard 0 queued
  // {2, 4}, shard 1 queued {3, 5}; drain walks shard 0 then shard 1, FIFO.
  EXPECT_EQ(drained[0].id, 2);
  EXPECT_EQ(drained[1].id, 4);
  EXPECT_EQ(drained[2].id, 3);
  EXPECT_EQ(drained[3].id, 5);
  EXPECT_EQ(rt.total_queued(), 0);
  EXPECT_EQ(rt.in_flight(), 2);  // The two in-service requests stay.
}

TEST(PoolMigrationHooks, RetireAfterDrainFinishesWorkersAndRejectsInject) {
  Simulator sim(presets::generic(2), {}, 1);
  serve::ServeParams params;
  params.workers = 2;
  serve::ServeRuntime rt(sim, params);
  const std::vector<CoreId> cores = {0, 1};
  rt.open(cores, /*round_robin=*/true);

  ASSERT_TRUE(rt.inject(make_request(0, 0, 1000.0)));
  EXPECT_THROW(rt.retire(), std::logic_error);  // Still holds work.

  sim.run_until(msec(50));  // Let the request finish.
  EXPECT_EQ(rt.in_flight(), 0);
  rt.retire();
  EXPECT_TRUE(rt.retired());
  rt.retire();  // Idempotent.
  for (const Task* t : rt.workers())
    EXPECT_EQ(t->state(), TaskState::Finished);
  EXPECT_THROW(rt.inject(make_request(1, sim.now(), 1000.0)),
               std::logic_error);
}

TEST(PoolMigrationHooks, CompletionHookSeesEveryFinishedRequest) {
  Simulator sim(presets::generic(2), {}, 1);
  serve::ServeParams params;
  params.workers = 2;
  serve::ServeRuntime rt(sim, params);
  std::vector<std::int64_t> completed;
  rt.set_completion_hook(
      [&](const serve::Request& r) { completed.push_back(r.id); });
  const std::vector<CoreId> cores = {0, 1};
  rt.open(cores, /*round_robin=*/true);
  for (int i = 0; i < 5; ++i)
    ASSERT_TRUE(rt.inject(make_request(i, 0, 2000.0)));
  sim.run_until(msec(100));
  EXPECT_EQ(completed.size(), 5u);
}

// --- End-to-end cluster runs -------------------------------------------------

ClusterConfig base_config(int nodes) {
  ClusterConfig config;
  config.nodes = nodes;
  config.pools_per_node = 1;
  config.topo = presets::generic(4);
  config.cores = 4;
  config.policy = Policy::Pinned;  // No balancer motion inside nodes.
  config.serve.workers = 4;
  config.service.kind = workload::ServiceKind::Exp;
  config.service.mean_us = 5000.0;
  config.arrival.rate_rps =
      static_cast<double>(nodes) *
      serve::rate_for_utilization(config.topo, 4, 0.6, 5000.0);
  config.duration = sec(2);
  config.warmup = msec(200);
  config.seed = 7;
  return config;
}

void expect_conservation(const ClusterStats& s) {
  EXPECT_EQ(s.total_generated, s.total_completed + s.total_dropped +
                                   s.in_transit_end + s.in_flight_end)
      << "generated=" << s.total_generated
      << " completed=" << s.total_completed << " dropped=" << s.total_dropped
      << " in_transit=" << s.in_transit_end
      << " in_flight=" << s.in_flight_end;
  EXPECT_GE(s.offered - s.admitted - s.dropped, 0);
  EXPECT_LE(s.offered - s.admitted - s.dropped, s.in_transit_end);
  EXPECT_EQ(s.latency.count(), s.completed);
  EXPECT_EQ(s.queue_wait.count(), s.completed);
}

TEST(ClusterRun, ConservesRequestsAcrossNodes) {
  const ClusterResult res = run_cluster(base_config(4));
  ASSERT_GT(res.stats.completed, 0);
  expect_conservation(res.stats);
  std::int64_t by_node = 0;
  for (const std::int64_t n : res.completed_by_node) by_node += n;
  EXPECT_EQ(by_node, res.stats.completed);
}

TEST(ClusterRun, MigrationDrainsQueuedRequestsWithoutLosingAny) {
  // Node 0 runs at 1/10 speed from the start; round-robin dispatch keeps
  // feeding it, so its queues grow until the rebalancer moves the pool.
  // Conservation must hold exactly across the drain + re-delivery.
  ClusterConfig config = base_config(2);
  config.dispatch = ClusterDispatch::RoundRobin;
  config.serve.queue_capacity = 0;  // Unbounded: any loss breaks the count.
  config.rebalance.epoch = msec(50);
  config.rebalance.threshold = 0.3;
  for (int c = 0; c < 4; ++c) {
    perturb::PerturbEvent ev;
    ev.at = usec(1);
    ev.kind = perturb::PerturbKind::Dvfs;
    ev.core = c;
    ev.scale = 0.1;
    config.node_perturb[0].add(ev);
  }

  const ClusterResult res = run_cluster(config);
  ASSERT_GE(res.pool_migrations, 1);
  EXPECT_EQ(res.stats.total_dropped, 0);
  expect_conservation(res.stats);
  // The bulk of completions must land on the healthy node.
  ASSERT_EQ(res.completed_by_node.size(), 2u);
  EXPECT_GT(res.completed_by_node[1], res.completed_by_node[0]);
}

TEST(ClusterRun, RebalancerRecoversTailLatencyUnderMidRunSlowdown) {
  // A 4x DVFS slowdown hits node 0 mid-run. With load-oblivious round-robin
  // dispatch the only adaptive mechanism is the global rebalancer; enabling
  // it must cut both the p99 tail and the drop count versus rebalance-off.
  ClusterConfig config = base_config(4);
  config.dispatch = ClusterDispatch::RoundRobin;
  config.duration = sec(4);
  config.rebalance.epoch = msec(100);
  for (int c = 0; c < 4; ++c) {
    perturb::PerturbEvent ev;
    ev.at = msec(800);
    ev.kind = perturb::PerturbKind::Dvfs;
    ev.core = c;
    ev.scale = 0.25;
    config.node_perturb[0].add(ev);
  }

  const ClusterResult on = run_cluster(config);
  config.rebalance.enabled = false;
  const ClusterResult off = run_cluster(config);

  ASSERT_GE(on.pool_migrations, 1);
  EXPECT_EQ(off.pool_migrations, 0);
  expect_conservation(on.stats);
  expect_conservation(off.stats);
  EXPECT_LT(on.stats.latency.percentile(99),
            off.stats.latency.percentile(99))
      << "rebalance-on p99 " << on.stats.latency.percentile(99) / 1e6
      << "ms vs off " << off.stats.latency.percentile(99) / 1e6 << "ms";
  EXPECT_LE(on.stats.dropped, off.stats.dropped);
}

TEST(ClusterRun, SpeedAwareDestinationAvoidsThrottledNode) {
  // Once the throttled node's pool is evacuated, the machine *looks* idle —
  // a capacity-blind "coldest by load" destination would hand the pool
  // straight back and ping-pong it forever. The destination choice divides
  // by current effective capacity, so the run must end with no pool homed
  // on node 0 and a bounded migration count.
  ClusterConfig config = base_config(4);
  config.dispatch = ClusterDispatch::RoundRobin;
  config.duration = sec(3);
  config.rebalance.epoch = msec(50);
  for (int c = 0; c < 4; ++c) {
    perturb::PerturbEvent ev;
    ev.at = msec(200);
    ev.kind = perturb::PerturbKind::Dvfs;
    ev.core = c;
    ev.scale = 0.25;
    config.node_perturb[0].add(ev);
  }

  ClusterSim sim(config);
  const ClusterResult res = sim.run();
  ASSERT_GE(res.pool_migrations, 1);
  EXPECT_LE(res.pool_migrations, 3) << "rebalancer ping-pong";
  for (int p = 0; p < sim.num_pools(); ++p)
    EXPECT_NE(sim.pool_node(p), 0) << "pool " << p
                                   << " homed on the throttled node";
  expect_conservation(res.stats);
}

TEST(ClusterRun, JsqDPastLivePoolCountRunsAndConserves) {
  ClusterConfig config = base_config(2);
  config.dispatch = ClusterDispatch::JsqD;
  config.jsq_d = 64;  // Far beyond the 2 pools.
  const ClusterResult res = run_cluster(config);
  ASSERT_GT(res.stats.completed, 0);
  expect_conservation(res.stats);
}

TEST(ClusterRun, RepeatsAreByteIdenticalAcrossJobs) {
  ClusterConfig config = base_config(3);
  config.duration = sec(1);
  const ClusterResult serial = run_cluster_repeats(config, 3, 1);
  const ClusterResult parallel = run_cluster_repeats(config, 3, 4);
  EXPECT_EQ(serial.stats.completed, parallel.stats.completed);
  EXPECT_EQ(serial.stats.offered, parallel.stats.offered);
  EXPECT_EQ(serial.stats.dropped, parallel.stats.dropped);
  EXPECT_EQ(serial.generated, parallel.generated);
  EXPECT_EQ(serial.pool_migrations, parallel.pool_migrations);
  EXPECT_DOUBLE_EQ(serial.goodput_rps, parallel.goodput_rps);
  EXPECT_DOUBLE_EQ(serial.peak_imbalance, parallel.peak_imbalance);
  for (const double p : {50.0, 99.0, 99.9})
    EXPECT_DOUBLE_EQ(serial.stats.latency.percentile(p),
                     parallel.stats.latency.percentile(p));
  EXPECT_EQ(serial.completed_by_node, parallel.completed_by_node);
}

TEST(ClusterRun, AdmissionCapShedsInsteadOfQueueing) {
  ClusterConfig config = base_config(2);
  config.dispatch = ClusterDispatch::RoundRobin;
  config.node_admission_cap = 8;
  // Overload: 1.5x the cluster's capacity.
  config.arrival.rate_rps =
      2.0 * serve::rate_for_utilization(config.topo, 4, 1.5, 5000.0);
  const ClusterResult res = run_cluster(config);
  EXPECT_GT(res.stats.dropped, 0);
  expect_conservation(res.stats);
}

TEST(ClusterRun, RebalanceLogRecordsEveryEpochWithOutcome) {
  obs::RunRecorder rec;
  ClusterConfig config = base_config(2);
  config.rebalance.epoch = msec(100);
  config.recorder = &rec;
  const ClusterResult res = run_cluster(config);
  ASSERT_GT(res.stats.completed, 0);
  const auto log = rec.rebalances().snapshot();
  // duration 2s / epoch 100ms -> 19 epochs land inside the run.
  EXPECT_GE(log.size(), 10u);
  std::int64_t migrated = 0;
  for (const auto& r : log) {
    EXPECT_GE(r.imbalance, 0.0);
    if (r.outcome == obs::RebalanceOutcome::Migrated) ++migrated;
  }
  EXPECT_EQ(migrated, res.pool_migrations);
}

// --- Results pinned across the node-advancement scheme ----------------------

// Every count, the exact latency summary and the per-node completions of one
// run, floats as hex so any drift shows.
std::string fingerprint(const ClusterResult& res) {
  const ClusterStats& s = res.stats;
  std::ostringstream os;
  os << std::hexfloat << "offered=" << s.offered << " admitted=" << s.admitted
     << " dropped=" << s.dropped << " completed=" << s.completed
     << " generated=" << s.total_generated
     << " total_completed=" << s.total_completed
     << " total_dropped=" << s.total_dropped
     << " in_transit=" << s.in_transit_end << " in_flight=" << s.in_flight_end
     << " migrations=" << res.pool_migrations
     << " imbalance=" << res.peak_imbalance << " goodput=" << res.goodput_rps
     << " lat_min=" << s.latency.min() << " lat_max=" << s.latency.max()
     << " lat_mean=" << s.latency.mean();
  for (const auto& [label, p] : {std::pair{"p50", 50.0}, std::pair{"p99", 99.0},
                                  std::pair{"p99.9", 99.9}})
    os << " lat_" << label << "=" << s.latency.percentile(p) << " wait_"
       << label << "=" << s.queue_wait.percentile(p);
  os << " by_node=";
  for (const std::int64_t n : res.completed_by_node) os << n << ",";
  return os.str();
}

// 6 nodes under SPEED with the rebalancer on and node 0 throttled to a
// quarter at 300 ms, so each case migrates at least one pool.
ClusterConfig pinned_case(ClusterDispatch dispatch, int admission_cap,
                          SimTime hop) {
  ClusterConfig config = base_config(6);
  config.policy = Policy::Speed;
  config.dispatch = dispatch;
  config.node_admission_cap = admission_cap;
  config.hop = hop;
  config.arrival.rate_rps =
      6.0 * serve::rate_for_utilization(config.topo, 4, 0.85, 5000.0);
  config.rebalance.epoch = msec(50);
  config.rebalance.threshold = 0.3;
  config.seed = 11;
  for (int c = 0; c < 4; ++c) {
    perturb::PerturbEvent ev;
    ev.at = msec(300);
    ev.kind = perturb::PerturbKind::Dvfs;
    ev.core = c;
    ev.scale = 0.25;
    config.node_perturb[0].add(ev);
  }
  return config;
}

struct PinnedRun {
  const char* name;
  ClusterConfig config;
  const char* expected;
};

// The expected strings were produced by the eager scheme that advanced every
// node before each cluster event; the sync-point scheme must reproduce them
// at every node width.
TEST(ClusterRun, ResultsPinnedAtEveryNodeWidth) {
  const PinnedRun runs[] = {
      {"rr", pinned_case(ClusterDispatch::RoundRobin, 0, usec(200)),
       "offered=7427 admitted=7187 dropped=239 completed=6574 generated=8260 "
       "total_completed=7407 total_dropped=239 in_transit=1 in_flight=613 "
       "migrations=7 imbalance=0x1.d1745d1745d18p+1 "
       "goodput=0x1.c8871c71c71c7p+11 lat_min=401000 lat_max=1223247000 "
       "lat_mean=0x1.79f7dadaed8abp+26 lat_p50=0x1.16e50d79435e5p+26 "
       "wait_p50=0x1.ffb3333333333p+25 lat_p99=0x1.404efe8982312p+29 "
       "wait_p99=0x1.3b451eb851ebp+29 lat_p99.9=0x1.c5b53f7ced94p+29 "
       "wait_p99.9=0x1.be78d4fdf3b8p+29 by_node=65,1280,1304,1315,1337,1273,"},
      {"rr-cap", pinned_case(ClusterDispatch::RoundRobin, 6, usec(200)),
       "offered=7427 admitted=5707 dropped=1719 completed=5684 "
       "generated=8260 total_completed=6460 total_dropped=1776 in_transit=1 "
       "in_flight=23 migrations=2 imbalance=0x1.2e8ba2e8ba2eap+0 "
       "goodput=0x1.8ab8e38e38e39p+11 lat_min=401000 lat_max=170705000 "
       "lat_mean=0x1.a6b5fe8c29134p+22 lat_p50=0x1.28beea4e1a08bp+22 "
       "wait_p50=0x1.86ap+17 lat_p99=0x1.d4ae147ae148p+24 "
       "wait_p99=0x1.d5126e978d5p+23 lat_p99.9=0x1.14p+26 "
       "wait_p99.9=0x1.14p+25 by_node=62,1144,1129,1121,1103,1125,"},
      {"least-loaded", pinned_case(ClusterDispatch::LeastLoaded, 0, usec(200)),
       "offered=7427 admitted=7426 dropped=0 completed=7166 generated=8260 "
       "total_completed=7999 total_dropped=0 in_transit=1 in_flight=260 "
       "migrations=1 imbalance=0x1.6666666666666p+0 "
       "goodput=0x1.f1a38e38e38e3p+11 lat_min=405000 lat_max=204969000 "
       "lat_mean=0x1.d148baeac7a09p+24 lat_p50=0x1.912aaaaaaaaabp+24 "
       "wait_p50=0x1.3690b21642c86p+24 lat_p99=0x1.955c28f5c29p+26 "
       "wait_p99=0x1.6dea0ea0ea0eep+26 lat_p99.9=0x1.0fab851eb854p+27 "
       "wait_p99.9=0x1.e7570a3d70a8p+26 by_node=75,1455,1392,1456,1432,1356,"},
      {"least-loaded-cap",
       pinned_case(ClusterDispatch::LeastLoaded, 6, usec(200)),
       "offered=7427 admitted=5274 dropped=2152 completed=5255 "
       "generated=8260 total_completed=6076 total_dropped=2164 in_transit=1 "
       "in_flight=19 migrations=2 imbalance=0x1.22e8ba2e8ba2fp+1 "
       "goodput=0x1.6cee38e38e38ep+11 lat_min=401000 lat_max=117215000 "
       "lat_mean=0x1.73fa0452d0fd5p+22 lat_p50=0x1.fbbbbbbbbbbbcp+21 "
       "wait_p50=0x1.86ap+17 lat_p99=0x1.8e8f5c28f5c2bp+24 "
       "wait_p99=0x1.87fa4a81ca599p+17 lat_p99.9=0x1.1afbe76c8b48p+26 "
       "wait_p99.9=0x1.b4p+22 by_node=78,1153,1070,1140,925,889,"},
      {"jsq", pinned_case(ClusterDispatch::JsqD, 0, usec(200)),
       "offered=7427 admitted=7426 dropped=0 completed=7170 generated=8260 "
       "total_completed=8003 total_dropped=0 in_transit=1 in_flight=256 "
       "migrations=2 imbalance=0x1.b333333333334p+0 "
       "goodput=0x1.f1eaaaaaaaaaap+11 lat_min=405000 lat_max=187072000 "
       "lat_mean=0x1.f300b6718a2dp+24 lat_p50=0x1.a87e3f1f8fc7ep+24 "
       "wait_p50=0x1.5196cb65b2d97p+24 lat_p99=0x1.b3d4c3b2a19p+26 "
       "wait_p99=0x1.86a5e353f7ce6p+26 lat_p99.9=0x1.1b52f1a9fbecp+27 "
       "wait_p99.9=0x1.fcp+26 by_node=57,1398,1424,1395,1477,1419,"},
      {"jsq-cap", pinned_case(ClusterDispatch::JsqD, 6, usec(200)),
       "offered=7427 admitted=5637 dropped=1789 completed=5611 "
       "generated=8260 total_completed=6417 total_dropped=1816 in_transit=1 "
       "in_flight=26 migrations=2 imbalance=0x1.9249249249248p+0 "
       "goodput=0x1.85a71c71c71c7p+11 lat_min=401000 lat_max=121294000 "
       "lat_mean=0x1.9b42d0a43fb13p+22 lat_p50=0x1.1ce38e38e38e4p+22 "
       "wait_p50=0x1.86ap+17 lat_p99=0x1.dfbbbbbbbbbabp+24 "
       "wait_p99=0x1.bfccccccccccp+23 lat_p99.9=0x1.1cp+26 "
       "wait_p99.9=0x1.74p+24 by_node=57,1131,1101,1080,1114,1128,"},
      {"rr-hop0", pinned_case(ClusterDispatch::RoundRobin, 0, 0),
       "offered=7427 admitted=7126 dropped=301 completed=6596 generated=8260 "
       "total_completed=7429 total_dropped=301 in_transit=0 in_flight=530 "
       "migrations=5 imbalance=0x1.27d27d27d27d2p+2 "
       "goodput=0x1.ca0e38e38e38ep+11 lat_min=1000 lat_max=1229797000 "
       "lat_mean=0x1.143802fa2da46p+26 lat_p50=0x1.d3745d1745d17p+23 "
       "wait_p50=0x1.ff4b4b4b4b4b5p+22 lat_p99=0x1.50147ae147ae6p+29 "
       "wait_p99=0x1.483333333334p+29 lat_p99.9=0x1.01147ae147bp+30 "
       "wait_p99.9=0x1.01147ae147bp+30 by_node=76,1419,1393,1208,1264,1236,"},
  };
  for (const PinnedRun& run : runs) {
    for (const int width : {1, 4}) {
      const ClusterResult res = run_cluster(run.config, width);
      EXPECT_GE(res.pool_migrations, 1) << run.name;
      EXPECT_EQ(fingerprint(res), run.expected)
          << run.name << " at node width " << width;
    }
  }
}

TEST(ClusterConfigValidation, RejectsBadShapes) {
  ClusterConfig config = base_config(2);
  config.nodes = 0;
  EXPECT_THROW(ClusterSim{config}, std::invalid_argument);
  config = base_config(2);
  config.warmup = config.duration;
  EXPECT_THROW(ClusterSim{config}, std::invalid_argument);
  config = base_config(2);
  config.hop = -1;
  EXPECT_THROW(ClusterSim{config}, std::invalid_argument);
}

TEST(ClusterConfigDefaults, SpeedWithDemandScaledMeasurement) {
  ClusterConfig cfg;
  EXPECT_EQ(cfg.policy, Policy::Speed);
  EXPECT_TRUE(cfg.speed.demand_scaled);
  EXPECT_EQ(cfg.sim.load_snapshot_period, msec(10));
  EXPECT_EQ(cfg.sim_params().load_snapshot_period, msec(10));
  cfg.policy = Policy::Ule;
  EXPECT_EQ(cfg.sim_params().load_snapshot_period, 0);
  EXPECT_EQ(cfg.sim.load_snapshot_period, msec(10));
}

}  // namespace
}  // namespace speedbal::cluster
