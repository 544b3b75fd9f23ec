#include "cluster/cluster.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <utility>

#include "perturb/sim_driver.hpp"
#include "util/parallel.hpp"

namespace speedbal::cluster {

namespace {
/// Same stream-separation salts as serve::LoadGenerator, plus independent
/// streams for the JSQ(d) sampling and the per-node simulator seeds, so no
/// consumer's draw order can perturb another's.
constexpr std::uint64_t kArrivalSalt = 0x9e3779b97f4a7c15ULL;
constexpr std::uint64_t kServiceSalt = 0xd1b54a32d192ed03ULL;
constexpr std::uint64_t kDispatchSalt = 0x2545f4914f6cdd1dULL;
constexpr std::uint64_t kNodeSalt = 0x94d049bb133111ebULL;
}  // namespace

ClusterSim::ClusterSim(const ClusterConfig& config)
    : config_(config),
      arrivals_(config.arrival, config.seed ^ kArrivalSalt),
      service_(config.service, config.seed ^ kServiceSalt),
      dispatch_rng_(config.seed ^ kDispatchSalt),
      recorder_(config.recorder) {
  if (config_.nodes < 1)
    throw std::invalid_argument("ClusterConfig: nodes must be >= 1");
  if (config_.pools_per_node < 1)
    throw std::invalid_argument("ClusterConfig: pools_per_node must be >= 1");
  if (config_.hop < 0)
    throw std::invalid_argument("ClusterConfig: hop must be >= 0");
  if (config_.warmup >= config_.duration)
    throw std::invalid_argument("ClusterConfig: warmup must be < duration");

  const SimParams sim_params = config_.sim_params();
  completed_by_node_.assign(static_cast<std::size_t>(config_.nodes), 0);

  nodes_.resize(static_cast<std::size_t>(config_.nodes));
  for (int n = 0; n < config_.nodes; ++n) {
    Node& node = nodes_[static_cast<std::size_t>(n)];
    // Distinct per-node seed streams derived from the cluster seed: node
    // simulators draw independently, and the whole cluster replays from
    // one seed.
    const std::uint64_t node_seed =
        config_.seed ^ (kNodeSalt * static_cast<std::uint64_t>(n + 1));
    node.sim = std::make_unique<Simulator>(config_.topo, sim_params, node_seed);
    node.stack = std::make_unique<PolicyStack>(config_);
    node.stack->attach_kernel(*node.sim);

    if (const auto it = config_.node_perturb.find(n);
        it != config_.node_perturb.end() && !it->second.empty()) {
      node.perturber =
          std::make_unique<perturb::SimPerturbDriver>(*node.sim, it->second);
      node.perturber->arm();
    }
  }

  // Initial pools, round-robin homed: pool p starts on node p % nodes. Every
  // node's user-level balancer attaches over its initial workers at once,
  // mirroring run_serve's single-pool attachment.
  pools_.resize(static_cast<std::size_t>(config_.nodes) *
                static_cast<std::size_t>(config_.pools_per_node));
  std::vector<std::vector<Task*>> initial_workers(
      static_cast<std::size_t>(config_.nodes));
  for (int p = 0; p < static_cast<int>(pools_.size()); ++p) {
    const int n = p % config_.nodes;
    serve::ServeRuntime* rt = open_pool_on(p, n);
    auto& workers = initial_workers[static_cast<std::size_t>(n)];
    workers.insert(workers.end(), rt->workers().begin(), rt->workers().end());
  }
  for (int n = 0; n < config_.nodes; ++n) {
    Node& node = nodes_[static_cast<std::size_t>(n)];
    node.stack->attach_user(*node.sim,
                            initial_workers[static_cast<std::size_t>(n)],
                            /*rec=*/nullptr);
  }
}

ClusterSim::~ClusterSim() = default;

serve::ServeRuntime* ClusterSim::open_pool_on(int pool, int node) {
  Node& home = nodes_[static_cast<std::size_t>(node)];
  auto rt = std::make_unique<serve::ServeRuntime>(*home.sim, config_.serve);
  rt->open(home.stack->cores(), home.stack->round_robin_launch());
  serve::ServeRuntime* raw = rt.get();
  rt->set_completion_hook([this, pool, raw, node](const Request& r) {
    on_pool_complete(pool, raw, node, r);
  });
  Pool& p = pools_[static_cast<std::size_t>(pool)];
  p.node = node;
  p.runtime = raw;
  home.homed.push_back(std::move(rt));
  return raw;
}

std::int64_t ClusterSim::node_in_flight(int node) const {
  // All incarnations homed on `node`, draining ones included: their
  // in-service tails still occupy the node.
  std::int64_t total = 0;
  for (const auto& rt : nodes_[static_cast<std::size_t>(node)].homed)
    if (!rt->retired()) total += rt->in_flight();
  return total;
}

double ClusterSim::node_load(int node) const {
  // The frontend's view: requests assigned to pools currently homed here,
  // in-transit included. Draining remainders on the old node are excluded
  // on purpose — load should follow where new traffic lands.
  std::int64_t load = 0;
  for (const Pool& p : pools_)
    if (p.node == node) load += p.assigned;
  return static_cast<double>(load);
}

double ClusterSim::node_effective_capacity(int node) const {
  const Node& nd = nodes_[static_cast<std::size_t>(node)];
  double cap = 0.0;
  for (const CoreId c : nd.stack->cores())
    if (nd.sim->core(c).online()) cap += nd.sim->topo().core(c).clock_scale;
  return std::max(cap, 1e-9);
}

void ClusterSim::arrive(SimTime t) {
  Request r;
  r.id = next_id_++;
  r.arrival = t;
  r.service_us = service_.sample();
  const double mean = service_.spec().mean_us;
  r.cls = r.service_us < 0.5 * mean ? 0 : (r.service_us < 2.0 * mean ? 1 : 2);
  r.recorded = t >= config_.warmup;

  ++stats_.total_generated;
  if (r.recorded) ++stats_.offered;

  if (config_.dispatch != ClusterDispatch::RoundRobin) {
    // Load-aware dispatch reads Pool::assigned, which completions move:
    // bring the nodes to t first. One delivery or so per arrival, so inline.
    sync(t, /*fan_out=*/false);
    for (std::size_t p = 0; p < pools_.size(); ++p)
      loads_[p].assigned = pools_[p].assigned;
  }
  const int pool = pick_pool(config_.dispatch, config_.jsq_d, loads_,
                             rr_cursor_, dispatch_rng_);
  ++pools_[static_cast<std::size_t>(pool)].assigned;
  in_transit_.push_back({t + config_.hop, pool, r});
  cq_.schedule(t + config_.hop, [this] { deliver(); });

  const SimTime next = arrivals_.next(t);
  if (next >= config_.duration) return;
  cq_.schedule(next, [this, next] { arrive(next); });
}

void ClusterSim::deliver() {
  // The pool's home changes only inside epoch(), itself a sync point, so
  // the home read now is the node the request lands on; the node injects it
  // when it next syncs.
  const Delivery& d = in_transit_.front();
  const int home = pools_[static_cast<std::size_t>(d.pool)].node;
  nodes_[static_cast<std::size_t>(home)].inbox.push_back(d);
  in_transit_.pop_front();
}

void ClusterSim::sync(SimTime t, bool fan_out) {
  const int nodes = num_nodes();
  if (!fan_out || node_workers_ == nullptr) {
    for (int n = 0; n < nodes; ++n) advance_node(n, t);
  } else {
    // Node n always runs on thread n % width (thread 0 is this one), so
    // each node's allocations stay with one thread for the whole run.
    const int width = node_workers_->size() + 1;
    std::vector<std::exception_ptr> errors(static_cast<std::size_t>(width));
    const auto group = [&](int k) {
      try {
        for (int n = k; n < nodes; n += width) advance_node(n, t);
      } catch (...) {
        errors[static_cast<std::size_t>(k)] = std::current_exception();
      }
    };
    for (int k = 1; k < width; ++k)
      node_workers_->submit_to(k - 1, [&group, k] { group(k); });
    group(0);
    node_workers_->wait_idle();
    for (const std::exception_ptr& e : errors)
      if (e) std::rethrow_exception(e);
  }
  fold_tallies();
}

void ClusterSim::advance_node(int node, SimTime t) {
  // Every node event at or before a delivery's time runs before its inject,
  // exactly as if the node had been advanced before each cluster event.
  Node& nd = nodes_[static_cast<std::size_t>(node)];
  for (const Delivery& d : nd.inbox) {
    nd.sim->run_until(d.t);
    admit(node, d);
  }
  nd.inbox.clear();
  nd.sim->run_until(t);
}

void ClusterSim::admit(int node, const Delivery& d) {
  Tally& tally = tallies_[static_cast<std::size_t>(node)];
  const bool over_admission =
      config_.node_admission_cap > 0 &&
      node_in_flight(node) >= config_.node_admission_cap;
  if (!over_admission &&
      pools_[static_cast<std::size_t>(d.pool)].runtime->inject(d.r)) {
    if (d.r.recorded) ++tally.admitted;
    return;
  }
  tally.released.push_back(d.pool);
  ++tally.total_dropped;
  if (d.r.recorded) ++tally.dropped;
}

void ClusterSim::fold_tallies() {
  for (std::size_t n = 0; n < tallies_.size(); ++n) {
    Tally& tally = tallies_[n];
    for (const int p : tally.released)
      --pools_[static_cast<std::size_t>(p)].assigned;
    tally.released.clear();
    stats_.admitted += std::exchange(tally.admitted, 0);
    stats_.dropped += std::exchange(tally.dropped, 0);
    stats_.total_dropped += std::exchange(tally.total_dropped, 0);
    stats_.total_completed += std::exchange(tally.total_completed, 0);
    const std::int64_t completed = std::exchange(tally.completed, 0);
    stats_.completed += completed;
    completed_by_node_[n] += completed;
  }
}

void ClusterSim::on_pool_complete(int pool, serve::ServeRuntime* incarnation,
                                  int node, const Request& r) {
  // Runs on the node's thread: only the node's own tally is written.
  Tally& tally = tallies_[static_cast<std::size_t>(node)];
  tally.released.push_back(pool);
  ++tally.total_completed;
  const SimTime done = incarnation->simulator().now() + config_.hop;
  if (r.recorded) {
    ++tally.completed;
    tally.latency.record((done - r.arrival) * 1000);
    tally.queue_wait.record((r.started - r.arrival) * 1000);
  }
  // A draining incarnation retires the moment its tail empties; deferred to
  // a fresh event because retire() finishes the very worker that is
  // executing this completion path.
  if (incarnation != pools_[static_cast<std::size_t>(pool)].runtime &&
      incarnation->in_flight() == 0 &&
      !incarnation->retired()) {
    Simulator& sim = incarnation->simulator();
    sim.schedule_at(sim.now(), [incarnation] {
      if (!incarnation->retired() && incarnation->in_flight() == 0)
        incarnation->retire();
    });
  }
}

void ClusterSim::epoch() {
  const SimTime t = cq_.now();
  sync(t, /*fan_out=*/true);
  ++epoch_index_;

  // Loads are normalized by each machine's *current* effective capacity —
  // the paper's thesis applied at the global tier: a backlog on a throttled
  // machine is worse than the same backlog on a healthy one, and raw queue
  // counts cannot tell them apart.
  double mean = 0.0;
  double max_load = 0.0;
  int hottest = 0;
  std::vector<double> loads(static_cast<std::size_t>(config_.nodes));
  for (int n = 0; n < config_.nodes; ++n) {
    const double l = node_load(n) / node_effective_capacity(n);
    loads[static_cast<std::size_t>(n)] = l;
    mean += l;
    if (l > max_load) {
      max_load = l;
      hottest = n;
    }
  }
  mean /= static_cast<double>(config_.nodes);
  const double fli = mean > 1e-12 ? max_load / mean - 1.0 : 0.0;
  peak_imbalance_ = std::max(peak_imbalance_, fli);

  obs::RebalanceRecord rec;
  rec.ts_us = t;
  rec.epoch = epoch_index_;
  rec.imbalance = fli;
  rec.threshold = config_.rebalance.threshold;

  if (!config_.rebalance.enabled || fli < config_.rebalance.threshold) {
    rec.outcome = obs::RebalanceOutcome::BelowThreshold;
  } else if (epoch_index_ - last_migration_epoch_ <=
             config_.rebalance.cooldown_epochs) {
    rec.outcome = obs::RebalanceOutcome::Cooldown;
  } else {
    // Busiest pool on the hottest node...
    int candidate = -1;
    for (int p = 0; p < static_cast<int>(pools_.size()); ++p) {
      const Pool& pool = pools_[static_cast<std::size_t>(p)];
      if (pool.node != hottest) continue;
      if (candidate < 0 ||
          pool.assigned >
              pools_[static_cast<std::size_t>(candidate)].assigned)
        candidate = p;
    }
    // ...to the node whose predicted ratio after adopting the pool (its
    // current backlog included) is lowest. Capacity-blind "coldest by
    // load" would pick a freshly drained slow machine — it looks idle —
    // and ping-pong the pool straight back; depressed effective capacity
    // disqualifies it here. Ties break to the lowest node id.
    int coldest = -1;
    double best_predicted = 0.0;
    if (candidate >= 0) {
      const double pool_load = static_cast<double>(
          pools_[static_cast<std::size_t>(candidate)].assigned);
      for (int n = 0; n < config_.nodes; ++n) {
        if (n == hottest) continue;
        const double predicted =
            (node_load(n) + pool_load) / node_effective_capacity(n);
        if (coldest < 0 || predicted < best_predicted) {
          best_predicted = predicted;
          coldest = n;
        }
      }
    }
    // The improvement gate: the backlog moves with the pool, so a
    // destination that would end up roughly as loaded as the source is no
    // fix — demand a real win or stay put.
    const double required =
        (1.0 - config_.rebalance.min_improvement) * max_load;
    if (candidate < 0 || coldest < 0 || best_predicted >= required) {
      rec.outcome = obs::RebalanceOutcome::NoCandidate;
    } else {
      rec.outcome = obs::RebalanceOutcome::Migrated;
      rec.pool = candidate;
      rec.from_node = hottest;
      rec.to_node = coldest;
      rec.from_load = loads[static_cast<std::size_t>(hottest)];
      rec.to_load = loads[static_cast<std::size_t>(coldest)];

      Pool& pool = pools_[static_cast<std::size_t>(candidate)];
      serve::ServeRuntime* old_rt = pool.runtime;
      serve::ServeRuntime* fresh = open_pool_on(candidate, coldest);
      nodes_[static_cast<std::size_t>(coldest)].stack->manage(
          *nodes_[static_cast<std::size_t>(coldest)].sim, fresh->workers());

      // Waiting requests chase the pool across the wire; the in-service
      // tail finishes on the source, then the old incarnation retires.
      const auto drained = old_rt->drain_queued();
      rec.drained = static_cast<std::int64_t>(drained.size());
      for (const Request& r : drained) {
        // Back out the original admission; delivery at the destination
        // re-admits (or drops), so each request nets to one count.
        if (r.recorded) --stats_.admitted;
        in_transit_.push_back({t + config_.hop, candidate, r});
        cq_.schedule(t + config_.hop, [this] { deliver(); });
      }
      if (old_rt->in_flight() == 0) {
        Simulator& sim = old_rt->simulator();
        sim.schedule_at(sim.now(), [old_rt] {
          if (!old_rt->retired() && old_rt->in_flight() == 0)
            old_rt->retire();
        });
      }
      last_migration_epoch_ = epoch_index_;
      ++pool_migrations_;
    }
  }
  if (recorder_ != nullptr) recorder_->rebalances().add(rec);

  const SimTime next = t + config_.rebalance.epoch;
  if (next < config_.duration)
    cq_.schedule(next, [this] { epoch(); });
}

ClusterResult ClusterSim::run(int node_jobs) {
  // Built here, not in the constructor: setup cost stays the node stacks'.
  const int auto_jobs = in_pool_worker() ? 1 : default_jobs();
  const int width =
      std::min(node_jobs > 0 ? node_jobs : auto_jobs, num_nodes());
  if (width > 1) node_workers_ = std::make_unique<ThreadPool>(width - 1);
  tallies_.resize(nodes_.size());
  loads_.assign(pools_.size(), PoolLoad{});

  const SimTime first = arrivals_.next(0);
  if (first < config_.duration)
    cq_.schedule(first, [this, first] { arrive(first); });
  if (config_.rebalance.epoch > 0 &&
      config_.rebalance.epoch < config_.duration)
    cq_.schedule(config_.rebalance.epoch, [this] { epoch(); });

  while (!cq_.empty() && cq_.next_time() <= config_.duration) cq_.run_next();
  sync(config_.duration, /*fan_out=*/true);
  node_workers_.reset();

  stats_.in_transit_end = static_cast<std::int64_t>(in_transit_.size());
  stats_.in_flight_end = 0;
  for (Node& node : nodes_)
    for (const auto& rt : node.homed) {
      if (rt->retired()) continue;
      rt->close();
      stats_.in_flight_end += rt->in_flight();
    }
  // Histograms merge element-wise with an exact sum, so node order gives
  // the same result as recording in completion order.
  for (const Tally& tally : tallies_) {
    stats_.latency.merge(tally.latency);
    stats_.queue_wait.merge(tally.queue_wait);
  }

  ClusterResult result;
  result.stats = stats_;
  result.generated = stats_.total_generated;
  result.goodput_rps = config_.duration > config_.warmup
                           ? static_cast<double>(stats_.completed) /
                                 to_sec(config_.duration - config_.warmup)
                           : 0.0;
  result.pool_migrations = pool_migrations_;
  result.peak_imbalance = peak_imbalance_;
  result.completed_by_node = completed_by_node_;

  if (recorder_ != nullptr) {
    for (int n = 0; n < config_.nodes; ++n)
      export_run_to_recorder(nodes_[static_cast<std::size_t>(n)].sim->metrics(),
                             *recorder_, n);
    if (config_.export_result) export_result_to_recorder(result, *recorder_);
  }
  return result;
}

ClusterResult run_cluster(const ClusterConfig& config, int node_jobs) {
  ClusterSim sim(config);
  return sim.run(node_jobs);
}

void export_result_to_recorder(const ClusterResult& result,
                               obs::RunRecorder& rec) {
  rec.add_latency_histogram("cluster_latency", result.stats.latency);
  rec.add_latency_histogram("cluster_queue_wait", result.stats.queue_wait);
  rec.set_counter("cluster.offered", result.stats.offered);
  rec.set_counter("cluster.admitted", result.stats.admitted);
  rec.set_counter("cluster.completed", result.stats.completed);
  rec.set_counter("cluster.dropped", result.stats.dropped);
  rec.set_counter("cluster.generated", result.stats.total_generated);
  rec.set_counter("cluster.pool_migrations", result.pool_migrations);
}

namespace {

/// Fold one replica into the merged result (goodput sums; run_replicas
/// averages it).
void merge_replica(ClusterResult& out, const ClusterResult& run) {
  out.stats.offered += run.stats.offered;
  out.stats.admitted += run.stats.admitted;
  out.stats.dropped += run.stats.dropped;
  out.stats.completed += run.stats.completed;
  out.stats.total_generated += run.stats.total_generated;
  out.stats.total_completed += run.stats.total_completed;
  out.stats.total_dropped += run.stats.total_dropped;
  out.stats.in_transit_end += run.stats.in_transit_end;
  out.stats.in_flight_end += run.stats.in_flight_end;
  out.stats.latency.merge(run.stats.latency);
  out.stats.queue_wait.merge(run.stats.queue_wait);
  out.generated += run.generated;
  out.goodput_rps += run.goodput_rps;
  out.pool_migrations += run.pool_migrations;
  out.peak_imbalance = std::max(out.peak_imbalance, run.peak_imbalance);
  for (std::size_t n = 0; n < out.completed_by_node.size() &&
                          n < run.completed_by_node.size();
       ++n)
    out.completed_by_node[n] += run.completed_by_node[n];
}

}  // namespace

ClusterResult run_cluster_repeats(const ClusterConfig& config, int repeats,
                                  int jobs) {
  return run_replicas(
      config, repeats, jobs,
      [](const ClusterConfig& c) { return run_cluster(c); }, merge_replica,
      export_result_to_recorder);
}

}  // namespace speedbal::cluster
