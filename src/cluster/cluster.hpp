#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/policy.hpp"
#include "obs/recorder.hpp"
#include "perturb/sim_driver.hpp"
#include "perturb/timeline.hpp"
#include "core/policy_stack.hpp"
#include "serve/scenarios.hpp"
#include "sim/event_queue.hpp"
#include "util/parallel.hpp"
#include "workload/arrivals.hpp"

namespace speedbal::cluster {

using serve::Request;

/// Global rebalancer tunables: the HemoCell pattern — compute a fractional
/// load imbalance per epoch and only rebalance when it crosses a threshold,
/// with a cooldown so one migration's transient never triggers the next.
struct RebalanceParams {
  bool enabled = true;
  /// Epoch period; one imbalance measurement + at most one pool migration
  /// per epoch (the cluster analogue of the paper's balance interval B).
  SimTime epoch = msec(250);
  /// Act when max(node load per capacity) / mean − 1 exceeds this.
  double threshold = 0.5;
  /// Epochs after a migration during which the rebalancer only observes —
  /// drained queues and warmup make loads stale, like the paper's
  /// two-interval post-migration block.
  int cooldown_epochs = 2;
  /// Migrate only when the best destination's predicted capacity-scaled
  /// ratio (pool backlog included) undercuts the source node's by at least
  /// this fraction. A pool's backlog travels with it, so moving it between
  /// equally healthy machines fixes nothing — without this gate the
  /// hottest-node title follows the backlog and the pool bounces every
  /// post-cooldown epoch until the backlog drains.
  double min_improvement = 0.25;
};

/// One simulated cluster: `nodes` machines (one Simulator each, running the
/// serving block's machine and balancer stack), `pools_per_node` worker
/// pools per machine at start, a frontend dispatching over pools, and the
/// global rebalancer migrating whole pools between machines. From the
/// serving block, `serve` configures every pool (`serve.workers` is workers
/// *per pool*) and `arrival` is the cluster-wide open-loop load. Under
/// adaptive SPEED each node runs its own controller, unrecorded, so tuning
/// stays node-local.
struct ClusterConfig : serve::ServingParams {
  int nodes = 16;
  int pools_per_node = 1;

  ClusterDispatch dispatch = ClusterDispatch::JsqD;
  int jsq_d = 2;
  /// One-way network hop (frontend -> node and node -> frontend); charged
  /// once on delivery and once on the response.
  SimTime hop = usec(200);
  /// Bounded per-node admission: a request delivered to a node already
  /// holding this many undelivered+unfinished requests is dropped. <= 0
  /// disables (pool queue capacity still applies).
  int node_admission_cap = 0;

  RebalanceParams rebalance;

  /// Per-node scripted interference, keyed by node id (e.g. a DVFS step on
  /// node 0 only) — the scenario the rebalancer exists for.
  std::map<int, perturb::PerturbTimeline> node_perturb;
};

/// Cluster-level tail-latency accounting. Counters cover post-warmup
/// ("recorded") requests; the `total_*` set counts every request including
/// warmup, for the conservation invariant. Latency includes both network
/// hops; queue_wait is time from frontend arrival to entering service.
struct ClusterStats {
  std::int64_t offered = 0;
  std::int64_t admitted = 0;
  std::int64_t dropped = 0;  ///< Admission-cap + pool-queue drops.
  std::int64_t completed = 0;
  LatencyHistogram latency;
  LatencyHistogram queue_wait;

  // All-requests conservation counters (warmup included).
  std::int64_t total_generated = 0;
  std::int64_t total_completed = 0;
  std::int64_t total_dropped = 0;
  std::int64_t in_transit_end = 0;  ///< Deliveries still in the network at end.
  std::int64_t in_flight_end = 0;   ///< Queued or in service on a node at end.

  double drop_rate() const {
    return offered > 0
               ? static_cast<double>(dropped) / static_cast<double>(offered)
               : 0.0;
  }
};

struct ClusterResult {
  ClusterStats stats;
  std::int64_t generated = 0;  ///< == stats.total_generated.
  double goodput_rps = 0.0;
  /// Pool migrations the global rebalancer performed.
  std::int64_t pool_migrations = 0;
  /// Largest fractional load imbalance any epoch observed.
  double peak_imbalance = 0.0;
  /// Completed requests per node id (live incarnations' homes at completion
  /// time), for placement assertions in tests.
  std::vector<std::int64_t> completed_by_node;
};

/// The cluster simulation driver. One EventQueue orders cluster-level
/// events (arrivals, hop deliveries, rebalance epochs). Node simulators are
/// advanced conservatively: a delivery only appends to its pool's home
/// node's inbox, and nodes run forward only at sync points, where cluster
/// code reads node state — every rebalance epoch, every arrival under a
/// load-aware dispatch (it reads Pool::assigned, which completions move) and
/// the end of the run. A sync to T has each node replay its inbox in order
/// (run to the delivery's time, then inject), then run to T, so node-local
/// activity still precedes cluster activity at the same instant and the
/// whole run is deterministic under the seed. Between syncs the nodes never
/// touch each other: node simulators never enqueue cluster events (the
/// response hop is a constant, so completions record at once) and their
/// cluster-side effects go into per-node tallies folded in node order after
/// each sync. Epoch and end-of-run syncs therefore fan the nodes out over
/// worker threads, each node on a fixed thread for the whole run; results
/// are byte-identical at any width.
class ClusterSim {
 public:
  explicit ClusterSim(const ClusterConfig& config);
  ~ClusterSim();

  /// `node_jobs` threads advance the nodes at epoch and end-of-run syncs
  /// (clamped to the node count); 0 picks min(default_jobs(), nodes), or 1
  /// when called on a pool worker (e.g. a run_cluster_repeats replica).
  ClusterResult run(int node_jobs = 0);

  // Introspection for tests and invariant checks.
  int pool_node(int pool) const { return pools_[static_cast<std::size_t>(pool)].node; }
  int num_pools() const { return static_cast<int>(pools_.size()); }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  /// Node n's simulator, for post-run metric harvest (e.g. the per-node
  /// migration logs the oscillation invariant checks).
  const Simulator& node_sim(int n) const {
    return *nodes_[static_cast<std::size_t>(n)].sim;
  }
  /// Live + draining incarnations' in-flight totals summed per node.
  std::int64_t node_in_flight(int node) const;

 private:
  struct Pool {
    int node = -1;
    std::int64_t assigned = 0;  ///< Dispatch-level load (see PoolLoad).
    serve::ServeRuntime* runtime = nullptr;  ///< Live incarnation.
  };
  /// A request on the wire to `pool`, due at its home node at `t`.
  struct Delivery {
    SimTime t = 0;
    int pool = -1;
    Request r;
  };
  /// One node's cluster-side effects since the last fold. Only the node's
  /// own thread writes it during a sync: a pool's live and draining
  /// incarnations can sit on two nodes, so no node may write pools_ or
  /// stats_ directly.
  struct alignas(64) Tally {
    std::vector<int> released;  ///< One entry per completion or drop.
    std::int64_t admitted = 0;
    std::int64_t dropped = 0;
    std::int64_t total_dropped = 0;
    std::int64_t completed = 0;
    std::int64_t total_completed = 0;
    /// Merged into stats_ once, at the end of the run.
    LatencyHistogram latency;
    LatencyHistogram queue_wait;
  };
  struct Node {
    std::unique_ptr<Simulator> sim;
    std::unique_ptr<PolicyStack> stack;
    std::unique_ptr<perturb::SimPerturbDriver> perturber;
    /// Every pool incarnation ever opened here, kept alive until the run
    /// ends so draining pools finish their in-service tails safely.
    std::vector<std::unique_ptr<serve::ServeRuntime>> homed;
    /// Deliveries since the last sync, in delivery order.
    std::vector<Delivery> inbox;
  };

  void arrive(SimTime t);
  void deliver();
  /// Bring every node to `t` (inbox replayed first), on the node threads
  /// when `fan_out`, then fold the tallies.
  void sync(SimTime t, bool fan_out);
  void advance_node(int node, SimTime t);
  void admit(int node, const Delivery& d);
  void fold_tallies();
  void on_pool_complete(int pool, serve::ServeRuntime* incarnation, int node,
                        const Request& r);
  serve::ServeRuntime* open_pool_on(int pool, int node);
  void epoch();
  double node_load(int node) const;
  /// Sum of the node's online managed cores' *current* clock scales — the
  /// machine's effective capacity as of now, DVFS and hotplug included.
  double node_effective_capacity(int node) const;

  ClusterConfig config_;
  EventQueue cq_;
  std::vector<Node> nodes_;
  std::vector<Pool> pools_;
  /// Requests on the wire, FIFO: the hop is constant, so deliveries fire in
  /// the order they were sent.
  std::deque<Delivery> in_transit_;
  /// Per-node effects and the node threads; built by run().
  std::vector<Tally> tallies_;
  std::unique_ptr<ThreadPool> node_workers_;
  /// Dispatch input, refreshed only for load-aware dispatch (round-robin
  /// reads its size alone).
  std::vector<PoolLoad> loads_;
  workload::ArrivalProcess arrivals_;
  workload::ServiceTimeDist service_;
  Rng dispatch_rng_;
  std::uint64_t rr_cursor_ = 0;
  std::int64_t next_id_ = 0;
  std::int64_t epoch_index_ = 0;
  std::int64_t last_migration_epoch_ = -1000000;
  std::int64_t pool_migrations_ = 0;
  double peak_imbalance_ = 0.0;
  ClusterStats stats_;
  std::vector<std::int64_t> completed_by_node_;
  obs::RunRecorder* recorder_ = nullptr;
};

/// Run the cluster scenario once; `node_jobs` as in ClusterSim::run.
ClusterResult run_cluster(const ClusterConfig& config, int node_jobs = 0);

/// Replica semantics of run_serve_repeats: salted seeds, merge in replica
/// order, only replica 0 records — byte-identical for any `jobs`.
ClusterResult run_cluster_repeats(const ClusterConfig& config, int repeats,
                                  int jobs);

/// Write the cluster result's summary (histograms + cluster.* counters)
/// into `rec`.
void export_result_to_recorder(const ClusterResult& result,
                               obs::RunRecorder& rec);

}  // namespace speedbal::cluster
