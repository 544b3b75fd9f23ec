#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.hpp"
#include "perturb/timeline.hpp"
#include "serve/loadgen.hpp"
#include "serve/server.hpp"
#include "workload/arrivals.hpp"

namespace speedbal::serve {

/// The serving block: one machine serving an open-loop request stream,
/// the unit servesim runs once and clustersim runs on every node. It adds
/// the workload, the run window and the recording knobs to the machine
/// block, and defaults the stack to SPEED with demand-scaled measurement, so
/// a worker that sleeps on an empty queue does not read as a slow worker
/// (the batch default conflates idleness with slowness and migrates the
/// wrong way).
struct ServingParams : PolicyStackParams {
  ServingParams() {
    policy = Policy::Speed;
    speed.demand_scaled = true;
  }

  ServeParams serve;
  workload::ArrivalSpec arrival;
  workload::ServiceSpec service;
  SimTime duration = sec(10);
  /// Requests arriving before `warmup` are served but not measured.
  SimTime warmup = sec(1);
  std::uint64_t seed = 42;

  /// When set, the run records into this recorder: latency histograms, drop
  /// and throughput counters, queue-depth trace samples, balancer decisions.
  obs::RunRecorder* recorder = nullptr;
  /// Export the result-level summary (histograms and counters) into the
  /// recorder at the end of the run. run_replicas disables this for every
  /// replica and exports the *merged* result once instead.
  bool export_result = true;
};

/// One serve run: an open-loop load generator feeding the sharded dispatch
/// layer into a worker pool balanced by `policy` (the same Policy set the
/// batch experiments use — SPEED/LOAD/PINNED coexist with the kernel Linux
/// balancer; DWRR/ULE replace it; NONE leaves fork placement alone).
struct ServeConfig : ServingParams {
  /// Scripted interference applied mid-serving (DVFS, hotplug, hogs).
  perturb::PerturbTimeline perturb;

  /// Hooks mirroring ExperimentConfig's: `on_run_start` fires after the
  /// balancers and worker pool are attached but before the load generator
  /// starts (install probes via Simulator::schedule_at here); `on_run_end`
  /// fires after the runtime closes, while the simulation state is still
  /// alive. Null = unused. Under run_serve_repeats they fire in every
  /// replica, concurrently when jobs > 1.
  std::function<void(Simulator&, ServeRuntime&)> on_run_start;
  std::function<void(Simulator&, ServeRuntime&)> on_run_end;
};

/// Outcome of a serve run.
struct ServeResult {
  ServeStats stats;
  std::int64_t generated = 0;  ///< All arrivals, including warmup.
  double goodput_rps = 0.0;    ///< Completed / measured window.
  std::int64_t total_migrations = 0;
  std::map<MigrationCause, std::int64_t> migrations_by_cause;
};

/// Run the serving scenario once (serve runs are long and deterministic
/// under the seed; repeat-averaging is the caller's choice).
ServeResult run_serve(const ServeConfig& config);

/// Write a serve result's summary (latency histograms and serve.* counters)
/// into `rec`. run_serve calls this unless config.export_result is false;
/// run_serve_repeats calls it once with the merged result.
void export_result_to_recorder(const ServeResult& result, obs::RunRecorder& rec);

/// Run `repeats` independent replicas (salted seeds derived from
/// config.seed via replica_seed) up to `jobs`-way parallel and merge:
/// counters are summed, latency histograms merged, goodput averaged. Only
/// replica 0 records into config.recorder. Merging happens in replica
/// order, so the result is byte-identical for any `jobs`. repeats <= 1 is
/// exactly run_serve.
ServeResult run_serve_repeats(const ServeConfig& config, int repeats, int jobs);

/// Sum of the managed cores' relative clock speeds: the machine's service
/// capacity in nominal-work units per unit time.
double capacity(const Topology& topo, int cores);

/// Arrival rate (requests/s) that offers `utilization` of the managed
/// cores' capacity given the mean per-request service demand.
double rate_for_utilization(const Topology& topo, int cores,
                            double utilization, double mean_service_us);

/// The named serve scenarios advertised by `simrun --list-setups`
/// ("SERVE-SPEED", "SERVE-LOAD", ...): one per balancing policy.
std::vector<std::string> serve_setup_names();

/// Parse a serve policy name ("SPEED", "LOAD", "PINNED", "DWRR", "ULE",
/// "NONE", "SHARE"); throws std::invalid_argument naming the valid values
/// otherwise.
Policy parse_serve_policy(std::string_view name);

}  // namespace speedbal::serve
