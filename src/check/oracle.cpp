#include "check/oracle.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>
#include <utility>

#include "check/config.hpp"
#include "core/scenarios.hpp"
#include "model/analytic.hpp"
#include "topo/presets.hpp"
#include "workload/generator.hpp"

namespace speedbal::check {

namespace {

/// Hexfloat rendering: byte-exact for any double, so two fingerprints match
/// iff every floating-point result is bit-identical.
std::string hex(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

std::string fingerprint_spmd(const ExperimentResult& res) {
  std::ostringstream os;
  for (const RunResult& r : res.runs) {
    os << "run completed=" << r.completed << " runtime=" << hex(r.runtime_s)
       << " migrations=" << r.total_migrations
       << " policy=" << r.policy_migrations;
    for (const auto& [cause, n] : r.migrations_by_cause)
      os << " " << to_string(cause) << "=" << n;
    os << "\n";
  }
  os << "mean=" << hex(res.runtime.mean) << " min=" << hex(res.runtime.min)
     << " max=" << hex(res.runtime.max) << "\n";
  return os.str();
}

std::string fingerprint_serve(const serve::ServeResult& res) {
  std::ostringstream os;
  os << "offered=" << res.stats.offered << " admitted=" << res.stats.admitted
     << " dropped=" << res.stats.dropped
     << " completed=" << res.stats.completed
     << " max_depth=" << res.stats.max_queue_depth
     << " generated=" << res.generated
     << " goodput=" << hex(res.goodput_rps)
     << " migrations=" << res.total_migrations;
  for (const auto& [cause, n] : res.migrations_by_cause)
    os << " " << to_string(cause) << "=" << n;
  for (const double p : {50.0, 90.0, 99.0, 99.9})
    os << " lat_p" << p << "=" << hex(res.stats.latency.percentile(p))
       << " wait_p" << p << "=" << hex(res.stats.queue_wait.percentile(p));
  os << " lat_mean=" << hex(res.stats.latency.mean()) << "\n";
  return os.str();
}

std::string fingerprint_cluster(const cluster::ClusterResult& res) {
  std::ostringstream os;
  os << "offered=" << res.stats.offered << " admitted=" << res.stats.admitted
     << " dropped=" << res.stats.dropped
     << " completed=" << res.stats.completed << " generated=" << res.generated
     << " goodput=" << hex(res.goodput_rps)
     << " pool_migrations=" << res.pool_migrations
     << " peak_imbalance=" << hex(res.peak_imbalance)
     << " in_transit=" << res.stats.in_transit_end
     << " in_flight=" << res.stats.in_flight_end;
  for (const double p : {50.0, 99.0, 99.9})
    os << " lat_p" << p << "=" << hex(res.stats.latency.percentile(p));
  for (const std::int64_t n : res.completed_by_node) os << " " << n;
  os << "\n";
  return os.str();
}

}  // namespace

std::string check_jobs_identity(const FuzzScenario& sc,
                                std::vector<Violation>& out) {
  std::string serial;
  std::string parallel;
  if (sc.mode == Mode::Spmd) {
    ExperimentConfig cfg = spmd_experiment(sc);
    cfg.repeats = 3;
    cfg.jobs = 1;
    serial = fingerprint_spmd(run_experiment(cfg));
    cfg.jobs = 4;
    parallel = fingerprint_spmd(run_experiment(cfg));
  } else if (sc.mode == Mode::Cluster) {
    const cluster::ClusterConfig cfg = cluster_experiment(sc);
    serial = fingerprint_cluster(cluster::run_cluster_repeats(cfg, 3, 1));
    parallel = fingerprint_cluster(cluster::run_cluster_repeats(cfg, 3, 4));
    // Within one replica the node simulators advance on one thread or on
    // four between syncs; the fan-out must not show in the result.
    serial += fingerprint_cluster(cluster::run_cluster(cfg, 1));
    parallel += fingerprint_cluster(cluster::run_cluster(cfg, 4));
  } else {
    const serve::ServeConfig cfg = serve_experiment(sc);
    serial = fingerprint_serve(serve::run_serve_repeats(cfg, 3, 1));
    parallel = fingerprint_serve(serve::run_serve_repeats(cfg, 3, 4));
  }
  if (serial != parallel) {
    // Name the first diverging line, which is the diagnosable unit.
    std::istringstream a(serial);
    std::istringstream b(parallel);
    std::string la;
    std::string lb;
    int line = 0;
    while (std::getline(a, la)) {
      ++line;
      if (!std::getline(b, lb)) lb = "<missing>";
      if (la != lb) break;
    }
    out.push_back(Violation{
        "jobs-identity", "jobs=1 and jobs=4 diverge at line " +
                             std::to_string(line) + ": \"" + la +
                             "\" vs \"" + lb + "\""});
  }
  return serial;
}

std::vector<HeteroPoint> check_hetero_grid(std::vector<Violation>& out) {
  constexpr int kPhases = 6;
  constexpr double kWorkUs = 20000.0;
  std::vector<HeteroPoint> grid;
  for (const char* name : {"biglittle2+2x2", "biglittle4+4x3", "ladder6"}) {
    const Topology topo = presets::by_name(name);
    const int cores = topo.num_cores();

    model::HeteroShape shape;
    for (CoreId c = 0; c < cores; ++c)
      shape.speeds.push_back(topo.core(c).clock_scale);
    const double total_work = cores * kWorkUs;
    const double opt_us = model::optimal_makespan(shape, total_work);
    const double count_us = model::count_balanced_makespan(shape, total_work);

    ExperimentConfig cfg;
    cfg.topo = topo;
    cfg.app = workload::uniform_app(cores, kPhases, kWorkUs, BarrierConfig{});
    cfg.policy = Policy::Share;
    cfg.cores = cores;
    cfg.repeats = 1;
    cfg.jobs = 1;
    cfg.seed = 7;
    cfg.time_cap = sec(600);
    // Oracle conditions: fast clean epochs so the partition locks onto the
    // analytic optimum right after the bootstrap phase. Alpha 0.5 still
    // seeds the EWMA exactly from the first measurement but damps the one
    // partially-idle window an epoch can straddle at a phase boundary.
    cfg.share.interval = msec(5);
    cfg.share.ewma_alpha = 0.5;
    cfg.share.measurement_noise = 0.0;
    cfg.share.hysteresis = 0.0;
    cfg.share.min_share = 0.01;

    HeteroPoint pt;
    pt.topo = name;
    pt.cores = cores;
    pt.penalty = model::count_penalty(shape);
    // The launch-time partition is the uniform bootstrap, so the first
    // phase runs count-balanced; each later phase starts from a converged
    // speed-proportional partition.
    pt.predicted_share_s = (count_us + (kPhases - 1) * opt_us) / 1e6;
    pt.predicted_count_s = kPhases * count_us / 1e6;
    pt.share_s = run_experiment(cfg).runs.at(0).runtime_s;
    cfg.share.source = hetero::ShareParams::Source::Count;
    pt.count_s = run_experiment(cfg).runs.at(0).runtime_s;
    grid.push_back(pt);

    const auto relerr = [](double measured, double predicted) {
      return std::abs(measured - predicted) / predicted;
    };
    if (relerr(pt.share_s, pt.predicted_share_s) > kAnalyticTolerance)
      out.push_back(Violation{
          "hetero-analytic",
          std::string(name) + ": SHARE runtime " + std::to_string(pt.share_s) +
              "s vs predicted " + std::to_string(pt.predicted_share_s) +
              "s (error " +
              std::to_string(relerr(pt.share_s, pt.predicted_share_s)) +
              " > " + std::to_string(kAnalyticTolerance) + ")"});
    if (relerr(pt.count_s, pt.predicted_count_s) > kAnalyticTolerance)
      out.push_back(Violation{
          "hetero-analytic",
          std::string(name) + ": count-source runtime " +
              std::to_string(pt.count_s) + "s vs predicted " +
              std::to_string(pt.predicted_count_s) + "s (error " +
              std::to_string(relerr(pt.count_s, pt.predicted_count_s)) +
              " > " + std::to_string(kAnalyticTolerance) + ")"});
    const double predicted_ratio = pt.predicted_count_s / pt.predicted_share_s;
    const double measured_ratio = pt.count_s / pt.share_s;
    if (measured_ratio < 1.0 + 0.8 * (predicted_ratio - 1.0))
      out.push_back(Violation{
          "hetero-analytic",
          std::string(name) + ": count/SHARE ratio " +
              std::to_string(measured_ratio) + " realizes less than 80% of " +
              "the predicted gap " + std::to_string(predicted_ratio)});
  }
  return grid;
}

std::vector<AnalyticPoint> check_analytic_grid(std::vector<Violation>& out) {
  std::vector<AnalyticPoint> grid;
  const auto prof = npb::ep('A');
  for (const auto& [threads, cores] :
       {std::pair{3, 2}, std::pair{7, 3}, std::pair{9, 4}, std::pair{11, 4}}) {
    const model::SpmdShape shape{threads, cores};
    const auto topo = presets::generic(cores);
    const double serial = scenarios::serial_runtime_s(topo, prof, threads, 3);

    AnalyticPoint pt;
    pt.threads = threads;
    pt.cores = cores;
    pt.predicted_speedup =
        static_cast<double>(threads) * model::linux_program_speed(shape);
    const auto pinned = scenarios::run_npb(topo, prof, threads, cores,
                                           scenarios::Setup::Pinned, 2, 3);
    pt.pinned_speedup = serial / pinned.mean_runtime();
    const auto speed = scenarios::run_npb(topo, prof, threads, cores,
                                          scenarios::Setup::SpeedYield, 2, 3);
    pt.speed_speedup = serial / speed.mean_runtime();
    grid.push_back(pt);

    const std::string shape_str =
        "N=" + std::to_string(threads) + " M=" + std::to_string(cores);
    const double err = std::abs(pt.pinned_speedup - pt.predicted_speedup) /
                       pt.predicted_speedup;
    if (err > kAnalyticTolerance)
      out.push_back(Violation{
          "analytic", shape_str + ": PINNED speedup " +
                          std::to_string(pt.pinned_speedup) + " vs predicted " +
                          std::to_string(pt.predicted_speedup) +
                          " (error " + std::to_string(err) + " > " +
                          std::to_string(kAnalyticTolerance) + ")"});
    if (pt.speed_speedup <= pt.pinned_speedup * 1.03)
      out.push_back(Violation{
          "analytic", shape_str + ": SPEED speedup " +
                          std::to_string(pt.speed_speedup) +
                          " does not beat PINNED " +
                          std::to_string(pt.pinned_speedup) + " by 3%"});
    if (pt.speed_speedup > cores + 0.1)
      out.push_back(Violation{
          "analytic", shape_str + ": SPEED speedup " +
                          std::to_string(pt.speed_speedup) +
                          " exceeds machine capacity M=" +
                          std::to_string(cores)});
  }
  return grid;
}

}  // namespace speedbal::check
