// perfbench: the measuring half of the repository benchmark (run.py is the
// aggregating half; README.md documents both). It runs one named workload
// for a wall-clock budget and prints one JSON record per episode on stdout.
//
//   perfbench --workload spmd_npb|serve_recorded|cluster_dvfs
//             --seed N --seconds S --trace 0|1
//
// A "pass" is the workload's fixed list of episodes, derived from --seed
// alone; whole passes repeat until the budget is spent, and every pass must
// reproduce the first one exactly. With --trace 1 each episode runs twice
// back to back, untraced and traced, so the traced copy can be checked for
// identity against the untraced one and its overhead measured.
//
// Layers are timed only from outside: spans are taken around the public
// calls into each layer (run_experiment and its hooks, run_serve and its
// hooks, the ClusterSim constructor and run(), the report writer) and
// counts come from public accessors.

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/scenarios.hpp"
#include "obs/recorder.hpp"
#include "serve/scenarios.hpp"
#include "topo/presets.hpp"
#include "util/json.hpp"
#include "workload/npb.hpp"

using namespace speedbal;

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point kOrigin = Clock::now();

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              kOrigin)
      .count();
}

/// splitmix64 finalizer: decorrelates the per-episode seeds derived from the
/// workload seed.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t episode_seed(std::uint64_t seed, int cell) {
  return mix(mix(seed) ^ (static_cast<std::uint64_t>(cell) << 32));
}

struct Span {
  std::string name;
  std::string parent;
  std::int64_t start = 0;
  std::int64_t end = 0;
};

/// One episode's record. `counts` are deterministic under the episode seed;
/// `times` are host measurements other than spans; `sim` are simulated
/// results (also deterministic).
struct Episode {
  std::string cell;
  bool traced = false;
  std::vector<Span> spans;
  std::map<std::string, double> counts;
  std::map<std::string, double> times;
  std::map<std::string, double> sim;
  /// Simulated barrier-to-barrier phase times (SPMD, first pass only): the
  /// latency distribution of the SPMD unit of work.
  std::vector<double> phase_ms;
  std::string failure;  ///< Empty when the episode passed its gate.

  void span(std::string name, std::string parent, std::int64_t start,
            std::int64_t end) {
    spans.push_back({std::move(name), std::move(parent), start, end});
  }
};

void count_migrations(const Metrics& m, Episode& ep) {
  for (std::size_t c = 0; c < kNumMigrationCauses; ++c) {
    const auto cause = static_cast<MigrationCause>(c);
    ep.counts[std::string("mig.") + to_string(cause)] +=
        static_cast<double>(m.migration_count(cause));
  }
}

void count_decisions(const obs::RunRecorder& rec, Episode& ep) {
  const auto counts = rec.decisions().counts();
  for (int r = 0; r < obs::kNumPullReasons; ++r)
    ep.counts[std::string("pull.") + obs::to_string(static_cast<obs::PullReason>(r))] =
        static_cast<double>(counts[static_cast<std::size_t>(r)]);
}

/// End-of-loop harvest shared by the SPMD and serve episodes: counts read
/// from the live Simulator, plus (traced) the segment-drain span and the
/// exec_in_window probe over every task x balance-interval window.
void harvest_sim(const Simulator& sim, std::uint64_t events_at_start,
                 SimTime window, const char* parent, Episode& ep) {
  ep.counts["events"] =
      static_cast<double>(sim.events_executed() - events_at_start);
  ep.counts["tasks"] = sim.num_tasks();
  ep.counts["sim_s"] = to_sec(sim.now());
  const std::int64_t d0 = now_ns();
  ep.counts["segments"] = static_cast<double>(sim.metrics().segments().size());
  const std::int64_t d1 = now_ns();
  count_migrations(sim.metrics(), ep);
  if (!ep.traced) return;
  ep.span("sim.segments_drain", parent, d0, d1);

  const std::int64_t q0 = now_ns();
  SimTime sink = 0;
  std::int64_t queries = 0;
  for (TaskId t = 0; t < sim.num_tasks(); ++t)
    for (SimTime from = 0; from < sim.now(); from += window, ++queries)
      sink += sim.metrics().exec_in_window(t, from, from + window);
  const std::int64_t q1 = now_ns();
  ep.span("sim.window_query", parent, q0, q1);
  ep.counts["window_queries"] = static_cast<double>(queries);
  // The probe's checksum: total exec over all windows, deterministic.
  ep.counts["window_exec_us"] = static_cast<double>(sink);
}

/// util.stats probe on an episode's real latency histogram.
void probe_histogram(const LatencyHistogram& h, Episode& ep) {
  constexpr int kCalls = 2000;
  const std::int64_t t0 = now_ns();
  double sink = 0.0;
  for (int i = 0; i < kCalls; ++i) sink += h.percentile(50.0 + (i % 50));
  const std::int64_t t1 = now_ns();
  LatencyHistogram acc;
  for (int i = 0; i < kCalls; ++i) acc.merge(h);
  const std::int64_t t2 = now_ns();
  ep.span("util.probe", "episode", t0, t2);
  ep.times["percentile_ns"] = static_cast<double>(t1 - t0) / kCalls;
  ep.times["merge_ns"] = static_cast<double>(t2 - t1) / kCalls;
  // Keeps the calls observable; also a determinism check on merge.
  ep.counts["probe_merged"] = static_cast<double>(acc.count());
  ep.sim["probe_percentile_sum_ms"] = sink / 1e6;
}

// ---------------------------------------------------------------- spmd_npb

/// The paper's uneven-oversubscription experiment: 16 threads on 12 cores.
constexpr int kSpmdThreads = 16;
constexpr int kSpmdCores = 12;

struct SpmdCell {
  std::string topo;
  NpbProfile prof;
  scenarios::Setup setup;
  std::string key() const {
    return topo + "/" + prof.full_name() + "/" + scenarios::to_string(setup);
  }
};

std::vector<SpmdCell> spmd_cells() {
  std::vector<SpmdCell> cells;
  for (const char* topo : {"tigerton", "barcelona"})
    for (const auto& prof : npb::paper_selection())
      for (auto setup : {scenarios::Setup::SpeedYield, scenarios::Setup::LoadYield})
        cells.push_back({topo, prof, setup});
  return cells;
}

Episode spmd_episode(const SpmdCell& cell, std::uint64_t seed, bool traced,
                     bool keep_phases) {
  Episode ep;
  ep.cell = cell.key();
  ep.traced = traced;
  // The balance layer's decision counts need a recorder, which the workload
  // itself does not attach: the traced copy of each SPEED episode does.
  const bool record = traced && cell.setup == scenarios::Setup::SpeedYield;

  const std::int64_t t0 = now_ns();
  const Topology topo = presets::by_name(cell.topo);
  const std::int64_t t_topo = now_ns();
  std::unique_ptr<obs::RunRecorder> rec;
  if (record) rec = std::make_unique<obs::RunRecorder>();
  ExperimentConfig cfg = scenarios::npb_config(topo, cell.prof, kSpmdThreads,
                                               kSpmdCores, cell.setup, 1, seed);
  cfg.recorder = rec.get();
  std::int64_t t_start = 0;
  std::int64_t t_end = 0;
  std::uint64_t events0 = 0;
  const SimTime window = cfg.speed.interval;
  cfg.on_run_start = [&](Simulator& sim, SpmdApp&, int) {
    events0 = sim.events_executed();
    t_start = now_ns();
  };
  cfg.on_run_end = [&](Simulator& sim, SpmdApp& app, int) {
    t_end = now_ns();
    ep.counts["work_items"] = static_cast<double>(app.phase_times().size());
    if (keep_phases)
      for (const SimTime t : app.phase_times()) ep.phase_ms.push_back(to_sec(t) * 1e3);
    harvest_sim(sim, events0, window, "core.harvest", ep);
  };
  const ExperimentResult result = run_experiment(cfg);
  const std::int64_t t_ret = now_ns();

  ep.span("episode", "", t0, t_ret);
  ep.span("topo.build", "episode", t0, t_topo);
  ep.span("core.setup", "episode", t_topo, t_start);
  ep.span("sim.loop", "episode", t_start, t_end);
  ep.span("core.harvest", "episode", t_end, t_ret);

  const RunResult& run = result.runs.at(0);
  ep.sim["runtime_s"] = run.runtime_s;
  if (record) count_decisions(*rec, ep);
  if (!run.completed) ep.failure = "hit the simulated time cap";
  return ep;
}

// ---------------------------------------------------------- serve_recorded

serve::ServeConfig serve_config(const Topology& topo, std::uint64_t seed) {
  serve::ServeConfig cfg;
  cfg.topo = topo;
  cfg.cores = 16;
  cfg.policy = Policy::Speed;
  cfg.serve.workers = 32;
  cfg.serve.queue_capacity = 64;
  cfg.serve.dispatch = serve::DispatchPolicy::JoinShortestQueue;
  cfg.serve.span_sampling_log2 = 0;
  cfg.service.kind = workload::ServiceKind::Exp;
  cfg.service.mean_us = 5000.0;
  cfg.arrival.kind = workload::ArrivalKind::Poisson;
  cfg.arrival.rate_rps =
      serve::rate_for_utilization(topo, cfg.cores, 0.8, cfg.service.mean_us);
  cfg.duration = sec(120);
  cfg.warmup = sec(10);
  cfg.seed = seed;
  // Cores 0-3 step to half speed mid-run, so the speed balancer has pulls
  // to make.
  for (int core = 0; core < 4; ++core) {
    perturb::PerturbEvent ev;
    ev.at = sec(60);
    ev.kind = perturb::PerturbKind::Dvfs;
    ev.core = core;
    ev.scale = 0.5;
    cfg.perturb.add(ev);
  }
  return cfg;
}

Episode serve_episode(std::uint64_t seed, bool traced) {
  Episode ep;
  ep.cell = "serve";
  ep.traced = traced;

  const std::int64_t t0 = now_ns();
  const Topology topo = presets::tigerton();
  const std::int64_t t_topo = now_ns();
  auto rec = std::make_unique<obs::RunRecorder>();
  serve::ServeConfig cfg = serve_config(topo, seed);
  cfg.recorder = rec.get();
  std::int64_t t_start = 0;
  std::int64_t t_end = 0;
  std::uint64_t events0 = 0;
  const SimTime window = cfg.speed.interval;
  cfg.on_run_start = [&](Simulator& sim, serve::ServeRuntime&) {
    events0 = sim.events_executed();
    t_start = now_ns();
  };
  cfg.on_run_end = [&](Simulator& sim, serve::ServeRuntime&) {
    t_end = now_ns();
    harvest_sim(sim, events0, window, "serve.harvest", ep);
  };
  const serve::ServeResult result = serve::run_serve(cfg);
  const std::int64_t t_ret = now_ns();
  std::ostringstream report;
  rec->write_report_json(report);
  const std::int64_t t_report = now_ns();

  const serve::ServeStats& s = result.stats;
  if (traced) probe_histogram(s.latency, ep);
  const std::int64_t t_done = now_ns();

  ep.span("episode", "", t0, t_done);
  ep.span("topo.build", "episode", t0, t_topo);
  ep.span("serve.setup", "episode", t_topo, t_start);
  ep.span("serve.loop", "episode", t_start, t_end);
  ep.span("serve.harvest", "episode", t_end, t_ret);
  ep.span("obs.report_write", "episode", t_ret, t_report);

  ep.counts["generated"] = static_cast<double>(result.generated);
  ep.counts["offered"] = static_cast<double>(s.offered);
  ep.counts["admitted"] = static_cast<double>(s.admitted);
  ep.counts["dropped"] = static_cast<double>(s.dropped);
  ep.counts["completed"] = static_cast<double>(s.completed);
  ep.counts["work_items"] = static_cast<double>(s.completed);
  ep.counts["max_queue_depth"] = s.max_queue_depth;
  ep.counts["report_bytes"] = static_cast<double>(report.tellp());
  ep.counts["spans"] = static_cast<double>(rec->spans().size());
  ep.counts["spans_dropped"] = static_cast<double>(rec->spans().dropped());
  ep.counts["decisions_dropped"] =
      static_cast<double>(rec->decisions().dropped());
  ep.counts["run_segments_dropped"] =
      static_cast<double>(rec->run_segments().dropped());
  count_decisions(*rec, ep);
  ep.times["obs_hot_s"] = static_cast<double>(rec->overhead().total_ns()) / 1e9;
  ep.times["obs_export_s"] =
      static_cast<double>(rec->export_overhead().total_ns()) / 1e9;

  ep.sim["p50_ms"] = s.latency.percentile(50) / 1e6;
  ep.sim["p99_ms"] = s.latency.percentile(99) / 1e6;
  ep.sim["max_ms"] = static_cast<double>(s.latency.max()) / 1e6;
  ep.sim["drop_rate"] = s.drop_rate();

  if (s.offered != s.admitted + s.dropped)
    ep.failure = "offered != admitted + dropped";
  else if (s.completed > s.admitted)
    ep.failure = "completed > admitted";
  return ep;
}

// ------------------------------------------------------------ cluster_dvfs

cluster::ClusterConfig cluster_config(const Topology& topo, std::uint64_t seed) {
  cluster::ClusterConfig cfg;
  cfg.nodes = 16;
  cfg.pools_per_node = 1;
  cfg.topo = topo;
  cfg.cores = 4;
  cfg.policy = Policy::Speed;
  cfg.serve.workers = 8;
  cfg.serve.idle = serve::IdleMode::Yield;
  cfg.serve.span_sampling_log2 = -1;
  cfg.dispatch = cluster::ClusterDispatch::RoundRobin;
  cfg.service.kind = workload::ServiceKind::Exp;
  cfg.service.mean_us = 5000.0;
  cfg.arrival.kind = workload::ArrivalKind::Poisson;
  cfg.arrival.rate_rps =
      cfg.nodes *
      serve::rate_for_utilization(topo, cfg.cores, 0.7, cfg.service.mean_us);
  cfg.duration = sec(120);
  cfg.warmup = sec(10);
  cfg.seed = seed;
  cfg.rebalance.enabled = true;
  // Node 0 drops to quarter speed: the rebalancer must move its pool away.
  for (int core = 0; core < 4; ++core) {
    perturb::PerturbEvent ev;
    ev.at = sec(20);
    ev.kind = perturb::PerturbKind::Dvfs;
    ev.core = core;
    ev.scale = 0.25;
    cfg.node_perturb[0].add(ev);
  }
  return cfg;
}

Episode cluster_episode(std::uint64_t seed, bool traced) {
  Episode ep;
  ep.cell = "cluster";
  ep.traced = traced;

  const std::int64_t t0 = now_ns();
  const Topology topo = presets::generic(4);
  const std::int64_t t_topo = now_ns();
  const cluster::ClusterConfig cfg = cluster_config(topo, seed);
  auto sim = std::make_unique<cluster::ClusterSim>(cfg);
  const std::int64_t t_setup = now_ns();
  const cluster::ClusterResult result = sim->run();
  const std::int64_t t_run = now_ns();

  double events = 0;
  double tasks = 0;
  double segments = 0;
  for (int n = 0; n < sim->num_nodes(); ++n) {
    const Simulator& node = sim->node_sim(n);
    events += static_cast<double>(node.events_executed());
    tasks += node.num_tasks();
    segments += static_cast<double>(node.metrics().segments().size());
    count_migrations(node.metrics(), ep);
  }
  const std::int64_t t_nodes = now_ns();
  sim.reset();
  const std::int64_t t_ret = now_ns();

  const cluster::ClusterStats& s = result.stats;
  if (traced) probe_histogram(s.latency, ep);
  const std::int64_t t_done = now_ns();

  ep.span("episode", "", t0, t_done);
  ep.span("topo.build", "episode", t0, t_topo);
  ep.span("cluster.setup", "episode", t_topo, t_setup);
  ep.span("cluster.run", "episode", t_setup, t_run);
  ep.span("cluster.harvest", "episode", t_run, t_ret);
  if (traced) ep.span("sim.segments_drain", "cluster.harvest", t_run, t_nodes);

  ep.counts["events"] = events;
  ep.counts["tasks"] = tasks;
  ep.counts["segments"] = segments;
  ep.counts["sim_s"] = to_sec(cfg.duration);
  ep.counts["generated"] = static_cast<double>(s.total_generated);
  ep.counts["offered"] = static_cast<double>(s.offered);
  ep.counts["admitted"] = static_cast<double>(s.admitted);
  ep.counts["dropped"] = static_cast<double>(s.dropped);
  ep.counts["completed"] = static_cast<double>(s.completed);
  ep.counts["work_items"] = static_cast<double>(s.completed);
  ep.counts["pool_migrations"] = static_cast<double>(result.pool_migrations);
  ep.counts["peak_imbalance"] = result.peak_imbalance;

  ep.sim["p50_ms"] = s.latency.percentile(50) / 1e6;
  ep.sim["p99_ms"] = s.latency.percentile(99) / 1e6;
  ep.sim["max_ms"] = static_cast<double>(s.latency.max()) / 1e6;
  ep.sim["drop_rate"] = s.drop_rate();

  if (s.total_generated != s.total_completed + s.total_dropped +
                               s.in_transit_end + s.in_flight_end)
    ep.failure =
        "total_generated != completed + dropped + in_transit + in_flight";
  return ep;
}

// ------------------------------------------------------------------- main

void write_map(JsonWriter& w, const char* key,
               const std::map<std::string, double>& m) {
  w.key(key).begin_object();
  for (const auto& [k, v] : m) w.kv(k, v);
  w.end_object();
}

void emit(const Episode& ep, int pass) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.kv("kind", "episode");
  w.kv("cell", ep.cell);
  w.kv("pass", pass);
  w.kv("traced", ep.traced);
  w.key("spans").begin_array();
  for (const Span& s : ep.spans) {
    w.begin_array();
    w.value(s.name).value(s.parent).value(s.start).value(s.end);
    w.end_array();
  }
  w.end_array();
  write_map(w, "counts", ep.counts);
  write_map(w, "times", ep.times);
  write_map(w, "sim", ep.sim);
  if (!ep.phase_ms.empty()) {
    w.key("phase_ms").begin_array();
    for (const double v : ep.phase_ms) w.value(v);
    w.end_array();
  }
  w.kv("failure", ep.failure);
  w.end_object();
  std::cout << os.str() << '\n';
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      o.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1")
        throw std::invalid_argument("--trace takes 0 or 1");
      o.trace = value == "1";
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    opt = parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }

  // One pass: the workload's episodes in a fixed order. Each closure runs
  // one episode, traced or not.
  std::vector<std::function<Episode(bool traced, bool first_pass)>> pass;
  if (opt.workload == "spmd_npb") {
    const auto cells = spmd_cells();
    for (std::size_t c = 0; c < cells.size(); ++c) {
      const std::uint64_t seed = episode_seed(opt.seed, static_cast<int>(c));
      pass.push_back([cell = cells[c], seed](bool traced, bool first) {
        return spmd_episode(cell, seed, traced, first);
      });
    }
  } else if (opt.workload == "serve_recorded") {
    const std::uint64_t seed = episode_seed(opt.seed, 0);
    pass.push_back(
        [seed](bool traced, bool) { return serve_episode(seed, traced); });
  } else if (opt.workload == "cluster_dvfs") {
    const std::uint64_t seed = episode_seed(opt.seed, 0);
    pass.push_back(
        [seed](bool traced, bool) { return cluster_episode(seed, traced); });
  } else {
    std::cerr << "perfbench: unknown workload " << opt.workload
              << " (spmd_npb, serve_recorded, cluster_dvfs)\n";
    return 2;
  }

  // Whole passes only, until the budget is spent: every cell then has the
  // same number of samples. Simulated metrics are taken from pass 0.
  const std::int64_t budget_ns = static_cast<std::int64_t>(opt.seconds * 1e9);
  const std::int64_t start = now_ns();
  // Peak RSS is read when the first pass ends: later passes repeat the same
  // work, and allocator fragmentation would otherwise make the figure depend
  // on how many passes the host managed.
  double peak_rss_mb = 0.0;
  for (int p = 0; p == 0 || now_ns() - start < budget_ns; ++p) {
    for (const auto& episode : pass) {
      emit(episode(false, p == 0), p);
      if (opt.trace) emit(episode(true, p == 0), p);
    }
    if (p == 0) {
      rusage usage{};
      getrusage(RUSAGE_SELF, &usage);
      peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
    }
  }

  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.kv("kind", "end");
  w.kv("peak_rss_mb", peak_rss_mb);
  w.end_object();
  std::cout << os.str() << std::endl;
  return 0;
}
