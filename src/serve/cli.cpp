#include "serve/cli.hpp"

#include <chrono>
#include <iostream>
#include <sstream>
#include <string>

#include "obs/recorder.hpp"
#include "topo/presets.hpp"
#include "util/log.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"

namespace speedbal::serve {

void apply_serving_flags(const Cli& cli, ServingParams& p,
                         double default_utilization, int machines) {
  // A time flag given in `unit`s replaces its field; absent, it keeps it.
  const auto time_flag = [&cli](std::string_view name, SimTime unit,
                                SimTime& field) {
    if (cli.has(name))
      field = static_cast<SimTime>(cli.get_double(name, 0.0) * unit);
  };

  p.cores = static_cast<int>(cli.get_int("cores", p.topo.num_cores()));
  p.policy = parse_serve_policy(cli.get("policy", to_string(p.policy)));
  if (cli.has("adaptive")) p.adaptive.enabled = true;

  p.serve.queue_capacity =
      static_cast<int>(cli.get_int("queue-cap", p.serve.queue_capacity));
  p.serve.idle = parse_idle_mode(cli.get("idle", to_string(p.serve.idle)));
  p.serve.span_sampling_log2 = static_cast<int>(
      cli.get_int("span-sampling", p.serve.span_sampling_log2));

  workload::ServiceSpec& service = p.service;
  service.kind = workload::parse_service_kind(
      cli.get("service", workload::to_string(service.kind)));
  service.mean_us = cli.get_double("service-mean-us", service.mean_us);
  service.cv = cli.get_double("service-cv", service.cv);
  service.pareto_shape = cli.get_double("pareto-shape", service.pareto_shape);

  workload::ArrivalSpec& arrival = p.arrival;
  arrival.kind = workload::parse_arrival_kind(
      cli.get("arrival", workload::to_string(arrival.kind)));
  arrival.rate_rps =
      cli.has("rate")
          ? cli.get_double("rate", 0.0)
          : static_cast<double>(machines) *
                rate_for_utilization(
                    p.topo, p.cores,
                    cli.get_double("utilization", default_utilization),
                    service.mean_us);
  arrival.burst_factor = cli.get_double("burst-factor", arrival.burst_factor);
  time_flag("burst-dwell-ms", kMsec, arrival.burst_dwell_mean);
  time_flag("calm-dwell-ms", kMsec, arrival.calm_dwell_mean);
  time_flag("diurnal-period-s", kSec, arrival.diurnal_period);
  arrival.diurnal_swing =
      cli.get_double("diurnal-swing", arrival.diurnal_swing);

  time_flag("duration-s", kSec, p.duration);
  time_flag("warmup-s", kSec, p.warmup);
  p.seed = static_cast<std::uint64_t>(
      cli.get_int("seed", static_cast<std::int64_t>(p.seed)));
}

ServeConfig parse_serve_config(const Cli& cli) {
  ServeConfig config;
  config.topo = presets::by_name(cli.get("topo", "tigerton"));
  apply_serving_flags(cli, config, /*default_utilization=*/0.8,
                      /*machines=*/1);

  // `--serve` doubles as the policy when given a value (simrun spelling),
  // as does `--setup=SERVE-<POLICY>` (the simrun scenario spelling); both
  // override `--policy`. Bare `--serve` means "default".
  if (const std::string s = cli.get("setup"); s.rfind("SERVE-", 0) == 0)
    config.policy = parse_serve_policy(s.substr(6));
  if (const std::string s = cli.get("serve"); !s.empty() && s != "true")
    config.policy = parse_serve_policy(s);

  // Default to 2x oversubscription: with fewer workers than cores placement
  // barely matters, which would make every policy look alike.
  const int workers = static_cast<int>(cli.get_int("workers", 0));
  config.serve.workers =
      workers > 0 ? workers : 2 * managed_core_count(config.topo, config.cores);
  // SHARE is only visible to the dispatcher through its weights, so it
  // defaults to weighted dispatch; --dispatch still overrides.
  config.serve.dispatch = parse_dispatch_policy(cli.get(
      "dispatch", config.policy == Policy::Share ? "weighted" : "jsq"));

  config.perturb = perturb::PerturbTimeline::from_flags(cli);
  return config;
}

bool handle_tool_flags(const Cli& cli,
                       const std::vector<std::string>& dispatch_names) {
  std::vector<std::string> names;
  if (cli.has("list-policies")) {
    for (const Policy p : kAllPolicies) names.emplace_back(to_string(p));
  } else if (cli.has("list-dispatch")) {
    names = dispatch_names;
  } else if (cli.has("list-arrivals")) {
    names = workload::arrival_kind_names();
  } else if (cli.has("list-services")) {
    names = workload::service_kind_names();
  } else {
    apply_log_level_flag(cli);
    return false;
  }
  for (const std::string& n : names) std::cout << n << "\n";
  return true;
}

int serve_main(const Cli& cli, std::string_view tool) {
  ServeConfig config = parse_serve_config(cli);

  const std::string trace_out = cli.get("trace-out");
  const std::string report_json = cli.get("report-json");
  obs::RunRecorder recorder;
  // The overhead gate needs the recorder active to have anything to meter,
  // so asking for the gate implies recording even with no output files.
  const bool record = !trace_out.empty() || !report_json.empty() ||
                      cli.has("max-overhead-pct");
  if (record) {
    recorder.set_meta("tool", std::string(tool));
    recorder.set_meta("machine", config.topo.name());
    recorder.set_meta("mode", "serve");
    recorder.set_meta("policy", to_string(config.policy));
    recorder.set_meta("dispatch", to_string(config.serve.dispatch));
    recorder.set_meta("idle", to_string(config.serve.idle));
    recorder.set_meta("arrival", workload::to_string(config.arrival.kind));
    recorder.set_meta("service", workload::to_string(config.service.kind));
    recorder.set_meta("workers", std::to_string(config.serve.workers));
    recorder.set_meta("cores", std::to_string(config.cores));
    recorder.set_meta("seed", std::to_string(config.seed));
    recorder.set_meta("span_sampling",
                      std::to_string(config.serve.span_sampling_log2));
    if (config.adaptive.enabled) recorder.set_meta("adaptive", "1");
    {
      std::ostringstream rate;
      rate << config.arrival.rate_rps;
      recorder.set_meta("rate_rps", rate.str());
    }
    if (!config.perturb.empty())
      recorder.set_meta("perturb", config.perturb.to_specs());
    config.recorder = &recorder;
  }

  const int repeats = static_cast<int>(cli.get_int("repeats", 1));
  const int jobs = resolve_jobs(static_cast<int>(cli.get_int("jobs", 0)));
  const auto wall_start = std::chrono::steady_clock::now();
  const ServeResult result = run_serve_repeats(config, repeats, jobs);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  const ServeStats& s = result.stats;

  Table table({"metric", "value"});
  table.add_row({"machine", config.topo.name()});
  table.add_row({"policy", to_string(config.policy)});
  if (repeats > 1) table.add_row({"replicas", std::to_string(repeats)});
  table.add_row({"dispatch", to_string(config.serve.dispatch)});
  table.add_row({"workers / cores", std::to_string(config.serve.workers) +
                                        " / " + std::to_string(config.cores)});
  table.add_row({"arrival",
                 std::string(workload::to_string(config.arrival.kind)) + " @ " +
                     Table::num(config.arrival.rate_rps, 1) + " req/s"});
  table.add_row({"service",
                 std::string(workload::to_string(config.service.kind)) +
                     " mean " + Table::num(config.service.mean_us, 0) + "us"});
  table.add_row({"offered load",
                 Table::num(config.arrival.rate_rps *
                                config.service.mean_us / 1e6 /
                                capacity(config.topo, config.cores),
                            2)});
  table.add_row({"requests (generated)", std::to_string(result.generated)});
  table.add_row({"offered / admitted / dropped",
                 std::to_string(s.offered) + " / " + std::to_string(s.admitted) +
                     " / " + std::to_string(s.dropped)});
  table.add_row({"completed", std::to_string(s.completed)});
  table.add_row({"drop rate %", Table::num(100.0 * s.drop_rate(), 2)});
  table.add_row({"goodput (req/s)", Table::num(result.goodput_rps, 1)});
  table.add_row({"latency p50 (ms)", Table::num(s.latency.percentile(50) / 1e6, 2)});
  table.add_row({"latency p95 (ms)", Table::num(s.latency.percentile(95) / 1e6, 2)});
  table.add_row({"latency p99 (ms)", Table::num(s.latency.percentile(99) / 1e6, 2)});
  table.add_row({"latency p99.9 (ms)",
                 Table::num(s.latency.percentile(99.9) / 1e6, 2)});
  table.add_row({"queue wait p99 (ms)",
                 Table::num(s.queue_wait.percentile(99) / 1e6, 2)});
  table.add_row({"max queue depth", std::to_string(s.max_queue_depth)});
  table.add_row({"migrations", std::to_string(result.total_migrations)});
  double overhead_pct = 0.0;
  if (record) {
    overhead_pct = recorder.overhead().pct_of(wall_s);
    table.add_row({"sampled spans", std::to_string(recorder.spans().size())});
    table.add_row({"tracing overhead %", Table::num(overhead_pct, 3)});
    table.add_row({"export overhead %",
                   Table::num(recorder.export_overhead().pct_of(wall_s), 3)});
  }
  table.print(std::cout);

  bool io_ok = true;
  if (!trace_out.empty()) io_ok &= obs::write_trace_file(recorder, trace_out);
  if (!report_json.empty())
    io_ok &= obs::write_report_file(recorder, report_json);
  if (!io_ok) return 2;
  // Self-overhead budget gate (check.sh uses this): fail when the
  // observability layer's hot-path cost (span capture, telemetry flushes)
  // exceeds the allowed share of wall time. End-of-run export is reported
  // above but not gated: its bulk copy scales with simulated time, so it
  // dominates the ratio on fast episodes without taxing the serving path.
  if (record && cli.has("max-overhead-pct") &&
      overhead_pct > cli.get_double("max-overhead-pct", 100.0)) {
    std::cerr << "serve: tracing overhead " << overhead_pct
              << "% exceeds --max-overhead-pct="
              << cli.get_double("max-overhead-pct", 100.0) << "\n";
    return 3;
  }
  return 0;
}

}  // namespace speedbal::serve
