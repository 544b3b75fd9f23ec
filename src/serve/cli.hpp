#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "serve/scenarios.hpp"
#include "util/cli.hpp"

namespace speedbal::serve {

/// Apply the serving flags that servesim, `simrun --serve` and clustersim
/// share to `p`, whose tool defaults (topo, span sampling) are already set.
/// Each flag overrides its field: --policy, --cores (default: every core of
/// `p.topo`), --queue-cap, --idle, --span-sampling, --service,
/// --service-mean-us, --service-cv, --pareto-shape, --arrival,
/// --burst-factor, --burst-dwell-ms, --calm-dwell-ms, --diurnal-period-s,
/// --diurnal-swing, --duration-s, --warmup-s, --seed and --adaptive. The
/// arrival rate is --rate, or else --utilization (default
/// `default_utilization`) of the capacity of `machines` such machines.
/// Throws std::invalid_argument — naming the valid values — on unknown
/// policy / idle / arrival / service names.
void apply_serving_flags(const Cli& cli, ServingParams& p,
                         double default_utilization, int machines);

/// Build a ServeConfig from command-line flags (see servesim_main.cpp for
/// the flag reference). Throws std::invalid_argument — naming the valid
/// values — on unknown policy / dispatch / arrival / service names.
ServeConfig parse_serve_config(const Cli& cli);

/// The flags servesim and clustersim act on before a run. A listing flag
/// (--list-policies, --list-dispatch printing `dispatch_names`,
/// --list-arrivals, --list-services) prints one name per line and returns
/// true: the tool exits 0. Otherwise --log-level is applied and it returns
/// false.
bool handle_tool_flags(const Cli& cli,
                       const std::vector<std::string>& dispatch_names);

/// The complete serve front end shared by `servesim` and `simrun --serve`:
/// parse flags, run the scenario, print the stats table, write the optional
/// trace / JSON report. Returns the process exit code.
int serve_main(const Cli& cli, std::string_view tool);

}  // namespace speedbal::serve
