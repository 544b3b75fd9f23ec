#pragma once

#include <string_view>

#include "cluster/cluster.hpp"
#include "util/cli.hpp"

namespace speedbal::cluster {

/// Build a ClusterConfig from command-line flags (see clustersim_main.cpp
/// for the flag reference): the serving flags servesim reads
/// (serve::apply_serving_flags, --utilization defaulting to 0.7 of the
/// whole cluster) plus the cluster's own. Throws std::invalid_argument —
/// naming the valid values — on unknown policy / dispatch / arrival /
/// service names.
ClusterConfig parse_cluster_config(const Cli& cli);

/// The complete cluster front end (`clustersim`): parse flags, run the
/// scenario, print the stats table, write the optional trace / JSON report.
/// Returns the process exit code.
int cluster_main(const Cli& cli, std::string_view tool);

}  // namespace speedbal::cluster
