// Golden model digests: every policy on every tier, at two seeds, hashed
// from the run report. A change that moves any simulated outcome (a
// migration, a latency bucket, a counter) moves its cell's digest, so
// "reports stay byte-identical under --seed" is checked on every build,
// sanitizer trees included. The `cli/` cells run configs built by the
// servesim and clustersim flag parsers, so a drifted flag default moves
// them too; the `fuzz/` cells hash the outcome summary of a short fixed
// fuzz leg per mode, so a drifted scenario lowering moves them.
//
//   model_digest_test                 compare against tests/golden/digests.json
//   model_digest_test --write=PATH    write the current digests to PATH
//
// scripts/regen_digests.sh regenerates the golden file; a change that moves
// the model commits the new file and says which cells moved and why.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "check/episode.hpp"
#include "check/scenario.hpp"
#include "cluster/cli.hpp"
#include "cluster/cluster.hpp"
#include "core/experiment.hpp"
#include "obs/recorder.hpp"
#include "perturb/timeline.hpp"
#include "serve/cli.hpp"
#include "serve/scenarios.hpp"
#include "topo/presets.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "workload/generator.hpp"

namespace speedbal {
namespace {

/// 64-bit FNV-1a.
std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string report_digest(const obs::RunRecorder& rec) {
  std::ostringstream os;
  rec.write_report_json(os);
  return hex64(fnv1a64(os.str()));
}

/// One matrix column: a policy, with SPEED also run under the adaptive
/// controller ("ADAPTIVE").
struct Variant {
  std::string name;
  Policy policy;
  bool adaptive;
};

std::vector<Variant> variants() {
  std::vector<Variant> out;
  for (Policy p : {Policy::Speed, Policy::Load, Policy::Pinned, Policy::Dwrr,
                   Policy::Ule, Policy::None, Policy::Share})
    out.push_back({to_string(p), p, false});
  out.push_back({"ADAPTIVE", Policy::Speed, true});
  return out;
}

constexpr std::uint64_t kSeeds[] = {1, 7919};

/// Two fast and two half-speed cores, so SPEED has slow cores to pull away
/// from and SHARE has unequal shares to set.
Topology machine() { return presets::by_name("biglittle2+2x2"); }

std::string spmd_cell(const Variant& v, std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.topo = machine();
  cfg.app = workload::uniform_app(6, 10, 100'000.0);
  cfg.policy = v.policy;
  cfg.adaptive.enabled = v.adaptive;
  cfg.repeats = 2;
  cfg.seed = seed;
  cfg.time_cap = sec(30);
  cfg.cpu_hog = true;
  cfg.cpu_hog_core = 3;
  cfg.perturb = perturb::PerturbTimeline::parse_specs(
      "at=300ms dvfs core=0 scale=0.5");
  obs::RunRecorder rec;
  cfg.recorder = &rec;
  run_experiment(cfg);
  return report_digest(rec);
}

std::string serve_cell(const Variant& v, std::uint64_t seed) {
  serve::ServeConfig cfg;
  cfg.topo = machine();
  cfg.policy = v.policy;
  cfg.adaptive.enabled = v.adaptive;
  cfg.serve.workers = 8;
  if (v.policy == Policy::Share)
    cfg.serve.dispatch = serve::DispatchPolicy::Weighted;
  cfg.service.kind = workload::ServiceKind::Exp;
  cfg.service.mean_us = 2000.0;
  cfg.arrival.rate_rps =
      serve::rate_for_utilization(cfg.topo, 0, 0.7, cfg.service.mean_us);
  cfg.duration = sec(2);
  cfg.warmup = msec(200);
  cfg.seed = seed;
  cfg.perturb = perturb::PerturbTimeline::parse_specs(
      "at=500ms dvfs core=0 scale=0.5");
  obs::RunRecorder rec;
  cfg.recorder = &rec;
  serve::run_serve_repeats(cfg, /*repeats=*/2, /*jobs=*/1);
  return report_digest(rec);
}

std::string cluster_cell(const Variant& v, std::uint64_t seed) {
  cluster::ClusterConfig cfg;
  cfg.nodes = 3;
  cfg.topo = machine();
  cfg.policy = v.policy;
  cfg.adaptive.enabled = v.adaptive;
  cfg.serve.workers = 6;
  cfg.serve.idle = serve::IdleMode::Yield;
  cfg.service.kind = workload::ServiceKind::Exp;
  cfg.service.mean_us = 2000.0;
  cfg.arrival.rate_rps =
      3.0 * serve::rate_for_utilization(cfg.topo, 0, 0.7, cfg.service.mean_us);
  cfg.duration = sec(2);
  cfg.warmup = msec(200);
  cfg.seed = seed;
  cfg.rebalance.epoch = msec(50);
  cfg.node_perturb[0] = perturb::PerturbTimeline::parse_specs(
      "at=300ms dvfs core=0 scale=0.25; at=300ms dvfs core=1 scale=0.25");
  obs::RunRecorder rec;
  cfg.recorder = &rec;
  cluster::run_cluster_repeats(cfg, /*repeats=*/2, /*jobs=*/1);
  return report_digest(rec);
}

using CellFn = std::function<std::string(const Variant&, std::uint64_t)>;
using Digests = std::map<std::string, std::string>;

/// Digests of one tier, keyed "<tier>/<variant>/<seed>".
Digests tier_digests(const std::string& tier, const CellFn& cell) {
  Digests out;
  for (const Variant& v : variants())
    for (const std::uint64_t seed : kSeeds)
      out[tier + "/" + v.name + "/" + std::to_string(seed)] = cell(v, seed);
  return out;
}

/// A Cli over `flags`, as a tool's main would see them.
Cli make_cli(const std::vector<std::string>& flags) {
  std::vector<const char*> argv = {"model_digest_test"};
  for (const std::string& f : flags) argv.push_back(f.c_str());
  return Cli(static_cast<int>(argv.size()), argv.data());
}

/// One flag set per cell. Every flag here is one both parsers have long
/// read, so these cells pin parse results, not new options.
using FlagCells = std::vector<std::pair<std::string, std::vector<std::string>>>;

const FlagCells& serve_flag_cells() {
  static const FlagCells kCells = {
      {"DEFAULT", {}},
      {"SHARE", {"--policy=SHARE", "--topo=biglittle2+2x2"}},
      {"ADAPTIVE", {"--adaptive", "--topo=generic4", "--idle=yield"}},
      {"BURSTY",
       {"--arrival=bursty", "--burst-factor=8", "--burst-dwell-ms=100",
        "--calm-dwell-ms=300", "--topo=generic4", "--queue-cap=16"}},
      {"DIURNAL",
       {"--arrival=diurnal", "--diurnal-period-s=0.5", "--diurnal-swing=0.5",
        "--service=pareto", "--pareto-shape=1.8", "--topo=generic4",
        "--cores=3", "--workers=5", "--dispatch=rr"}},
      {"PERTURB",
       {"--topo=generic4", "--utilization=0.9", "--span-sampling=2",
        "--perturb=at=300ms dvfs core=0 scale=0.5; at=400ms offline core=3"}},
  };
  return kCells;
}

const FlagCells& cluster_flag_cells() {
  static const FlagCells kCells = {
      {"DEFAULT", {}},
      {"SHARE", {"--nodes=3", "--policy=SHARE", "--topo=biglittle2+2x2"}},
      {"ADAPTIVE",
       {"--nodes=3", "--adaptive", "--idle=yield", "--dispatch=rr"}},
      {"BURSTY",
       {"--nodes=3", "--arrival=bursty", "--pools-per-node=2",
        "--pool-dispatch=rr", "--queue-cap=16"}},
      {"PERTURB",
       {"--nodes=3", "--utilization=0.9", "--rebalance-epoch-ms=100",
        "--service=lognormal", "--service-cv=2",
        "--perturb=at=300ms dvfs core=0 scale=0.25; at=300ms dvfs core=1 "
        "scale=0.25",
        "--perturb-node=1"}},
  };
  return kCells;
}

/// Reports of short runs whose configs come from the tool parsers, keyed
/// "cli/<tool>/<cell>/<seed>".
Digests cli_digests() {
  Digests out;
  for (const std::uint64_t seed : kSeeds) {
    const std::vector<std::string> common = {
        "--duration-s=1", "--warmup-s=0.2", "--seed=" + std::to_string(seed)};
    for (const auto& [name, flags] : serve_flag_cells()) {
      std::vector<std::string> all = common;
      all.insert(all.end(), flags.begin(), flags.end());
      serve::ServeConfig cfg = serve::parse_serve_config(make_cli(all));
      obs::RunRecorder rec;
      cfg.recorder = &rec;
      serve::run_serve(cfg);
      out["cli/servesim/" + name + "/" + std::to_string(seed)] =
          report_digest(rec);
    }
    for (const auto& [name, flags] : cluster_flag_cells()) {
      std::vector<std::string> all = common;
      all.insert(all.end(), flags.begin(), flags.end());
      cluster::ClusterConfig cfg = cluster::parse_cluster_config(make_cli(all));
      obs::RunRecorder rec;
      cfg.recorder = &rec;
      cluster::run_cluster(cfg);
      out["cli/clustersim/" + name + "/" + std::to_string(seed)] =
          report_digest(rec);
    }
  }
  return out;
}

/// Episodes per fuzz leg: generated scenarios seed, seed+1, ... forced into
/// one mode, as `fuzzsim --mode=M --seed=S` draws them.
constexpr int kLegEpisodes = 8;

/// The outcome summaries of a short fuzz leg per mode, keyed
/// "fuzz/<mode>/<seed>".
Digests fuzz_digests() {
  Digests out;
  for (const check::Mode mode :
       {check::Mode::Spmd, check::Mode::Serve, check::Mode::Cluster}) {
    for (const std::uint64_t seed : kSeeds) {
      std::string leg;
      for (int e = 0; e < kLegEpisodes; ++e) {
        check::FuzzScenario sc =
            check::generate(seed + static_cast<std::uint64_t>(e));
        sc.mode = mode;
        sc.validate();
        leg += check::run_episode(sc).digest();
      }
      out[std::string("fuzz/") + check::to_string(mode) + "/" +
          std::to_string(seed)] = hex64(fnv1a64(leg));
    }
  }
  return out;
}

/// Every cell group by name; the golden file holds their union.
const std::vector<std::pair<std::string, std::function<Digests()>>>& groups() {
  static const std::vector<std::pair<std::string, std::function<Digests()>>>
      kGroups = {
          {"spmd", [] { return tier_digests("spmd", spmd_cell); }},
          {"serve", [] { return tier_digests("serve", serve_cell); }},
          {"cluster", [] { return tier_digests("cluster", cluster_cell); }},
          {"cli", cli_digests},
          {"fuzz", fuzz_digests},
      };
  return kGroups;
}

Digests load_golden() {
  std::ifstream in(SPEEDBAL_GOLDEN_DIGESTS);
  std::stringstream text;
  text << in.rdbuf();
  const JsonValue doc = JsonValue::parse(text.str());
  Digests out;
  for (const auto& [key, value] : doc.members())
    out[key] = value.as_string();
  return out;
}

void expect_group_matches_golden(const std::string& group) {
  const auto golden = load_golden();
  for (const auto& [name, digests] : groups()) {
    if (name != group) continue;
    for (const auto& [key, digest] : digests()) {
      const auto it = golden.find(key);
      ASSERT_NE(it, golden.end()) << key << " missing from the golden file";
      EXPECT_EQ(digest, it->second) << key << " moved";
    }
  }
}

TEST(ModelDigest, SpmdReportsMatchGolden) { expect_group_matches_golden("spmd"); }
TEST(ModelDigest, ServeReportsMatchGolden) {
  expect_group_matches_golden("serve");
}
TEST(ModelDigest, ClusterReportsMatchGolden) {
  expect_group_matches_golden("cluster");
}
TEST(ModelDigest, CliParsedReportsMatchGolden) {
  expect_group_matches_golden("cli");
}
TEST(ModelDigest, FuzzLegsMatchGolden) { expect_group_matches_golden("fuzz"); }

/// One cell per line, sorted, so a diff of the file names the moved cells.
int write_golden(const std::string& path) {
  Digests all;
  for (const auto& [name, digests] : groups()) all.merge(digests());
  std::ofstream out(path);
  out << "{\n";
  std::size_t i = 0;
  for (const auto& [key, digest] : all)
    out << "  \"" << json_escape(key) << "\": \"" << digest << "\""
        << (++i < all.size() ? "," : "") << "\n";
  out << "}\n";
  if (!out) {
    std::cerr << "model_digest_test: cannot write " << path << "\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace speedbal

int main(int argc, char** argv) {
  constexpr std::string_view kWrite = "--write=";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.substr(0, kWrite.size()) == kWrite)
      return speedbal::write_golden(std::string(arg.substr(kWrite.size())));
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
