// Golden model digests: every policy on every tier, at two seeds, hashed
// from the run report. A change that moves any simulated outcome (a
// migration, a latency bucket, a counter) moves its cell's digest, so
// "reports stay byte-identical under --seed" is checked on every build,
// sanitizer trees included.
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

#include "cluster/cluster.hpp"
#include "core/experiment.hpp"
#include "obs/recorder.hpp"
#include "perturb/timeline.hpp"
#include "serve/scenarios.hpp"
#include "topo/presets.hpp"
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

/// Digests of one tier, keyed "<tier>/<variant>/<seed>".
std::map<std::string, std::string> tier_digests(const std::string& tier,
                                                const CellFn& cell) {
  std::map<std::string, std::string> out;
  for (const Variant& v : variants())
    for (const std::uint64_t seed : kSeeds)
      out[tier + "/" + v.name + "/" + std::to_string(seed)] = cell(v, seed);
  return out;
}

const std::vector<std::pair<std::string, CellFn>>& tiers() {
  static const std::vector<std::pair<std::string, CellFn>> kTiers = {
      {"spmd", spmd_cell}, {"serve", serve_cell}, {"cluster", cluster_cell}};
  return kTiers;
}

std::map<std::string, std::string> load_golden() {
  std::ifstream in(SPEEDBAL_GOLDEN_DIGESTS);
  std::stringstream text;
  text << in.rdbuf();
  const JsonValue doc = JsonValue::parse(text.str());
  std::map<std::string, std::string> out;
  for (const auto& [key, value] : doc.members())
    out[key] = value.as_string();
  return out;
}

void expect_tier_matches_golden(const std::string& tier) {
  const auto golden = load_golden();
  for (const auto& [name, cell] : tiers()) {
    if (name != tier) continue;
    for (const auto& [key, digest] : tier_digests(name, cell)) {
      const auto it = golden.find(key);
      ASSERT_NE(it, golden.end()) << key << " missing from the golden file";
      EXPECT_EQ(digest, it->second) << key << " moved";
    }
  }
}

TEST(ModelDigest, SpmdReportsMatchGolden) { expect_tier_matches_golden("spmd"); }
TEST(ModelDigest, ServeReportsMatchGolden) { expect_tier_matches_golden("serve"); }
TEST(ModelDigest, ClusterReportsMatchGolden) {
  expect_tier_matches_golden("cluster");
}

/// One cell per line, sorted, so a diff of the file names the moved cells.
int write_golden(const std::string& path) {
  std::map<std::string, std::string> all;
  for (const auto& [name, cell] : tiers()) all.merge(tier_digests(name, cell));
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
