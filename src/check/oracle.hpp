#pragma once

#include <string>
#include <vector>

#include "check/invariants.hpp"
#include "check/scenario.hpp"

namespace speedbal::check {

/// Relative tolerance of the sim-vs-analytic speedup comparison on the
/// paper's N/M grid (documented in DESIGN.md §11; matches the long-standing
/// integration-test bound: fork-placement noise and barrier overhead keep
/// the simulated PINNED speedup within ~12% of N/(T+1)).
inline constexpr double kAnalyticTolerance = 0.12;

/// Differential oracle: the scenario replayed with --jobs=1 and --jobs=4
/// must be byte-identical (SPMD: per-run results over 3 repeats; serve:
/// merged stats, histogram percentiles, and migration totals over 3
/// replicas; cluster: the same over 3 replicas, plus one replica whose
/// nodes advance on one thread against four). Appends "jobs-identity"
/// violations naming the first divergence. Returns the serialized jobs=1
/// fingerprint.
std::string check_jobs_identity(const FuzzScenario& sc,
                                std::vector<Violation>& out);

/// One point of the analytic differential grid.
struct AnalyticPoint {
  int threads = 0;
  int cores = 0;
  double predicted_speedup = 0.0;  ///< N * 1/(T+1), Section 4.
  double pinned_speedup = 0.0;
  double speed_speedup = 0.0;
};

/// Differential oracle against model/analytic on the paper's N/M shapes
/// ((3,2), (7,3), (9,4), (11,4), ep class A): PINNED speedup within
/// kAnalyticTolerance of N/(T+1); SPEED strictly better than PINNED and
/// never above machine capacity M. Appends "analytic" violations; returns
/// the measured grid.
std::vector<AnalyticPoint> check_analytic_grid(std::vector<Violation>& out);

/// One point of the heterogeneous differential grid: an asymmetric machine
/// running one thread per core, where the partition — not placement — is
/// the whole story.
struct HeteroPoint {
  std::string topo;          ///< Preset name (big.LITTLE or clock ladder).
  int cores = 0;
  double penalty = 0.0;      ///< Analytic count_penalty: sum(s)/(M*min(s)).
  double predicted_share_s = 0.0;  ///< Bootstrap phase + optimal phases.
  double predicted_count_s = 0.0;  ///< All phases count-balanced.
  double share_s = 0.0;      ///< Measured SHARE (speed source) runtime.
  double count_s = 0.0;      ///< Measured count-source baseline runtime.
};

/// Differential oracle against the heterogeneous analytic model on
/// asymmetric machines (big.LITTLE at ratios 2 and 3, a clock ladder): with
/// one pinned thread per core, SHARE's runtime must land within
/// kAnalyticTolerance of the model (one count-balanced bootstrap phase,
/// then phases at optimal_makespan), the count-source baseline within
/// kAnalyticTolerance of all-phases count_balanced_makespan, and the
/// measured count/SHARE ratio must realize at least 80% of the predicted
/// gap. Appends "hetero-analytic" violations; returns the measured grid.
std::vector<HeteroPoint> check_hetero_grid(std::vector<Violation>& out);

}  // namespace speedbal::check
