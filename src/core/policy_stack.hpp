#pragma once

#include <memory>
#include <span>
#include <vector>

#include "balance/adaptive.hpp"
#include "balance/dwrr.hpp"
#include "balance/linux_load.hpp"
#include "balance/pinned.hpp"
#include "balance/speed.hpp"
#include "balance/ule.hpp"
#include "hetero/share.hpp"
#include "obs/recorder.hpp"
#include "sim/simulator.hpp"
#include "topo/topology.hpp"

namespace speedbal {

/// Which balancing policy governs the run. LOAD/SPEED/PINNED follow the
/// paper's terminology; Speed and Pinned coexist with the kernel Linux
/// balancer exactly as in the paper (their threads are invisible to it).
enum class Policy {
  Load,    ///< Default Linux queue-length balancing only.
  Speed,   ///< User-level speed balancing on top of the Linux kernel.
  Pinned,  ///< Static round-robin pinning (application-level balancing).
  Dwrr,    ///< DWRR kernel replacing the Linux balancer.
  Ule,     ///< FreeBSD ULE push balancer replacing the Linux balancer.
  None,    ///< No balancing at all (fork placement only); for experiments.
  Share,   ///< Speed-weighted work partitioning: threads stay pinned, the
           ///< per-phase work shares follow measured core speed (hetero).
};

const char* to_string(Policy p);

/// Every policy, in the order the tools list and parse them.
inline constexpr Policy kAllPolicies[] = {Policy::Speed, Policy::Load,
                                          Policy::Pinned, Policy::Dwrr,
                                          Policy::Ule, Policy::None,
                                          Policy::Share};

/// How many cores a machine restricted to its first `cores` cores manages
/// (the paper's taskset): `cores`, or every core of `topo` when 0.
int managed_core_count(const Topology& topo, int cores);

/// The per-machine knobs: the machine and the cores it manages, the policy,
/// every balancer's parameters and the simulator's. ExperimentConfig and
/// serve::ServingParams (ServeConfig, ClusterConfig) inherit this block, so
/// one machine is configured the same way on every tier.
struct PolicyStackParams {
  Topology topo = Topology::build({});
  /// Restrict to the first `cores` cores; 0 = all (managed_core_count).
  int cores = 0;
  Policy policy = Policy::Load;
  SpeedBalanceParams speed;
  LinuxLoadParams linux_load;
  DwrrParams dwrr;
  UleParams ule;
  hetero::ShareParams share;
  /// Online tuning of the SPEED constants (`--adaptive`): when enabled,
  /// attach_user wraps the speed balancer in the adaptive controller, and
  /// `speed` above supplies its base constant-set (portfolio arm 0).
  AdaptiveParams adaptive;
  SimParams sim;

  /// `sim` as the machine runs it. FreeBSD's sched_pickcpu consults the
  /// current queue states at thread creation; the stale-snapshot quirk is
  /// specific to the Linux fork path (the paper's footnote 1). Without it
  /// ULE starts balanced and behaves like static pinning, as the paper
  /// observes (Fig. 3).
  SimParams sim_params() const {
    SimParams p = sim;
    if (policy == Policy::Ule) p.load_snapshot_period = 0;
    return p;
  }
};

/// One machine's balancer stack: a kernel-level policy (the Linux load
/// balancer under SPEED/LOAD/PINNED/SHARE, DWRR/ULE replacing it, NONE
/// bare) plus an optional user-level balancer over the managed threads.
/// The SPMD runner, the serving runtime and every cluster node attach
/// their balancers through it. Threads created after attach_user (a pool
/// migrating in) register through manage(), which mirrors what the real
/// tool does when new PIDs appear in /proc (paper footnote 6).
class PolicyStack {
 public:
  /// `params` must outlive the stack (it is the caller's run config); the
  /// stack manages its first managed_core_count(topo, cores) cores. Under
  /// SHARE the ShareBalancer exists from here on, so an SPMD app can take it
  /// as its partitioner before launch; it draws nothing until attach_user.
  explicit PolicyStack(const PolicyStackParams& params);
  PolicyStack(PolicyStackParams&&) = delete;

  /// The managed cores, in the order launches and pinning use them.
  const std::vector<CoreId>& cores() const { return cores_; }

  /// PINNED and SHARE launch their threads round-robin-placed (SHARE never
  /// migrates — work follows the weights instead); everything else lets
  /// fork placement decide (the balancer under test then moves them).
  bool round_robin_launch() const {
    return params_.policy == Policy::Pinned || params_.policy == Policy::Share;
  }

  /// Attach the kernel-level policy. Call once, before any managed thread
  /// exists.
  void attach_kernel(Simulator& sim);

  /// Attach the user-level policy over the initial threads. Call once,
  /// after they were launched.
  void attach_user(Simulator& sim, std::vector<Task*> threads,
                   obs::RunRecorder* rec);

  /// Register threads created after attach_user (a pool migrating in):
  /// SPEED hard-pins each to the currently least-loaded managed core,
  /// PINNED and SHARE continue their round-robin pinning, the rest leave
  /// placement to the kernel-level policy.
  void manage(Simulator& sim, std::span<Task* const> threads);

  /// Non-null only with adaptive SPEED: the serving runtime feeds its
  /// queue-pressure probe here.
  AdaptiveSpeedBalancer* adaptive() { return adaptive_.get(); }
  /// Non-null only under Policy::Share: the SPMD app partitions its phases
  /// through it, the serving runtime weights dispatch by its shares.
  hetero::ShareBalancer* share() { return share_.get(); }

 private:
  const PolicyStackParams& params_;
  std::vector<CoreId> cores_;
  std::size_t pin_cursor_ = 0;
  std::unique_ptr<LinuxLoadBalancer> linux_lb_;
  std::unique_ptr<DwrrBalancer> dwrr_;
  std::unique_ptr<UleBalancer> ule_;
  std::unique_ptr<SpeedBalancer> speed_;
  std::unique_ptr<AdaptiveSpeedBalancer> adaptive_;
  std::unique_ptr<PinnedBalancer> pinned_;
  std::unique_ptr<hetero::ShareBalancer> share_;
};

}  // namespace speedbal
