#include "core/policy_stack.hpp"

#include "workload/generator.hpp"

namespace speedbal {

const char* to_string(Policy p) {
  switch (p) {
    case Policy::Load: return "LOAD";
    case Policy::Speed: return "SPEED";
    case Policy::Pinned: return "PINNED";
    case Policy::Dwrr: return "DWRR";
    case Policy::Ule: return "ULE";
    case Policy::None: return "NONE";
    case Policy::Share: return "SHARE";
  }
  return "?";
}

int managed_core_count(const Topology& topo, int cores) {
  return cores > 0 ? cores : topo.num_cores();
}

PolicyStack::PolicyStack(const PolicyStackParams& params)
    : params_(params),
      cores_(workload::first_cores(
          managed_core_count(params.topo, params.cores))) {
  if (params_.policy == Policy::Share)
    share_ = std::make_unique<hetero::ShareBalancer>(params_.share, cores_);
}

void PolicyStack::attach_kernel(Simulator& sim) {
  switch (params_.policy) {
    case Policy::Dwrr:
      dwrr_ = std::make_unique<DwrrBalancer>(params_.dwrr);
      dwrr_->attach(sim);
      break;
    case Policy::Ule:
      ule_ = std::make_unique<UleBalancer>(params_.ule);
      ule_->attach(sim);
      break;
    case Policy::None:
      break;
    default:
      linux_lb_ = std::make_unique<LinuxLoadBalancer>(params_.linux_load);
      linux_lb_->attach(sim);
      break;
  }
}

void PolicyStack::attach_user(Simulator& sim, std::vector<Task*> threads,
                              obs::RunRecorder* rec) {
  pin_cursor_ = threads.size();
  if (params_.policy == Policy::Speed && params_.adaptive.enabled) {
    adaptive_ = std::make_unique<AdaptiveSpeedBalancer>(
        params_.adaptive, params_.speed, std::move(threads), cores_);
    adaptive_->attach(sim);
    if (rec != nullptr) adaptive_->set_recorder(rec);
  } else if (params_.policy == Policy::Speed) {
    speed_ = std::make_unique<SpeedBalancer>(params_.speed, std::move(threads),
                                             cores_);
    speed_->attach(sim);
    if (rec != nullptr) speed_->set_recorder(rec);
  } else if (params_.policy == Policy::Pinned) {
    pinned_ = std::make_unique<PinnedBalancer>(std::move(threads), cores_);
    pinned_->attach(sim);
  } else if (share_ != nullptr) {
    share_->set_managed(std::move(threads));
    if (rec != nullptr) share_->set_recorder(rec);
    share_->attach(sim);
  }
}

void PolicyStack::manage(Simulator& sim, std::span<Task* const> threads) {
  for (Task* t : threads) {
    if (speed_ != nullptr) {
      speed_->add_managed(*t);
    } else if (adaptive_ != nullptr) {
      adaptive_->add_managed(*t);
    } else if (pinned_ != nullptr || share_ != nullptr) {
      const CoreId target = cores_[pin_cursor_++ % cores_.size()];
      sim.set_affinity(*t, 1ULL << target, /*hard_pin=*/true,
                       MigrationCause::Affinity);
    }
  }
}

}  // namespace speedbal
