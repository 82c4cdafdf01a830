#include "robust/fault.hpp"

namespace emc::robust {

namespace detail {
std::atomic<FaultPlan*> g_fault_plan{nullptr};
}

const char* fault_site_name(FaultSite site) {
  switch (site) {
    case FaultSite::kDcSolve: return "dc_solve";
    case FaultSite::kFactor: return "factor";
    case FaultSite::kTransientStep: return "transient_step";
    case FaultSite::kSinkWrite: return "sink_write";
    case FaultSite::kDeadline: return "deadline";
  }
  return "unknown";
}

void FaultPlan::arm(FaultSpec spec) {
  std::lock_guard<std::mutex> lk(mu_);
  slots_.push_back(Slot{std::move(spec), 0});
}

bool FaultPlan::fire(FaultSite site, const FaultCtx& ctx) {
  std::lock_guard<std::mutex> lk(mu_);
  for (Slot& slot : slots_) {
    const FaultSpec& s = slot.spec;
    if (s.site != site) continue;
    if (!s.key.empty() && s.key != ctx.key) continue;
    // Stateless sparing first: a spared probe consumes no budget, so the
    // heal point depends only on the attempt's options, never on history.
    if (s.spare_dense && ctx.solver == kSolverDenseAsInt) continue;
    if (s.spare_gmin_at_least > 0.0 && ctx.gmin >= s.spare_gmin_at_least) continue;
    if (s.spare_dx_limit_below > 0.0 && ctx.dx_limit < s.spare_dx_limit_below) continue;
    if (slot.spec.skip > 0) {
      --slot.spec.skip;
      continue;
    }
    if (slot.spec.remaining == 0) continue;
    if (slot.spec.remaining > 0) --slot.spec.remaining;
    ++slot.fired;
    ++fired_total_;
    return true;
  }
  return false;
}

long FaultPlan::fired() const {
  std::lock_guard<std::mutex> lk(mu_);
  return fired_total_;
}

void install_fault_plan(FaultPlan* plan) {
  detail::g_fault_plan.store(plan, std::memory_order_release);
}

FaultPlan* installed_fault_plan() {
  return detail::g_fault_plan.load(std::memory_order_acquire);
}

}  // namespace emc::robust
