// Deterministic fault-injection harness for the resilience layer.
//
// Tests and bench_robust install a FaultPlan; the circuit engines probe it
// at fixed sites (DC entry, Newton factorization, after every transient
// step, chunk delivery, the deadline check). With no plan installed the
// probe is a single relaxed atomic load of a null pointer — the production
// path pays nothing.
//
// Determinism contract: a spec keyed to one transient context is only
// probed by that transient's attempts, which run sequentially on whichever
// worker claimed the corner chunk — so fire decisions are identical for
// any worker count. The "spare" thresholds make escalation recovery
// deterministic too: instead of counting fires, a spec stops firing once
// the retry ladder's options clear the configured bar (e.g. spare_dense
// heals the fault the moment a retry forces the dense backend), so every
// attempt below that stage fails identically no matter how it was
// scheduled. Unkeyed specs match every context and are only deterministic
// in single-threaded runs.
#pragma once

#include <atomic>
#include <cstddef>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace emc::robust {

/// Where the engines probe for injected faults.
enum class FaultSite {
  kDcSolve,        ///< dc_operating_point entry -> injected DC divergence
  kFactor,         ///< Newton factorization -> singular pivot
  kTransientStep,  ///< transient engine, after a step's solve -> NaN poisoning
  kSinkWrite,      ///< chunk delivery -> sink write failure
  kDeadline,       ///< per-step deadline check -> forced overrun
};

const char* fault_site_name(FaultSite site);

/// ckt::SolverKind::kDense as an int — this header stays free of circuit
/// dependencies; engine.cpp static_asserts the value matches the enum.
inline constexpr int kSolverDenseAsInt = 1;

/// What the probing engine knows about the current attempt; spare
/// thresholds are evaluated against these fields.
struct FaultCtx {
  std::string_view key;  ///< TransientOptions::context
  int solver = -1;       ///< ckt::SolverKind of the attempt, as int
  double gmin = 0.0;
  double dx_limit = 0.0;
};

/// One armed fault. Default: fires on every matching probe forever —
/// combine with spare thresholds (deterministic healing) or `remaining`
/// (counted fires) to let recovery paths succeed.
struct FaultSpec {
  FaultSite site = FaultSite::kTransientStep;
  std::string key;     ///< context to match; empty = any context
  long skip = 0;       ///< let the first N matching probes pass unharmed
  long remaining = -1; ///< fire at most this many times; -1 = unlimited

  // Escalation-aware sparing: the fault heals once a retry attempt clears
  // the bar (checked statelessly per probe, so healing is deterministic).
  bool spare_dense = false;          ///< don't fire when solver == kDense
  double spare_gmin_at_least = 0.0;  ///< don't fire when gmin >= this
  double spare_dx_limit_below = 0.0; ///< don't fire when dx_limit < this
};

/// A set of armed faults. arm() everything before install — fire() is
/// thread-safe but arming concurrently with probes is not supported.
class FaultPlan {
 public:
  void arm(FaultSpec spec);

  /// True when some armed spec fires for this probe. Consumes skip /
  /// remaining budgets of the first matching spec.
  bool fire(FaultSite site, const FaultCtx& ctx);

  /// Total fires across all specs since construction.
  long fired() const;

 private:
  struct Slot {
    FaultSpec spec;
    long fired = 0;
  };
  mutable std::mutex mu_;
  std::vector<Slot> slots_;
  long fired_total_ = 0;
};

/// Process-wide plan used by the engine probes; nullptr uninstalls. The
/// plan must outlive its installation. Not reference-counted: uninstall
/// before destroying the plan.
void install_fault_plan(FaultPlan* plan);
FaultPlan* installed_fault_plan();

namespace detail {
extern std::atomic<FaultPlan*> g_fault_plan;
}

/// The engine-side probe: one relaxed-ish load when no plan is installed.
inline bool fault(FaultSite site, const FaultCtx& ctx) {
  FaultPlan* plan = detail::g_fault_plan.load(std::memory_order_acquire);
  return plan != nullptr && plan->fire(site, ctx);
}

/// RAII install/uninstall for tests and benches.
class ScopedFaultPlan {
 public:
  explicit ScopedFaultPlan(FaultPlan& plan) { install_fault_plan(&plan); }
  ~ScopedFaultPlan() { install_fault_plan(nullptr); }
  ScopedFaultPlan(const ScopedFaultPlan&) = delete;
  ScopedFaultPlan& operator=(const ScopedFaultPlan&) = delete;
};

}  // namespace emc::robust
