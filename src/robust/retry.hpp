// Deterministic retry/escalation ladder for failing transients.
//
// A corner whose solve throws robust::SolveError is retried under
// cumulatively stronger numerics — force the dense backend, raise gmin
// and the iteration budget, tighten Newton damping — until an attempt
// succeeds or the ladder is exhausted. The time step is never touched:
// the emission transient runs at the macromodel's sampling time Ts. The
// stage sequence is a pure function of the attempt number and the base
// options, so retries are identical for any worker count or scheduling
// order.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "circuit/engine.hpp"
#include "robust/error.hpp"

namespace emc::robust {

struct RetryPolicy {
  /// Off = exactly one attempt, exceptions pass through unchanged (the
  /// pre-robustness path, byte-identical when nothing fails).
  bool enabled = true;
};

/// Base attempt + 3 escalation stages.
inline constexpr int kMaxLadderStages = 4;

/// Stage name for attempt `a` (0-based): "base", "dense", "gmin", "damp".
const char* retry_stage_name(int attempt);

/// The options attempt `attempt` runs with — cumulative escalation:
///   0: base verbatim
///   1: solver = kDense
///   2: + gmin raised to >= 1e-9, max_newton doubled
///   3: + dx_limit quartered (stronger damping), max_newton doubled again
ckt::TransientOptions escalate(const ckt::TransientOptions& base, int attempt);

struct AttemptRecord {
  int attempt = 0;
  std::string stage;  ///< retry_stage_name(attempt)
  std::string error;  ///< what() of the failure
};

struct RetryOutcome {
  int attempts = 0;        ///< attempts actually run (>= 1)
  bool recovered = false;  ///< success after at least one failed attempt
  std::vector<AttemptRecord> failures;  ///< one per failed attempt
};

/// Run `body(options)` under the ladder. The body must rebuild all of its
/// state per call (fresh circuit, fresh sinks) — a failed attempt leaves
/// nothing behind. Only robust::SolveError failures are retried; any
/// other exception propagates immediately. When every attempt fails, the
/// final SolveError is rethrown with info().attempts set and the ladder
/// history appended to info().detail.
RetryOutcome run_with_escalation(
    const RetryPolicy& policy, const ckt::TransientOptions& base,
    const std::function<void(const ckt::TransientOptions&)>& body);

}  // namespace emc::robust
