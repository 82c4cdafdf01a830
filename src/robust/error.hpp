// Structured solver failures for the resilience layer.
//
// Every divergence the circuit engines can hit — DC continuation running
// out of schedule, a transient Newton solve going non-finite, a singular
// system, a sparse pattern that will not stabilize, a deadline overrun, a
// sink refusing a chunk — is thrown as a SolveError carrying a machine-
// readable SolveErrorInfo instead of a bare std::runtime_error. The sweep
// layer records (not rethrows) these per corner, the retry ladder
// escalates on them, and reports serialize them; existing catch sites
// keep working because SolveError IS-A std::runtime_error.
#pragma once

#include <chrono>
#include <stdexcept>
#include <string>
#include <vector>

namespace emc::robust {

/// Failure taxonomy. A recorded failure names exactly one of these, so
/// reports can aggregate by kind without parsing message strings.
enum class FailureKind {
  kDcDivergence,         ///< DC continuation + source stepping exhausted
  kTransientDivergence,  ///< stepped Newton solve went non-finite
  kSingularSystem,       ///< factorization failed at an iterate
  kPatternUnstable,      ///< sparse pattern would not stabilize
  kDeadlineExceeded,     ///< cooperative wall-clock cancellation fired
  kSinkFailure,          ///< sample sink refused a chunk
  kInjectedFault,        ///< fault-injection harness fired (tests/benches)
};

const char* failure_kind_name(FailureKind kind);

/// Everything a failure report needs, captured at the throw site and
/// enriched (corner label / index, attempt count) as the error crosses
/// layers on its way to the sweep recorder.
struct SolveErrorInfo {
  FailureKind kind = FailureKind::kTransientDivergence;
  std::string site;     ///< throwing function, e.g. "run_transient"
  std::string context;  ///< TransientOptions::context (transient key)
  std::string corner;   ///< Scenario::label(); filled by the sweep layer
  long corner_index = -1;  ///< grid index; -1 outside a sweep
  double t = 0.0;          ///< simulation time of the failure (0 for DC)
  double dt = 0.0;         ///< step of the failing attempt
  int solver = -1;         ///< ckt::SolverKind of the attempt; -1 unknown
  int attempts = 0;        ///< escalation attempts consumed; 0 = no ladder
  /// |dx|_inf per Newton iteration of the failing solve, most recent
  /// last (bounded; see NewtonWorkspace::kResidualHistoryCap).
  std::vector<double> residual_history;
  std::string detail;  ///< site-specific free text (schedules…)
};

/// Derives from std::runtime_error so every pre-existing catch keeps
/// working; what() is formatted once from the info at construction.
class SolveError : public std::runtime_error {
 public:
  explicit SolveError(SolveErrorInfo info);

  const SolveErrorInfo& info() const { return info_; }

 private:
  static std::string format(const SolveErrorInfo& info);
  SolveErrorInfo info_;
};

/// Rebuild `e` with the corner identity attached (label + grid index) —
/// the sweep layer's wrapper so failures recorded from worker threads
/// always say which corner produced them.
SolveError with_corner(const SolveError& e, std::string corner_label,
                       std::size_t corner_index);

/// Cooperative wall-clock deadline. A default-constructed Deadline is
/// unarmed and never expires; the engines check expired() once per time
/// step and once per Newton iteration, so a stuck solve cancels within
/// one iteration rather than one corner.
class Deadline {
 public:
  Deadline() = default;

  static Deadline after(double seconds) {
    Deadline d;
    d.armed_ = true;
    d.budget_s_ = seconds;
    d.at_ = std::chrono::steady_clock::now() +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(seconds));
    return d;
  }

  bool armed() const { return armed_; }
  bool expired() const {
    return armed_ && std::chrono::steady_clock::now() >= at_;
  }
  double budget_s() const { return budget_s_; }

 private:
  std::chrono::steady_clock::time_point at_{};
  double budget_s_ = 0.0;
  bool armed_ = false;
};

}  // namespace emc::robust
