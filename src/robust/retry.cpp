#include "robust/retry.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace emc::robust {

const char* retry_stage_name(int attempt) {
  switch (attempt) {
    case 0: return "base";
    case 1: return "dense";
    case 2: return "gmin";
    case 3: return "damp";
  }
  return "beyond";
}

ckt::TransientOptions escalate(const ckt::TransientOptions& base, int attempt) {
  ckt::TransientOptions o = base;
  if (attempt >= 1) o.solver = ckt::SolverKind::kDense;
  if (attempt >= 2) {
    o.gmin = std::max(o.gmin, 1e-9);
    o.max_newton *= 2;
  }
  if (attempt >= 3) {
    o.dx_limit *= 0.25;
    o.max_newton *= 2;
  }
  return o;
}

RetryOutcome run_with_escalation(
    const RetryPolicy& policy, const ckt::TransientOptions& base,
    const std::function<void(const ckt::TransientOptions&)>& body) {
  static const obs::Counter c_attempts("robust.retry.attempts");
  static const obs::Counter c_recovered("robust.retry.recovered");
  static const obs::Counter c_exhausted("robust.retry.exhausted");

  const int n_attempts = policy.enabled ? kMaxLadderStages : 1;

  RetryOutcome out;
  for (int a = 0; a < n_attempts; ++a) {
    const ckt::TransientOptions opt = escalate(base, a);
    ++out.attempts;
    c_attempts.add();
    try {
      body(opt);
      out.recovered = a > 0;
      if (out.recovered) c_recovered.add();
      return out;
    } catch (const SolveError& e) {
      out.failures.push_back(AttemptRecord{a, retry_stage_name(a), e.what()});
      if (a + 1 >= n_attempts) {
        c_exhausted.add();
        SolveErrorInfo info = e.info();
        info.attempts = out.attempts;
        std::string ladder = "ladder exhausted:";
        for (const AttemptRecord& rec : out.failures) {
          ladder += " [";
          ladder += rec.stage;
          ladder += "]";
        }
        info.detail = info.detail.empty() ? ladder : info.detail + "; " + ladder;
        throw SolveError(std::move(info));
      }
    }
  }
  return out;  // unreachable: the loop returns or throws
}

}  // namespace emc::robust
