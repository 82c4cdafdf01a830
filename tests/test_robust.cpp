// Tests of the emc::robust resilience layer: structured SolveError and
// its corner enrichment, the deterministic fault-injection harness
// (matching, budgets, escalation-aware sparing), the retry/escalation
// ladder, cooperative deadlines, the checkpoint journal's exact double
// round trip, and the engine-side fault probes (every FaultSite reports
// the real failure kind it emulates).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "circuit/devices_linear.hpp"
#include "circuit/devices_nonlinear.hpp"
#include "circuit/engine.hpp"
#include "circuit/netlist.hpp"
#include "obs/json.hpp"
#include "robust/error.hpp"
#include "robust/fault.hpp"
#include "robust/journal.hpp"
#include "robust/retry.hpp"
#include "signal/sample_sink.hpp"
#include "test_temp_path.hpp"

namespace ckt = emc::ckt;
namespace sig = emc::sig;
namespace robust = emc::robust;
namespace obs = emc::obs;

namespace {

// ------------------------------------------------------------- SolveError

TEST(SolveError, FormatsInfoAndSurvivesCornerEnrichment) {
  robust::SolveErrorInfo info;
  info.kind = robust::FailureKind::kTransientDivergence;
  info.site = "run_transient";
  info.context = "101|0.1|1e-12";
  info.t = 3.25e-9;
  info.dt = 25e-12;
  info.residual_history = {1.0, 10.0, 1e3};
  info.detail = "went non-finite";
  const robust::SolveError e(info);

  const std::string msg = e.what();
  EXPECT_NE(msg.find("run_transient"), std::string::npos);
  EXPECT_NE(msg.find("transient_divergence"), std::string::npos);
  EXPECT_NE(msg.find("went non-finite"), std::string::npos);
  EXPECT_EQ(e.info().residual_history.size(), 3u);

  const robust::SolveError wrapped = robust::with_corner(e, "vdd=0.9/len=0.1", 17);
  EXPECT_EQ(wrapped.info().corner, "vdd=0.9/len=0.1");
  EXPECT_EQ(wrapped.info().corner_index, 17);
  EXPECT_NE(std::string(wrapped.what()).find("vdd=0.9/len=0.1"), std::string::npos);
  // The original failure record is intact under the wrap.
  EXPECT_EQ(wrapped.info().kind, robust::FailureKind::kTransientDivergence);
  EXPECT_EQ(wrapped.info().context, info.context);

  // IS-A runtime_error: pre-existing catch sites keep working.
  try {
    throw robust::SolveError(info);
  } catch (const std::runtime_error& re) {
    EXPECT_NE(std::string(re.what()).find("transient_divergence"), std::string::npos);
  }
}

TEST(SolveError, KindNamesAreStableSnakeCase) {
  using K = robust::FailureKind;
  EXPECT_STREQ(robust::failure_kind_name(K::kDcDivergence), "dc_divergence");
  EXPECT_STREQ(robust::failure_kind_name(K::kTransientDivergence),
               "transient_divergence");
  EXPECT_STREQ(robust::failure_kind_name(K::kSingularSystem), "singular_system");
  EXPECT_STREQ(robust::failure_kind_name(K::kPatternUnstable), "pattern_unstable");
  EXPECT_STREQ(robust::failure_kind_name(K::kDeadlineExceeded), "deadline_exceeded");
  EXPECT_STREQ(robust::failure_kind_name(K::kSinkFailure), "sink_failure");
  EXPECT_STREQ(robust::failure_kind_name(K::kInjectedFault), "injected_fault");
}

TEST(Deadline, DefaultUnarmedNeverExpires) {
  robust::Deadline d;
  EXPECT_FALSE(d.armed());
  EXPECT_FALSE(d.expired());

  const robust::Deadline hot = robust::Deadline::after(0.0);
  EXPECT_TRUE(hot.armed());
  EXPECT_TRUE(hot.expired());
  EXPECT_EQ(hot.budget_s(), 0.0);

  const robust::Deadline cold = robust::Deadline::after(3600.0);
  EXPECT_TRUE(cold.armed());
  EXPECT_FALSE(cold.expired());
}

// -------------------------------------------------------------- FaultPlan

robust::FaultCtx ctx_with(std::string_view key, double gmin = 1e-12, double dx = 0.5,
                          int solver = 2) {
  robust::FaultCtx c;
  c.key = key;
  c.solver = solver;
  c.gmin = gmin;
  c.dx_limit = dx;
  return c;
}

TEST(FaultPlan, MatchesSiteAndKeyConsumesBudgets) {
  robust::FaultPlan plan;
  robust::FaultSpec spec;
  spec.site = robust::FaultSite::kTransientStep;
  spec.key = "corner-A";
  spec.skip = 2;
  spec.remaining = 2;
  plan.arm(spec);

  const auto ctx_a = ctx_with("corner-A");
  const auto ctx_b = ctx_with("corner-B");
  // Wrong site and wrong key never fire (and consume nothing).
  EXPECT_FALSE(plan.fire(robust::FaultSite::kDcSolve, ctx_a));
  EXPECT_FALSE(plan.fire(robust::FaultSite::kTransientStep, ctx_b));
  // skip=2 passes the first two matching probes, remaining=2 caps fires.
  EXPECT_FALSE(plan.fire(robust::FaultSite::kTransientStep, ctx_a));
  EXPECT_FALSE(plan.fire(robust::FaultSite::kTransientStep, ctx_a));
  EXPECT_TRUE(plan.fire(robust::FaultSite::kTransientStep, ctx_a));
  EXPECT_TRUE(plan.fire(robust::FaultSite::kTransientStep, ctx_a));
  EXPECT_FALSE(plan.fire(robust::FaultSite::kTransientStep, ctx_a));
  EXPECT_EQ(plan.fired(), 2);
}

TEST(FaultPlan, EmptyKeyMatchesAnyContext) {
  robust::FaultPlan plan;
  robust::FaultSpec spec;
  spec.site = robust::FaultSite::kSinkWrite;
  plan.arm(spec);
  EXPECT_TRUE(plan.fire(robust::FaultSite::kSinkWrite, ctx_with("anything")));
  EXPECT_TRUE(plan.fire(robust::FaultSite::kSinkWrite, ctx_with("")));
}

TEST(FaultPlan, SpareThresholdsHealStatelesslyWithoutConsumingBudget) {
  robust::FaultPlan plan;
  robust::FaultSpec spec;
  spec.site = robust::FaultSite::kTransientStep;
  spec.remaining = 1;
  spec.spare_dense = true;
  spec.spare_gmin_at_least = 1e-9;
  spec.spare_dx_limit_below = 0.2;
  plan.arm(spec);

  // Every spared probe leaves the budget untouched — healing must be a
  // stateless function of the attempt options, not of probe order.
  EXPECT_FALSE(plan.fire(robust::FaultSite::kTransientStep,
                         ctx_with("k", 1e-12, 0.5, robust::kSolverDenseAsInt)));
  EXPECT_FALSE(plan.fire(robust::FaultSite::kTransientStep,
                         ctx_with("k", 1e-9, 0.5)));  // gmin at bar
  EXPECT_FALSE(plan.fire(robust::FaultSite::kTransientStep,
                         ctx_with("k", 1e-12, 0.125)));  // damped past bar
  EXPECT_EQ(plan.fired(), 0);
  // An unspared probe still fires.
  EXPECT_TRUE(plan.fire(robust::FaultSite::kTransientStep, ctx_with("k")));
  EXPECT_EQ(plan.fired(), 1);
}

TEST(FaultPlan, InstallationIsScopedAndNullWhenAbsent) {
  EXPECT_EQ(robust::installed_fault_plan(), nullptr);
  EXPECT_FALSE(robust::fault(robust::FaultSite::kDcSolve, ctx_with("x")));
  {
    robust::FaultPlan plan;
    robust::FaultSpec spec;
    spec.site = robust::FaultSite::kDcSolve;
    plan.arm(spec);
    robust::ScopedFaultPlan guard(plan);
    EXPECT_EQ(robust::installed_fault_plan(), &plan);
    EXPECT_TRUE(robust::fault(robust::FaultSite::kDcSolve, ctx_with("x")));
  }
  EXPECT_EQ(robust::installed_fault_plan(), nullptr);
}

// ----------------------------------------------------------- retry ladder

TEST(RetryLadder, EscalationScheduleIsCumulative) {
  ckt::TransientOptions base;
  base.dt = 25e-12;
  base.gmin = 1e-12;
  base.dx_limit = 0.5;
  base.max_newton = 100;
  base.solver = ckt::SolverKind::kSparse;

  const auto a0 = robust::escalate(base, 0);
  EXPECT_EQ(a0.dt, base.dt);
  EXPECT_EQ(a0.solver, ckt::SolverKind::kSparse);

  const auto a1 = robust::escalate(base, 1);
  EXPECT_EQ(a1.dt, base.dt);
  EXPECT_EQ(a1.solver, ckt::SolverKind::kDense);
  EXPECT_EQ(a1.gmin, base.gmin);

  const auto a2 = robust::escalate(base, 2);
  EXPECT_EQ(a2.solver, ckt::SolverKind::kDense);
  EXPECT_GE(a2.gmin, 1e-9);
  EXPECT_EQ(a2.max_newton, 200);
  EXPECT_EQ(a2.dx_limit, base.dx_limit);

  const auto a3 = robust::escalate(base, 3);
  EXPECT_GE(a3.gmin, 1e-9);
  EXPECT_EQ(a3.dx_limit, 0.125);
  EXPECT_EQ(a3.max_newton, 400);

  EXPECT_EQ(robust::kMaxLadderStages, 4);
  EXPECT_STREQ(robust::retry_stage_name(0), "base");
  EXPECT_STREQ(robust::retry_stage_name(1), "dense");
  EXPECT_STREQ(robust::retry_stage_name(2), "gmin");
  EXPECT_STREQ(robust::retry_stage_name(3), "damp");
}

robust::SolveError make_err(const char* detail) {
  robust::SolveErrorInfo info;
  info.kind = robust::FailureKind::kTransientDivergence;
  info.site = "body";
  info.detail = detail;
  return robust::SolveError(std::move(info));
}

TEST(RetryLadder, FirstTrySuccessRunsOnce) {
  int calls = 0;
  const auto out = robust::run_with_escalation(
      {}, {}, [&](const ckt::TransientOptions&) { ++calls; });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(out.attempts, 1);
  EXPECT_FALSE(out.recovered);
  EXPECT_TRUE(out.failures.empty());
}

TEST(RetryLadder, RecoversAtTheStageThatClearsTheFault) {
  // Fails until the ladder forces the dense backend (stage 1).
  int calls = 0;
  const auto out = robust::run_with_escalation(
      {}, {}, [&](const ckt::TransientOptions& opt) {
        ++calls;
        if (opt.solver != ckt::SolverKind::kDense) throw make_err("not dense yet");
      });
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(out.attempts, 2);
  EXPECT_TRUE(out.recovered);
  ASSERT_EQ(out.failures.size(), 1u);
  EXPECT_EQ(out.failures[0].stage, "base");
  EXPECT_EQ(out.failures[0].attempt, 0);
}

TEST(RetryLadder, ExhaustionRethrowsWithAttemptsAndLadderHistory) {
  int calls = 0;
  try {
    robust::run_with_escalation({}, {}, [&](const ckt::TransientOptions&) {
      ++calls;
      throw make_err("always");
    });
    FAIL() << "ladder must rethrow after exhaustion";
  } catch (const robust::SolveError& e) {
    EXPECT_EQ(calls, 4);
    EXPECT_EQ(e.info().attempts, 4);
    const std::string msg = e.what();
    EXPECT_NE(msg.find("ladder exhausted"), std::string::npos);
    EXPECT_NE(msg.find("[damp]"), std::string::npos);
  }
}

TEST(RetryLadder, NoTwoAttemptsRunTheSameOptions) {
  // Every rung must change the numerics; a rung that repeats an earlier
  // one spends a whole transient learning nothing. dt is pinned: the
  // emission transient runs at the macromodel's Ts.
  ckt::TransientOptions base;
  base.dt = 25e-12;
  std::vector<ckt::TransientOptions> seen;
  EXPECT_THROW(robust::run_with_escalation({}, base,
                                           [&](const ckt::TransientOptions& opt) {
                                             seen.push_back(opt);
                                             throw make_err("always");
                                           }),
               robust::SolveError);
  ASSERT_EQ(seen.size(), static_cast<std::size_t>(robust::kMaxLadderStages));
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].dt, base.dt) << "attempt " << i;
    for (std::size_t j = i + 1; j < seen.size(); ++j) {
      const bool differ = seen[i].solver != seen[j].solver || seen[i].gmin != seen[j].gmin ||
                          seen[i].max_newton != seen[j].max_newton ||
                          seen[i].dx_limit != seen[j].dx_limit;
      EXPECT_TRUE(differ) << "attempts " << i << " and " << j << " run the same options";
    }
  }
}

TEST(RetryLadder, DisabledPolicyIsSingleAttemptPassThrough) {
  robust::RetryPolicy off;
  off.enabled = false;
  int calls = 0;
  EXPECT_THROW(robust::run_with_escalation(off, {},
                                           [&](const ckt::TransientOptions&) {
                                             ++calls;
                                             throw make_err("once");
                                           }),
               robust::SolveError);
  EXPECT_EQ(calls, 1);
}

TEST(RetryLadder, NonSolveErrorPropagatesImmediately) {
  int calls = 0;
  EXPECT_THROW(robust::run_with_escalation({}, {},
                                           [&](const ckt::TransientOptions&) {
                                             ++calls;
                                             throw std::logic_error("bug");
                                           }),
               std::logic_error);
  EXPECT_EQ(calls, 1);
}

// ---------------------------------------------------------------- journal

TEST(Journal, ExactDoubleRoundTripsBitForBit) {
  const double values[] = {1.0 / 3.0, 25e-12, -123.456789012345678, 0.0,
                           1e300,     5e-324, 140.0};
  for (double v : values) {
    const obs::Json j = obs::Json::string(robust::exact_double(v));
    EXPECT_EQ(robust::parse_exact(j), v) << robust::exact_double(v);
  }
  // Plain JSON numbers still decode (for integer-valued fields).
  EXPECT_EQ(robust::parse_exact(obs::Json::number(2.5)), 2.5);
}

TEST(Journal, ParseExactRejectsStringsStrtodReadsOnlyInPart) {
  // strtod alone would read "abc" as 0 and "1.5x" as 1.5: a corrupted
  // journal would restore a made-up margin instead of failing.
  for (const char* bad : {"abc", "1.5x", "", " 1", "1 ", "1e", "--1", "0x"})
    EXPECT_THROW(robust::parse_exact(obs::Json::string(bad)), std::invalid_argument)
        << '"' << bad << '"';
  // exact_double spells non-finite values inf / -inf / nan; they still parse.
  EXPECT_EQ(robust::parse_exact(obs::Json::string("inf")), HUGE_VAL);
  EXPECT_EQ(robust::parse_exact(obs::Json::string("-inf")), -HUGE_VAL);
  EXPECT_TRUE(std::isnan(robust::parse_exact(obs::Json::string("nan"))));
  for (double v : {HUGE_VAL, -HUGE_VAL, std::nan("")})
    EXPECT_NO_THROW(robust::parse_exact(obs::Json::string(robust::exact_double(v))));
}

TEST(Journal, DumpLineIsSingleLine) {
  auto o = obs::Json::object();
  o.set("s", obs::Json::string("line\nbreak\ttab"));
  auto arr = obs::Json::array();
  arr.push(obs::Json::integer(1));
  arr.push(obs::Json::integer(2));
  o.set("a", std::move(arr));
  const std::string line = robust::dump_line(o);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  // The escaped payload survives the round trip.
  const obs::Json back = obs::Json::parse(line);
  EXPECT_EQ(back.at("s").as_string(), "line\nbreak\ttab");
  EXPECT_EQ(back.at("a").size(), 2u);
}

TEST(Journal, AppendLoadRoundTripAndTruncatedTailDropped) {
  const std::string path = test_temp_path("journal.jsonl");
  std::remove(path.c_str());

  {
    robust::JournalWriter w(path);
    ASSERT_TRUE(w.ok());
    for (int i = 0; i < 3; ++i) {
      auto o = obs::Json::object();
      o.set("i", obs::Json::integer(i));
      o.set("x", obs::Json::string(robust::exact_double(1.0 / (i + 3.0))));
      w.append(o);
    }
  }
  auto entries = robust::load_journal(path);
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[2].at("i").as_integer(), 2);
  EXPECT_EQ(robust::parse_exact(entries[2].at("x")), 1.0 / 5.0);

  // A write killed mid-line leaves a truncated tail: dropped, not fatal.
  {
    std::FILE* f = std::fopen(path.c_str(), "a");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"i\": 3, \"x\": \"0.1", f);
    std::fclose(f);
  }
  entries = robust::load_journal(path);
  EXPECT_EQ(entries.size(), 3u);

  // Appending after a resume trims the dead fragment first — otherwise it
  // would weld onto the new entry and poison the NEXT resume as interior
  // corruption. The journal stays loadable across crash/resume cycles.
  {
    robust::JournalWriter w(path);
    ASSERT_TRUE(w.ok());
    auto o = obs::Json::object();
    o.set("i", obs::Json::integer(4));
    w.append(o);
  }
  entries = robust::load_journal(path);
  ASSERT_EQ(entries.size(), 4u);
  EXPECT_EQ(entries[3].at("i").as_integer(), 4);

  // Genuine interior corruption (a malformed COMPLETE line with entries
  // after it) must throw, not silently drop corners.
  {
    std::FILE* f = std::fopen(path.c_str(), "a");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"i\": 5, \"x\": garbage}\n", f);
    std::fclose(f);
    robust::JournalWriter w(path);  // trims nothing: the line is complete
    auto o = obs::Json::object();
    o.set("i", obs::Json::integer(6));
    w.append(o);
  }
  EXPECT_THROW(robust::load_journal(path), std::runtime_error);

  std::remove(path.c_str());
  // A missing journal is an empty history, not an error.
  EXPECT_TRUE(robust::load_journal(path).empty());
}

// --------------------------------------------------- engine fault probes

/// Step-driven RC through a diode clamp: nonlinear, so both the DC and
/// the damped transient Newton paths run.
int build_clamp(ckt::Circuit& c) {
  const int in = c.node();
  c.add<ckt::VSource>(in, 0, [](double t) { return t < 1e-9 ? 0.0 : 3.3; });
  const int out = c.node();
  c.add<ckt::Resistor>(in, out, 50.0);
  c.add<ckt::Diode>(out, 0);
  c.add<ckt::Capacitor>(out, 0, 1e-12);
  return out;
}

ckt::TransientOptions clamp_options() {
  ckt::TransientOptions opt;
  opt.dt = 25e-12;
  opt.t_stop = 4e-9;
  opt.context = "clamp-ctx";
  return opt;
}

robust::SolveErrorInfo run_expecting_failure(const ckt::TransientOptions& opt) {
  ckt::Circuit c;
  const int out = build_clamp(c);
  ckt::NewtonWorkspace ws;
  sig::RecordingSink rec;
  const int probes[] = {out};
  try {
    ckt::run_transient_streamed(c, opt, ws, probes, rec, 64);
  } catch (const robust::SolveError& e) {
    return e.info();
  }
  ADD_FAILURE() << "expected a SolveError";
  return {};
}

TEST(EngineFaults, EachSiteReportsTheRealFailureKind) {
  using FS = robust::FaultSite;
  using K = robust::FailureKind;
  const struct {
    FS site;
    K kind;
  } cases[] = {
      {FS::kDcSolve, K::kDcDivergence},
      {FS::kFactor, K::kSingularSystem},
      {FS::kTransientStep, K::kTransientDivergence},
      {FS::kSinkWrite, K::kSinkFailure},
      {FS::kDeadline, K::kDeadlineExceeded},
  };
  for (const auto& tc : cases) {
    robust::FaultPlan plan;
    robust::FaultSpec spec;
    spec.site = tc.site;
    spec.key = "clamp-ctx";
    plan.arm(spec);
    robust::ScopedFaultPlan guard(plan);
    const auto info = run_expecting_failure(clamp_options());
    EXPECT_EQ(info.kind, tc.kind) << robust::fault_site_name(tc.site);
    EXPECT_EQ(info.context, "clamp-ctx");
    EXPECT_NE(info.detail.find("injected"), std::string::npos)
        << robust::fault_site_name(tc.site);
    EXPECT_GT(plan.fired(), 0);
  }
}

TEST(EngineFaults, KeyedPlanLeavesOtherContextsUntouched) {
  robust::FaultPlan plan;
  robust::FaultSpec spec;
  spec.site = robust::FaultSite::kTransientStep;
  spec.key = "some-other-corner";
  plan.arm(spec);
  robust::ScopedFaultPlan guard(plan);

  ckt::Circuit c;
  const int out = build_clamp(c);
  ckt::NewtonWorkspace ws;
  sig::RecordingSink rec;
  const int probes[] = {out};
  EXPECT_NO_THROW(ckt::run_transient_streamed(c, clamp_options(), ws, probes, rec, 64));
  EXPECT_EQ(plan.fired(), 0);
}

TEST(EngineFaults, ExpiredDeadlineCancelsWithStructuredError) {
  ckt::Circuit c;
  const int out = build_clamp(c);
  ckt::NewtonWorkspace ws;
  sig::RecordingSink rec;
  const int probes[] = {out};
  auto opt = clamp_options();
  const robust::Deadline hot = robust::Deadline::after(0.0);
  opt.deadline = &hot;
  try {
    ckt::run_transient_streamed(c, opt, ws, probes, rec, 64);
    FAIL() << "expired deadline must cancel the run";
  } catch (const robust::SolveError& e) {
    EXPECT_EQ(e.info().kind, robust::FailureKind::kDeadlineExceeded);
  }
}

TEST(EngineFaults, DcDivergenceCarriesScheduleAndResidualHistory) {
  // A genuinely impossible DC problem: the voltage source fights a
  // short via a pathological nonlinearity budget. Easier determinstic
  // trigger: inject at the DC site and check the structured payload.
  robust::FaultPlan plan;
  robust::FaultSpec spec;
  spec.site = robust::FaultSite::kDcSolve;
  plan.arm(spec);
  robust::ScopedFaultPlan guard(plan);
  const auto info = run_expecting_failure(clamp_options());
  EXPECT_EQ(info.kind, robust::FailureKind::kDcDivergence);
  EXPECT_EQ(info.site, "dc_operating_point");
  EXPECT_EQ(info.dt, 25e-12);
}

}  // namespace
