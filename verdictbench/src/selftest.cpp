// Self-test of the benchmark's helpers: order statistics, per-layer
// attribution from a hand-built trace, and the reference comparator at
// its tolerance edges. Prints one line per failed check; exits 1 if any.
//
//   verdictbench_selftest
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench.hpp"

namespace {

int g_failures = 0;
int g_checks = 0;

void check(bool ok, const std::string& what) {
  ++g_checks;
  if (!ok) {
    ++g_failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

void check_near(double got, double want, const std::string& what, double tol = 1e-12) {
  check(std::fabs(got - want) <= tol,
        what + ": got " + std::to_string(got) + ", want " + std::to_string(want));
}

void test_statistics() {
  check_near(vbench::median({}), 0.0, "median of nothing");
  check_near(vbench::median({3.0, 1.0, 2.0}), 2.0, "median odd");
  check_near(vbench::median({4.0, 1.0, 3.0, 2.0}), 2.5, "median even");

  // Reference values from Python: statistics.quantiles(data, n=4).
  const auto q10 = vbench::quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  check_near(q10.q1, 2.75, "quartiles 1..10 q1");
  check_near(q10.q3, 8.25, "quartiles 1..10 q3");
  const auto q2 = vbench::quartiles({2.0, 1.0});
  check_near(q2.q1, 0.75, "quartiles [1,2] q1 (extrapolates)");
  check_near(q2.q3, 2.25, "quartiles [1,2] q3 (extrapolates)");
  const auto q5 = vbench::quartiles({1.0, 2.0, 3.0, 4.0, 5.0});
  check_near(q5.q1, 1.5, "quartiles 1..5 q1");
  check_near(q5.q3, 4.5, "quartiles 1..5 q3");
  const auto q1 = vbench::quartiles({7.0});
  check(q1.q1 == 7.0 && q1.q3 == 7.0, "quartiles of one sample");
}

emc::obs::TraceEvent ev(const char* name, std::uint32_t tid, std::uint32_t depth,
                        std::int64_t start, std::int64_t end) {
  return {name, tid, depth, start, end - start};
}

/// Self time of every node equals its total minus its children's totals.
void check_self_times(const emc::obs::ProfileNode& node) {
  std::int64_t children = 0;
  for (const auto& c : node.children) {
    children += c.total_ns;
    check_self_times(c);
  }
  if (!node.name.empty())
    check(node.self_ns == node.total_ns - children, "self = total - children at " + node.name);
}

void test_layers() {
  // Thread 0 estimates (its transient and dc are identification records)
  // and runs one corner; thread 1 is a second sweep worker whose corner
  // sits at the top of its own stack.
  const std::vector<emc::obs::TraceEvent> events = {
      ev("bench.run", 0, 0, 0, 1000),
      ev("bench.setup", 0, 1, 0, 500),
      ev("bench.estimate", 0, 2, 10, 490),
      ev("transient", 0, 3, 20, 120),
      ev("dc", 0, 4, 25, 35),
      ev("newton_step", 0, 4, 40, 50),
      ev("dc", 0, 3, 200, 220),
      ev("bench.sweep", 0, 1, 500, 950),
      ev("sweep", 0, 2, 500, 950),
      ev("corner", 0, 3, 510, 710),
      ev("transient", 0, 4, 520, 670),
      ev("newton_step", 0, 5, 530, 590),
      ev("factor", 0, 6, 540, 560),
      ev("newton_step", 0, 5, 600, 650),
      ev("factor", 0, 6, 610, 625),
      ev("scan", 0, 4, 680, 700),
      ev("corner", 1, 0, 505, 905),
      ev("transient", 1, 1, 510, 810),
      ev("newton_step", 1, 2, 520, 800),
      ev("factor", 1, 3, 530, 630),
      ev("adaptive_scan", 1, 1, 820, 900),
  };
  const auto profile = emc::obs::Profile::build(events, 0, 2);
  check_self_times(profile.root());

  const auto l = vbench::span_layers(profile);
  const double ns = 1e-9;
  check_near(l.records_s, 120 * ns, "records: estimate transient + its top-level dc");
  check_near(l.fit_s, 360 * ns, "fit: estimate self time");
  check_near(l.transient_s, 450 * ns, "sweep transient excludes the estimate transient");
  check_near(l.newton_self_s, 255 * ns, "newton_step self time under corners");
  check_near(l.factor_s, 135 * ns, "factor time under corners");
  check(l.factors == 3, "factor count under corners");
  check_near(l.scan_s, 100 * ns, "scan + adaptive_scan");
  check_near(l.corner_s, 600 * ns, "corner total over both threads");
  check_near(l.corner_self_s, 50 * ns, "corner self time");

  // The estimate-path transient is still in the profile, just elsewhere.
  const std::string transient[] = {"transient"};
  check(vbench::total_under(profile.root(), "bench.estimate", transient) == 100,
        "estimate-path transient kept separate");
  check(vbench::total_under(profile.root(), "", transient) == 550, "all transients");
}

void test_reference() {
  using vbench::CornerVerdict;
  // 0.25 is exact in binary, so the edge below is the tolerance itself.
  const double tol = 0.25;
  const std::vector<CornerVerdict> expected = {
      {"a", false, false, -1.0},
      {"b", false, true, 2.0},
  };
  auto same = expected;
  check(vbench::compare_to_reference(expected, same, tol).failed == 0, "identical verdicts");

  auto at_edge = expected;
  at_edge[0].worst_margin_db = -1.25;
  at_edge[1].worst_margin_db = 2.25;
  check(vbench::compare_to_reference(expected, at_edge, tol).failed == 0,
        "margin off by exactly the tolerance passes");

  auto past_edge = expected;
  past_edge[0].worst_margin_db = std::nextafter(-1.25, -2.0);
  check(vbench::compare_to_reference(expected, past_edge, tol).failed == 1,
        "margin one ulp past the tolerance fails");

  auto flipped = expected;
  flipped[1].pass = false;
  check(vbench::compare_to_reference(expected, flipped, tol).failed == 1, "verdict flip fails");

  auto casualty = expected;
  casualty[0].solver_failed = true;
  check(vbench::compare_to_reference(expected, casualty, tol).failed == 1,
        "solver casualty fails");

  auto relabelled = expected;
  relabelled[1].label = "c";
  check(vbench::compare_to_reference(expected, relabelled, tol).failed == 1,
        "label mismatch fails");

  auto nan_margin = expected;
  nan_margin[0].worst_margin_db = std::nan("");
  check(vbench::compare_to_reference(expected, nan_margin, tol).failed == 1, "NaN margin fails");

  const std::vector<CornerVerdict> short_run = {expected[0]};
  check(vbench::compare_to_reference(expected, short_run, tol).failed == 1,
        "corner count mismatch fails");

  double tol_back = 0.0;
  const auto doc = vbench::reference_json("w", 3, tol, expected);
  const auto back = vbench::verdicts_from_json(emc::obs::Json::parse(doc.dump()), tol_back);
  check(tol_back == tol && back.size() == 2 && back[1].pass && back[0].worst_margin_db == -1.0,
        "reference file round-trip");
}

}  // namespace

int main() {
  test_statistics();
  test_layers();
  test_reference();
  std::printf("%d checks, %d failed\n", g_checks, g_failures);
  return g_failures == 0 ? 0 : 1;
}
