// Scenario-axis refinement: plan_axis_refinement finds pass/fail sign
// flips in the per-axis worst-margin table, apply_refinement subdivides
// the axes, and SweepRunner::refine carries prior corners bit-for-bit
// while evaluating only the fresh ones — deterministically for any worker
// count, and in exact agreement with a from-scratch sweep of the refined
// grid.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "sweep/corner_grid.hpp"
#include "sweep/sweep_runner.hpp"

using namespace emc;
using namespace emc::sweep;

namespace {

/// Cheap analytic corner function: the margin is a smooth pure function
/// of (line_length, vdd_scale) with a single pass/fail boundary along the
/// length axis — precise control of where the planner must subdivide,
/// with none of the transient pipeline's cost.
double synthetic_margin(const Scenario& sc) {
  return -40.0 * std::log10(sc.line_length / 0.1) - 25.0 * (sc.vdd_scale - 1.0);
}

spec::ComplianceReport synthetic_report(double margin_db, bool covered = true) {
  spec::ComplianceReport r;
  r.mask_name = "synthetic";
  if (covered) {
    r.points.push_back({1e6, 50.0 - margin_db, 50.0, margin_db});
    r.worst_margin_db = margin_db;
    r.worst_index = 0;
    r.pass = margin_db >= 0.0;
  }
  return r;
}

CornerFn make_synthetic_fn(std::atomic<std::size_t>* calls = nullptr) {
  return [calls](const Scenario& sc, Workspace&) {
    if (calls) calls->fetch_add(1, std::memory_order_relaxed);
    return CornerResult{.report = synthetic_report(synthetic_margin(sc)),
                        .scan = ScanCounts{0, 7, 0}};  // fixed-plan style accounting
  };
}

CornerAxes boundary_axes() {
  CornerAxes axes;
  axes.line_length = {0.05, 0.1, 0.2, 0.4};
  axes.vdd_scale = {0.9, 1.1};
  return axes;
}

}  // namespace

TEST(PlanAxisRefinement, FindsTheSignFlipOnTheLengthAxis) {
  const CornerGrid grid(boundary_axes());
  SweepRunner runner(1);
  const auto prior = runner.run(grid, make_synthetic_fn());

  // Worst margin per length value (min over vdd): 9.54, -2.5, -14.5,
  // -26.6 dB -> exactly one pass/fail flip, between 0.05 m and 0.1 m.
  // The vdd axis fails at both values, so it contributes nothing.
  const auto plan = plan_axis_refinement(grid, prior.summary);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].axis, AxisId::kLineLength);
  EXPECT_EQ(plan[0].after, 0u);
  EXPECT_EQ(plan[0].value, std::sqrt(0.05 * 0.1));
}

TEST(PlanAxisRefinement, AllPassGridNeedsNoRefinement) {
  CornerAxes axes;
  axes.line_length = {0.01, 0.02, 0.05};  // all margins comfortably positive
  const CornerGrid grid(axes);
  SweepRunner runner(1);
  const auto prior = runner.run(grid, make_synthetic_fn());
  EXPECT_TRUE(plan_axis_refinement(grid, prior.summary).empty());
}

TEST(PlanAxisRefinement, UncoveredSentinelNeverFormsABoundary) {
  CornerAxes axes;
  axes.line_length = {0.05, 0.1, 0.4};
  const CornerGrid grid(axes);

  // Hand-built results: pass at 0.05 m, NO covered scan point at 0.1 m,
  // fail at 0.4 m. Both adjacent pairs straddle the +inf sentinel, so the
  // planner must not invent a boundary across the coverage hole.
  std::vector<CornerResult> results(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    results[i].scenario = grid.at(i);
    const double m = synthetic_margin(results[i].scenario);
    results[i].report = synthetic_report(m, /*covered=*/i != 1);
  }
  const auto summary = summarize(grid, results);
  EXPECT_TRUE(std::isinf(summary.axis_worst[size_t(AxisId::kLineLength)][1]));
  EXPECT_TRUE(plan_axis_refinement(grid, summary).empty());
}

TEST(ApplyRefinement, InsertsSortedValuesAndRejectsBadPlans) {
  const auto axes = boundary_axes();
  const std::vector<AxisInsertion> plan = {
      {AxisId::kLineLength, 0, std::sqrt(0.05 * 0.1)},
      {AxisId::kLineLength, 2, std::sqrt(0.2 * 0.4)},
      {AxisId::kVddScale, 0, std::sqrt(0.9 * 1.1)},
  };
  const auto refined = apply_refinement(axes, plan);
  const std::vector<double> want_len = {0.05, std::sqrt(0.05 * 0.1), 0.1,
                                        0.2, std::sqrt(0.2 * 0.4), 0.4};
  EXPECT_EQ(refined.line_length, want_len);
  const std::vector<double> want_vdd = {0.9, std::sqrt(0.9 * 1.1), 1.1};
  EXPECT_EQ(refined.vdd_scale, want_vdd);
  EXPECT_EQ(refined.load_c, axes.load_c);          // untouched axes survive
  EXPECT_EQ(refined.pattern_bits, axes.pattern_bits);

  EXPECT_THROW(apply_refinement(axes, std::vector<AxisInsertion>{
                   {AxisId::kDetector, 0, 1.0}}),
               std::invalid_argument);
  EXPECT_THROW(apply_refinement(axes, std::vector<AxisInsertion>{
                   {AxisId::kLineLength, 99, 0.3}}),
               std::invalid_argument);
}

TEST(SweepRefine, CarriesPriorResultsAndEvaluatesOnlyFreshCorners) {
  const CornerGrid grid(boundary_axes());
  SweepRunner runner(2);
  const auto prior = runner.run(grid, make_synthetic_fn());

  std::atomic<std::size_t> calls{0};
  const auto out = runner.refine(grid, prior, make_synthetic_fn(&calls));

  // One insertion on the length axis: 5x2 = 10 corners, 8 carried over.
  ASSERT_EQ(out.plan.size(), 1u);
  EXPECT_EQ(out.grid.size(), 10u);
  EXPECT_EQ(out.reused, 8u);
  EXPECT_EQ(out.evaluated, 2u);
  EXPECT_EQ(calls.load(), 2u);
  ASSERT_EQ(out.outcome.results.size(), out.grid.size());

  for (const auto& r : out.outcome.results) {
    // Every corner (carried or fresh) reports the synthetic margin of its
    // own scenario, and the scenario matches the refined grid slot.
    EXPECT_EQ(r.scenario.label(), out.grid.at(r.scenario.index).label());
    ASSERT_FALSE(r.report.points.empty());
    EXPECT_EQ(r.report.worst_margin_db, synthetic_margin(r.scenario));
    EXPECT_EQ(r.scan.detector_passes, 7u);
  }

  // Carried corners keep their prior report bit-for-bit (match by label —
  // Scenario::label() is value-based, so it survives re-indexing).
  for (const auto& p : prior.results) {
    bool found = false;
    for (const auto& r : out.outcome.results) {
      if (r.scenario.label() != p.scenario.label()) continue;
      found = true;
      EXPECT_EQ(r.report.worst_margin_db, p.report.worst_margin_db);
      EXPECT_EQ(r.report.pass, p.report.pass);
    }
    EXPECT_TRUE(found) << "prior corner lost: " << p.scenario.label();
  }
}

TEST(SweepRefine, MatchesAFromScratchSweepOfTheRefinedGrid) {
  const CornerGrid grid(boundary_axes());
  SweepRunner runner(2);
  const auto prior = runner.run(grid, make_synthetic_fn());
  const auto out = runner.refine(grid, prior, make_synthetic_fn());

  // The refined grid evaluated from scratch must aggregate to the exact
  // same summary: carried results are pure functions of the scenario.
  const CornerGrid refined(apply_refinement(grid.axes(), out.plan));
  ASSERT_EQ(refined.size(), out.grid.size());
  const auto scratch = runner.run(refined, make_synthetic_fn());
  EXPECT_EQ(out.outcome.summary, scratch.summary);
}

TEST(SweepRefine, BitIdenticalAcrossWorkerCounts) {
  const CornerGrid grid(boundary_axes());
  SweepRunner one(1), three(3);
  const auto p1 = one.run(grid, make_synthetic_fn());
  const auto p3 = three.run(grid, make_synthetic_fn());
  ASSERT_EQ(p1.summary, p3.summary);

  const auto r1 = one.refine(grid, p1, make_synthetic_fn());
  const auto r3 = three.refine(grid, p3, make_synthetic_fn());
  EXPECT_EQ(r1.plan, r3.plan);
  EXPECT_EQ(r1.outcome.summary, r3.outcome.summary);
  ASSERT_EQ(r1.outcome.results.size(), r3.outcome.results.size());
  for (std::size_t i = 0; i < r1.outcome.results.size(); ++i) {
    EXPECT_EQ(r1.outcome.results[i].scenario.label(),
              r3.outcome.results[i].scenario.label());
    EXPECT_EQ(r1.outcome.results[i].report.worst_margin_db,
              r3.outcome.results[i].report.worst_margin_db);
  }
}

TEST(SweepRefine, EmptyPlanReturnsThePriorOutcome) {
  CornerAxes axes;
  axes.line_length = {0.01, 0.02};  // every corner passes
  const CornerGrid grid(axes);
  SweepRunner runner(2);
  const auto prior = runner.run(grid, make_synthetic_fn());

  std::atomic<std::size_t> calls{0};
  const auto out = runner.refine(grid, prior, make_synthetic_fn(&calls));
  EXPECT_TRUE(out.plan.empty());
  EXPECT_EQ(out.grid.size(), grid.size());
  EXPECT_EQ(out.reused, grid.size());
  EXPECT_EQ(out.evaluated, 0u);
  EXPECT_EQ(calls.load(), 0u);
  EXPECT_EQ(out.outcome.summary, prior.summary);
}

TEST(SweepRefine, RejectsAPartialPriorOutcome) {
  const CornerGrid grid(boundary_axes());
  SweepRunner runner(1);
  auto prior = runner.run(grid, make_synthetic_fn());
  prior.results.pop_back();
  EXPECT_THROW(runner.refine(grid, prior, make_synthetic_fn()),
               std::invalid_argument);
}
