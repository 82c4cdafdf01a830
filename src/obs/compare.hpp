// Report aggregation and regression detection on top of obs::RunReport
// JSON documents:
//
//   * merge_run_reports — deterministically combine N reports (the shards
//     of one logical run) into one, with the same merge discipline the
//     MetricRegistry uses: counters sum, gauges (peaks) max, histograms
//     add bucketwise, worker stats concatenate, trace summaries combine.
//     Sweep sections merge like any context section (agreeing fields pass
//     through, differing ones become per-document lists): a sharded
//     sweep's summary comes from SweepRunner::run over the concatenated
//     shard journals, which re-aggregates through sweep::summarize(). A
//     4-way sharded sweep merged this way equals the single-process report
//     on every counter, histogram and summary field (gated in
//     bench_report).
//
//   * check_baseline — score a current document against a committed
//     baseline spec: a list of (path, expected value, relative tolerance,
//     direction) rows. Produces per-row PASS / REGRESS / IMPROVED /
//     MISSING verdicts and an overall pass flag — the engine behind every
//     bench's --check-baseline mode and `emc_report check`.
//
//   * diff_reports — exploratory diff of two arbitrary report documents:
//     walk every scalar leaf of the baseline, compare against the same
//     path in the current document under one uniform tolerance.
//
// Baseline spec schema (committed under bench/baselines/):
//   {
//     "baseline": "<bench name>",
//     "schema_version": 1,
//     "captured": {...anything, ignored by the checker...},
//     "metrics": [
//       {"path": "scenarios[steady_state].wall_s",
//        "value": 0.123, "rel_tol": 9.0, "dir": "upper"},
//       {"path": "bit_identical", "value": true, "dir": "equal"}
//     ]
//   }
// `dir` bounds which side regresses: "upper" (regression when current >
// value * (1 + tol) — wall times), "lower" (regression when current <
// value / (1 + tol) — speedups), "both" (either side — counters), or
// "equal" (exact match — booleans, strings, gate flags). `rel_tol` is a
// relative half-width (2.0 = 3x), scalable at check time for slow
// runners (sanitizer CI passes a scale > 1).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"

namespace emc::obs {

// ----------------------------------------------------------------- merge

/// Deterministically merge N RunReport documents into one (see file
/// comment for the per-section rules). Fields equal across documents pass
/// through; conflicting context fields (host, config, sweep) become
/// arrays of the per-document values. Throws std::invalid_argument on an empty
/// list, a non-object document, or structurally incompatible histograms.
Json merge_run_reports(const std::vector<Json>& reports);

// ----------------------------------------------------- baseline checking

enum class Verdict { kPass, kImproved, kRegress, kMissing };

const char* verdict_name(Verdict v);

/// One checked metric.
struct DeltaRow {
  std::string path;
  double baseline = 0.0;
  double current = 0.0;
  double ratio = 0.0;  ///< current / baseline (0 when baseline is 0 or non-numeric)
  double tol = 0.0;    ///< effective relative tolerance after scaling
  Verdict verdict = Verdict::kPass;
  std::string note;  ///< non-numeric expectations: what was compared
};

struct CompareResult {
  bool pass = true;  ///< no kRegress and no kMissing rows
  std::size_t regressed = 0;
  std::size_t improved = 0;
  std::size_t missing = 0;
  std::vector<DeltaRow> rows;

  /// Human-readable verdict table (one line per row + a summary line).
  std::string format() const;
  /// Machine-readable form ({"pass":, "rows":[...]}).
  Json to_json() const;
};

/// Check `current` against a baseline spec (schema above). `tol_scale`
/// multiplies every row's rel_tol — slow/sanitized runners pass > 1.
/// Rows whose path does not resolve in `current` are kMissing (and fail);
/// malformed spec rows throw std::invalid_argument.
CompareResult check_baseline(const Json& baseline_spec, const Json& current,
                             double tol_scale = 1.0);

/// Generic diff: every scalar leaf of `baseline` is compared against the
/// same path in `current` with direction "both" and tolerance `rel_tol`
/// (non-numeric leaves compare for equality). Leaves present only in
/// `current` are ignored — the baseline names what matters.
CompareResult diff_reports(const Json& baseline, const Json& current,
                           double rel_tol = 0.25);

/// Resolve a dotted path with array selectors into `doc`:
///   "solver.newton_iters"            object fields
///   "workers.pool[2].items"          array index
///   "scenarios[steady_state].wall_s" array of objects, matched by their
///                                    "name" (or "axis"/"value") field
/// Returns nullptr when any step fails to resolve.
const Json* resolve_path(const Json& doc, std::string_view path);

}  // namespace emc::obs
