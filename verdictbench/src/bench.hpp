// Helpers of the DUT-to-verdict benchmark that are pure functions of their
// inputs, kept apart from main.cpp so the self-test can exercise them:
// order statistics over repeated runs, per-layer attribution from an
// obs::Profile, and the verdict comparator against a stored reference.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/profile.hpp"

namespace vbench {

// ------------------------------------------------------------- statistics

/// Median of `v` (mean of the middle pair for even sizes); 0 when empty.
double median(std::vector<double> v);

/// First and third quartile with the "exclusive" method of Python's
/// statistics.quantiles(v, n=4), so the benchmark's own spread figures
/// match the ones a reader computes from its JSON lines. One sample gives
/// {v, v}; empty input gives {0, 0}.
struct Quartiles {
  double q1 = 0.0;
  double q3 = 0.0;
};
Quartiles quartiles(std::vector<double> v);

// ------------------------------------------------------- layer attribution

/// Span names the benchmark records around its own calls into each layer.
/// The library's span sites (sweep, corner, transient, dc, newton_step,
/// factor, scan, adaptive_scan) nest inside them.
inline constexpr const char* kSpanRun = "bench.run";
inline constexpr const char* kSpanSetup = "bench.setup";
inline constexpr const char* kSpanEstimate = "bench.estimate";
inline constexpr const char* kSpanSweep = "bench.sweep";
inline constexpr const char* kSpanCheck = "bench.check";
inline constexpr const char* kSpanReport = "bench.report";

/// Sum of total time [ns] of every node named one of `names` that lies
/// below a node named `under` (any depth; empty = anywhere). A counted
/// node's own subtree is not searched again, so a `dc` inside a counted
/// `transient` is not added twice.
std::int64_t total_under(const emc::obs::ProfileNode& root, const std::string& under,
                         std::span<const std::string> names);

/// Same walk, summing self time [ns] of nodes named `name`.
std::int64_t self_under(const emc::obs::ProfileNode& root, const std::string& under,
                        const std::string& name);

/// Same walk, summing the occurrence count of nodes named `name`.
std::uint64_t count_under(const emc::obs::ProfileNode& root, const std::string& under,
                          const std::string& name);

/// The span-derived part of the per-layer table, in seconds (counts as
/// counts). The profile is keyed by path, so a `transient` below the
/// estimate span (identification records) and one below a sweep `corner`
/// land in different fields.
struct SpanLayers {
  double records_s = 0.0;        ///< transient + dc under bench.estimate
  double fit_s = 0.0;            ///< self time of bench.estimate
  double transient_s = 0.0;      ///< transient under corner
  double newton_self_s = 0.0;    ///< self time of newton_step under corner
  double factor_s = 0.0;         ///< factor under corner
  std::uint64_t factors = 0;     ///< factor spans under corner
  double scan_s = 0.0;           ///< scan + adaptive_scan under corner
  double corner_s = 0.0;         ///< total time of every corner span
  double corner_self_s = 0.0;    ///< self time of corner (untraced glue)
};
SpanLayers span_layers(const emc::obs::Profile& profile);

// ---------------------------------------------------------- reference check

/// Verdict of one corner as the reference file stores it.
struct CornerVerdict {
  std::string label;
  bool solver_failed = false;
  bool pass = false;
  double worst_margin_db = 0.0;
};

/// Per-corner comparison against the stored reference. A corner counts as
/// failed when its solve failed, or when its label or verdict differs, or
/// when its worst margin differs by more than `tol_db` (a difference of
/// exactly tol_db is accepted). A mask FAIL that matches the reference is
/// a correct verdict, not a failure.
struct ReferenceCheck {
  std::size_t failed = 0;
  std::vector<std::string> notes;  ///< one line per failed corner
};
ReferenceCheck compare_to_reference(std::span<const CornerVerdict> expected,
                                    std::span<const CornerVerdict> actual, double tol_db);

/// Reference file <-> verdicts. The file is
/// {"workload", "seed", "margin_tol_db", "corners": [{label, pass, worst_margin_db}]}.
emc::obs::Json reference_json(const std::string& workload, std::uint64_t seed, double tol_db,
                              std::span<const CornerVerdict> verdicts);
std::vector<CornerVerdict> verdicts_from_json(const emc::obs::Json& doc, double& tol_db);

}  // namespace vbench
