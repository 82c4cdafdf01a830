// Parallel corner-sweep engine: run the transient -> spectrum -> swept
// EMI receiver -> compliance pipeline over every corner of a CornerGrid,
// sharing one immutable estimated macromodel across pool workers, and
// aggregate the per-corner verdicts into worst-margin statistics.
//
// Determinism contract: a corner's result is a pure function of its
// Scenario (devices mutate only their own per-corner circuit; the shared
// model is const — stamped through Device::stamp const). Results land in
// a per-corner slot and are aggregated sequentially in grid order, so the
// SweepSummary is bit-identical for any worker count or scheduling order.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "circuit/engine.hpp"
#include "circuit/tline.hpp"
#include "core/driver_model.hpp"
#include "emc/limits.hpp"
#include "emc/receiver.hpp"
#include "obs/json.hpp"
#include "robust/retry.hpp"
#include "sweep/corner_grid.hpp"
#include "sweep/thread_pool.hpp"

namespace emc::robust {
class JournalWriter;
}

namespace emc::sweep {

/// Verdict of one corner. The corner function fills the report and the
/// deterministic accounting (memory, solve stats, ladder, scan); the
/// runner adds `scenario`, `worker`, `wall_s`, the failure record and
/// `from_checkpoint`. `wall_s` and `worker` are diagnostic only — they
/// never enter the summary, which must be scheduling-independent.
struct CornerResult {
  Scenario scenario{};
  spec::ComplianceReport report{};
  double wall_s = 0.0;

  /// Peak transient-record bytes of the streamed pipeline for this corner
  /// (chunk staging + retained steady-state record). Deterministic per
  /// scenario; 0 when the corner function does not report memory.
  std::size_t streamed_record_bytes = 0;

  /// Solver statistics of the transient behind this corner's record.
  /// Memo hits repeat the producing corner's stats (pure per memo key),
  /// flagged by transient_reused.
  ckt::SolveStats solve{};
  bool transient_reused = false;
  std::size_t worker = 0;  ///< pool worker that evaluated this corner

  /// Solver-failure record. When the corner's solve failed past the retry
  /// ladder and the sweep isolated it, solver_failed is set, `failure`
  /// carries the formatted robust::SolveError (corner identity attached)
  /// and `report` is empty. Both strings are empty on success.
  bool solver_failed = false;
  std::string failure{};
  std::string failure_kind{};  ///< robust::failure_kind_name() of the failure

  /// Escalation-ladder attempts behind this corner's transient (1 = first
  /// try) and whether it recovered after a failed attempt. Deterministic
  /// per scenario, like the solve stats.
  int solve_attempts = 1;
  bool recovered = false;

  /// Detector passes the corner was scored on: its scan grid size, even
  /// when its readings came from a scan shared with other corners (the
  /// points actually demodulated are the spec.scan.* counters).
  /// Deterministic per scenario; zero for solver casualties.
  std::size_t scan_passes = 0;

  /// Slot restored from a checkpoint journal instead of being evaluated
  /// (wall_s/worker are zero for such corners — they ran in a prior
  /// process). Scheduling-dependent, never journaled or summarized.
  bool from_checkpoint = false;
};

/// Per-worker scratch reused across all corners a worker runs: the dense
/// Newton/MNA workspace (equal-sized corner circuits never reallocate it)
/// and the EMI scanner with its FFT plan (equal-length records plan once).
///
/// memo_key/memo_record/memo are a single-entry memo for corner functions
/// whose expensive stage depends on only part of the scenario (the
/// emission pipeline's transient ignores the supply/detector/RBW axes):
/// the steady record and, in `memo`, the accounting of the transient that
/// produced it (record bytes, solve stats, ladder attempts). Both are pure
/// functions of the key, so a memo hit returns exactly what recomputing
/// would and cannot perturb the sweep's determinism contract. Corners
/// sharing a key are adjacent in grid order (see AxisId); claim them as
/// one chunk to make the memo hit. The key covers only the scenario, so
/// memo_fn names the corner function (one pipeline's config) that filled
/// the memo, and a hit requires both: a runner reused for another pipeline
/// recomputes instead of serving the first pipeline's record.
///
/// scan_rx/scan/scan_volts are a single-entry scan slot over memo_record:
/// the receiver settings of its last scan (empty after a memo miss), that
/// scan and its detector readings in envelope volts
/// (EmiScanner::readings). The emission pipeline scores every supply and
/// detector corner of one receiver setting from it; AxisId orders kRbw
/// before kVddScale and kDetector, so those corners are adjacent too.
struct Workspace {
  ckt::NewtonWorkspace newton;
  spec::EmiScanner scanner;
  std::uint64_t memo_fn = 0;
  std::string memo_key;
  sig::Waveform memo_record;
  CornerResult memo;
  std::optional<spec::ReceiverSettings> scan_rx;
  spec::EmiScan scan;
  std::vector<spec::EmiScanner::Readings> scan_volts;
};

/// Fixed-bin histogram of per-corner worst margins; corners outside the
/// range are folded into the edge bins.
struct MarginHistogram {
  double lo_db = -40.0;
  double hi_db = 40.0;
  std::size_t n_bins = 16;
  std::vector<std::size_t> counts;  ///< filled by summarize()

  bool operator==(const MarginHistogram&) const = default;
};

/// Worst-margin statistics over a finished sweep.
struct SweepSummary {
  std::size_t corners = 0;
  std::size_t passed = 0;
  std::size_t failed = 0;
  std::size_t uncovered = 0;  ///< corners whose mask covered no scan point
  /// Corners whose report came from a truncated scan (skipped_scan_points
  /// > 0): their pass/fail verdict covers only part of the requested
  /// span, so a sweep with truncated == corners can "pass" while never
  /// measuring above the record's Nyquist rate.
  std::size_t truncated = 0;

  /// Corners whose solve failed past the retry ladder (isolated; no
  /// report). Deliberately distinct from `uncovered`: a solver casualty
  /// is an execution failure, not a mask-coverage property, and mixing
  /// the two would let a crashing sweep masquerade as a narrow mask.
  std::size_t solver_failed = 0;
  /// Corners whose solve succeeded only after ladder escalation.
  std::size_t recovered = 0;

  /// Detector passes summed over the corners that ran.
  std::size_t scan_detector_passes = 0;

  /// Min over covered corners; +infinity when every corner was uncovered
  /// (so "nothing scored" can never read as a genuine 0.0 dB margin).
  double worst_margin_db = 0.0;
  std::size_t worst_corner = 0;  ///< grid index of that corner; SIZE_MAX if none
  std::string worst_label;       ///< its Scenario::label(); empty if none

  /// axis_worst[a][k]: worst margin among covered corners whose axis `a`
  /// coordinate is `k` (+inf when no covered corner hits that value) —
  /// the "which axis value drives the failures" table.
  std::vector<std::vector<double>> axis_worst;

  /// axis_solver_failed[a][k]: solver-failed corners per axis value — the
  /// "which axis value breaks the solver" attribution table, same shape
  /// as axis_worst.
  std::vector<std::vector<std::size_t>> axis_solver_failed;

  /// Max over corners of the per-corner streamed record footprint (0 when
  /// corners report no memory).
  std::size_t peak_streamed_record_bytes = 0;

  MarginHistogram histogram;

  bool operator==(const SweepSummary&) const = default;
};

/// Per-corner evaluation: Scenario -> CornerResult using only worker-local
/// scratch plus shared *immutable* inputs. A robust::SolveError is
/// isolated into the corner's failure record; any other exception signals
/// a bug and is rethrown after the loop drains.
using CornerFn = std::function<CornerResult(const Scenario&, Workspace&)>;

struct SweepOutcome {
  std::vector<CornerResult> results;  ///< grid order
  SweepSummary summary;

  /// Per-worker pool utilization over this run (index = worker id).
  /// Diagnostic, scheduling-dependent.
  std::vector<WorkerStats> workers;
};

/// Contiguous grid-index range [begin, end) for sharded sweeps. The
/// default covers the whole grid; `end` is clamped to grid.size(). Shards
/// run over the SAME grid (not a sub-grid), so their journals index one
/// grid: run() over the concatenation of every shard's journal restores
/// all corners and summarizes them exactly as the single-process run.
struct ShardRange {
  std::size_t begin = 0;
  std::size_t end = SIZE_MAX;

  bool whole_grid(std::size_t grid_size) const {
    return begin == 0 && end >= grid_size;
  }
};

/// Deterministic sequential aggregation of per-corner reports (exposed
/// separately so tests can feed hand-built reports).
SweepSummary summarize(const CornerGrid& grid, std::span<const CornerResult> results,
                       const MarginHistogram& histogram_spec = {});

/// summarize() for a shard: `results` covers any subset of the grid's
/// corners (each CornerResult carries its own Scenario). Axis tables keep
/// the full grid shape; values whose corners live outside the shard stay
/// at the +infinity "nothing scored" sentinel.
SweepSummary summarize_shard(const CornerGrid& grid, std::span<const CornerResult> results,
                             const MarginHistogram& histogram_spec = {});

/// Progress observer: invoked after every finished corner with
/// (corners_done, corners_total). Runs on whichever worker finished the
/// corner, concurrently with other workers — it must be thread-safe and
/// cheap, and it observes completion order, not grid order. run() counts
/// the corners of its shard (restored checkpoint corners first).
using ProgressFn = std::function<void(std::size_t, std::size_t)>;

/// Thrown by SweepRunner::run when RunOptions::stop was raised: workers
/// stopped claiming corners, the pool drained, and (when journaling)
/// every corner that finished is on disk for a resume.
class SweepAborted : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Full control surface of SweepRunner::run; the positional legacy
/// overload forwards here.
struct RunOptions {
  MarginHistogram histogram{};
  std::size_t chunk = 1;  ///< corners claimed per scheduling step
  ProgressFn progress{};
  ShardRange shard{};

  /// Append every finished corner (successes and isolated failures) to
  /// this JSON-lines checkpoint journal, and before running restore the
  /// corners already present — matching grid indices inside the shard are
  /// skipped and flagged from_checkpoint. Doubles round-trip exactly
  /// (%.17g), so a killed shard resumed over the same journal produces a
  /// summary and per-corner reports byte-identical to an uninterrupted
  /// run; the same holds for the concatenated journals of several shards.
  /// An entry recorded for another grid throws std::invalid_argument.
  /// Empty disables checkpointing.
  std::string journal_path;

  /// Cooperative abort: when *stop becomes true, workers stop claiming
  /// corners and run() throws SweepAborted after the pool drains (the
  /// journal then holds every finished corner). Null = never aborted.
  const std::atomic<bool>* stop = nullptr;
};

/// Owns the thread pool and one Workspace per worker.
class SweepRunner {
 public:
  /// `jobs` worker threads (including the caller); clamped to >= 1.
  explicit SweepRunner(std::size_t jobs);

  std::size_t jobs() const { return pool_.workers(); }

  /// Evaluate every corner of `grid` through `fn` and aggregate. Corner
  /// order in the result vector is grid order regardless of scheduling.
  /// `chunk` consecutive corners are claimed per scheduling step (pass
  /// emission_chunk_hint(grid) so corners sharing a transient stay on one
  /// worker and its record memo hits); results are chunk-invariant.
  /// `shard` restricts the run to a contiguous grid-index range for
  /// sharded execution: results hold only that range (grid order) and the
  /// summary comes from summarize_shard().
  SweepOutcome run(const CornerGrid& grid, const CornerFn& fn,
                   const MarginHistogram& histogram_spec = {}, std::size_t chunk = 1,
                   const ProgressFn& progress = {}, ShardRange shard = {});

  /// Same run with the full option set: checkpoint journal + resume,
  /// cooperative abort. See RunOptions.
  SweepOutcome run(const CornerGrid& grid, const CornerFn& fn, const RunOptions& opt);

 private:
  ThreadPool pool_;
  std::vector<Workspace> workspaces_;
};

/// One finished corner as a checkpoint-journal entry: grid index, the
/// corner's exact scenario (every axis value plus the stimulus bits) and
/// every schedule-independent CornerResult field, doubles spelled with
/// robust::exact_double so decoding reproduces them bit-for-bit.
obs::Json corner_journal_json(const CornerResult& r);

/// Inverse of corner_journal_json on `grid`: the scenario is re-derived
/// as grid.at(index). Throws std::invalid_argument on malformed entries —
/// a missing field or one of the wrong kind, a double that is not a whole
/// number string, a negative count, an index past the grid, a scenario
/// that is not the grid's corner at that index (a journal of another
/// grid), or a worst_index outside a non-empty points list.
CornerResult corner_from_journal(const obs::Json& entry, const CornerGrid& grid);

/// Deterministic per-corner record for reports and benches: corner
/// identity, solver-failure record, ladder accounting and the compliance
/// verdict — none of the scheduling-dependent fields (wall_s, worker,
/// transient_reused, from_checkpoint), so two equal sweeps emit equal
/// arrays for any worker count, chunking or resume history.
obs::Json corner_result_json(const CornerResult& r);

/// JSON spelling of one margin: finite values are numbers, the +infinity
/// "nothing scored" sentinel becomes the string "uncovered".
obs::Json margin_json(double margin_db);

/// The summary as a JSON object — the schema BENCH_sweep.json, the corner
/// sweep example and RunReports share (corners/passed/failed counts,
/// worst margin + corner, per-axis worst table over non-singleton axes,
/// record-memory peaks, margin histogram).
obs::Json summary_json(const CornerGrid& grid, const SweepSummary& s);

/// Pool utilization as a JSON array of per-worker rows (busy/idle seconds,
/// items, busy fraction of the epochs' wall time).
obs::Json worker_stats_json(std::span<const WorkerStats> workers);

/// Configuration of the bus-emission corner pipeline: two PW-RBF drivers
/// from one shared immutable macromodel on a lossy coupled line (the
/// paper's Fig. 3 structure), aggressor repeating its PRBS pattern while
/// the victim holds Low. Scenario axes override the line length, far-end
/// load, stimulus pattern and receiver settings per corner.
struct EmissionSweepConfig {
  const core::PwRbfDriverModel* model = nullptr;  ///< shared, outlives the sweep
  ckt::CoupledLineParams line;  ///< base 2-conductor line; length set per corner
                                ///< (modal sections sized automatically)
  double bit_time = 1e-9;       ///< stimulus bit period [s]
  int periods = 3;              ///< simulated pattern repetitions; the first is
                                ///< discarded as startup transient
  spec::ReceiverSettings rx;    ///< base receiver; rbw/name set per corner
  spec::LimitMask mask;         ///< limit the detector trace is scored against

  /// Retry/escalation ladder for failing corner transients (see
  /// robust::RetryPolicy). The default retries; retry.enabled = false is
  /// the pre-robustness single-attempt path, byte-identical when nothing
  /// fails. The ladder schedule is a pure function of the corner, so
  /// retried sweeps stay deterministic for any worker count.
  robust::RetryPolicy retry;
};

/// Build the corner function running the full pipeline:
/// transient (far-end active-land voltage) -> steady-state slice ->
/// supply-corner scaling -> swept EMI receiver -> compliance report of the
/// scenario's detector trace against cfg.mask. The engine step is the
/// macromodel's sampling time model->ts (DriverDevice accepts no other).
///
/// The supply axis is applied as a first-order approximation: port
/// waveforms (and thus emission levels) scale ~linearly with VDD, so the
/// detector readings are multiplied by vdd_scale rather than re-estimating
/// the macromodel per supply corner. The receiver scans each (transient,
/// RBW) once per worker and scores its supply/detector corners from that
/// scan. The config is copied into the returned closure; only `model` is
/// referenced and must outlive it.
CornerFn make_emission_corner_fn(const EmissionSweepConfig& cfg);

/// Scheduling chunk for the emission pipeline: corners differing only in
/// the post-processing axes (RBW, supply scale, detector) share one
/// transient record and are contiguous in grid order; claiming the whole
/// run as a chunk makes the worker's record memo hit for all but the
/// first of them. Returns axis_size(rbw) * axis_size(vdd) * axis_size(det).
std::size_t emission_chunk_hint(const CornerGrid& grid);

/// Identity of the transient behind a corner: the memo key of the emission
/// pipeline (pattern bits + line length + load, %.17g exact) and the
/// TransientOptions::context it runs under. Key robust::FaultSpec entries
/// to this string to target one transient group deterministically —
/// corners differing only in post-processing axes share it.
std::string emission_transient_key(const Scenario& sc);

}  // namespace emc::sweep
