#include "sweep/sweep_runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <stdexcept>

#include "circuit/devices_linear.hpp"
#include "circuit/netlist.hpp"
#include "core/driver_device.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "robust/journal.hpp"

namespace emc::sweep {

namespace {

/// Staging buffer of the streamed corner transient: 64 KiB of
/// single-channel frames, living in the worker's NewtonWorkspace and
/// reused across every corner the worker runs.
constexpr std::size_t kChunkFrames = 64 * 1024 / sizeof(double);

/// Base transient options of a corner. The retry ladder escalates from
/// these; opt.context carries the corner's transient identity into
/// failure reports and the fault harness.
ckt::TransientOptions emission_base_options(const EmissionSweepConfig& cfg,
                                            const Scenario& sc) {
  const double period = cfg.bit_time * static_cast<double>(sc.bits.size());
  ckt::TransientOptions opt;
  opt.dt = cfg.model->ts;
  opt.t_stop = period * static_cast<double>(cfg.periods);
  opt.context = emission_transient_key(sc);
  return opt;
}

/// The corner circuit: two drivers from the shared macromodel on the
/// lossy coupled line, both far ends loaded. Returns the measured far-end
/// land (the only probe).
int build_emission_circuit(const EmissionSweepConfig& cfg, const Scenario& sc,
                           ckt::Circuit& c) {
  obs::Span span("build");
  const int a1 = c.node();
  const int a2 = c.node();
  const int b1 = c.node();
  const int b2 = c.node();

  ckt::CoupledLineParams line = cfg.line;
  line.length = sc.line_length;
  add_coupled_lossy_line(c, {a1, a2}, {b1, b2}, line, cfg.model->ts);
  c.add<ckt::Capacitor>(b1, c.ground(), sc.load_c);
  c.add<ckt::Capacitor>(b2, c.ground(), sc.load_c);

  std::string active_bits;
  for (int p = 0; p < cfg.periods; ++p) active_bits += sc.bits;
  const std::string quiet_bits(active_bits.size(), '0');
  c.add<core::DriverDevice>(a1, *cfg.model, active_bits, cfg.bit_time);
  c.add<core::DriverDevice>(a2, *cfg.model, quiet_bits, cfg.bit_time);
  return b1;
}

spec::TraceSel detector_trace(Detector d) {
  switch (d) {
    case Detector::kPeak: return spec::TraceSel::kPeak;
    case Detector::kQuasiPeak: return spec::TraceSel::kQuasiPeak;
    default: return spec::TraceSel::kAverage;
  }
}

/// Receiver scan + supply scaling + mask check of the worker's memo
/// record: the post-transient tail of the corner pipeline, pure in
/// (record, scenario). `counts` receives the corner's scan accounting
/// (detector passes scored, adaptive refined points, certified crossings).
///
/// First-order supply corner: emission levels scale ~linearly with VDD.
/// The fixed plan scans the unscaled record once per receiver setting
/// (the Workspace scan slot) and multiplies each corner's readings by
/// vdd_scale in volts before the dBuV conversion, so the -120 dBuV floor
/// applies after scaling, as in a scan of the scaled record. By
/// homogeneity (EmiScanner::readings) the two agree up to rounding.
spec::ComplianceReport post_process_corner(const EmissionSweepConfig& cfg,
                                           const Scenario& sc, Workspace& ws,
                                           ScanCounts& counts) {
  spec::ReceiverSettings rx = cfg.rx;
  rx.rbw = sc.rbw;
  counts = ScanCounts{};

  if (cfg.scan_plan == spec::ScanPlan::kAdaptive) {
    // Coarse pass + certified refinement: where it refines depends on
    // where the *scaled* trace crosses the mask, so it scans the scaled
    // record. The crossing brackets are already folded into the merged
    // scan, so the report flows through the same check_compliance
    // machinery as the fixed plan.
    sig::Waveform record = ws.memo_record;
    record *= sc.vdd_scale;
    const spec::CertifiedScan cs =
        spec::adaptive_scan(ws.scanner, record, rx, cfg.mask, detector_trace(sc.detector),
                            cfg.adaptive, sc.label());
    counts.refined_points = cs.refined_points;
    counts.detector_passes = cs.detector_passes;
    counts.crossings = cs.crossings.size();
    return cs.report;
  }

  if (ws.scan_rx != rx) {
    ws.scan = ws.scanner.scan(ws.memo_record, rx);
    const auto volts = ws.scanner.readings();
    ws.scan_volts.assign(volts.begin(), volts.end());
    ws.scan_rx = rx;
  }
  using Readings = spec::EmiScanner::Readings;
  double Readings::*reading = &Readings::avg;
  if (sc.detector == Detector::kPeak) reading = &Readings::peak;
  if (sc.detector == Detector::kQuasiPeak) reading = &Readings::qp;
  std::vector<double> level(ws.scan_volts.size());
  for (std::size_t p = 0; p < level.size(); ++p)
    level[p] = spec::EmiScanner::envelope_dbuv(sc.vdd_scale * (ws.scan_volts[p].*reading));
  counts.detector_passes = level.size();

  obs::Span span("mask");
  // A scan truncated at the record's Nyquist rate must not silently
  // pass the mask — carry the dropped-point count into the report.
  return spec::check_compliance(ws.scan.freq, level, cfg.mask, sc.label(),
                                ws.scan.skipped_points);
}

void validate_emission_config(const EmissionSweepConfig& cfg, const char* who) {
  if (!cfg.model) throw std::invalid_argument(std::string(who) + ": null model");
  if (cfg.periods < 2)
    throw std::invalid_argument(std::string(who) +
                                ": need >= 2 periods (the first is discarded)");
  if (cfg.line.l.rows() != 2 || cfg.line.c.rows() != 2)
    throw std::invalid_argument(std::string(who) + ": line must have 2 conductors");
}

}  // namespace

std::string emission_transient_key(const Scenario& sc) {
  char key[96];
  std::snprintf(key, sizeof key, "|%.17g|%.17g", sc.line_length, sc.load_c);
  return sc.bits + key;
}

SweepSummary summarize(const CornerGrid& grid, std::span<const CornerResult> results,
                       const MarginHistogram& histogram_spec) {
  if (results.size() != grid.size())
    throw std::invalid_argument("summarize: results/grid size mismatch");
  return summarize_shard(grid, results, histogram_spec);
}

SweepSummary summarize_shard(const CornerGrid& grid, std::span<const CornerResult> results,
                             const MarginHistogram& histogram_spec) {
  if (histogram_spec.n_bins == 0 || !(histogram_spec.hi_db > histogram_spec.lo_db))
    throw std::invalid_argument("summarize: bad histogram spec");

  SweepSummary s;
  s.corners = results.size();
  s.histogram = histogram_spec;
  s.histogram.counts.assign(histogram_spec.n_bins, 0);
  // "Nothing scored" sentinels; overwritten by the first covered corner.
  s.worst_margin_db = std::numeric_limits<double>::infinity();
  s.worst_corner = SIZE_MAX;

  s.axis_worst.resize(kNumAxes);
  s.axis_solver_failed.resize(kNumAxes);
  for (std::size_t a = 0; a < kNumAxes; ++a) {
    s.axis_worst[a].assign(grid.axis_size(static_cast<AxisId>(a)),
                           std::numeric_limits<double>::infinity());
    s.axis_solver_failed[a].assign(grid.axis_size(static_cast<AxisId>(a)), 0);
  }

  const double bin_width =
      (histogram_spec.hi_db - histogram_spec.lo_db) /
      static_cast<double>(histogram_spec.n_bins);

  // Sequential, grid order: independent of how corners were scheduled.
  for (const CornerResult& r : results) {
    const auto& rep = r.report;
    // Solver casualties first: their report is empty, but they must never
    // drain into `uncovered` (that bucket is a mask-coverage property).
    if (r.solver_failed) {
      ++s.solver_failed;
      for (std::size_t a = 0; a < kNumAxes; ++a)
        ++s.axis_solver_failed[a][r.scenario.coord[a]];
      continue;
    }
    if (r.recovered) ++s.recovered;
    if (rep.skipped_scan_points > 0) ++s.truncated;
    s.scan_detector_passes += r.scan.detector_passes;
    s.scan_refined_points += r.scan.refined_points;
    s.scan_crossings += r.scan.crossings;
    // Memory footprints count for every corner that ran, covered or not.
    s.peak_streamed_record_bytes =
        std::max(s.peak_streamed_record_bytes, r.streamed_record_bytes);
    if (rep.points.empty()) {
      ++s.uncovered;
      continue;
    }
    (rep.pass ? s.passed : s.failed) += 1;

    const double m = rep.worst_margin_db;
    if (m < s.worst_margin_db) {
      s.worst_margin_db = m;
      s.worst_corner = r.scenario.index;
      s.worst_label = r.scenario.label();
    }
    for (std::size_t a = 0; a < kNumAxes; ++a) {
      double& w = s.axis_worst[a][r.scenario.coord[a]];
      w = std::min(w, m);
    }

    const double clamped =
        std::clamp(m, histogram_spec.lo_db,
                   std::nextafter(histogram_spec.hi_db, histogram_spec.lo_db));
    const auto bin = static_cast<std::size_t>((clamped - histogram_spec.lo_db) / bin_width);
    ++s.histogram.counts[std::min(bin, histogram_spec.n_bins - 1)];
  }
  return s;
}

SweepRunner::SweepRunner(std::size_t jobs)
    : pool_(jobs), workspaces_(pool_.workers()) {}

SweepOutcome SweepRunner::run(const CornerGrid& grid, const CornerFn& fn,
                              const MarginHistogram& histogram_spec, std::size_t chunk,
                              const ProgressFn& progress, ShardRange shard) {
  RunOptions opt;
  opt.histogram = histogram_spec;
  opt.chunk = chunk;
  opt.progress = progress;
  opt.shard = shard;
  return run(grid, fn, opt);
}

SweepOutcome SweepRunner::run(const CornerGrid& grid, const CornerFn& fn,
                              const RunOptions& opt) {
  static const obs::Counter c_sweeps("sweep.runs");
  static const obs::Counter c_corners("sweep.corners");
  static const obs::Counter c_resumed("sweep.corners_resumed");
  obs::Span span("sweep");
  c_sweeps.add();

  ShardRange shard = opt.shard;
  shard.end = std::min(shard.end, grid.size());
  if (shard.begin > shard.end)
    throw std::invalid_argument("SweepRunner::run: shard begin past end");
  const std::size_t n = shard.end - shard.begin;

  SweepOutcome out;
  out.results.resize(n);

  // Checkpoint resume: restore finished corners before opening the writer
  // (which appends to the same file). Entries outside the shard belong to
  // other shards sharing a journal directory convention; skip them.
  std::vector<char> restored(n, 0);
  std::unique_ptr<robust::JournalWriter> journal;
  if (!opt.journal_path.empty()) {
    for (const obs::Json& entry : robust::load_journal(opt.journal_path)) {
      CornerResult r = corner_from_journal(entry, grid);
      const std::size_t gidx = r.scenario.index;
      if (gidx < shard.begin || gidx >= shard.end) continue;
      r.from_checkpoint = true;
      restored[gidx - shard.begin] = 1;
      out.results[gidx - shard.begin] = std::move(r);
      c_resumed.add();
    }
    journal = std::make_unique<robust::JournalWriter>(opt.journal_path);
    if (!journal->ok())
      throw std::runtime_error("SweepRunner::run: cannot open journal " +
                               opt.journal_path);
  }

  std::vector<std::size_t> todo;
  todo.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    if (!restored[i]) todo.push_back(shard.begin + i);
  // Restored corners are finished before the pool starts: report them first.
  std::size_t done = n - todo.size();
  if (opt.progress)
    for (std::size_t k = 1; k <= done; ++k) opt.progress(k, n);

  done = evaluate(grid, todo, shard.begin, out.results, fn, opt, journal.get(), done, n);
  if (done < n)
    throw SweepAborted("sweep aborted: " + std::to_string(done) + " of " +
                       std::to_string(n) + " corners finished" +
                       (journal ? " (journaled for resume)" : ""));

  c_corners.add(n);
  out.workers = pool_.worker_stats();
  out.summary = shard.whole_grid(grid.size())
                    ? summarize(grid, out.results, opt.histogram)
                    : summarize_shard(grid, out.results, opt.histogram);
  return out;
}

std::size_t SweepRunner::evaluate(const CornerGrid& grid, std::span<const std::size_t> todo,
                                  std::size_t base, std::span<CornerResult> results,
                                  const CornerFn& fn, const RunOptions& opt,
                                  robust::JournalWriter* journal, std::size_t done,
                                  std::size_t total) {
  static const obs::Counter c_isolated("sweep.corners_isolated");
  pool_.reset_worker_stats();
  std::atomic<std::size_t> finished{done};

  pool_.parallel_for(
      todo.size(),
      [&](std::size_t k, std::size_t worker) {
        if (opt.stop && opt.stop->load(std::memory_order_acquire)) return;
        obs::Span corner_span("corner");
        const auto t0 = std::chrono::steady_clock::now();
        const std::size_t index = todo[k];
        Scenario sc = grid.at(index);
        CornerResult& slot = results[index - base];
        try {
          slot = fn(sc, workspaces_[worker]);
        } catch (const robust::SolveError& e) {
          // Isolate: record the failure with the corner identity attached
          // and keep sweeping. Exceptions that are not SolveError signal
          // bugs, not solver trouble, and propagate.
          const robust::SolveError wrapped = robust::with_corner(e, sc.label(), index);
          slot.solver_failed = true;
          slot.failure = wrapped.what();
          slot.failure_kind = robust::failure_kind_name(wrapped.info().kind);
          slot.solve_attempts = std::max(1, wrapped.info().attempts);
          c_isolated.add();
        }
        slot.scenario = std::move(sc);
        slot.worker = worker;
        slot.wall_s =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
        if (journal) journal->append(corner_journal_json(slot));
        const std::size_t d = finished.fetch_add(1, std::memory_order_relaxed) + 1;
        if (opt.progress) opt.progress(d, total);
      },
      opt.chunk);
  return finished.load(std::memory_order_relaxed);
}

namespace {

obs::Json solve_stats_exact_json(const ckt::SolveStats& st) {
  auto o = obs::Json::object();
  o.set("newton", obs::Json::integer(st.total_newton_iters));
  o.set("steps", obs::Json::integer(st.steps));
  o.set("weak", obs::Json::integer(st.weak_steps));
  o.set("restamps", obs::Json::integer(st.restamps));
  o.set("dc_newton", obs::Json::integer(st.dc_newton_iters));
  o.set("dc_gmin", obs::Json::integer(st.dc_gmin_stages));
  o.set("dc_source", obs::Json::integer(st.dc_source_steps));
  o.set("used_sparse", obs::Json::integer(st.used_sparse));
  return o;
}

/// A journaled count or index: a non-negative integer. A negative one
/// would wrap to a huge size_t, so it is rejected as malformed.
std::size_t journal_count(const obs::Json& v, const char* field) {
  const long x = v.as_integer();
  if (x < 0)
    throw std::invalid_argument(std::string("corner_from_journal: negative ") + field);
  return static_cast<std::size_t>(x);
}

/// A corner's identity in the journal: every axis value (doubles exact)
/// plus the stimulus bits, so an entry can only restore the corner that
/// produced it.
obs::Json scenario_identity_json(const Scenario& sc) {
  auto o = obs::Json::object();
  o.set("vdd_scale", obs::Json::string(robust::exact_double(sc.vdd_scale)));
  o.set("pattern_seed", obs::Json::string(std::to_string(sc.pattern_seed)));
  o.set("line_length", obs::Json::string(robust::exact_double(sc.line_length)));
  o.set("load_c", obs::Json::string(robust::exact_double(sc.load_c)));
  o.set("detector", obs::Json::string(detector_name(sc.detector)));
  o.set("rbw", obs::Json::string(robust::exact_double(sc.rbw)));
  o.set("bits", obs::Json::string(sc.bits));
  return o;
}

ckt::SolveStats solve_stats_from_json(const obs::Json& o) {
  ckt::SolveStats st;
  st.total_newton_iters = o.at("newton").as_integer();
  st.steps = o.at("steps").as_integer();
  st.weak_steps = o.at("weak").as_integer();
  st.restamps = o.at("restamps").as_integer();
  st.dc_newton_iters = o.at("dc_newton").as_integer();
  st.dc_gmin_stages = o.at("dc_gmin").as_integer();
  st.dc_source_steps = o.at("dc_source").as_integer();
  st.used_sparse = static_cast<int>(o.at("used_sparse").as_integer());
  return st;
}

}  // namespace

obs::Json corner_journal_json(const CornerResult& r) {
  auto o = obs::Json::object();
  o.set("index", obs::Json::integer(static_cast<long>(r.scenario.index)));
  o.set("scenario", scenario_identity_json(r.scenario));
  o.set("solver_failed", obs::Json::boolean(r.solver_failed));
  if (!r.failure.empty()) o.set("failure", obs::Json::string(r.failure));
  if (!r.failure_kind.empty())
    o.set("failure_kind", obs::Json::string(r.failure_kind));
  o.set("attempts", obs::Json::integer(r.solve_attempts));
  o.set("recovered", obs::Json::boolean(r.recovered));
  o.set("reused", obs::Json::boolean(r.transient_reused));
  o.set("scan_passes", obs::Json::integer(static_cast<long>(r.scan.detector_passes)));
  o.set("scan_refined", obs::Json::integer(static_cast<long>(r.scan.refined_points)));
  o.set("scan_crossings", obs::Json::integer(static_cast<long>(r.scan.crossings)));
  o.set("streamed_bytes",
        obs::Json::integer(static_cast<long>(r.streamed_record_bytes)));
  o.set("solve", solve_stats_exact_json(r.solve));

  auto rep = obs::Json::object();
  rep.set("mask", obs::Json::string(r.report.mask_name));
  rep.set("what", obs::Json::string(r.report.what));
  rep.set("pass", obs::Json::boolean(r.report.pass));
  // Doubles as %.17g strings: the report must survive the round trip
  // bit-for-bit for resumed runs to be byte-identical, and Json::number
  // renders %.9g.
  rep.set("worst_margin_db",
          obs::Json::string(robust::exact_double(r.report.worst_margin_db)));
  rep.set("worst_index", obs::Json::integer(static_cast<long>(r.report.worst_index)));
  rep.set("skipped", obs::Json::integer(static_cast<long>(r.report.skipped_scan_points)));
  auto pts = obs::Json::array();
  for (const spec::MarginPoint& p : r.report.points) {
    auto row = obs::Json::array();
    row.push(obs::Json::string(robust::exact_double(p.f)));
    row.push(obs::Json::string(robust::exact_double(p.level_dbuv)));
    row.push(obs::Json::string(robust::exact_double(p.limit_dbuv)));
    row.push(obs::Json::string(robust::exact_double(p.margin_db)));
    pts.push(std::move(row));
  }
  rep.set("points", std::move(pts));
  o.set("report", std::move(rep));
  return o;
}

namespace {

CornerResult restore_corner(const obs::Json& entry, const CornerGrid& grid) {
  const std::size_t index = journal_count(entry.at("index"), "index");
  if (index >= grid.size())
    throw std::invalid_argument("corner_from_journal: index past the grid");

  CornerResult r;
  r.scenario = grid.at(index);
  if (scenario_identity_json(r.scenario).dump(0) != entry.at("scenario").dump(0))
    throw std::invalid_argument("corner_from_journal: entry of corner " +
                                std::to_string(index) + " is from another grid");
  r.solver_failed = entry.at("solver_failed").as_bool();
  if (const obs::Json* f = entry.find("failure")) r.failure = f->as_string();
  if (const obs::Json* k = entry.find("failure_kind")) r.failure_kind = k->as_string();
  r.solve_attempts = static_cast<int>(entry.at("attempts").as_integer());
  r.recovered = entry.at("recovered").as_bool();
  r.transient_reused = entry.at("reused").as_bool();
  r.scan.detector_passes = journal_count(entry.at("scan_passes"), "scan_passes");
  r.scan.refined_points = journal_count(entry.at("scan_refined"), "scan_refined");
  r.scan.crossings = journal_count(entry.at("scan_crossings"), "scan_crossings");
  r.streamed_record_bytes = journal_count(entry.at("streamed_bytes"), "streamed_bytes");
  r.solve = solve_stats_from_json(entry.at("solve"));

  const obs::Json& rep = entry.at("report");
  r.report.mask_name = rep.at("mask").as_string();
  r.report.what = rep.at("what").as_string();
  r.report.pass = rep.at("pass").as_bool();
  r.report.worst_margin_db = robust::parse_exact(rep.at("worst_margin_db"));
  r.report.worst_index = journal_count(rep.at("worst_index"), "worst_index");
  r.report.skipped_scan_points = journal_count(rep.at("skipped"), "skipped");
  const obs::Json& pts = rep.at("points");
  r.report.points.reserve(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const obs::Json& row = pts[i];
    if (row.size() != 4)
      throw std::invalid_argument("corner_from_journal: malformed margin point");
    spec::MarginPoint p;
    p.f = robust::parse_exact(row[0]);
    p.level_dbuv = robust::parse_exact(row[1]);
    p.limit_dbuv = robust::parse_exact(row[2]);
    p.margin_db = robust::parse_exact(row[3]);
    r.report.points.push_back(p);
  }
  // summary() and worst_point() index points[worst_index] unguarded.
  if (!r.report.points.empty() && r.report.worst_index >= r.report.points.size())
    throw std::invalid_argument("corner_from_journal: worst_index outside points");
  return r;
}

}  // namespace

CornerResult corner_from_journal(const obs::Json& entry, const CornerGrid& grid) {
  try {
    return restore_corner(entry, grid);
  } catch (const std::invalid_argument&) {
    throw;
  } catch (const std::logic_error& e) {
    // obs::Json's accessors throw logic_error (out_of_range for an array
    // index) on a missing field or a field of the wrong kind.
    throw std::invalid_argument(std::string("corner_from_journal: malformed entry: ") +
                                e.what());
  }
}

obs::Json corner_result_json(const CornerResult& r) {
  auto o = obs::Json::object();
  o.set("corner", obs::Json::integer(static_cast<long>(r.scenario.index)));
  o.set("label", obs::Json::string(r.scenario.label()));
  o.set("solver_failed", obs::Json::boolean(r.solver_failed));
  o.set("attempts", obs::Json::integer(r.solve_attempts));
  o.set("recovered", obs::Json::boolean(r.recovered));
  if (r.solver_failed) {
    o.set("failure_kind", obs::Json::string(r.failure_kind));
    o.set("failure", obs::Json::string(r.failure));
    return o;
  }
  o.set("pass", obs::Json::boolean(r.report.pass));
  o.set("points", obs::Json::integer(static_cast<long>(r.report.points.size())));
  if (!r.report.points.empty())
    o.set("worst_margin_db", obs::Json::number(r.report.worst_margin_db));
  o.set("skipped", obs::Json::integer(static_cast<long>(r.report.skipped_scan_points)));
  o.set("scan_passes", obs::Json::integer(static_cast<long>(r.scan.detector_passes)));
  o.set("scan_refined", obs::Json::integer(static_cast<long>(r.scan.refined_points)));
  o.set("streamed_bytes",
        obs::Json::integer(static_cast<long>(r.streamed_record_bytes)));
  return o;
}

CornerFn make_emission_corner_fn(const EmissionSweepConfig& cfg) {
  validate_emission_config(cfg, "make_emission_corner_fn");
  // Process-unique, so a worker memo filled under another config misses.
  static std::atomic<std::uint64_t> next_fn_id{1};
  const std::uint64_t fn_id = next_fn_id.fetch_add(1, std::memory_order_relaxed);

  return [cfg, fn_id](const Scenario& sc, Workspace& ws) {
    // The transient depends only on (pattern, line length, load); the
    // supply/detector/RBW axes post-process its record. Memoize the
    // steady-state record and its accounting per worker so a chunk of
    // post-processing corners pays for one transient (a hit is
    // bit-identical to recomputing — both are pure functions of the key).
    std::string memo_key = emission_transient_key(sc);
    static const obs::Counter c_hits("sweep.memo_hits");
    static const obs::Counter c_misses("sweep.memo_misses");

    const bool hit = ws.memo_fn == fn_id && ws.memo_key == memo_key;
    (hit ? c_hits : c_misses).add();
    if (!hit) {
      const ckt::TransientOptions base = emission_base_options(cfg, sc);
      // Drop the first pattern period as startup transient and keep whole
      // periods, so harmonics stay coherently sampled. The ladder never
      // changes dt, so the window is the same frame count on every attempt.
      const double period = cfg.bit_time * static_cast<double>(sc.bits.size());
      const auto per_period = static_cast<std::size_t>(std::lround(period / base.dt));
      CornerResult memo;
      sig::Waveform record;
      // The transient runs under the retry/escalation ladder: a failing
      // solve is retried with cumulatively stronger numerics, and the
      // ladder schedule is a pure function of the corner, so retried
      // sweeps stay deterministic for any worker count. The body rebuilds
      // everything per attempt and writes only locals; the memo is
      // committed once the ladder succeeds.
      const robust::RetryOutcome ro = robust::run_with_escalation(
          cfg.retry, base, [&](const ckt::TransientOptions& opt) {
            // Per-corner circuit: everything mutable lives here; the
            // macromodel is shared const across workers.
            ckt::Circuit c;
            const int probes[] = {build_emission_circuit(cfg, sc, c)};

            // Streamed transient: probe only the measured land and record
            // only the steady-state window. The engine never materializes
            // the full all-unknowns record.
            sig::RecordingSink rec(per_period,
                                   per_period * static_cast<std::size_t>(cfg.periods - 1));
            memo.solve =
                ckt::run_transient_streamed(c, opt, ws.newton, probes, rec, kChunkFrames);
            // Single-channel recording: the flat buffer IS the steady
            // record — move it out instead of copying through waveform().
            record = sig::Waveform(opt.t_start + opt.dt * static_cast<double>(per_period),
                                   opt.dt, std::move(rec).take_data());
            memo.streamed_record_bytes = (kChunkFrames + record.size()) * sizeof(double);
          });
      memo.solve_attempts = ro.attempts;
      memo.recovered = ro.recovered;
      ws.memo = std::move(memo);
      ws.memo_record = std::move(record);
      ws.memo_fn = fn_id;
      ws.memo_key = std::move(memo_key);
      ws.scan_rx.reset();
    }

    CornerResult r = ws.memo;
    r.transient_reused = hit;
    r.report = post_process_corner(cfg, sc, ws, r.scan);
    return r;
  };
}

namespace {

/// The axes refinement can subdivide: positive numeric quantities whose
/// values live in a CornerAxes vector of doubles. Pattern seed and
/// detector are categorical — there is nothing "between" two seeds.
const std::vector<double>* numeric_axis_values(const CornerAxes& axes, AxisId a) {
  switch (a) {
    case AxisId::kLineLength: return &axes.line_length;
    case AxisId::kLoadC: return &axes.load_c;
    case AxisId::kRbw: return &axes.rbw;
    case AxisId::kVddScale: return &axes.vdd_scale;
    default: return nullptr;
  }
}

std::vector<double>* numeric_axis_values(CornerAxes& axes, AxisId a) {
  return const_cast<std::vector<double>*>(
      numeric_axis_values(static_cast<const CornerAxes&>(axes), a));
}

/// new-coordinate -> old-coordinate map of one refined axis; SIZE_MAX
/// marks inserted values. Original values survive apply_refinement
/// verbatim, so exact double equality identifies them.
std::vector<std::size_t> old_coord_map(const std::vector<double>& old_vals,
                                       const std::vector<double>& new_vals) {
  std::vector<std::size_t> map(new_vals.size(), SIZE_MAX);
  std::size_t o = 0;
  for (std::size_t k = 0; k < new_vals.size(); ++k)
    if (o < old_vals.size() && new_vals[k] == old_vals[o]) {
      map[k] = o;
      ++o;
    }
  if (o != old_vals.size())
    throw std::invalid_argument("refine: refined axis does not extend the prior axis");
  return map;
}

/// Grid index from per-axis coordinates (inverse of CornerGrid::at's
/// mixed-radix decode: axis 0 is the slowest-varying digit).
std::size_t encode_index(const CornerGrid& grid, const std::size_t coord[kNumAxes]) {
  std::size_t idx = 0;
  for (std::size_t a = 0; a < kNumAxes; ++a)
    idx = idx * grid.axis_size(static_cast<AxisId>(a)) + coord[a];
  return idx;
}

/// Carry-over stage of refinement: compute the plan, build the refined grid, copy every prior corner's result into
/// its slot on the refined grid (result bits untouched; only the decoded
/// Scenario is re-derived) and return the indices still needing
/// evaluation, ascending.
std::vector<std::size_t> carry_over_refinement(const CornerGrid& grid,
                                               const SweepOutcome& prior,
                                               RefineOutcome& out) {
  if (prior.results.size() != grid.size())
    throw std::invalid_argument("refine: prior outcome must cover the whole grid");

  out.plan = plan_axis_refinement(grid, prior.summary);
  out.grid = CornerGrid(apply_refinement(grid.axes(), out.plan));
  out.outcome = SweepOutcome{};
  out.outcome.results.resize(out.grid.size());
  out.reused = 0;
  out.evaluated = 0;

  std::vector<std::vector<std::size_t>> maps(kNumAxes);
  for (std::size_t a = 0; a < kNumAxes; ++a) {
    const auto axis = static_cast<AxisId>(a);
    if (const std::vector<double>* nv = numeric_axis_values(out.grid.axes(), axis)) {
      maps[a] = old_coord_map(*numeric_axis_values(grid.axes(), axis), *nv);
    } else {
      maps[a].resize(out.grid.axis_size(axis));  // categorical: identity
      for (std::size_t k = 0; k < maps[a].size(); ++k) maps[a][k] = k;
    }
  }

  std::vector<std::size_t> fresh;
  for (std::size_t i = 0; i < out.grid.size(); ++i) {
    const Scenario sc = out.grid.at(i);
    std::size_t old_coord[kNumAxes];
    bool carried = true;
    for (std::size_t a = 0; a < kNumAxes && carried; ++a) {
      old_coord[a] = maps[a][sc.coord[a]];
      carried = old_coord[a] != SIZE_MAX;
    }
    if (carried) {
      CornerResult& slot = out.outcome.results[i];
      slot = prior.results[encode_index(grid, old_coord)];
      slot.scenario = sc;
      ++out.reused;
    } else {
      fresh.push_back(i);
    }
  }
  out.evaluated = fresh.size();
  return fresh;
}

}  // namespace

std::vector<AxisInsertion> plan_axis_refinement(const CornerGrid& grid,
                                                const SweepSummary& summary) {
  if (summary.axis_worst.size() != kNumAxes)
    throw std::invalid_argument("plan_axis_refinement: summary has no axis table");

  std::vector<AxisInsertion> plan;
  for (std::size_t a = 0; a < kNumAxes; ++a) {
    const auto axis = static_cast<AxisId>(a);
    const std::vector<double>* vals = numeric_axis_values(grid.axes(), axis);
    if (!vals || vals->size() < 2) continue;
    const std::vector<double>& worst = summary.axis_worst[a];
    if (worst.size() != vals->size())
      throw std::invalid_argument("plan_axis_refinement: summary/grid shape mismatch");
    for (std::size_t k = 0; k + 1 < vals->size(); ++k) {
      const double m0 = worst[k], m1 = worst[k + 1];
      // Values no covered corner hit (+inf sentinel) never form a
      // boundary: there is no verdict to flip.
      if (!std::isfinite(m0) || !std::isfinite(m1)) continue;
      if ((m0 >= 0.0) == (m1 >= 0.0)) continue;
      const double v0 = (*vals)[k], v1 = (*vals)[k + 1];
      const double mid =
          v0 > 0.0 && v1 > 0.0 ? std::sqrt(v0 * v1) : 0.5 * (v0 + v1);
      if (mid == v0 || mid == v1) continue;  // axis already at double resolution
      plan.push_back(AxisInsertion{axis, k, mid});
    }
  }
  return plan;
}

CornerAxes apply_refinement(const CornerAxes& axes,
                            std::span<const AxisInsertion> plan) {
  CornerAxes out = axes;
  for (std::size_t a = 0; a < kNumAxes; ++a) {
    const auto axis = static_cast<AxisId>(a);
    std::vector<const AxisInsertion*> ins;
    for (const AxisInsertion& x : plan)
      if (x.axis == axis) ins.push_back(&x);
    if (ins.empty()) continue;
    std::vector<double>* vals = numeric_axis_values(out, axis);
    if (!vals)
      throw std::invalid_argument("apply_refinement: categorical axis in plan");
    // Insert from the highest index down: plan indices refer to the
    // original axis, so earlier insertions must not shift later ones.
    std::sort(ins.begin(), ins.end(),
              [](const AxisInsertion* p, const AxisInsertion* q) {
                return p->after > q->after;
              });
    for (const AxisInsertion* x : ins) {
      if (x->after + 1 > vals->size())
        throw std::invalid_argument("apply_refinement: insertion outside axis");
      vals->insert(vals->begin() + static_cast<std::ptrdiff_t>(x->after) + 1,
                   x->value);
    }
  }
  return out;
}

RefineOutcome SweepRunner::refine(const CornerGrid& grid, const SweepOutcome& prior,
                                  const CornerFn& fn, const RunOptions& opt) {
  static const obs::Counter c_refines("sweep.refine.runs");
  static const obs::Counter c_reused("sweep.refine.corners_reused");
  static const obs::Counter c_evaluated("sweep.refine.corners_evaluated");
  obs::Span span("sweep_refine");

  RefineOutcome out;
  const std::vector<std::size_t> fresh = carry_over_refinement(grid, prior, out);
  c_refines.add();
  c_reused.add(out.reused);
  c_evaluated.add(out.evaluated);

  // Journaling and abort stay run()-only: a refinement stage is cheap to
  // redo from its prior outcome.
  RunOptions eval_opt = opt;
  eval_opt.stop = nullptr;
  evaluate(out.grid, fresh, 0, out.outcome.results, fn, eval_opt, nullptr, 0, fresh.size());

  out.outcome.workers = pool_.worker_stats();
  out.outcome.summary = summarize(out.grid, out.outcome.results, opt.histogram);
  return out;
}

std::size_t emission_chunk_hint(const CornerGrid& grid) {
  return grid.axis_size(AxisId::kRbw) * grid.axis_size(AxisId::kVddScale) *
         grid.axis_size(AxisId::kDetector);
}

// Margins can be +inf ("no covered corner hit this value"), which the JSON
// emitter would render as null — encode that case as a string instead.
obs::Json margin_json(double margin_db) {
  return std::isfinite(margin_db) ? obs::Json::number(margin_db)
                                  : obs::Json::string("uncovered");
}

obs::Json summary_json(const CornerGrid& grid, const SweepSummary& s) {
  auto o = obs::Json::object();
  o.set("corners", obs::Json::integer(static_cast<long>(s.corners)));
  o.set("passed", obs::Json::integer(static_cast<long>(s.passed)));
  o.set("failed", obs::Json::integer(static_cast<long>(s.failed)));
  o.set("uncovered", obs::Json::integer(static_cast<long>(s.uncovered)));
  o.set("truncated", obs::Json::integer(static_cast<long>(s.truncated)));
  o.set("solver_failed", obs::Json::integer(static_cast<long>(s.solver_failed)));
  o.set("recovered", obs::Json::integer(static_cast<long>(s.recovered)));
  o.set("scan_detector_passes",
        obs::Json::integer(static_cast<long>(s.scan_detector_passes)));
  o.set("scan_refined_points",
        obs::Json::integer(static_cast<long>(s.scan_refined_points)));
  o.set("scan_crossings", obs::Json::integer(static_cast<long>(s.scan_crossings)));
  o.set("worst_margin_db", margin_json(s.worst_margin_db));
  if (s.passed + s.failed > 0) {
    o.set("worst_corner", obs::Json::integer(static_cast<long>(s.worst_corner)));
    o.set("worst_label", obs::Json::string(s.worst_label));
  }

  auto axes = obs::Json::array();
  for (std::size_t a = 0; a < kNumAxes; ++a) {
    const auto axis = static_cast<AxisId>(a);
    if (grid.axis_size(axis) < 2) continue;  // singleton axes say nothing
    auto row = obs::Json::object();
    row.set("axis", obs::Json::string(axis_name(axis)));
    auto vals = obs::Json::array();
    for (std::size_t k = 0; k < grid.axis_size(axis); ++k) {
      auto v = obs::Json::object();
      v.set("value", obs::Json::string(grid.axis_value_label(axis, k)));
      v.set("worst_margin_db", margin_json(s.axis_worst[a][k]));
      const std::size_t failed_here =
          a < s.axis_solver_failed.size() && k < s.axis_solver_failed[a].size()
              ? s.axis_solver_failed[a][k]
              : 0;
      v.set("solver_failed", obs::Json::integer(static_cast<long>(failed_here)));
      vals.push(std::move(v));
    }
    row.set("worst_by_value", std::move(vals));
    axes.push(std::move(row));
  }
  o.set("per_axis_worst", std::move(axes));

  o.set("peak_streamed_record_bytes",
        obs::Json::integer(static_cast<long>(s.peak_streamed_record_bytes)));

  auto hist = obs::Json::object();
  hist.set("lo_db", obs::Json::number(s.histogram.lo_db));
  hist.set("hi_db", obs::Json::number(s.histogram.hi_db));
  auto counts = obs::Json::array();
  for (std::size_t c : s.histogram.counts)
    counts.push(obs::Json::integer(static_cast<long>(c)));
  hist.set("counts", std::move(counts));
  o.set("margin_histogram_db", std::move(hist));
  return o;
}

obs::Json worker_stats_json(std::span<const WorkerStats> workers) {
  auto rows = obs::Json::array();
  for (std::size_t w = 0; w < workers.size(); ++w) {
    const WorkerStats& ws = workers[w];
    auto row = obs::Json::object();
    row.set("worker", obs::Json::integer(static_cast<long>(w)));
    row.set("busy_s", obs::Json::number(static_cast<double>(ws.busy_ns) * 1e-9));
    row.set("idle_s", obs::Json::number(static_cast<double>(ws.idle_ns) * 1e-9));
    row.set("items", obs::Json::integer(static_cast<long>(ws.items)));
    row.set("epochs", obs::Json::integer(static_cast<long>(ws.epochs)));
    row.set("suppressed", obs::Json::integer(static_cast<long>(ws.suppressed)));
    const std::uint64_t total = ws.busy_ns + ws.idle_ns;
    row.set("busy_fraction",
            obs::Json::number(total > 0 ? static_cast<double>(ws.busy_ns) /
                                              static_cast<double>(total)
                                        : 0.0));
    rows.push(std::move(row));
  }
  return rows;
}

}  // namespace emc::sweep
