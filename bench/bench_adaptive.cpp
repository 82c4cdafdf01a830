// Bench + gate of the adaptive mask-driven receiver scan and the
// scenario-axis refinement stage.
//
// Phase A (certified scan): scan a busy multi-harmonic record with the
// adaptive planner and against a dense (16x coarse) fixed reference.
// Gates: the adaptive worst margin is within 0.02 dB of the dense
// reference, every mask crossing is certified by a measured (pass, fail)
// bracket within the frequency tolerance, and the adaptive scan spends at
// most 40% of the dense reference's detector passes (>= 2.5x scan-phase
// work reduction by construction).
//
// Phase B (adaptive sweep + refinement): run the full emission corner
// sweep under ScanPlan::kAdaptive with a mask calibrated to put a
// pass/fail boundary inside the line-length axis. Gates: the sweep and
// its refinement stage are bit-identical across worker counts, the
// refinement outcome equals a from-scratch sweep of the refined grid
// (same pass/fail boundary corners).
//
//   bench_adaptive [--jobs N] [--smoke]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <numbers>
#include <thread>
#include <vector>

#include "baseline.hpp"
#include "emc/adaptive.hpp"
#include "emc/limits.hpp"
#include "emc/receiver.hpp"
#include "experiments.hpp"
#include "json_out.hpp"
#include "signal/sources.hpp"
#include "signal/waveform.hpp"
#include "sweep/sweep_runner.hpp"

namespace {

using namespace emc;
using bench::seconds_since;

/// Nine harmonics of 1 MHz with slow AM plus LCG noise; scanned with an
/// RBW above the harmonic spacing the detector trace is a smooth envelope
/// (dense-grid quantization error well under the 0.02 dB gate).
sig::Waveform busy_record(std::size_t n, double fs) {
  sig::Lcg rng(77);
  std::vector<double> y(n);
  const double dt = 1.0 / fs;
  for (std::size_t k = 0; k < n; ++k) {
    const double t = static_cast<double>(k) * dt;
    double v = 0.0;
    for (int h = 1; h <= 9; ++h)
      v += (1.0 / h) * std::sin(2.0 * std::numbers::pi * 1e6 * h * t + 0.3 * h);
    v *= 1.0 + 0.4 * std::sin(2.0 * std::numbers::pi * 40e3 * t);
    v += 0.01 * (rng.uniform() * 2.0 - 1.0);
    y[k] = v;
  }
  return {0.0, dt, std::move(y)};
}

double margin_at(const spec::CertifiedScan& cs, const spec::LimitMask& mask,
                 spec::TraceSel trace, double f) {
  const auto& freq = cs.scan.freq;
  const auto it = std::find(freq.begin(), freq.end(), f);
  if (it == freq.end()) return std::numeric_limits<double>::quiet_NaN();
  const std::size_t k = static_cast<std::size_t>(it - freq.begin());
  return mask.at(f) - spec::scan_trace(cs.scan, trace)[k];
}

}  // namespace

int main(int argc, char** argv) {
  const auto bargs = bench::extract_baseline_args(argc, argv);
  bool smoke = false;
  std::size_t jobs = 8;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      jobs = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else {
      std::fprintf(stderr, "usage: bench_adaptive [--jobs N] [--smoke]\n");
      return 2;
    }
  }
  if (jobs == 0) jobs = sweep::ThreadPool::default_workers();

  std::printf("=== bench_adaptive: certified adaptive scan + sweep refinement ===%s\n",
              smoke ? "  [smoke mode]" : "");
  auto doc = bench::make_bench_doc("bench_adaptive");
  doc.set("smoke", bench::Json::boolean(smoke));
  doc.set("jobs", bench::Json::integer(static_cast<long>(jobs)));
  doc.set("hardware_concurrency",
          bench::Json::integer(static_cast<long>(std::thread::hardware_concurrency())));

  // ------------------------------------------------ phase A: certified scan
  const auto w = busy_record(smoke ? 4096 : 8192, 64e6);
  spec::ReceiverSettings rx;
  rx.name = "adaptive-vs-dense";
  rx.f_start = 200e3;
  rx.f_stop = 10e6;
  rx.rbw = 1.5e6;
  rx.tau_charge = 2e-6;
  rx.tau_discharge = 60e-6;
  const auto trace_sel = spec::TraceSel::kQuasiPeak;

  spec::AdaptiveScanConfig acfg;
  acfg.coarse_points = 25;
  acfg.freq_tol_rel = 5e-4;
  acfg.margin_tol_db = 0.005;
  acfg.refine_margin_window_db = std::numeric_limits<double>::infinity();

  // Dense fixed reference: 16x the adaptive coarse grid.
  auto dense_rx = rx;
  dense_rx.n_points = 16 * acfg.coarse_points;
  const auto t_dense = std::chrono::steady_clock::now();
  const auto dense = spec::emi_scan(w, dense_rx);
  const double wall_dense = seconds_since(t_dense);
  doc.at("scenarios").push(bench::scenario_row("dense_reference_scan", wall_dense));

  const auto& dense_trace = spec::scan_trace(dense, trace_sel);
  const auto [lo_it, hi_it] =
      std::minmax_element(dense_trace.begin(), dense_trace.end());
  const spec::LimitMask mask{
      "mid-range flat",
      {{rx.f_start, 0.5 * (*lo_it + *hi_it)}, {rx.f_stop, 0.5 * (*lo_it + *hi_it)}}};
  const auto dense_rep = spec::check_compliance(dense.freq, dense_trace, mask, "dense");

  spec::EmiScanner scanner;
  const auto t_adapt = std::chrono::steady_clock::now();
  const auto cs = spec::adaptive_scan(scanner, w, rx, mask, trace_sel, acfg, "adaptive");
  const double wall_adapt = seconds_since(t_adapt);
  doc.at("scenarios").push(bench::scenario_row("adaptive_scan", wall_adapt));

  // Gate: worst margin within 0.02 dB of the dense ground truth.
  const double margin_err = std::abs(cs.report.worst_margin_db - dense_rep.worst_margin_db);
  const bool margin_agrees = margin_err <= 0.02;

  // Gate: every crossing certified — measured pass/fail bracket, tight,
  // and matching a dense-grid sign change.
  std::size_t dense_flips = 0;
  std::vector<std::pair<double, double>> flip_ivals;
  for (std::size_t k = 0; k + 1 < dense.size(); ++k) {
    const double m0 = mask.at(dense.freq[k]) - dense_trace[k];
    const double m1 = mask.at(dense.freq[k + 1]) - dense_trace[k + 1];
    if ((m0 >= 0.0) != (m1 >= 0.0)) {
      ++dense_flips;
      flip_ivals.emplace_back(dense.freq[k], dense.freq[k + 1]);
    }
  }
  bool crossings_certified = cs.crossings.size() == dense_flips && dense_flips > 0;
  for (const auto& x : cs.crossings) {
    const double mp = margin_at(cs, mask, trace_sel, x.f_pass);
    const double mf = margin_at(cs, mask, trace_sel, x.f_fail);
    if (!(mp >= 0.0) || !(mf < 0.0)) crossings_certified = false;
    if (std::abs(x.f_fail - x.f_pass) > acfg.freq_tol_rel * x.f_cross * 1.01)
      crossings_certified = false;
    const bool near = std::any_of(
        flip_ivals.begin(), flip_ivals.end(), [&](const std::pair<double, double>& iv) {
          const double slack = acfg.freq_tol_rel * x.f_cross;
          return x.f_cross >= iv.first - slack && x.f_cross <= iv.second + slack;
        });
    if (!near) crossings_certified = false;
  }

  // Gate: <= 40% of the dense reference's detector passes (>= 2.5x fewer).
  const double pass_ratio =
      static_cast<double>(cs.detector_passes) / static_cast<double>(dense.size());
  const bool scan_ratio_ok = pass_ratio <= 0.40;
  const double scan_speedup = wall_adapt > 0.0 ? wall_dense / wall_adapt : 0.0;

  std::printf("dense: %zu passes %.3f s   adaptive: %zu passes (%zu coarse + %zu refined) %.3f s\n",
              dense.size(), wall_dense, cs.detector_passes, cs.coarse_points,
              cs.refined_points, wall_adapt);
  std::printf("worst margin: dense %+.4f dB, adaptive %+.4f dB (|err| %.4f dB)  %s\n",
              dense_rep.worst_margin_db, cs.report.worst_margin_db, margin_err,
              margin_agrees ? "ok" : "FAIL");
  std::printf("crossings: %zu certified vs %zu dense sign changes  %s\n",
              cs.crossings.size(), dense_flips, crossings_certified ? "ok" : "FAIL");
  std::printf("detector passes: %.1f%% of dense (gate <= 40%%)  wall speedup %.1fx  %s\n",
              100.0 * pass_ratio, scan_speedup, scan_ratio_ok ? "ok" : "FAIL");

  auto scan_doc = bench::Json::object();
  scan_doc.set("dense_passes", bench::Json::integer(static_cast<long>(dense.size())));
  scan_doc.set("adaptive_passes",
               bench::Json::integer(static_cast<long>(cs.detector_passes)));
  scan_doc.set("coarse_points", bench::Json::integer(static_cast<long>(cs.coarse_points)));
  scan_doc.set("refined_points",
               bench::Json::integer(static_cast<long>(cs.refined_points)));
  scan_doc.set("crossings", bench::Json::integer(static_cast<long>(cs.crossings.size())));
  scan_doc.set("worst_margin_db", bench::Json::number(cs.report.worst_margin_db));
  scan_doc.set("dense_worst_margin_db", bench::Json::number(dense_rep.worst_margin_db));
  scan_doc.set("margin_err_db", bench::Json::number(margin_err));
  scan_doc.set("pass_ratio", bench::Json::number(pass_ratio));
  scan_doc.set("wall_speedup", bench::Json::number(scan_speedup));
  doc.set("scan", scan_doc);

  // --------------------------------- phase B: adaptive sweep + refinement
  std::printf("estimating MD3 PW-RBF macromodel...\n");
  const auto t_est = std::chrono::steady_clock::now();
  const auto model = exp::make_driver_model(dev::DriverTech::md3_ibm25(), "MD3");
  doc.at("scenarios").push(bench::scenario_row("estimate_model", seconds_since(t_est)));

  sweep::CornerAxes axes;
  if (smoke) {
    axes.vdd_scale = {0.95, 1.05};
    axes.pattern_seed = {1};
  } else {
    axes.vdd_scale = {0.90, 0.95, 1.00, 1.05};
    axes.pattern_seed = {1, 2};
  }
  axes.line_length = {0.05, 0.1};
  axes.load_c = {1e-12, 2e-12};
  axes.pattern_bits = 15;
  const sweep::CornerGrid grid(axes);

  sweep::EmissionSweepConfig cfg;
  cfg.model = &model;
  cfg.line = exp::mcm_fig3_params();
  cfg.bit_time = 1e-9;
  cfg.periods = 3;
  cfg.rx.name = "wideband scan";
  cfg.rx.f_start = 50e6;
  cfg.rx.f_stop = 5e9;
  cfg.rx.n_points = 40;
  cfg.rx.tau_charge = 1e-9;
  cfg.rx.tau_discharge = 30e-9;
  cfg.mask = {"calibration", {{50e6, 140.0}, {5e9, 140.0}}};

  // Calibrate a flat mask that splits the two line lengths across the
  // pass/fail boundary. The calibration must run under the SAME scan plan
  // as the gated sweeps — the adaptive planner's coarse pass resolves the
  // spiky emission spectrum differently than the fixed 40-point grid — so:
  // one fixed-plan sweep for the detector-pass comparison, one adaptive
  // sweep against a flat 140 dBuV limit for the margins, then the final
  // limit at the midpoint of the two lengths' worst margins. Deterministic
  // — a pure function of the pipeline.
  const std::size_t chunk = sweep::emission_chunk_hint(grid);
  sweep::SweepRunner serial(1);
  const auto t_fix = std::chrono::steady_clock::now();
  const auto fixed = serial.run(grid, sweep::make_emission_corner_fn(cfg), {}, chunk);
  doc.at("scenarios").push(bench::scenario_row("fixed_plan_sweep",
                                               seconds_since(t_fix)));
  cfg.scan_plan = spec::ScanPlan::kAdaptive;
  cfg.adaptive.coarse_points = 16;
  cfg.adaptive.freq_tol_rel = 1e-3;
  const auto t_cal = std::chrono::steady_clock::now();
  const auto cal = serial.run(grid, sweep::make_emission_corner_fn(cfg), {}, chunk);
  doc.at("scenarios").push(bench::scenario_row("calibration_adaptive_sweep",
                                               seconds_since(t_cal)));
  const auto& len_worst =
      cal.summary.axis_worst[static_cast<std::size_t>(sweep::AxisId::kLineLength)];
  const double limit = 140.0 - 0.5 * (len_worst[0] + len_worst[1]);
  cfg.mask = {"calibrated flat", {{50e6, limit}, {5e9, limit}}};
  const auto corner_fn = sweep::make_emission_corner_fn(cfg);
  std::printf("calibrated flat limit: %.1f dBuV (length-axis worst %+.1f / %+.1f dB)\n",
              limit, len_worst[0], len_worst[1]);

  // Adaptive sweep, 1 thread vs --jobs threads: bit-identical summaries.
  const auto t1 = std::chrono::steady_clock::now();
  const auto out1 = serial.run(grid, corner_fn, {}, chunk);
  const double wall_1 = seconds_since(t1);
  doc.at("scenarios").push(bench::scenario_row("adaptive_sweep_1_thread", wall_1));

  sweep::SweepRunner parallel(jobs);
  const auto tn = std::chrono::steady_clock::now();
  const auto outn = parallel.run(grid, corner_fn, {}, chunk);
  doc.at("scenarios").push(bench::scenario_row(
      "adaptive_sweep_" + std::to_string(jobs) + "_threads", seconds_since(tn)));
  const bool sweep_identical = out1.summary == outn.summary;

  // Refinement stage, 1 thread vs --jobs threads.
  const auto t_r1 = std::chrono::steady_clock::now();
  const auto ref1 = serial.refine(grid, out1, corner_fn);
  doc.at("scenarios").push(bench::scenario_row("refine_1_thread", seconds_since(t_r1)));
  const auto t_rn = std::chrono::steady_clock::now();
  const auto refn = parallel.refine(grid, outn, corner_fn);
  doc.at("scenarios").push(bench::scenario_row(
      "refine_" + std::to_string(jobs) + "_threads", seconds_since(t_rn)));
  const bool refine_identical =
      ref1.plan == refn.plan && ref1.outcome.summary == refn.outcome.summary;

  // From-scratch sweep of the refined grid: the refinement stage must land
  // on the same pass/fail boundary corners (equal summaries — carried
  // corners are pure functions of the scenario).
  const sweep::CornerGrid refined(sweep::apply_refinement(grid.axes(), ref1.plan));
  const auto t_scr = std::chrono::steady_clock::now();
  const auto scratch =
      parallel.run(refined, corner_fn, {}, sweep::emission_chunk_hint(refined));
  doc.at("scenarios").push(bench::scenario_row("refined_grid_from_scratch",
                                               seconds_since(t_scr)));
  const bool refine_matches_scratch = ref1.outcome.summary == scratch.summary;

  std::printf("adaptive sweep: %zu corners, %zu detector passes (%zu refined), %zu crossings\n",
              outn.summary.corners, outn.summary.scan_detector_passes,
              outn.summary.scan_refined_points, outn.summary.scan_crossings);
  std::printf("fixed-plan sweep spent %zu passes -> adaptive spends %.1f%%\n",
              fixed.summary.scan_detector_passes,
              fixed.summary.scan_detector_passes > 0
                  ? 100.0 * static_cast<double>(outn.summary.scan_detector_passes) /
                        static_cast<double>(fixed.summary.scan_detector_passes)
                  : 0.0);
  std::printf("refinement: plan %zu insertions, %zu reused + %zu evaluated corners\n",
              ref1.plan.size(), ref1.reused, ref1.evaluated);
  std::printf("sweep bit-identical: %s   refine bit-identical: %s\n",
              sweep_identical ? "yes" : "NO", refine_identical ? "yes" : "NO");
  std::printf("refine == from-scratch refined grid: %s\n",
              refine_matches_scratch ? "yes" : "NO");

  // The calibrated mask guarantees a pass/fail flip on the length axis, so
  // an empty plan means the planner lost the boundary.
  const bool found_boundary = !ref1.plan.empty();

  doc.set("sweep_bit_identical", bench::Json::boolean(sweep_identical));
  doc.set("refinement_found_boundary", bench::Json::boolean(found_boundary));
  doc.set("refine_bit_identical", bench::Json::boolean(refine_identical));
  doc.set("refine_matches_scratch", bench::Json::boolean(refine_matches_scratch));
  doc.set("margin_agrees", bench::Json::boolean(margin_agrees));
  doc.set("crossings_certified", bench::Json::boolean(crossings_certified));
  doc.set("scan_ratio_ok", bench::Json::boolean(scan_ratio_ok));
  auto refine_doc = bench::Json::object();
  refine_doc.set("plan_insertions", bench::Json::integer(static_cast<long>(ref1.plan.size())));
  refine_doc.set("reused", bench::Json::integer(static_cast<long>(ref1.reused)));
  refine_doc.set("evaluated", bench::Json::integer(static_cast<long>(ref1.evaluated)));
  doc.set("refine", refine_doc);
  doc.set("summary", sweep::summary_json(refined, ref1.outcome.summary));

  if (doc.write_file("BENCH_adaptive.json")) std::printf("wrote BENCH_adaptive.json\n");
  const bool base_ok = bench::check_baseline_gate(doc, bargs);

  const bool ok = margin_agrees && crossings_certified && scan_ratio_ok &&
                  sweep_identical && refine_identical && refine_matches_scratch &&
                  found_boundary && base_ok;
  return ok ? 0 : 1;
}
