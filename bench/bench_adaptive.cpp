// Bench + gate of the adaptive mask-driven receiver scan: scan a busy
// multi-harmonic record with the adaptive planner and against a dense
// (16x coarse) fixed reference. Gates: the adaptive worst margin is within
// 0.02 dB of the dense reference, every mask crossing is certified by a
// measured (pass, fail) bracket within the frequency tolerance, and the
// adaptive scan spends at most 40% of the dense reference's detector
// passes (>= 2.5x scan-phase work reduction by construction).
//
//   bench_adaptive [--smoke]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <numbers>
#include <thread>
#include <vector>

#include "baseline.hpp"
#include "emc/adaptive.hpp"
#include "emc/limits.hpp"
#include "emc/receiver.hpp"
#include "json_out.hpp"
#include "signal/sources.hpp"
#include "signal/waveform.hpp"

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
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: bench_adaptive [--smoke]\n");
      return 2;
    }
  }

  std::printf("=== bench_adaptive: certified adaptive scan ===%s\n",
              smoke ? "  [smoke mode]" : "");
  auto doc = bench::make_bench_doc("bench_adaptive");
  doc.set("smoke", bench::Json::boolean(smoke));
  doc.set("hardware_concurrency",
          bench::Json::integer(static_cast<long>(std::thread::hardware_concurrency())));

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

  doc.set("margin_agrees", bench::Json::boolean(margin_agrees));
  doc.set("crossings_certified", bench::Json::boolean(crossings_certified));
  doc.set("scan_ratio_ok", bench::Json::boolean(scan_ratio_ok));

  if (doc.write_file("BENCH_adaptive.json")) std::printf("wrote BENCH_adaptive.json\n");
  const bool base_ok = bench::check_baseline_gate(doc, bargs);

  const bool ok = margin_agrees && crossings_certified && scan_ratio_ok && base_ok;
  return ok ? 0 : 1;
}
