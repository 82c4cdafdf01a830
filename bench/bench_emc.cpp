// Spectral EMC assessment of the bus-crosstalk scenario: does the PW-RBF
// macromodel predict the same emission spectrum as the transistor-level
// reference where an EMC engineer would look — in dBuV vs. frequency,
// against a limit mask?
//
// The aggressor repeats its 15-bit pattern, the steady-state far-end
// record (an exact number of pattern periods, so harmonics are coherently
// sampled and the rectangular window is exact) is transformed, and the two
// spectra are compared per harmonic. Both are then scored against a
// CISPR-style piecewise-log board-level mask and a swept EMI-receiver
// measurement is timed. Results land in BENCH_emc.json with the shared
// bench schema (see json_out.hpp).
//
// Exit gate: strong-harmonic error (< 2 GHz, within 40 dB of the carrier)
// below kStrongErrGateDb — measured 2.22 dB in --smoke (3 periods) and
// 1.96 dB in the full run (7 periods) — and the zoom demodulation within
// 0.01 dB of the reference path.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "baseline.hpp"
#include "emc/limits.hpp"
#include "emc/receiver.hpp"
#include "emc/spectrum.hpp"
#include "experiments.hpp"
#include "json_out.hpp"
#include "signal/csv.hpp"

namespace {

using emc::bench::seconds_since;

/// Bound on the strong-harmonic spectral error [dB].
constexpr double kStrongErrGateDb = 2.5;

/// Steady-state slice: drop the first pattern period (startup transient),
/// keep an exact number of whole periods.
emc::sig::Waveform steady_slice(const emc::sig::Waveform& w, double period, int periods) {
  const auto per_period = static_cast<std::size_t>(std::lround(period / w.dt()));
  return w.slice(per_period, per_period * static_cast<std::size_t>(periods - 1));
}

/// Board-level conducted-style emission mask spanning the harmonic range
/// of the 1 Gb/s aggressor: log-linear from 140 dBuV at 50 MHz down to
/// 90 dBuV at 5 GHz (CISPR-style shape; the standard conducted masks stop
/// at 30 MHz, below this record's resolution). Sized so the bus passes at
/// the fundamental but trips on mid-range harmonics — the regime where
/// reference and macromodel verdicts must agree.
emc::spec::LimitMask board_mask() {
  return {"board-level conducted-style mask", {{50e6, 140.0}, {5e9, 90.0}}};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace emc;
  const auto bargs = bench::extract_baseline_args(argc, argv);
  bool smoke = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;

  // Total simulated periods; the first is discarded as startup transient.
  const int periods = smoke ? 3 : 7;

  std::printf("=== bench_emc: emission spectra, reference vs. PW-RBF macromodel ===%s\n",
              smoke ? "  [smoke mode]" : "");
  std::printf("running bus-crosstalk scenario (%d pattern periods)...\n", periods);

  auto doc = bench::make_bench_doc("bench_emc");
  doc.set("smoke", bench::Json::boolean(smoke));

  const auto t_run = std::chrono::steady_clock::now();
  const auto bus = exp::run_bus_emissions(periods);
  doc.at("scenarios").push(bench::scenario_row("bus_emissions_ref_and_model",
                                               seconds_since(t_run)));

  const auto ref = steady_slice(bus.active_reference, bus.pattern_period, periods);
  const auto mod = steady_slice(bus.active_pwrbf, bus.pattern_period, periods);

  // Coherent record: rectangular window measures each harmonic exactly.
  // The record length (periods-1)*600 samples is not a power of two, so
  // this also exercises the Bluestein path end-to-end.
  const auto t_fft = std::chrono::steady_clock::now();
  const auto spec_ref = spec::amplitude_spectrum_dbuv(ref, spec::Window::kRectangular);
  const auto spec_mod = spec::amplitude_spectrum_dbuv(mod, spec::Window::kRectangular);
  doc.at("scenarios").push(
      bench::scenario_row("amplitude_spectra", seconds_since(t_fft)));

  // Harmonics of the 15 ns pattern sit every (periods-1) bins. Report the
  // ones the mask range covers and that rise above the numerical floor.
  const std::size_t hop = static_cast<std::size_t>(periods - 1);
  auto harmonics = bench::Json::array();
  double max_abs_err = 0.0;
  // The gated error covers harmonics within 40 dB of the carrier and below
  // 2 GHz: with ~100 ps edges there is no meaningful emission energy (and
  // no macromodel fidelity claim in the paper) above that, and dB errors
  // on near-floor harmonics are meaningless.
  double max_abs_err_strong = 0.0;
  double strongest = -300.0;
  for (std::size_t k = hop; k < spec_ref.size(); k += hop)
    strongest = std::max(strongest, spec_ref[k]);
  std::printf("\n%10s %12s %12s %9s\n", "f [MHz]", "ref [dBuV]", "model [dBuV]",
              "err [dB]");
  for (std::size_t k = hop; k < spec_ref.size(); k += hop) {
    const double f = spec_ref.frequency_at(k);
    if (f > 5e9) break;
    const double lv_ref = spec_ref[k];
    const double lv_mod = spec_mod[k];
    if (lv_ref < strongest - 100.0) continue;  // numerical floor
    const double err = lv_mod - lv_ref;
    max_abs_err = std::max(max_abs_err, std::abs(err));
    if (lv_ref > strongest - 40.0 && f <= 2e9)
      max_abs_err_strong = std::max(max_abs_err_strong, std::abs(err));
    if (f < 1.5e9)
      std::printf("%10.1f %12.2f %12.2f %9.2f\n", f / 1e6, lv_ref, lv_mod, err);
    auto row = bench::Json::object();
    row.set("f_mhz", bench::Json::number(f / 1e6));
    row.set("ref_dbuv", bench::Json::number(lv_ref));
    row.set("model_dbuv", bench::Json::number(lv_mod));
    row.set("err_db", bench::Json::number(err));
    harmonics.push(std::move(row));
  }
  doc.set("harmonics", std::move(harmonics));
  doc.set("max_abs_err_db", bench::Json::number(max_abs_err));
  doc.set("max_abs_err_strong_db", bench::Json::number(max_abs_err_strong));
  std::printf(
      "\nmax |err| %.2f dB overall, %.2f dB on strong harmonics (<2 GHz, within 40 dB "
      "of carrier)\n",
      max_abs_err, max_abs_err_strong);

  // Limit-mask compliance of both spectra, CISPR-style worst margin.
  const auto mask = board_mask();
  const auto rep_ref = spec::check_compliance(spec_ref, mask, "reference");
  const auto rep_mod = spec::check_compliance(spec_mod, mask, "macromodel");
  std::printf("%s\n%s\n", rep_ref.summary().c_str(), rep_mod.summary().c_str());

  auto compliance = bench::Json::object();
  compliance.set("mask", bench::Json::string(mask.name));
  auto side = [](const spec::ComplianceReport& r) {
    auto o = bench::Json::object();
    o.set("pass", bench::Json::boolean(r.pass));
    o.set("worst_margin_db", bench::Json::number(r.worst_margin_db));
    if (const auto* w = r.worst_point()) {
      o.set("worst_f_mhz", bench::Json::number(w->f / 1e6));
      o.set("worst_level_dbuv", bench::Json::number(w->level_dbuv));
    }
    return o;
  };
  compliance.set("reference", side(rep_ref));
  compliance.set("macromodel", side(rep_mod));
  compliance.set("worst_margin_delta_db",
                 bench::Json::number(rep_mod.worst_margin_db - rep_ref.worst_margin_db));
  doc.set("compliance", std::move(compliance));

  // Swept EMI-receiver measurement (timed; perf tracking for the scan
  // path). The RBW/QP constants are compressed to the record length.
  spec::ReceiverSettings rx;
  rx.name = "wideband scan";
  rx.f_start = 50e6;
  rx.f_stop = 5e9;
  rx.n_points = smoke ? 20 : 60;
  rx.rbw = 20e6;
  rx.tau_charge = 1e-9;
  rx.tau_discharge = 30e-9;
  const auto t_scan = std::chrono::steady_clock::now();
  const auto scan_ref = spec::emi_scan(ref, rx);
  const auto scan_mod = spec::emi_scan(mod, rx);
  doc.at("scenarios").push(bench::scenario_row("emi_scan", seconds_since(t_scan)));

  // Scan-phase timing: zoom-IFFT vs full-length reference demodulation on
  // the same (reference-circuit) record, and the detector agreement the
  // fast path must hold on a real emission waveform.
  spec::EmiScanner phase_scanner;
  auto rx_ref = rx;
  rx_ref.method = spec::ScanMethod::kReference;
  auto rx_zoom = rx;
  rx_zoom.method = spec::ScanMethod::kZoom;
  // Shared log grid + cached forward transform: both timed passes measure
  // the demodulation phase over the identical frequency list.
  const auto scan_grid = spec::make_log_grid(rx.f_start, rx.f_stop, rx.n_points);
  phase_scanner.load_record(ref);
  const auto t_scan_ref = std::chrono::steady_clock::now();
  const auto phase_ref = phase_scanner.measure(rx_ref, scan_grid);
  const double wall_scan_ref = seconds_since(t_scan_ref);
  doc.at("scenarios").push(bench::scenario_row("emi_scan_reference", wall_scan_ref));
  const auto t_scan_zoom = std::chrono::steady_clock::now();
  const auto phase_zoom = phase_scanner.measure(rx_zoom, scan_grid);
  const double wall_scan_zoom = seconds_since(t_scan_zoom);
  doc.at("scenarios").push(bench::scenario_row("emi_scan_zoom", wall_scan_zoom));
  const double zoom_delta = spec::max_detector_delta_db(phase_ref, phase_zoom);
  doc.set("scan_speedup_zoom",
          bench::Json::number(wall_scan_zoom > 0.0 ? wall_scan_ref / wall_scan_zoom : 0.0));
  doc.set("scan_zoom_max_delta_db", bench::Json::number(zoom_delta));
  std::printf("scan demodulation: reference %.1f ms, zoom %.1f ms (%.1fx), max detector "
              "delta %.5f dB\n",
              wall_scan_ref * 1e3, wall_scan_zoom * 1e3,
              wall_scan_zoom > 0.0 ? wall_scan_ref / wall_scan_zoom : 0.0, zoom_delta);
  double qp_top = -300.0;
  for (double v : scan_ref.quasi_peak_dbuv) qp_top = std::max(qp_top, v);
  double max_qp_err = 0.0;
  for (std::size_t k = 0; k < scan_ref.size(); ++k) {
    if (scan_ref.quasi_peak_dbuv[k] < qp_top - 60.0) continue;  // scan noise floor
    max_qp_err = std::max(max_qp_err,
                          std::abs(scan_mod.quasi_peak_dbuv[k] - scan_ref.quasi_peak_dbuv[k]));
  }
  doc.set("emi_scan_max_qp_err_db", bench::Json::number(max_qp_err));
  std::printf("EMI scan (%zu points): max quasi-peak error %.2f dB (within 60 dB of top)\n",
              scan_ref.size(), max_qp_err);

  sig::write_spectrum_csv("bench_out/bench_emc_scan.csv",
                          {"ref_peak_dbuv", "ref_qp_dbuv", "ref_avg_dbuv", "model_qp_dbuv"},
                          scan_ref.freq,
                          {scan_ref.peak_dbuv, scan_ref.quasi_peak_dbuv,
                           scan_ref.average_dbuv, scan_mod.quasi_peak_dbuv});

  if (doc.write_file("BENCH_emc.json"))
    std::printf("wrote BENCH_emc.json and bench_out/bench_emc_scan.csv\n");

  const bool base_ok = bench::check_baseline_gate(doc, bargs);

  // Gate on the macromodel reproducing the strong harmonics (the paper's
  // models track the reference to a few percent in the time domain, which
  // must hold up as a few dB where the emission energy actually is) and on
  // the zoom demodulation agreeing with the reference path on a real
  // emission waveform.
  return max_abs_err_strong < kStrongErrGateDb && zoom_delta < 0.01 && base_ok ? 0 : 1;
}
