// Adaptive mask-driven frequency sampling: a multi-stage scan planner
// that turns the fixed log-grid receiver scan into a certified margin
// oracle (De Stefano et al.'s coarse-pass -> local-refinement ->
// certified-bracketing template).
//
// Stage 1 runs a coarse log-grid pass and caches the record's
// forward_real half-spectrum in the EmiScanner, so every later point is
// only a zoom-IFFT gather + detector pass (O(K log K) + O(n), no
// re-transform). Stage 2 polishes each local worst-margin minimum whose
// margin is within `refine_margin_window_db` of the mask (parabolic vertex
// in log f with a golden-section safeguard) until the predicted margin
// improvement falls under `margin_tol_db` or the frequency bracket
// tightens below `freq_tol_rel`. Stage 3 bisects every mask crossing in
// log f until the (pass, fail) bracket is narrower than `freq_tol_rel`
// relative to the crossing frequency — that bracket is the certificate: a
// measured compliant point and a measured violating point pinning where
// the spectrum pierces the mask, plus a log-linear interpolated crossing
// estimate between them.
//
// The result flows into the ordinary ComplianceReport machinery (so
// merge_reports and skipped_points accounting apply unchanged), and the merged EmiScan carries the per-scan
// zoom/reference/refined point counts.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "emc/limits.hpp"
#include "emc/receiver.hpp"
#include "signal/waveform.hpp"

namespace emc::spec {

/// Which detector trace of the scan is scored against the mask.
enum class TraceSel {
  kPeak,
  kQuasiPeak,
  kAverage,
};

struct AdaptiveScanConfig {
  /// Stage-1 log-grid size. The coarse pass must still see every mask
  /// feature wider than one grid cell; refinement only sharpens what the
  /// coarse pass noticed.
  std::size_t coarse_points = 25;
  /// Certification tolerance: a crossing bracket [f_pass, f_fail] (and a
  /// minimum's final bracket) is tight once its width is below this
  /// fraction of the frequency.
  double freq_tol_rel = 1e-3;
  /// Stop polishing a minimum when the predicted margin improvement of
  /// another detector pass falls below this [dB].
  double margin_tol_db = 0.01;
  /// Only minima within this margin of the mask are polished; comfortably
  /// compliant spectra (every margin above the window) take zero refined
  /// points. Set to +infinity to always polish the worst margin.
  double refine_margin_window_db = 10.0;
  /// Hard cap on refined detector passes per scan (bisection + polishing).
  std::size_t max_refined_points = 512;
};

/// One certified mask crossing: the spectrum measures compliant at f_pass
/// and violating at f_fail, with |f_fail - f_pass| within the configured
/// tolerance of the crossing; f_cross is the log-linear interpolated zero
/// of the margin between the two measured points.
struct MaskCrossing {
  double f_pass = 0.0;
  double f_fail = 0.0;
  double f_cross = 0.0;
  /// true when the violation begins here (pass below, fail above in
  /// frequency); false when the spectrum re-enters compliance.
  bool entering = true;
};

/// Output of an adaptive scan: the merged measurement (coarse + refined
/// points, frequency-sorted), its compliance report, and the certificate
/// list. scan.refined_points / coarse accounting ride along so reports
/// and benches can show where the detector passes went.
struct CertifiedScan {
  EmiScan scan;                        ///< merged, frequency-sorted
  ComplianceReport report;             ///< scored trace vs the mask
  std::vector<MaskCrossing> crossings; ///< every certified mask crossing
  std::size_t coarse_points = 0;       ///< stage-1 measured points
  std::size_t refined_points = 0;      ///< stage-2/3 measured points
  /// Total detector passes spent (== coarse + refined measured points;
  /// the unit the fixed-vs-adaptive speedup is quoted in).
  std::size_t detector_passes = 0;
};

/// The selected detector trace of a scan (peak / quasi-peak / average).
const std::vector<double>& scan_trace(const EmiScan& scan, TraceSel trace);
const char* trace_name(TraceSel trace);

/// Run the multi-stage adaptive scan on `scanner` (its cached FFT plans
/// and buffers are reused; the record is loaded once). The scan span and
/// detector settings come from `rx` (rx.n_points is ignored — the grid is
/// cfg.coarse_points). Throws std::invalid_argument on a bad span/record
/// exactly like EmiScanner::scan.
CertifiedScan adaptive_scan(EmiScanner& scanner, const sig::Waveform& w,
                            const ReceiverSettings& rx, const LimitMask& mask,
                            TraceSel trace, const AdaptiveScanConfig& cfg,
                            std::string what = "");

/// Owning convenience wrapper: one AdaptiveScanner keeps the FFT plans
/// and buffers alive across scan() calls, like EmiScanner. Cheap state,
/// not a shared resource — one per concurrent worker.
class AdaptiveScanner {
 public:
  explicit AdaptiveScanner(AdaptiveScanConfig cfg = {}) : cfg_(cfg) {}

  CertifiedScan scan(const sig::Waveform& w, const ReceiverSettings& rx,
                     const LimitMask& mask, TraceSel trace, std::string what = "") {
    return adaptive_scan(scanner_, w, rx, mask, trace, cfg_, std::move(what));
  }

  const AdaptiveScanConfig& config() const { return cfg_; }
  AdaptiveScanConfig& config() { return cfg_; }

 private:
  AdaptiveScanConfig cfg_;
  EmiScanner scanner_;
};

}  // namespace emc::spec
