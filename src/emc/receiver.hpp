// EMI-receiver emulation: a swept-frequency measurement of a time-domain
// record the way a CISPR 16-1-1 receiver would see it. At each scan
// frequency the record is passed through a Gaussian resolution-bandwidth
// filter (RBW = -6 dB width), the analytic-signal envelope is extracted,
// and three detectors read it out: peak, average, and the classic
// quasi-peak charge/discharge circuit.
//
// Two demodulation paths produce that envelope. The reference path
// inverse-transforms the full-length filtered spectrum per scan point
// (O(n log n) per point). The zoom-IFFT path gathers only the K bins the
// Gaussian RBW window occupies, frequency-shifts them to baseband and
// inverse-transforms at a decimated rate, then feeds the detectors
// envelope samples linearly interpolated from that short exact envelope —
// O(K log K) per point plus a light O(n) detector pass with no
// per-sample sqrt or complex arithmetic. Detector readings agree with the
// reference to well under 0.01 dB (the interpolation grid oversamples the
// occupied band 32x); tests assert it.
#pragma once

#include <complex>
#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "emc/fft.hpp"
#include "signal/waveform.hpp"

namespace emc::spec {

/// How EmiScanner demodulates the envelope at each scan point.
enum class ScanMethod {
  kAuto,       ///< zoom-IFFT whenever it actually decimates, else reference
  kZoom,       ///< always zoom-IFFT (even when the occupied band is wide)
  kReference,  ///< full-length inverse FFT per point (the validation path)
};

struct ReceiverSettings {
  std::string name = "custom";
  double f_start = 0.0;          ///< first scan frequency [Hz]
  double f_stop = 0.0;           ///< last scan frequency [Hz]
  std::size_t n_points = 100;    ///< log-spaced scan frequencies
  double rbw = 0.0;              ///< -6 dB resolution bandwidth [Hz]
  double tau_charge = 0.0;       ///< quasi-peak charge time constant [s]
  double tau_discharge = 0.0;    ///< quasi-peak discharge time constant [s]
  ScanMethod method = ScanMethod::kAuto;  ///< envelope demodulation path

  bool operator==(const ReceiverSettings&) const = default;

  /// CISPR 16 band A (9-150 kHz): RBW 200 Hz, QP 45 ms / 500 ms.
  static ReceiverSettings cispr_band_a();
  /// CISPR 16 band B (150 kHz-30 MHz): RBW 9 kHz, QP 1 ms / 160 ms.
  static ReceiverSettings cispr_band_b();

  /// Copy with QP time constants scaled by `s`. Real quasi-peak constants
  /// assume >= 1 s dwell per frequency; short simulated records need the
  /// dynamics compressed to stay meaningful (documented in the report).
  ReceiverSettings with_time_scale(double s) const;
};

/// Swept detector readings, all in dBuV, on the log-spaced `freq` grid.
struct EmiScan {
  std::string receiver;
  std::vector<double> freq;
  std::vector<double> peak_dbuv;
  std::vector<double> quasi_peak_dbuv;
  std::vector<double> average_dbuv;

  /// Scan points dropped because their frequency was at or above the
  /// record's Nyquist rate: freq.size() + skipped_points equals the
  /// number of frequencies the scan laid out (max(2, n_points) — the
  /// grid needs both endpoints). A nonzero value means the record was too
  /// coarsely sampled to cover the requested span — compliance checks fed
  /// this scan must surface it, or a truncated scan can false-PASS a mask.
  std::size_t skipped_points = 0;

  /// How each measured point was demodulated (zoom_points +
  /// reference_points + points whose RBW window covered no bin ==
  /// freq.size()) — the per-scan record of the zoom-vs-reference decision.
  std::size_t zoom_points = 0;
  std::size_t reference_points = 0;

  /// Points added by adaptive refinement (crossing bisection / minimum
  /// polishing) rather than the initial grid. EmiScanner::measure leaves
  /// this at 0; AdaptiveScanner sets it on the merged scan it emits.
  std::size_t refined_points = 0;

  std::size_t size() const { return freq.size(); }
};

/// The log-spaced scan grid every fixed receiver pass uses: exact
/// endpoints (exp(log(x)) need not round-trip, and downstream mask checks
/// treat band edges as inclusive), interior points spaced uniformly in
/// log f. f_lo == f_hi collapses to the single point {f_lo} regardless of
/// `n`; n == 1 yields {f_lo}. Throws std::invalid_argument on n == 0,
/// f_lo <= 0 or f_hi < f_lo. Bit-identical to the grid EmiScanner::scan
/// lays out (it calls this helper).
std::vector<double> make_log_grid(double f_lo, double f_hi, std::size_t n);

/// Reusable swept-measurement engine for batched receiver runs. One
/// scanner keeps the FFT plans and all transform/envelope buffers alive
/// across scan() calls, so a corner sweep measuring hundreds of equally
/// sized records plans the FFTs exactly once per worker (plans are rebuilt
/// only when the record length or occupied-band size changes). A scanner
/// is cheap state, not a shared resource: give each concurrent worker its
/// own instance.
class EmiScanner {
 public:
  /// Detector readings of one scan point in envelope volts (not yet dBuV).
  struct Readings {
    double peak = 0.0;
    double qp = 0.0;
    double avg = 0.0;
  };

  /// Run the swept measurement. Per-frequency buffers are reused across
  /// the scan and across calls. Scan frequencies at or above the record's
  /// Nyquist rate are dropped and counted in EmiScan::skipped_points.
  /// Throws std::invalid_argument when the record is too short to resolve
  /// the requested RBW (duration must be at least ~1/(4.8*rbw), or every
  /// detector could silently read the noise floor).
  /// Equivalent to load_record(w) + measure(s, make_log_grid(...)).
  EmiScan scan(const sig::Waveform& w, const ReceiverSettings& s);

  /// Forward-transform the record once and cache its half-spectrum. Every
  /// subsequent measure() call reuses it, so an adaptive scan pays the
  /// O(n log n) transform once and each refined point costs only a
  /// zoom-IFFT gather + detector pass. Throws when the record is shorter
  /// than 4 samples.
  void load_record(const sig::Waveform& w);
  bool has_record() const { return rec_n_ >= 4; }

  /// Measure the loaded record at explicit scan frequencies (need not be
  /// log-spaced; order is preserved in the output). Frequencies at or
  /// above the record's Nyquist rate are dropped and counted in
  /// EmiScan::skipped_points. `s.f_start/f_stop/n_points` are ignored —
  /// only the RBW, detector time constants and demodulation method apply.
  /// Throws when no record is loaded or a frequency is non-positive.
  EmiScan measure(const ReceiverSettings& s, std::span<const double> freqs);

  /// The detector readings of the last scan()/measure(), one per point of
  /// the EmiScan it returned, in the same order; overwritten by the next
  /// call. Every detector is positively homogeneous (peak is a max, the
  /// quasi-peak branch test env > qp is scale-free, average is a mean), so
  /// envelope_dbuv(a * reading) is the reading of a scan of a * record,
  /// up to rounding, for any a > 0.
  std::span<const Readings> readings() const { return readings_; }

  /// dBuV of an envelope reading: the RMS of the equivalent sine at
  /// readout, as an EMI receiver is calibrated, floored at -120 dBuV.
  static double envelope_dbuv(double envelope_volts);

 private:
  /// One scan point: its carrier and the occupied bin range (inclusive;
  /// k_lo > k_hi when the Gaussian window covers no positive bin).
  struct PointTask {
    double fc = 0.0;
    std::size_t k_lo = 1;
    std::size_t k_hi = 0;
  };
  /// Per-scan constants shared by both demodulation paths.
  struct ScanCtx {
    std::size_t n = 0;  ///< record length
    double df = 0.0;    ///< bin spacing fs/n
    double alpha = 0.0; ///< Gaussian RBW exponent
    double kc = 0.0;    ///< per-sample QP charge factor exp(-dt/tau_c)
    double kd = 0.0;    ///< per-sample QP discharge factor exp(-dt/tau_d)
  };

  Readings demod_reference(const ScanCtx& c, const PointTask& t);
  /// Demodulate `count` (1..4) consecutive zoom-eligible scan points
  /// sharing one decimated length n_env; the detector recursions of the
  /// whole block run interleaved in a single pass over the record, which
  /// hides the serial latency of the quasi-peak update chain.
  void demod_zoom_block(const ScanCtx& c, const PointTask* tasks, std::size_t count,
                        std::size_t n_env, Readings* out);

  std::optional<FftPlan> plan_;
  std::vector<std::complex<double>> spectrum_;  ///< n/2+1 bins of the record
  std::size_t rec_n_ = 0;   ///< loaded record length (0 = none)
  double rec_dt_ = 0.0;     ///< loaded record sample interval [s]
  std::vector<PointTask> tasks_;    ///< per-scan point list, reused across calls
  std::vector<Readings> readings_;  ///< per-scan detector outputs, reused

  // Reference path: sparse spectral buffer (zero outside the previously
  // occupied bin range, cleared surgically per point) and the time-domain
  // output of the out-of-place inverse. Sized lazily on first use.
  std::vector<std::complex<double>> y_;
  std::vector<std::complex<double>> z_;
  std::size_t prev_lo_ = 1;  ///< occupied range in y_; lo > hi means none
  std::size_t prev_hi_ = 0;

  // Zoom path: the small decimated plan (rebuilt only when n_env changes),
  // its transform buffer and up to 4 decimated envelopes per block.
  std::optional<FftPlan> zoom_plan_;
  std::vector<std::complex<double>> zoom_buf_;
  std::vector<double> zoom_env_;  ///< block-major, 4 * n_env magnitudes
};

/// One-shot convenience wrapper around EmiScanner (plans the FFT per call).
EmiScan emi_scan(const sig::Waveform& w, const ReceiverSettings& s);

/// Largest |a - b| in dB across all three detector traces of two scans of
/// the same span — the zoom-vs-reference agreement metric the tests and
/// benches gate on (< 0.01 dB). Compares up to the shorter scan.
double max_detector_delta_db(const EmiScan& a, const EmiScan& b);

}  // namespace emc::spec
