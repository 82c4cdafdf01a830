#include "emc/receiver.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <numbers>
#include <stdexcept>

#include "emc/fft.hpp"
#include "emc/spectrum.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace emc::spec {

namespace {

/// Decimated-envelope oversampling of the occupied band. The detectors
/// read the envelope through linear interpolation of the decimated
/// samples; 32x oversampling of the band edge bounds the worst-case
/// interpolation error below (pi/64)^2/8 ~ 3e-4 relative (~0.003 dB), and
/// the Gaussian RBW window concentrates the energy mid-band where the
/// error is far smaller still.
constexpr std::size_t kZoomOversample = 32;
/// Scan points demodulated per fused detector pass.
constexpr std::size_t kMaxBlock = 4;

/// Peak / average / quasi-peak recursions for B interleaved scan points in
/// one pass over the record. env_at(k, e) must fill e[0..B) with the
/// envelope samples of each point at record sample k; running B
/// independent quasi-peak chains side by side hides the serial latency of
/// the charge/discharge update. Exact exponential updates per sample keep
/// the integration unconditionally stable for any dt / tau ratio.
template <int B, class Ctx, class Out, class EnvFn>
void detect(const Ctx& c, EnvFn&& env_at, Out* out) {
  double peak[B] = {};
  double sum[B] = {};
  double vqp[B] = {};
  double qpm[B] = {};
  for (std::size_t k = 0; k < c.n; ++k) {
    double e[B];
    env_at(k, e);
    for (int b = 0; b < B; ++b) {
      peak[b] = std::max(peak[b], e[b]);
      sum[b] += e[b];
      // CISPR quasi-peak circuit: charge toward the envelope through
      // tau_charge while the detector diode conducts, discharge through
      // tau_discharge always.
      if (e[b] > vqp[b]) vqp[b] = e[b] - (e[b] - vqp[b]) * c.kc;
      vqp[b] *= c.kd;
      qpm[b] = std::max(qpm[b], vqp[b]);
    }
  }
  for (int b = 0; b < B; ++b)
    out[b] = {peak[b], qpm[b], sum[b] / static_cast<double>(c.n)};
}

}  // namespace

ReceiverSettings ReceiverSettings::cispr_band_a() {
  ReceiverSettings s;
  s.name = "CISPR band A";
  s.f_start = 9e3;
  s.f_stop = 150e3;
  s.n_points = 100;
  s.rbw = 200.0;
  s.tau_charge = 45e-3;
  s.tau_discharge = 500e-3;
  return s;
}

ReceiverSettings ReceiverSettings::cispr_band_b() {
  ReceiverSettings s;
  s.name = "CISPR band B";
  s.f_start = 150e3;
  s.f_stop = 30e6;
  s.n_points = 100;
  s.rbw = 9e3;
  s.tau_charge = 1e-3;
  s.tau_discharge = 160e-3;
  return s;
}

ReceiverSettings ReceiverSettings::with_time_scale(double s) const {
  ReceiverSettings out = *this;
  out.tau_charge *= s;
  out.tau_discharge *= s;
  return out;
}

EmiScanner::Readings EmiScanner::demod_reference(const ScanCtx& c, const PointTask& t) {
  // Lazy sizing: pure-zoom scans never pay for the two length-n buffers.
  if (y_.size() != c.n) {
    y_.assign(c.n, {0.0, 0.0});
    z_.resize(c.n);
    prev_lo_ = 1;
    prev_hi_ = 0;
  }
  // y_ is zero outside the previously occupied bin range: clear just that
  // range (O(K)) instead of re-zeroing all n entries per point.
  for (std::size_t k = prev_lo_; k <= prev_hi_ && k < c.n; ++k) y_[k] = {0.0, 0.0};

  // Analytic signal of the RBW-filtered record: positive-frequency bins
  // only, doubled, then inverse FFT. |z(t)| is the carrier envelope.
  for (std::size_t k = t.k_lo; k <= t.k_hi; ++k) {
    const double d = static_cast<double>(k) * c.df - t.fc;
    const double h = std::exp(-c.alpha * d * d);
    const bool paired = k != 0 && !(c.n % 2 == 0 && k == c.n / 2);
    y_[k] = spectrum_[k] * (h * (paired ? 2.0 : 1.0));
  }
  prev_lo_ = t.k_lo;
  prev_hi_ = t.k_hi;
  plan_->inverse_to(y_.data(), z_.data());

  Readings r;
  const std::complex<double>* z = z_.data();
  detect<1>(c, [z](std::size_t k, double* e) { e[0] = std::abs(z[k]); }, &r);
  return r;
}

void EmiScanner::demod_zoom_block(const ScanCtx& c, const PointTask* tasks,
                                  std::size_t count, std::size_t n_env, Readings* out) {
  if (!zoom_plan_ || zoom_plan_->size() != n_env) {
    zoom_plan_.emplace(n_env);
    zoom_buf_.resize(n_env);
    zoom_env_.resize(kMaxBlock * n_env);
  }

  // Exact decimated envelopes: the occupied bins, shifted so the band
  // center lands at baseband (the magnitude is shift-invariant), form an
  // n_env-bin spectrum whose inverse DFT evaluates the analytic signal's
  // trig polynomial exactly at the n_env decimated sample times.
  const double scale = static_cast<double>(n_env) / static_cast<double>(c.n);
  for (std::size_t b = 0; b < count; ++b) {
    const PointTask& t = tasks[b];
    std::fill(zoom_buf_.begin(), zoom_buf_.end(), std::complex<double>{0.0, 0.0});
    const std::size_t k0 = (t.k_lo + t.k_hi) / 2;
    for (std::size_t k = t.k_lo; k <= t.k_hi; ++k) {
      const double d = static_cast<double>(k) * c.df - t.fc;
      const double h = std::exp(-c.alpha * d * d);
      const bool paired = k != 0 && !(c.n % 2 == 0 && k == c.n / 2);
      const std::size_t idx = k >= k0 ? k - k0 : n_env - (k0 - k);
      zoom_buf_[idx] = spectrum_[k] * (h * (paired ? 2.0 : 1.0));
    }
    zoom_plan_->inverse(zoom_buf_.data());
    double* env = zoom_env_.data() + b * n_env;
    for (std::size_t j = 0; j < n_env; ++j) env[j] = std::abs(zoom_buf_[j]) * scale;
  }

  // Fused detector pass at the original record rate (the quasi-peak
  // discretization must match the reference path exactly), reading the
  // envelope by linear interpolation of the decimated samples. The
  // periodic wrap at the last interval is exact: the trig polynomial the
  // decimated grid samples has period n*dt.
  const double stride = static_cast<double>(n_env) / static_cast<double>(c.n);
  const double* env = zoom_env_.data();
  const auto env_at = [env, stride, n_env]<int B>(std::size_t k, double (&e)[B]) {
    const double pos = static_cast<double>(k) * stride;
    const auto i0 = static_cast<std::size_t>(pos);
    const double frac = pos - static_cast<double>(i0);
    const std::size_t i1 = i0 + 1 == n_env ? 0 : i0 + 1;
    for (int b = 0; b < B; ++b) {
      const double* base = env + static_cast<std::size_t>(b) * n_env;
      e[b] = base[i0] + frac * (base[i1] - base[i0]);
    }
  };
  switch (count) {
    case 1: detect<1>(c, [&](std::size_t k, double (&e)[1]) { env_at(k, e); }, out); break;
    case 2: detect<2>(c, [&](std::size_t k, double (&e)[2]) { env_at(k, e); }, out); break;
    case 3: detect<3>(c, [&](std::size_t k, double (&e)[3]) { env_at(k, e); }, out); break;
    default: detect<4>(c, [&](std::size_t k, double (&e)[4]) { env_at(k, e); }, out); break;
  }
}

std::vector<double> make_log_grid(double f_lo, double f_hi, std::size_t n) {
  if (n == 0) throw std::invalid_argument("make_log_grid: need at least one point");
  if (!(f_lo > 0.0)) throw std::invalid_argument("make_log_grid: f_lo must be positive");
  if (!(f_hi >= f_lo)) throw std::invalid_argument("make_log_grid: f_hi must be >= f_lo");
  if (n == 1 || f_lo == f_hi) return {f_lo};

  std::vector<double> grid;
  grid.reserve(n);
  const double lg0 = std::log(f_lo);
  const double lg1 = std::log(f_hi);
  for (std::size_t p = 0; p < n; ++p) {
    // Exact endpoints (exp(log(x)) need not round-trip, and downstream
    // mask checks treat band edges as inclusive).
    const double fc =
        p == 0 ? f_lo
        : p == n - 1
            ? f_hi
            : std::exp(lg0 +
                       (lg1 - lg0) * static_cast<double>(p) / static_cast<double>(n - 1));
    grid.push_back(fc);
  }
  return grid;
}

void EmiScanner::load_record(const sig::Waveform& w) {
  const std::size_t n = w.size();
  if (n < 4) throw std::invalid_argument("emi_scan: record too short");

  // One real-input forward transform of the record; each scan point reads
  // its bins from the half-spectrum. The plan survives across scan()
  // calls, so batched runs over equally sized records (every corner of a
  // sweep) plan once.
  if (!plan_ || plan_->size() != n) plan_.emplace(n);
  plan_->forward_real(w.samples(), spectrum_);
  rec_n_ = n;
  rec_dt_ = w.dt();
}

EmiScan EmiScanner::scan(const sig::Waveform& w, const ReceiverSettings& s) {
  if (w.size() < 4) throw std::invalid_argument("emi_scan: record too short");
  if (!(s.f_start > 0.0 && s.f_stop > s.f_start))
    throw std::invalid_argument("emi_scan: bad frequency span");
  load_record(w);
  return measure(s, make_log_grid(s.f_start, s.f_stop,
                                  std::max<std::size_t>(2, s.n_points)));
}

EmiScan EmiScanner::measure(const ReceiverSettings& s, std::span<const double> freqs) {
  static const obs::Counter c_scans("spec.scan.runs");
  static const obs::Counter c_zoom("spec.scan.zoom_points");
  static const obs::Counter c_ref("spec.scan.reference_points");
  static const obs::Counter c_skipped("spec.scan.skipped_points");
  obs::Span span("scan");

  if (!has_record()) throw std::invalid_argument("emi_scan: no record loaded");
  if (!(s.rbw > 0.0)) throw std::invalid_argument("emi_scan: RBW must be positive");
  if (!(s.tau_charge > 0.0 && s.tau_discharge > 0.0))
    throw std::invalid_argument("emi_scan: QP time constants must be positive");

  const std::size_t n = rec_n_;
  const double fs = 1.0 / rec_dt_;
  const double f_nyq = fs / 2.0;
  const double df = fs / static_cast<double>(n);

  // Gaussian RBW filter, -6 dB (amplitude 1/2) at +-rbw/2 off the carrier.
  const double half = s.rbw / 2.0;
  const double alpha = std::numbers::ln2 / (half * half);
  // Beyond this offset the filter is < 1e-7 and bins are skipped entirely.
  const double reach = std::sqrt(16.1 / alpha);  // exp(-16.1) ~ 1e-7

  // A record must be long enough to resolve the RBW: if the filter could
  // fall entirely between two FFT bins the detectors would silently read
  // the -120 dBuV floor and compliance checks would false-PASS. Refuse
  // loudly instead.
  if (2.0 * reach < df)
    throw std::invalid_argument(
        "emi_scan: record too short for this RBW (need duration >= ~1/(4.8*rbw))");

  ScanCtx c;
  c.n = n;
  c.df = df;
  c.alpha = alpha;
  c.kc = std::exp(-rec_dt_ / s.tau_charge);
  c.kd = std::exp(-rec_dt_ / s.tau_discharge);

  EmiScan out;
  out.receiver = s.name;

  tasks_.clear();
  tasks_.reserve(freqs.size());
  for (const double fc : freqs) {
    if (!(fc > 0.0))
      throw std::invalid_argument("emi_scan: scan frequency must be positive");
    if (fc >= f_nyq) {
      // At or above the record's Nyquist rate: the point cannot be
      // measured. Record the truncation instead of hiding it.
      ++out.skipped_points;
      continue;
    }
    PointTask t;
    t.fc = fc;
    t.k_lo = static_cast<std::size_t>(std::max(1.0, std::ceil((fc - reach) / df)));
    t.k_hi = std::min<std::size_t>(
        n / 2, static_cast<std::size_t>(std::floor((fc + reach) / df)));
    tasks_.push_back(t);
  }

  // Decimated length for a point's occupied band, or 0 when the zoom path
  // does not apply (forced reference, or no decimation to be had).
  const auto zoom_len = [&](const PointTask& t) -> std::size_t {
    if (s.method == ScanMethod::kReference || t.k_lo > t.k_hi) return 0;
    const std::size_t n_env = FftPlan::next_pow2(kZoomOversample * (t.k_hi - t.k_lo + 1));
    if (s.method == ScanMethod::kAuto && n_env >= n) return 0;
    return n_env;
  };

  readings_.assign(tasks_.size(), Readings{});
  std::size_t i = 0;
  while (i < tasks_.size()) {
    if (tasks_[i].k_lo > tasks_[i].k_hi) {
      // The Gaussian window covers no positive-frequency bin: the
      // filtered record is identically zero and every detector reads the
      // floor.
      ++i;  // readings_[i] stays at the all-zero floor reading
      continue;
    }
    const std::size_t n_env = zoom_len(tasks_[i]);
    if (n_env == 0) {
      readings_[i] = demod_reference(c, tasks_[i]);
      ++out.reference_points;
      ++i;
      continue;
    }
    // Batch consecutive zoom points sharing one decimated length so their
    // detector recursions interleave in a single pass over the record.
    std::size_t j = i + 1;
    while (j < tasks_.size() && j - i < kMaxBlock && zoom_len(tasks_[j]) == n_env) ++j;
    demod_zoom_block(c, tasks_.data() + i, j - i, n_env, readings_.data() + i);
    out.zoom_points += j - i;
    i = j;
  }

  for (std::size_t p = 0; p < tasks_.size(); ++p) {
    out.freq.push_back(tasks_[p].fc);
    out.peak_dbuv.push_back(envelope_dbuv(readings_[p].peak));
    out.quasi_peak_dbuv.push_back(envelope_dbuv(readings_[p].qp));
    out.average_dbuv.push_back(envelope_dbuv(readings_[p].avg));
  }

  c_scans.add();
  c_zoom.add(out.zoom_points);
  c_ref.add(out.reference_points);
  c_skipped.add(out.skipped_points);
  return out;
}

double EmiScanner::envelope_dbuv(double envelope_volts) {
  return volts_to_dbuv(envelope_volts / std::numbers::sqrt2);
}

EmiScan emi_scan(const sig::Waveform& w, const ReceiverSettings& s) {
  EmiScanner scanner;
  return scanner.scan(w, s);
}

double max_detector_delta_db(const EmiScan& a, const EmiScan& b) {
  double worst = 0.0;
  for (std::size_t k = 0; k < std::min(a.size(), b.size()); ++k) {
    worst = std::max(worst, std::abs(a.peak_dbuv[k] - b.peak_dbuv[k]));
    worst = std::max(worst, std::abs(a.quasi_peak_dbuv[k] - b.quasi_peak_dbuv[k]));
    worst = std::max(worst, std::abs(a.average_dbuv[k] - b.average_dbuv[k]));
  }
  return worst;
}

}  // namespace emc::spec
