// Swept EMI receiver: zoom-IFFT vs reference demodulation agreement
// across RBW corner cases (occupied band from ~1 bin to the whole
// half-spectrum), scan-truncation accounting, and its surfacing through
// compliance reports.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <vector>

#include "emc/limits.hpp"
#include "emc/receiver.hpp"
#include "signal/sources.hpp"
#include "signal/waveform.hpp"

using namespace emc;

namespace {

/// Busy deterministic record: nine harmonics of a 1 MHz carrier with slow
/// amplitude modulation plus LCG noise — enough spectral structure that
/// every detector reads something nontrivial at every scan point.
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

spec::ReceiverSettings busy_rx(double rbw, spec::ScanMethod method) {
  spec::ReceiverSettings s;
  s.name = "test";
  s.f_start = 200e3;
  s.f_stop = 10e6;
  s.n_points = 25;
  s.rbw = rbw;
  s.tau_charge = 2e-6;
  s.tau_discharge = 60e-6;
  s.method = method;
  return s;
}

/// Worst |zoom - reference| across all three detectors and all points.
double max_delta_db(const spec::EmiScan& a, const spec::EmiScan& b) {
  EXPECT_EQ(a.size(), b.size());
  return spec::max_detector_delta_db(a, b);
}

}  // namespace

TEST(EmiZoom, MatchesReferenceAcrossRbwCornerCases) {
  // Acceptance criterion: the zoom-IFFT fast path agrees with the
  // full-length reference demodulation to < 0.01 dB on every detector.
  // fs = 64 MS/s, n = 4096 -> df = 15.625 kHz. The RBW list walks the
  // occupied band from ~2 bins to wider than the whole half-spectrum.
  const auto w = busy_record(4096, 64e6);
  for (double rbw : {4.5e3, 40e3, 200e3, 1e6, 40e6}) {
    spec::EmiScanner ref_scanner;
    spec::EmiScanner zoom_scanner;
    const auto ref = ref_scanner.scan(w, busy_rx(rbw, spec::ScanMethod::kReference));
    const auto zoom = zoom_scanner.scan(w, busy_rx(rbw, spec::ScanMethod::kZoom));
    EXPECT_LT(max_delta_db(ref, zoom), 0.01) << "rbw=" << rbw;
  }
}

TEST(EmiZoom, AutoMethodMatchesReference) {
  const auto w = busy_record(4096, 64e6);
  const auto ref = spec::emi_scan(w, busy_rx(100e3, spec::ScanMethod::kReference));
  const auto fast = spec::emi_scan(w, busy_rx(100e3, spec::ScanMethod::kAuto));
  EXPECT_LT(max_delta_db(ref, fast), 0.01);
}

TEST(EmiZoom, MatchesReferenceOnNonPowerOfTwoRecord) {
  // n = 3000 exercises the Bluestein reference inverse and the even-n
  // real-input forward against the radix-2 zoom plan.
  const auto w = busy_record(3000, 64e6);
  const auto ref = spec::emi_scan(w, busy_rx(150e3, spec::ScanMethod::kReference));
  const auto zoom = spec::emi_scan(w, busy_rx(150e3, spec::ScanMethod::kZoom));
  EXPECT_LT(max_delta_db(ref, zoom), 0.01);
}

TEST(EmiZoom, OneScannerHandlesMixedMethodsAndLengths) {
  // Plan/buffer reuse across method switches and record lengths must not
  // leak state between calls.
  spec::EmiScanner scanner;
  const auto w1 = busy_record(4096, 64e6);
  const auto w2 = busy_record(3000, 64e6);
  const auto a = scanner.scan(w1, busy_rx(100e3, spec::ScanMethod::kZoom));
  const auto b = scanner.scan(w2, busy_rx(150e3, spec::ScanMethod::kReference));
  const auto c = scanner.scan(w1, busy_rx(100e3, spec::ScanMethod::kZoom));
  ASSERT_EQ(a.size(), c.size());
  for (std::size_t k = 0; k < a.size(); ++k)
    EXPECT_DOUBLE_EQ(a.quasi_peak_dbuv[k], c.quasi_peak_dbuv[k]);
  EXPECT_EQ(b.size(), 25u);
}

TEST(EmiHomogeneity, ScaledReadingsMatchAScanOfTheScaledRecord) {
  // Every detector is positively homogeneous, so a scan of a * x reads
  // a * (the readings of a scan of x), up to rounding. The scaling is done
  // in volts, before the dBuV conversion, on both demodulation paths.
  const auto w = busy_record(4096, 64e6);
  for (const auto method : {spec::ScanMethod::kZoom, spec::ScanMethod::kReference}) {
    const auto rx = busy_rx(200e3, method);
    spec::EmiScanner base;
    const auto scan = base.scan(w, rx);
    const std::vector<spec::EmiScanner::Readings> r(base.readings().begin(),
                                                    base.readings().end());
    ASSERT_EQ(r.size(), scan.size());
    EXPECT_EQ(method == spec::ScanMethod::kZoom ? scan.zoom_points : scan.reference_points,
              scan.size());
    for (std::size_t p = 0; p < scan.size(); ++p) {
      EXPECT_EQ(spec::EmiScanner::envelope_dbuv(r[p].peak), scan.peak_dbuv[p]);
      EXPECT_EQ(spec::EmiScanner::envelope_dbuv(r[p].qp), scan.quasi_peak_dbuv[p]);
      EXPECT_EQ(spec::EmiScanner::envelope_dbuv(r[p].avg), scan.average_dbuv[p]);
    }
    for (const double a : {0.5, 0.9, 1.1, 2.0}) {
      sig::Waveform scaled = w;
      scaled *= a;
      spec::EmiScanner other;
      const auto want = other.scan(scaled, rx);
      ASSERT_EQ(want.size(), r.size());
      double worst = 0.0;
      for (std::size_t p = 0; p < r.size(); ++p) {
        using spec::EmiScanner;
        worst = std::max(worst, std::abs(want.peak_dbuv[p] -
                                         EmiScanner::envelope_dbuv(a * r[p].peak)));
        worst = std::max(worst, std::abs(want.quasi_peak_dbuv[p] -
                                         EmiScanner::envelope_dbuv(a * r[p].qp)));
        worst = std::max(worst, std::abs(want.average_dbuv[p] -
                                         EmiScanner::envelope_dbuv(a * r[p].avg)));
      }
      EXPECT_LE(worst, 1e-9) << "a=" << a << " method=" << static_cast<int>(method);
    }
  }
}

TEST(EmiHomogeneity, FloorPointsStayAtTheFloorUnderScaling) {
  // df = 15.625 kHz and a 4.5 kHz RBW reaches ~10.8 kHz: the Gaussian
  // window of a 1 kHz point covers no positive bin, so every detector
  // reads the -120 dBuV floor. Scaling in volts keeps it there for every
  // a; adding 20 log10(a) in dB would move it.
  const auto w = busy_record(4096, 64e6);
  const auto rx = busy_rx(4.5e3, spec::ScanMethod::kAuto);
  const double freqs[] = {1e3, 1e6};
  spec::EmiScanner base;
  base.load_record(w);
  const auto scan = base.measure(rx, freqs);
  ASSERT_EQ(scan.size(), 2u);
  EXPECT_EQ(scan.zoom_points + scan.reference_points, 1u);
  const spec::EmiScanner::Readings floor = base.readings()[0];
  for (const double a : {0.5, 0.9, 1.1, 2.0}) {
    sig::Waveform scaled = w;
    scaled *= a;
    spec::EmiScanner other;
    other.load_record(scaled);
    const auto want = other.measure(rx, freqs);
    for (const double level :
         {want.peak_dbuv[0], want.quasi_peak_dbuv[0], want.average_dbuv[0],
          spec::EmiScanner::envelope_dbuv(a * floor.peak),
          spec::EmiScanner::envelope_dbuv(a * floor.qp),
          spec::EmiScanner::envelope_dbuv(a * floor.avg)})
      EXPECT_EQ(level, -120.0) << "a=" << a;
  }
}

TEST(EmiScanTruncation, SkippedPointsAreCounted) {
  const auto w = busy_record(4096, 64e6);  // Nyquist 32 MHz
  auto rx = busy_rx(200e3, spec::ScanMethod::kAuto);
  rx.f_stop = 100e6;  // well past Nyquist
  rx.n_points = 20;
  const auto scan = spec::emi_scan(w, rx);
  EXPECT_GT(scan.skipped_points, 0u);
  EXPECT_EQ(scan.size() + scan.skipped_points, 20u);
  for (double f : scan.freq) EXPECT_LT(f, 32e6);

  // A span fully below Nyquist drops nothing.
  const auto full = spec::emi_scan(w, busy_rx(200e3, spec::ScanMethod::kAuto));
  EXPECT_EQ(full.skipped_points, 0u);
  EXPECT_EQ(full.size(), 25u);
}

TEST(EmiScanTruncation, ComplianceReportSurfacesTruncatedScans) {
  const auto w = busy_record(4096, 64e6);
  auto rx = busy_rx(200e3, spec::ScanMethod::kAuto);
  rx.f_stop = 100e6;
  const auto scan = spec::emi_scan(w, rx);
  ASSERT_GT(scan.skipped_points, 0u);

  const spec::LimitMask mask{"unit mask", {{200e3, 200.0}, {100e6, 200.0}}};
  const auto rep = spec::check_compliance(scan.freq, scan.quasi_peak_dbuv, mask,
                                          "truncated", scan.skipped_points);
  EXPECT_EQ(rep.skipped_scan_points, scan.skipped_points);
  EXPECT_NE(rep.summary().find("TRUNCATED SCAN"), std::string::npos);

  // An untruncated report keeps the old summary shape.
  const auto clean = spec::check_compliance(scan.freq, scan.quasi_peak_dbuv, mask, "ok");
  EXPECT_EQ(clean.skipped_scan_points, 0u);
  EXPECT_EQ(clean.summary().find("TRUNCATED SCAN"), std::string::npos);

  // Merging the per-detector reports of one scan (the CISPR 32 QP+AVG
  // criterion) must not double-count that scan's dropped points.
  const spec::ComplianceReport both[] = {rep, rep};
  const auto merged = spec::merge_reports(both, "merged");
  EXPECT_EQ(merged.skipped_scan_points, scan.skipped_points);
  EXPECT_NE(merged.summary().find("TRUNCATED SCAN"), std::string::npos);
}

TEST(LogGrid, MatchesTheFixedScanGridBitForBit) {
  // scan() now lays its grid out through make_log_grid; the helper must
  // reproduce the frequencies a scan reports exactly (mask checks treat
  // band edges as inclusive, so even the endpoints must be bit-equal).
  const auto w = busy_record(4096, 64e6);
  const auto rx = busy_rx(200e3, spec::ScanMethod::kAuto);
  const auto scan = spec::emi_scan(w, rx);
  const auto grid = spec::make_log_grid(rx.f_start, rx.f_stop, rx.n_points);
  ASSERT_EQ(scan.size(), grid.size());
  for (std::size_t k = 0; k < grid.size(); ++k) EXPECT_EQ(scan.freq[k], grid[k]);
  EXPECT_EQ(grid.front(), rx.f_start);
  EXPECT_EQ(grid.back(), rx.f_stop);
}

TEST(LogGrid, EdgeCases) {
  // Single point.
  const auto one = spec::make_log_grid(1e6, 2e6, 1);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], 1e6);

  // f_lo == f_hi collapses to one point regardless of n.
  const auto flat = spec::make_log_grid(5e6, 5e6, 40);
  ASSERT_EQ(flat.size(), 1u);
  EXPECT_EQ(flat[0], 5e6);

  EXPECT_THROW(spec::make_log_grid(1e6, 2e6, 0), std::invalid_argument);
  EXPECT_THROW(spec::make_log_grid(0.0, 2e6, 10), std::invalid_argument);
  EXPECT_THROW(spec::make_log_grid(-1.0, 2e6, 10), std::invalid_argument);
  EXPECT_THROW(spec::make_log_grid(2e6, 1e6, 10), std::invalid_argument);

  // A grid reaching above the record's Nyquist rate feeds measure(),
  // which drops and counts the unmeasurable points.
  const auto w = busy_record(4096, 64e6);  // Nyquist 32 MHz
  spec::EmiScanner scanner;
  scanner.load_record(w);
  const auto grid = spec::make_log_grid(1e6, 100e6, 16);
  const auto scan = scanner.measure(busy_rx(200e3, spec::ScanMethod::kAuto), grid);
  EXPECT_GT(scan.skipped_points, 0u);
  EXPECT_EQ(scan.size() + scan.skipped_points, 16u);
}

TEST(EmiScanCounts, PerScanDemodulationCountsAreSurfaced) {
  const auto w = busy_record(4096, 64e6);

  // Forced reference: every measured point is a reference point.
  const auto ref = spec::emi_scan(w, busy_rx(200e3, spec::ScanMethod::kReference));
  EXPECT_EQ(ref.reference_points, ref.size());
  EXPECT_EQ(ref.zoom_points, 0u);
  EXPECT_EQ(ref.refined_points, 0u);

  // Forced zoom on a narrow RBW: every point with an occupied bin zooms.
  const auto zoom = spec::emi_scan(w, busy_rx(200e3, spec::ScanMethod::kZoom));
  EXPECT_EQ(zoom.zoom_points + zoom.reference_points, zoom.size());
  EXPECT_GT(zoom.zoom_points, 0u);
  EXPECT_EQ(zoom.reference_points, 0u);

  // Auto on a huge RBW falls back to the reference path (no decimation
  // to be had when the occupied band spans the whole half-spectrum).
  const auto wide = spec::emi_scan(w, busy_rx(40e6, spec::ScanMethod::kAuto));
  EXPECT_GT(wide.reference_points, 0u);
  EXPECT_EQ(wide.zoom_points + wide.reference_points, wide.size());
}

TEST(EmiScanCounts, MeasureReusesTheLoadedRecord) {
  const auto w = busy_record(4096, 64e6);
  const auto rx = busy_rx(200e3, spec::ScanMethod::kAuto);

  // load_record once + measure on the scan grid == scan() bit-for-bit.
  spec::EmiScanner a;
  spec::EmiScanner b;
  const auto whole = a.scan(w, rx);
  b.load_record(w);
  const auto parts =
      b.measure(rx, spec::make_log_grid(rx.f_start, rx.f_stop, rx.n_points));
  ASSERT_EQ(whole.size(), parts.size());
  for (std::size_t k = 0; k < whole.size(); ++k) {
    EXPECT_EQ(whole.freq[k], parts.freq[k]);
    EXPECT_EQ(whole.peak_dbuv[k], parts.peak_dbuv[k]);
    EXPECT_EQ(whole.quasi_peak_dbuv[k], parts.quasi_peak_dbuv[k]);
    EXPECT_EQ(whole.average_dbuv[k], parts.average_dbuv[k]);
  }

  // Point-at-a-time probing reads the same values as the whole grid.
  for (std::size_t k = 0; k < whole.size(); k += 7) {
    const double f[1] = {whole.freq[k]};
    const auto one = b.measure(rx, f);
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one.quasi_peak_dbuv[0], whole.quasi_peak_dbuv[k]);
  }

  spec::EmiScanner empty;
  const double f[1] = {1e6};
  EXPECT_THROW(empty.measure(rx, f), std::invalid_argument);
}
