#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "signal/csv.hpp"
#include "signal/metrics.hpp"
#include "signal/sources.hpp"
#include "signal/waveform.hpp"
#include "test_temp_path.hpp"

using namespace emc::sig;

TEST(Waveform, BasicAccessors) {
  Waveform w(1.0, 0.5, {0.0, 1.0, 2.0});
  EXPECT_DOUBLE_EQ(w.t0(), 1.0);
  EXPECT_DOUBLE_EQ(w.dt(), 0.5);
  EXPECT_EQ(w.size(), 3u);
  EXPECT_DOUBLE_EQ(w.time_at(2), 2.0);
  EXPECT_DOUBLE_EQ(w.t_end(), 2.0);
}

TEST(Waveform, RejectsNonPositiveDt) {
  EXPECT_THROW(Waveform(0.0, 0.0, {1.0}), std::invalid_argument);
}

TEST(Waveform, LinearInterpolationAndClamping) {
  Waveform w(0.0, 1.0, {0.0, 2.0, 4.0});
  EXPECT_DOUBLE_EQ(w.value_at(0.5), 1.0);
  EXPECT_DOUBLE_EQ(w.value_at(1.75), 3.5);
  EXPECT_DOUBLE_EQ(w.value_at(-1.0), 0.0);  // clamp left
  EXPECT_DOUBLE_EQ(w.value_at(9.0), 4.0);   // clamp right
}

TEST(Waveform, SampleFunction) {
  auto w = Waveform::sample([](double t) { return 2.0 * t; }, 0.0, 0.25, 5);
  EXPECT_EQ(w.size(), 5u);
  EXPECT_DOUBLE_EQ(w[3], 1.5);
}

TEST(Waveform, ResampleRoundTrip) {
  auto w = Waveform::sample([](double t) { return std::sin(t); }, 0.0, 0.01, 200);
  auto r = w.resampled(0.0, 0.02, 100);
  for (std::size_t k = 0; k < r.size(); ++k)
    EXPECT_NEAR(r[k], std::sin(r.time_at(k)), 1e-3);
}

TEST(Waveform, SliceAndArithmetic) {
  Waveform w(0.0, 1.0, {1.0, 2.0, 3.0, 4.0});
  auto s = w.slice(1, 2);
  EXPECT_DOUBLE_EQ(s.t0(), 1.0);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(s[0], 2.0);

  Waveform a(0.0, 1.0, {1.0, 1.0});
  Waveform b(0.0, 1.0, {2.0, 3.0});
  auto d = b - a;
  EXPECT_DOUBLE_EQ(d[1], 2.0);
  EXPECT_THROW(w += a, std::invalid_argument);
}

TEST(Waveform, MinMax) {
  Waveform w(0.0, 1.0, {-1.0, 5.0, 2.0});
  EXPECT_DOUBLE_EQ(w.min_value(), -1.0);
  EXPECT_DOUBLE_EQ(w.max_value(), 5.0);
}

TEST(Pwl, InterpolatesBetweenBreakpoints) {
  Pwl p({{0.0, 0.0}, {1.0, 2.0}, {3.0, 2.0}});
  EXPECT_DOUBLE_EQ(p(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(p(0.5), 1.0);
  EXPECT_DOUBLE_EQ(p(2.0), 2.0);
  EXPECT_DOUBLE_EQ(p(10.0), 2.0);
}

TEST(Pwl, RejectsUnorderedBreakpoints) {
  EXPECT_THROW(Pwl({{1.0, 0.0}, {0.0, 1.0}}), std::invalid_argument);
  Pwl p;
  p.add(1.0, 0.0);
  EXPECT_THROW(p.add(0.5, 0.0), std::invalid_argument);
}

TEST(Sources, TrapezoidShape) {
  auto p = trapezoid(/*base=*/0.0, /*amp=*/3.0, /*delay=*/1.0, /*rise=*/0.5, /*width=*/2.0,
                     /*fall=*/0.5);
  EXPECT_DOUBLE_EQ(p(0.0), 0.0);
  EXPECT_DOUBLE_EQ(p(1.25), 1.5);  // mid-rise
  EXPECT_DOUBLE_EQ(p(2.0), 3.0);   // flat top
  EXPECT_DOUBLE_EQ(p(3.75), 1.5);  // mid-fall
  EXPECT_DOUBLE_EQ(p(5.0), 0.0);
}

TEST(Sources, BitStreamLevelsAndEdges) {
  auto p = bit_stream("010", /*bit_time=*/1.0, /*t_edge=*/0.1, /*v_low=*/0.0, /*v_high=*/2.0);
  EXPECT_NEAR(p(0.5), 0.0, 1e-12);
  EXPECT_NEAR(p(1.05), 1.0, 1e-9);  // mid rising edge at t=1
  EXPECT_NEAR(p(1.5), 2.0, 1e-12);
  EXPECT_NEAR(p(2.05), 1.0, 1e-9);  // mid falling edge at t=2
  EXPECT_NEAR(p(2.5), 0.0, 1e-12);
}

TEST(Sources, BitStreamValidation) {
  EXPECT_THROW(bit_stream("", 1.0, 0.1, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(bit_stream("012", 1.0, 0.1, 0.0, 1.0), std::invalid_argument);
}

TEST(Sources, LcgDeterministicAndUniform) {
  Lcg a(7), b(7);
  double mean = 0.0;
  for (int k = 0; k < 1000; ++k) {
    const double ua = a.uniform();
    EXPECT_DOUBLE_EQ(ua, b.uniform());
    EXPECT_GE(ua, 0.0);
    EXPECT_LT(ua, 1.0);
    mean += ua;
  }
  mean /= 1000.0;
  EXPECT_NEAR(mean, 0.5, 0.05);
}

TEST(Sources, MultilevelSignalStaysInRangeAndMoves) {
  auto p = multilevel_signal(-0.5, 3.8, 8, 40, 2e-9, 0.2e-9, 11);
  int distinct_moves = 0;
  double prev = p(1e-9);
  for (int k = 1; k < 40; ++k) {
    const double t = 1e-9 + 2.2e-9 * static_cast<double>(k);
    const double v = p(t);
    EXPECT_GE(v, -0.5 - 1e-12);
    EXPECT_LE(v, 3.8 + 1e-12);
    if (std::abs(v - prev) > 1e-9) ++distinct_moves;
    prev = v;
  }
  EXPECT_GT(distinct_moves, 20);  // the signal must actually excite dynamics
}

TEST(Sources, StaircaseMonotone) {
  auto p = staircase(0.0, 3.0, 6, 1.0, 0.1);
  double prev = -1.0;
  for (double t = 0.5; t < 7.0; t += 1.1) {
    const double v = p(t);
    EXPECT_GE(v, prev - 1e-12);
    prev = v;
  }
  EXPECT_NEAR(p(100.0), 3.0, 1e-12);
}

TEST(Metrics, RmsAndMaxError) {
  Waveform a(0.0, 1.0, {1.0, 1.0, 1.0, 1.0});
  Waveform b(0.0, 1.0, {1.0, 2.0, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(max_error(a, b), 1.0);
  EXPECT_NEAR(rms_error(a, b), 0.5, 1e-12);
  EXPECT_NEAR(rms(a), 1.0, 1e-12);
}

TEST(Metrics, ThresholdCrossingInterpolation) {
  // Ramp crossing 0.5 exactly at t = 0.5.
  Waveform w(0.0, 1.0, {0.0, 1.0});
  const auto c = threshold_crossings(w, 0.5);
  ASSERT_EQ(c.size(), 1u);
  EXPECT_NEAR(c[0], 0.5, 1e-12);
}

TEST(Metrics, CrossingMergeWindow) {
  // Ringing around the threshold: crossings at ~0.5, 1.5, 2.5.
  Waveform w(0.0, 1.0, {0.0, 1.0, 0.0, 1.0});
  EXPECT_EQ(threshold_crossings(w, 0.5).size(), 3u);
  EXPECT_EQ(threshold_crossings(w, 0.5, 10.0).size(), 1u);
}

TEST(Metrics, TimingErrorMatchesShift) {
  auto f = [](double t) { return t < 1.0 ? 0.0 : (t < 2.0 ? t - 1.0 : 1.0); };
  auto ref = Waveform::sample(f, 0.0, 0.01, 400);
  auto shifted = Waveform::sample([&](double t) { return f(t - 0.07); }, 0.0, 0.01, 400);
  const auto te = timing_error(ref, shifted, 0.5);
  ASSERT_TRUE(te.has_value());
  EXPECT_NEAR(*te, 0.07, 1e-9);
}

TEST(Metrics, TimingErrorNulloptWithoutCrossing) {
  Waveform flat(0.0, 1.0, {0.0, 0.0, 0.0});
  Waveform ramp(0.0, 1.0, {0.0, 1.0, 1.0});
  EXPECT_FALSE(timing_error(flat, ramp, 0.5).has_value());
}

TEST(Metrics, HysteresisCrossingsIgnoreGrazingRing) {
  // Edge to 1.0, ring dipping to 0.45 (grazes a 0.5 threshold), recovery.
  Waveform w(0.0, 1.0, {0.0, 1.0, 0.45, 1.0, 1.0});
  // Plain detection sees three crossings; hysteresis (0.2) sees one.
  EXPECT_EQ(threshold_crossings(w, 0.5).size(), 3u);
  const auto ch = threshold_crossings_hysteresis(w, 0.5, 0.2);
  ASSERT_EQ(ch.size(), 1u);
  EXPECT_NEAR(ch[0], 0.5, 1e-12);
}

TEST(Metrics, HysteresisCrossingsKeepRealTransitions) {
  // Full swings must all be registered, with interpolated times.
  Waveform w(0.0, 1.0, {0.0, 1.0, 0.0, 1.0});
  const auto ch = threshold_crossings_hysteresis(w, 0.5, 0.2);
  ASSERT_EQ(ch.size(), 3u);
  EXPECT_NEAR(ch[0], 0.5, 1e-12);
  EXPECT_NEAR(ch[1], 1.5, 1e-12);
  EXPECT_NEAR(ch[2], 2.5, 1e-12);
}

TEST(Metrics, TimingErrorWithHysteresisRobustToGrazing) {
  // The reference ring crosses the threshold; the model's ring stops just
  // above it, so the plain metric sees unmatched phantom crossings.
  Waveform ref(0.0, 1.0, {0.0, 1.0, 0.48, 1.0, 1.0});
  Waveform mod(0.0, 1.0, {0.0, 1.0, 0.52, 1.0, 1.0});
  // Plain metric reports a huge phantom error; hysteresis fixes it.
  const auto te_plain = timing_error(ref, mod, 0.5);
  const auto te_hyst = timing_error(ref, mod, 0.5, 0.0, 0.2);
  ASSERT_TRUE(te_plain.has_value());
  ASSERT_TRUE(te_hyst.has_value());
  EXPECT_GT(*te_plain, 0.4);
  EXPECT_NEAR(*te_hyst, 0.0, 1e-12);
}

TEST(Csv, WritesHeaderAndRows) {
  const std::string path = test_temp_path("csv_test.csv");
  Waveform a(0.0, 1.0, {1.0, 2.0});
  Waveform b(0.0, 1.0, {3.0, 4.0});
  write_csv(path, {"a", "b"}, {a, b});

  std::ifstream is(path);
  ASSERT_TRUE(is.good());
  std::string line;
  std::getline(is, line);
  EXPECT_EQ(line, "time,a,b");
  std::getline(is, line);
  EXPECT_EQ(line, "0,1,3");
  std::remove(path.c_str());
}

TEST(Csv, Validation) {
  Waveform a(0.0, 1.0, {1.0});
  EXPECT_THROW(write_csv("/tmp/x.csv", {"a", "b"}, {a}), std::invalid_argument);
  EXPECT_THROW(write_csv("/tmp/x.csv", {}, {}), std::invalid_argument);
}

TEST(Csv, SpectrumWriterHeaderAndRows) {
  const std::string path = test_temp_path("spec_csv_test.csv");
  write_spectrum_csv(path, {"ref_dbuv", "model_dbuv"}, {1e6, 2e6},
                     {{60.0, 55.0}, {59.5, 54.0}});

  std::ifstream is(path);
  ASSERT_TRUE(is.good());
  std::string line;
  std::getline(is, line);
  EXPECT_EQ(line, "freq_hz,ref_dbuv,model_dbuv");
  std::getline(is, line);
  EXPECT_EQ(line, "1e+06,60,59.5");
  std::getline(is, line);
  EXPECT_EQ(line, "2e+06,55,54");
  std::remove(path.c_str());
}

TEST(Csv, SpectrumWriterValidation) {
  EXPECT_THROW(write_spectrum_csv("/tmp/x.csv", {"a"}, {1.0, 2.0}, {{1.0}}),
               std::invalid_argument);
  EXPECT_THROW(write_spectrum_csv("/tmp/x.csv", {"a", "b"}, {1.0}, {{1.0}}),
               std::invalid_argument);
  EXPECT_THROW(write_spectrum_csv("/tmp/x.csv", {}, {}, {}), std::invalid_argument);
}

TEST(Csv, UnwritablePathThrows) {
  // The "parent directory" is an existing regular file: neither writer can
  // create it or open the leaf, and both must say so instead of silently
  // producing nothing.
  const std::filesystem::path blocker = test_temp_path("csv_unwritable");
  { std::ofstream(blocker) << "x"; }
  const std::string path = (blocker / "nested" / "out.csv").string();

  Waveform a(0.0, 1.0, {1.0, 2.0});
  EXPECT_THROW(write_csv(path, {"a"}, {a}), std::runtime_error);
  EXPECT_THROW(write_spectrum_csv(path, {"s"}, {1e6}, {{60.0}}), std::runtime_error);
  std::filesystem::remove(blocker);

  // A write that starts but cannot complete (ENOSPC via /dev/full) must
  // throw from the stream-state check rather than truncate.
  if (std::filesystem::exists("/dev/full")) {
    Waveform big(0.0, 1.0, std::vector<double>(4096, 1.5));
    EXPECT_THROW(write_csv("/dev/full", {"v"}, {big}), std::runtime_error);
  }
}

// ---- degenerate metric inputs: empty, constant, and single-sample records

TEST(MetricsDegenerate, EmptyWaveforms) {
  Waveform empty;
  Waveform ramp(0.0, 1.0, {0.0, 1.0, 2.0});
  EXPECT_DOUBLE_EQ(rms(empty), 0.0);
  EXPECT_DOUBLE_EQ(rms_error(empty, ramp), 0.0);
  EXPECT_DOUBLE_EQ(max_error(empty, ramp), 0.0);
  EXPECT_TRUE(threshold_crossings(empty, 0.5).empty());
  EXPECT_TRUE(threshold_crossings_hysteresis(empty, 0.5, 0.1).empty());
  EXPECT_EQ(timing_error(empty, ramp, 0.5), std::nullopt);
  EXPECT_EQ(timing_error(ramp, empty, 0.5), std::nullopt);
  EXPECT_EQ(edge_timing_error(empty, ramp, 0.5, 0.1), std::nullopt);
}

TEST(MetricsDegenerate, ConstantWaveforms) {
  Waveform flat(0.0, 1.0, std::vector<double>(8, 1.0));
  Waveform ramp(0.0, 1.0, {0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0});

  // A constant record never crosses an off-level threshold.
  EXPECT_TRUE(threshold_crossings(flat, 0.5).empty());
  EXPECT_TRUE(threshold_crossings_hysteresis(flat, 0.5, 0.1).empty());
  EXPECT_EQ(timing_error(flat, ramp, 0.5), std::nullopt);
  EXPECT_EQ(timing_error(ramp, flat, 0.5), std::nullopt);
  EXPECT_EQ(edge_timing_error(flat, ramp, 0.5, 0.1), std::nullopt);

  // Sitting exactly on the threshold: each touch registers at the sample
  // time (documented touching-equality behavior), and hysteresis
  // deglitching reports none.
  const auto touching = threshold_crossings(flat, 1.0);
  ASSERT_EQ(touching.size(), 7u);
  EXPECT_DOUBLE_EQ(touching.front(), 0.0);
  EXPECT_TRUE(threshold_crossings_hysteresis(flat, 1.0, 0.1).empty());

  // Identical constants: zero error, no timing information.
  EXPECT_DOUBLE_EQ(rms_error(flat, flat), 0.0);
  EXPECT_DOUBLE_EQ(max_error(flat, flat), 0.0);
  EXPECT_DOUBLE_EQ(rms(flat), 1.0);
}

TEST(MetricsDegenerate, SingleSampleRecords) {
  Waveform one(0.0, 1.0, {2.0});
  Waveform ramp(0.0, 1.0, {0.0, 1.0, 2.0});

  EXPECT_DOUBLE_EQ(rms(one), 2.0);
  // Errors are evaluated on the first record's grid; the other record is
  // interpolated (clamped) at t = 0.
  EXPECT_DOUBLE_EQ(rms_error(one, ramp), 2.0);
  EXPECT_DOUBLE_EQ(max_error(one, ramp), 2.0);

  // One sample has no interval to cross in.
  EXPECT_TRUE(threshold_crossings(one, 1.0).empty());
  EXPECT_TRUE(threshold_crossings_hysteresis(one, 1.0, 0.1).empty());
  EXPECT_EQ(timing_error(one, ramp, 1.0), std::nullopt);
  EXPECT_EQ(timing_error(ramp, one, 1.0), std::nullopt);
  EXPECT_EQ(edge_timing_error(one, ramp, 1.0, 0.1), std::nullopt);
}
