// Streaming transient -> EMI pipeline: the SampleSink protocol and sinks,
// run_transient_streamed vs. the recorded reference (bit-identical),
// chunk-size invariance, the chunk-fed Welch accumulator (bit-identical
// to welch_psd), and the segmented EMI receiver's detector agreement with
// the monolithic scan across segment/overlap corners (< 0.1 dB).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numbers>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "circuit/devices_linear.hpp"
#include "circuit/devices_nonlinear.hpp"
#include "circuit/engine.hpp"
#include "circuit/netlist.hpp"
#include "emc/receiver.hpp"
#include "emc/spectrum.hpp"
#include "emc/streaming.hpp"
#include "signal/csv.hpp"
#include "signal/sample_sink.hpp"
#include "signal/waveform.hpp"
#include "test_temp_path.hpp"

namespace ckt = emc::ckt;
namespace sig = emc::sig;
namespace spec = emc::spec;

namespace {

/// Nonlinear clamp circuit: the streamed/recorded comparison must cover
/// the damped-Newton path, not just the cached-LU one.
int build_clamp(ckt::Circuit& c) {
  const int n1 = c.node();
  c.add<ckt::VSource>(n1, 0, [](double t) { return t < 1e-9 ? 0.0 : 3.3; });
  const int out = c.node();
  c.add<ckt::Resistor>(n1, out, 100.0);
  c.add<ckt::Diode>(out, 0);
  c.add<ckt::Capacitor>(out, 0, 1e-12);
  return out;
}

ckt::TransientOptions clamp_options() {
  ckt::TransientOptions opt;
  opt.dt = 25e-12;
  opt.t_stop = 10e-9;
  return opt;
}

/// Feed a single-channel sample vector through a sink as a chunked stream.
void stream_samples(sig::SampleSink& sink, const std::vector<double>& y, double t0,
                    double dt, std::size_t chunk_frames) {
  sig::StreamInfo info;
  info.t0 = t0;
  info.dt = dt;
  info.channels = 1;
  info.total_frames = y.size();
  sink.begin(info);
  for (std::size_t f = 0; f < y.size(); f += chunk_frames) {
    sig::SampleChunk c;
    c.first_frame = f;
    c.frames = std::min(chunk_frames, y.size() - f);
    c.channels = 1;
    c.data = y.data() + f;
    sink.consume(c);
  }
  sink.finish();
}

// ------------------------------------------------- engine streaming path

TEST(StreamedTransient, RecordingSinkBitIdenticalToRunTransient) {
  ckt::Circuit c_ref, c_str;
  const int out_ref = build_clamp(c_ref);
  build_clamp(c_str);
  const auto opt = clamp_options();

  const auto ref = ckt::run_transient(c_ref, opt);

  const int n = c_str.finalize();
  std::vector<int> probes(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) probes[static_cast<std::size_t>(i)] = i + 1;
  sig::RecordingSink rec;
  ckt::NewtonWorkspace ws;
  const auto stats = ckt::run_transient_streamed(c_str, opt, ws, probes, rec, 100);

  EXPECT_EQ(stats.steps, ref.stats.steps);
  EXPECT_EQ(stats.total_newton_iters, ref.stats.total_newton_iters);
  EXPECT_EQ(stats.weak_steps, ref.stats.weak_steps);

  ASSERT_EQ(rec.frames(), ref.steps());
  ASSERT_EQ(rec.channels(), static_cast<std::size_t>(n));
  for (std::size_t k = 0; k < ref.steps(); ++k)
    for (int id = 1; id <= n; ++id)
      EXPECT_EQ(rec.value(k, static_cast<std::size_t>(id) - 1), ref.value(k, id))
          << "step " << k << " id " << id;

  // Waveform view agrees too (t0/dt metadata carried through the sink).
  const auto w_ref = ref.waveform(out_ref);
  const auto w_str = rec.waveform(static_cast<std::size_t>(out_ref) - 1);
  ASSERT_EQ(w_ref.size(), w_str.size());
  EXPECT_EQ(w_ref.t0(), w_str.t0());
  EXPECT_EQ(w_ref.dt(), w_str.dt());
  for (std::size_t k = 0; k < w_ref.size(); ++k) EXPECT_EQ(w_ref[k], w_str[k]);
}

TEST(StreamedTransient, ChunkSizeInvariance) {
  const auto opt = clamp_options();

  auto run_with_chunk = [&](std::size_t chunk) {
    ckt::Circuit c;
    const int out = build_clamp(c);
    sig::RecordingSink rec;
    ckt::NewtonWorkspace ws;
    const int probes[] = {out};
    ckt::run_transient_streamed(c, opt, ws, probes, rec, chunk);
    return std::move(rec).take_data();
  };

  const auto a = run_with_chunk(1);
  const auto b = run_with_chunk(7);
  const auto c = run_with_chunk(1 << 20);  // single chunk holds everything
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.size(), c.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k], b[k]);
    EXPECT_EQ(a[k], c[k]);
  }
}

TEST(StreamedTransient, GroundProbeStreamsZeros) {
  ckt::Circuit c;
  const int out = build_clamp(c);
  sig::RecordingSink rec;
  ckt::NewtonWorkspace ws;
  const int probes[] = {0, out};
  ckt::run_transient_streamed(c, clamp_options(), ws, probes, rec, 64);
  ASSERT_GT(rec.frames(), 0u);
  for (std::size_t k = 0; k < rec.frames(); ++k) EXPECT_EQ(rec.value(k, 0), 0.0);
}

TEST(StreamedTransient, ValidatesProbesAndChunk) {
  ckt::Circuit c;
  build_clamp(c);
  sig::NullSink sink;
  ckt::NewtonWorkspace ws;
  const auto opt = clamp_options();

  const int bad_hi[] = {1000};
  EXPECT_THROW(ckt::run_transient_streamed(c, opt, ws, bad_hi, sink),
               std::invalid_argument);
  const int bad_lo[] = {-1};
  EXPECT_THROW(ckt::run_transient_streamed(c, opt, ws, bad_lo, sink),
               std::invalid_argument);
  const int good[] = {1};
  EXPECT_THROW(ckt::run_transient_streamed(c, opt, ws, good, sink, 0),
               std::invalid_argument);
}

TEST(StreamedTransient, SinkExceptionPropagates) {
  class ThrowingSink final : public sig::SampleSink {
   public:
    void consume(const sig::SampleChunk& chunk) override {
      if (chunk.first_frame >= 32) throw std::runtime_error("sink full");
    }
    void finish() override { finished = true; }
    bool finished = false;
  };
  ckt::Circuit c;
  const int out = build_clamp(c);
  ThrowingSink sink;
  ckt::NewtonWorkspace ws;
  const int probes[] = {out};
  EXPECT_THROW(ckt::run_transient_streamed(c, clamp_options(), ws, probes, sink, 16),
               std::runtime_error);
  EXPECT_FALSE(sink.finished);  // aborted streams never report completion
}

TEST(StreamedTransient, WorkspaceSurvivesSinkFailureMidChunk) {
  class MidChunkThrowingSink final : public sig::SampleSink {
   public:
    void consume(const sig::SampleChunk& chunk) override {
      if (chunk.first_frame >= 48) throw std::runtime_error("disk full");
    }
  };

  // First, the clean reference from a pristine workspace.
  const auto opt = clamp_options();
  std::vector<double> ref;
  {
    ckt::Circuit c;
    const int out = build_clamp(c);
    sig::RecordingSink rec;
    ckt::NewtonWorkspace fresh;
    const int probes[] = {out};
    ckt::run_transient_streamed(c, opt, fresh, probes, rec, 16);
    ref = std::move(rec).take_data();
  }

  // Now fail a run mid-stream, then reuse the SAME workspace: an aborted
  // delivery must not leave scratch state (LU cache, residual history,
  // staged chunk) that perturbs the next solve through that workspace.
  ckt::NewtonWorkspace ws;
  {
    ckt::Circuit c;
    const int out = build_clamp(c);
    MidChunkThrowingSink sink;
    const int probes[] = {out};
    EXPECT_THROW(ckt::run_transient_streamed(c, opt, ws, probes, sink, 16),
                 std::runtime_error);
  }
  {
    ckt::Circuit c;
    const int out = build_clamp(c);
    sig::RecordingSink rec;
    const int probes[] = {out};
    ckt::run_transient_streamed(c, opt, ws, probes, rec, 16);
    const auto got = std::move(rec).take_data();
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t k = 0; k < got.size(); ++k)
      EXPECT_EQ(got[k], ref[k]) << "sample " << k;
  }
}

// -------------------------------------------------------- signal sinks

TEST(RecordingSink, WindowMatchesSliceOfFullRecord) {
  std::vector<double> y(257);
  for (std::size_t k = 0; k < y.size(); ++k) y[k] = std::sin(0.01 * static_cast<double>(k));

  sig::RecordingSink full;
  stream_samples(full, y, 1.0, 0.5, 31);
  ASSERT_EQ(full.frames(), y.size());

  sig::RecordingSink window(40, 100);
  stream_samples(window, y, 1.0, 0.5, 31);
  ASSERT_EQ(window.frames(), 100u);
  const auto w = window.waveform(0);
  EXPECT_DOUBLE_EQ(w.t0(), 1.0 + 0.5 * 40.0);
  for (std::size_t k = 0; k < 100; ++k) EXPECT_EQ(w[k], y[40 + k]);

  // Window past the end of the stream: captures what exists.
  sig::RecordingSink tail(250, 100);
  stream_samples(tail, y, 0.0, 1.0, 31);
  ASSERT_EQ(tail.frames(), 7u);
  for (std::size_t k = 0; k < 7; ++k) EXPECT_EQ(tail.value(k, 0), y[250 + k]);
}

TEST(DecimatingSink, KeepsEveryMthFrameAndRescalesDt) {
  std::vector<double> y(1000);
  for (std::size_t k = 0; k < y.size(); ++k) y[k] = static_cast<double>(k);

  sig::RecordingSink rec;
  sig::DecimatingSink dec(7, rec);
  stream_samples(dec, y, 2.0, 0.25, 13);  // chunk size coprime with factor

  ASSERT_EQ(rec.frames(), (y.size() + 6) / 7);
  const auto w = rec.waveform(0);
  EXPECT_DOUBLE_EQ(w.dt(), 0.25 * 7.0);
  EXPECT_DOUBLE_EQ(w.t0(), 2.0);
  for (std::size_t k = 0; k < rec.frames(); ++k)
    EXPECT_EQ(w[k], y[7 * k]) << "decimated frame " << k;

  EXPECT_THROW(sig::DecimatingSink(0, rec), std::invalid_argument);
}

TEST(ChannelTapSink, ExtractsOneChannelInOrder) {
  // Two-channel stream; the tap must deliver channel 1 contiguously.
  const std::size_t frames = 100;
  std::vector<double> data(frames * 2);
  for (std::size_t f = 0; f < frames; ++f) {
    data[2 * f] = static_cast<double>(f);
    data[2 * f + 1] = 1000.0 + static_cast<double>(f);
  }
  std::vector<double> got;
  sig::ChannelTapSink tap(1, [&](std::span<const double> x) {
    got.insert(got.end(), x.begin(), x.end());
  });
  sig::StreamInfo info{0.0, 1.0, 2, frames};
  tap.begin(info);
  for (std::size_t f = 0; f < frames; f += 9) {
    sig::SampleChunk c;
    c.first_frame = f;
    c.frames = std::min<std::size_t>(9, frames - f);
    c.channels = 2;
    c.data = data.data() + 2 * f;
    tap.consume(c);
  }
  ASSERT_EQ(got.size(), frames);
  for (std::size_t f = 0; f < frames; ++f) EXPECT_EQ(got[f], 1000.0 + static_cast<double>(f));

  sig::ChannelTapSink bad(5, [](std::span<const double>) {});
  EXPECT_THROW(bad.begin(info), std::invalid_argument);
}

// ------------------------------------------------------ CSV stream sink

TEST(CsvStreamSink, WritesHeaderAndAllRows) {
  const auto path = test_temp_path("stream_sink.csv");
  std::vector<double> y(300);
  for (std::size_t k = 0; k < y.size(); ++k) y[k] = 0.125 * static_cast<double>(k);

  sig::CsvStreamSink sink(path, {"v_out"});
  stream_samples(sink, y, 0.0, 1e-9, 64);
  EXPECT_EQ(sink.rows_written(), y.size());

  std::ifstream is(path);
  ASSERT_TRUE(is.good());
  std::string line;
  ASSERT_TRUE(std::getline(is, line));
  EXPECT_EQ(line, "time,v_out");
  std::size_t rows = 0;
  double last_v = -1.0;
  while (std::getline(is, line)) {
    ++rows;
    const auto comma = line.find(',');
    ASSERT_NE(comma, std::string::npos);
    last_v = std::stod(line.substr(comma + 1));
  }
  EXPECT_EQ(rows, y.size());
  EXPECT_DOUBLE_EQ(last_v, y.back());
  std::filesystem::remove(path);
}

TEST(CsvStreamSink, UnopenablePathThrowsInBegin) {
  // The target "directory" component is an existing regular file, so the
  // sink can neither create it nor open the leaf.
  const std::filesystem::path blocker = test_temp_path("csv_blocker");
  { std::ofstream(blocker) << "x"; }
  sig::CsvStreamSink sink((blocker / "sub" / "out.csv").string(), {"v"});
  sig::StreamInfo info{0.0, 1.0, 1, 10};
  EXPECT_THROW(sink.begin(info), std::runtime_error);
  std::filesystem::remove(blocker);

  EXPECT_THROW(sig::CsvStreamSink("x.csv", {}), std::invalid_argument);
}

TEST(CsvWriters, WriteFailureThrowsInsteadOfTruncating) {
  // /dev/full accepts opens but fails every flush with ENOSPC — exactly
  // the silent-truncation scenario the stream-state checks must catch.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";

  const sig::Waveform w(0.0, 1e-9, std::vector<double>(4096, 1.0));
  EXPECT_THROW(sig::write_csv("/dev/full", {"v"}, {w}), std::runtime_error);

  const std::vector<double> freq(4096, 1e6);
  const std::vector<std::vector<double>> cols{std::vector<double>(4096, 0.0)};
  EXPECT_THROW(sig::write_spectrum_csv("/dev/full", {"s"}, freq, cols),
               std::runtime_error);

  sig::CsvStreamSink sink("/dev/full", {"v"});
  EXPECT_THROW(stream_samples(sink, std::vector<double>(1 << 16, 1.0), 0.0, 1.0, 4096),
               std::runtime_error);
}

// --------------------------------------------------- Welch accumulation

sig::Waveform lcg_noise(std::size_t n, double dt) {
  std::vector<double> y(n);
  std::uint64_t s = 0x2545F4914F6CDD1Dull;
  for (std::size_t k = 0; k < n; ++k) {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    y[k] = static_cast<double>(s >> 11) / 9007199254740992.0 - 0.5;
  }
  return sig::Waveform(0.0, dt, std::move(y));
}

TEST(WelchAccumulator, BitIdenticalToMonolithicWelchPsd) {
  const auto w = lcg_noise(10000, 1e-9);
  for (const double overlap : {0.0, 0.5, 0.75}) {
    for (const auto win : {spec::Window::kHann, spec::Window::kRectangular}) {
      const auto ref = spec::welch_psd(w, 1024, win, overlap);

      spec::WelchAccumulator acc(w.dt(), 1024, win, overlap);
      // Awkward chunk sizes: smaller than, equal to, and larger than the
      // segment, plus a 1-sample drip.
      std::size_t pos = 0;
      const std::size_t sizes[] = {1, 3, 17, 1024, 5000};
      std::size_t si = 0;
      while (pos < w.size()) {
        const std::size_t take = std::min(sizes[si % 5], w.size() - pos);
        acc.push(std::span<const double>(w.samples().data() + pos, take));
        pos += take;
        ++si;
      }

      const auto got = acc.psd();
      EXPECT_EQ(got.df, ref.df);
      ASSERT_EQ(got.size(), ref.size());
      for (std::size_t k = 0; k < ref.size(); ++k)
        EXPECT_EQ(got.value[k], ref.value[k])
            << "bin " << k << " overlap " << overlap;
    }
  }
}

TEST(WelchAccumulator, ThrowsBeforeFirstSegmentAndResets) {
  spec::WelchAccumulator acc(1e-9, 256);
  EXPECT_THROW(acc.psd(), std::logic_error);
  const std::vector<double> x(300, 1.0);
  acc.push(x);
  EXPECT_EQ(acc.segments(), 1u);
  EXPECT_NO_THROW(acc.psd());
  acc.reset();
  EXPECT_EQ(acc.segments(), 0u);
  EXPECT_THROW(acc.psd(), std::logic_error);
  EXPECT_GT(acc.state_bytes(), 0u);
}

// ------------------------------------------- segmented EMI accumulation

/// Exactly coherent broadband test signal: harmonics of f0 = 1/(P*dt)
/// spanning the scan band, smooth deterministic amplitudes and phases.
/// Any whole number of periods is sampled coherently, so segmented and
/// monolithic receivers measure the same line spectrum.
sig::Waveform harmonic_record(std::size_t period, std::size_t periods, double dt) {
  const double f0 = 1.0 / (static_cast<double>(period) * dt);
  std::vector<double> y(period * periods, 0.0);
  for (int h = 10; h <= 380; h += 3) {
    const double a = 1.0 / (1.0 + 0.01 * static_cast<double>(h));
    const double phi = 2.0 * std::numbers::pi * 0.618034 * static_cast<double>(h * h % 89);
    const double om = 2.0 * std::numbers::pi * f0 * static_cast<double>(h) * dt;
    for (std::size_t k = 0; k < y.size(); ++k)
      y[k] += a * std::cos(om * static_cast<double>(k) + phi);
  }
  return sig::Waveform(0.0, dt, std::move(y));
}

TEST(SegmentedEmi, DetectorsWithinTenthDbOfMonolithicAcrossCorners) {
  // P = 2048 @ 10 GS/s: f0 = 4.88 MHz, harmonics 10..380 cover ~49 MHz to
  // ~1.86 GHz — every scan point sees genuine signal, no spectral nulls.
  const std::size_t period = 2048;
  const std::size_t periods = 4;
  const double dt = 100e-12;
  const auto w = harmonic_record(period, periods, dt);

  spec::ReceiverSettings rx;
  rx.name = "segmented-vs-monolithic";
  rx.f_start = 100e6;
  rx.f_stop = 1.6e9;
  rx.n_points = 16;
  rx.rbw = 25e6;
  rx.tau_charge = 0.5e-9;
  rx.tau_discharge = 10e-9;

  const auto mono = spec::emi_scan(w, rx);
  ASSERT_EQ(mono.skipped_points, 0u);

  for (const std::size_t seg : {period, 2 * period}) {
    for (const double overlap : {0.0, 0.5}) {
      spec::SegmentedScanOptions opt;
      opt.segment_len = seg;
      opt.overlap = overlap;
      opt.rx = rx;
      spec::SegmentedEmiAccumulator acc(w.t0(), w.dt(), opt);
      // Push in odd-sized chunks to exercise the carry buffer.
      std::size_t pos = 0;
      while (pos < w.size()) {
        const std::size_t take = std::min<std::size_t>(777, w.size() - pos);
        acc.push(std::span<const double>(w.samples().data() + pos, take));
        pos += take;
      }
      ASSERT_GE(acc.segments(), 2u) << "seg " << seg << " overlap " << overlap;
      const auto got = acc.result();
      ASSERT_EQ(got.size(), mono.size());
      EXPECT_EQ(got.skipped_points, 0u);
      const double delta = spec::max_detector_delta_db(mono, got);
      EXPECT_LT(delta, 0.1) << "seg " << seg << " overlap " << overlap;
    }
  }
}

TEST(SegmentedEmi, ResultBeforeFirstSegmentThrows) {
  spec::SegmentedScanOptions opt;
  opt.segment_len = 1024;
  opt.rx.f_start = 1e8;
  opt.rx.f_stop = 1e9;
  opt.rx.rbw = 25e6;
  opt.rx.tau_charge = 1e-9;
  opt.rx.tau_discharge = 10e-9;
  spec::SegmentedEmiAccumulator acc(0.0, 100e-12, opt);
  EXPECT_THROW(acc.result(), std::logic_error);
  EXPECT_THROW(spec::SegmentedEmiAccumulator(0.0, 0.0, opt), std::invalid_argument);
}

TEST(StreamingEmiSink, MatchesDirectAccumulator) {
  const std::size_t period = 1024;
  const double dt = 100e-12;
  const auto w = harmonic_record(period, 3, dt);

  spec::SegmentedScanOptions opt;
  opt.segment_len = period;
  opt.rx.name = "sink";
  opt.rx.f_start = 2e8;
  opt.rx.f_stop = 1.5e9;
  opt.rx.n_points = 8;
  opt.rx.rbw = 40e6;
  opt.rx.tau_charge = 0.5e-9;
  opt.rx.tau_discharge = 10e-9;

  spec::SegmentedEmiAccumulator direct(w.t0(), dt, opt);
  direct.push(std::span<const double>(w.samples()));
  const auto want = direct.result();

  // Same samples as channel 1 of a two-channel stream (channel 0 is junk
  // the sink must ignore).
  spec::StreamingEmiSink sink(1, opt);
  std::vector<double> frames(2 * w.size());
  for (std::size_t k = 0; k < w.size(); ++k) {
    frames[2 * k] = -7.0;
    frames[2 * k + 1] = w[k];
  }
  sig::StreamInfo info{w.t0(), dt, 2, w.size()};
  sink.begin(info);
  for (std::size_t f = 0; f < w.size(); f += 500) {
    sig::SampleChunk c;
    c.first_frame = f;
    c.frames = std::min<std::size_t>(500, w.size() - f);
    c.channels = 2;
    c.data = frames.data() + 2 * f;
    sink.consume(c);
  }
  sink.finish();

  const auto got = sink.scan();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t k = 0; k < want.size(); ++k) {
    EXPECT_EQ(got.peak_dbuv[k], want.peak_dbuv[k]);
    EXPECT_EQ(got.quasi_peak_dbuv[k], want.quasi_peak_dbuv[k]);
    EXPECT_EQ(got.average_dbuv[k], want.average_dbuv[k]);
  }

  spec::StreamingEmiSink bad(7, opt);
  EXPECT_THROW(bad.begin(info), std::invalid_argument);
  spec::StreamingEmiSink unused(0, opt);
  EXPECT_THROW(unused.scan(), std::logic_error);
}

}  // namespace
