// Chunked transient -> record path: the SampleSink protocol,
// run_transient_streamed vs. the recorded reference (bit-identical),
// chunk-size invariance, sink-failure handling, the RecordingSink window
// and the CSV stream sink.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "circuit/devices_linear.hpp"
#include "circuit/devices_nonlinear.hpp"
#include "circuit/engine.hpp"
#include "circuit/netlist.hpp"
#include "signal/csv.hpp"
#include "signal/sample_sink.hpp"
#include "signal/waveform.hpp"
#include "test_temp_path.hpp"

namespace ckt = emc::ckt;
namespace sig = emc::sig;

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

}  // namespace
