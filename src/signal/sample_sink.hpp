// Streaming sample sinks: the consumer side of the chunked transient
// pipeline. A producer (ckt::run_transient_streamed, a test) pushes
// fixed-size chunks of frame-major samples through a SampleSink instead
// of materializing the whole record. RecordingSink keeps only the window
// a consumer asks for (the sweep's steady window, which is then scanned
// in one piece), CsvStreamSink writes rows as they arrive, and NullSink
// discards them, so the producer itself holds O(chunk) memory regardless
// of record length.
//
// Protocol: begin(info) once, consume(chunk) zero or more times with
// strictly increasing, gap-free frame ranges, finish() once after the
// last chunk. Sinks may throw from any callback; the producer lets the
// exception propagate (a half-streamed record is abandoned, never
// silently truncated).
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "signal/waveform.hpp"

namespace emc::sig {

/// Stream geometry, announced once before the first chunk.
struct StreamInfo {
  double t0 = 0.0;              ///< time of frame 0
  double dt = 1.0;              ///< frame spacing [s]
  std::size_t channels = 0;     ///< samples per frame
  std::size_t total_frames = 0; ///< expected frame count; 0 = unknown/open-ended
};

/// One chunk of frame-major samples: frame f, channel c lives at
/// data[f * channels + c]. The pointer is only valid during consume();
/// sinks that need the samples later must copy them.
struct SampleChunk {
  std::size_t first_frame = 0;  ///< global index of frame 0 of this chunk
  std::size_t frames = 0;
  std::size_t channels = 0;
  const double* data = nullptr;
  double value(std::size_t f, std::size_t c) const { return data[f * channels + c]; }
};

/// Abstract chunk consumer. Overriders of begin() must call the base
/// (it captures the StreamInfo that info() exposes to the subclass).
class SampleSink {
 public:
  virtual ~SampleSink() = default;

  /// Announce the stream geometry; called exactly once, before any chunk.
  virtual void begin(const StreamInfo& info) { info_ = info; }

  /// Deliver the next chunk (frames contiguous with the previous one).
  virtual void consume(const SampleChunk& chunk) = 0;

  /// The stream completed normally. Not called when the producer aborts
  /// on an exception, so buffered sinks flush here, not in destructors.
  virtual void finish() {}

  const StreamInfo& info() const { return info_; }

 private:
  StreamInfo info_{};
};

/// Discards every sample; measures the pure production cost of a stream
/// (the bench baseline for "what does materializing the record add").
class NullSink final : public SampleSink {
 public:
  void consume(const SampleChunk&) override {}
};

/// Records a window [first_frame, first_frame + max_frames) of the stream
/// into one contiguous frame-major buffer — the bridge from the streamed
/// path back to whole-record consumers. Recording everything (the
/// defaults) reproduces the legacy full-record semantics.
class RecordingSink final : public SampleSink {
 public:
  explicit RecordingSink(std::size_t first_frame = 0,
                         std::size_t max_frames = static_cast<std::size_t>(-1))
      : first_(first_frame), max_(max_frames) {}

  void begin(const StreamInfo& info) override;
  void consume(const SampleChunk& chunk) override;

  /// Frames actually captured (the stream may end before the window does).
  std::size_t frames() const { return channels() ? data_.size() / channels() : 0; }
  std::size_t channels() const { return info().channels; }
  double value(std::size_t frame, std::size_t channel) const {
    return data_[frame * channels() + channel];
  }

  /// Waveform of one recorded channel; t0 reflects the window start.
  Waveform waveform(std::size_t channel) const;

  /// The flat frame-major buffer (frames() x channels()).
  const std::vector<double>& data() const { return data_; }
  std::vector<double> take_data() && { return std::move(data_); }

 private:
  std::size_t first_;
  std::size_t max_;
  std::vector<double> data_;
};

}  // namespace emc::sig
