#include "signal/sample_sink.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace emc::sig {

// ------------------------------------------------------------ RecordingSink

void RecordingSink::begin(const StreamInfo& info) {
  SampleSink::begin(info);
  data_.clear();
  if (info.total_frames > 0 && info.channels > 0) {
    const std::size_t last = std::min(info.total_frames,
                                      max_ == static_cast<std::size_t>(-1)
                                          ? info.total_frames
                                          : first_ + max_);
    if (last > first_) data_.reserve((last - first_) * info.channels);
  }
}

void RecordingSink::consume(const SampleChunk& chunk) {
  // Intersect [chunk.first_frame, +frames) with the window [first_, first_+max_).
  const std::size_t win_end =
      max_ == static_cast<std::size_t>(-1) ? static_cast<std::size_t>(-1) : first_ + max_;
  const std::size_t lo = std::max(chunk.first_frame, first_);
  const std::size_t hi = std::min(chunk.first_frame + chunk.frames, win_end);
  if (lo >= hi || chunk.channels == 0) return;
  const double* src = chunk.data + (lo - chunk.first_frame) * chunk.channels;
  data_.insert(data_.end(), src, src + (hi - lo) * chunk.channels);
  static const obs::Gauge g_bytes("sig.record.bytes_peak");
  g_bytes.set_max(data_.capacity() * sizeof(double));
}

Waveform RecordingSink::waveform(std::size_t channel) const {
  const std::size_t nch = channels();
  if (channel >= nch) throw std::out_of_range("RecordingSink::waveform: bad channel");
  const std::size_t n = frames();
  std::vector<double> y(n);
  for (std::size_t f = 0; f < n; ++f) y[f] = data_[f * nch + channel];
  const double t0 = info().t0 + info().dt * static_cast<double>(first_);
  return Waveform(t0, info().dt, std::move(y));
}

}  // namespace emc::sig
