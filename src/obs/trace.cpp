#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

namespace emc::obs {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::atomic<Tracer*> g_tracer{nullptr};
std::atomic<std::uint64_t> g_tracer_generation{1};

}  // namespace

/// Fixed-capacity event ring owned by one recording thread. Only that
/// thread pushes; exporters read under the tracer mutex after quiescence.
/// The storage is reserved, not filled: a page is touched only when an
/// event is first written to it, so an idle ring costs no memory traffic.
struct Tracer::ThreadRing {
  ThreadRing(std::uint32_t tid, std::size_t capacity, std::int64_t epoch_ns)
      : tid_(tid), epoch_ns_(epoch_ns), capacity_(capacity) {
    buf_.reserve(capacity);
  }

  void push(const TraceEvent& e) {
    if (buf_.size() < capacity_) {
      buf_.push_back(e);
    } else {
      buf_[head_] = e;  // overwrite the oldest retained event
      head_ = (head_ + 1) % capacity_;
      ++dropped_;
    }
  }

  std::uint32_t tid_;
  std::int64_t epoch_ns_;    ///< the owning tracer's epoch
  std::uint32_t depth_ = 0;  ///< open spans on this thread
  std::size_t capacity_;
  std::vector<TraceEvent> buf_;  ///< grows to capacity_, then wraps
  std::size_t head_ = 0;  ///< oldest retained event
  std::uint64_t dropped_ = 0;
};

namespace {

/// Per-thread cache of (tracer, ring): a span only takes the tracer mutex
/// the first time its thread records into a given tracer. The generation
/// guards against a destroyed tracer's address being reused.
struct TlsRing {
  const Tracer* tracer = nullptr;
  std::uint64_t gen = 0;
  Tracer::ThreadRing* ring = nullptr;
};
thread_local TlsRing tls_ring;

}  // namespace

Tracer::Tracer(std::size_t ring_capacity)
    : capacity_(std::max<std::size_t>(1, ring_capacity)),
      epoch_ns_(now_ns()),
      generation_(g_tracer_generation.fetch_add(1, std::memory_order_relaxed)) {}

Tracer::~Tracer() {
  Tracer* self = this;
  g_tracer.compare_exchange_strong(self, nullptr, std::memory_order_acq_rel);
}

void Tracer::install() {
  Tracer* expected = nullptr;
  if (!g_tracer.compare_exchange_strong(expected, this, std::memory_order_acq_rel)) {
    if (expected == this) return;
    throw std::logic_error("Tracer::install: another tracer is already installed");
  }
}

void Tracer::uninstall() {
  Tracer* self = this;
  g_tracer.compare_exchange_strong(self, nullptr, std::memory_order_acq_rel);
}

bool Tracer::installed() const {
  return g_tracer.load(std::memory_order_relaxed) == this;
}

Tracer::ThreadRing* Tracer::ring_for_current_thread() {
  if (tls_ring.tracer == this && tls_ring.gen == generation_) return tls_ring.ring;
  std::lock_guard<std::mutex> lk(mu_);
  rings_.push_back(std::make_unique<ThreadRing>(
      static_cast<std::uint32_t>(rings_.size()), capacity_, epoch_ns_));
  tls_ring = {this, generation_, rings_.back().get()};
  return tls_ring.ring;
}

std::size_t Tracer::threads() const {
  std::lock_guard<std::mutex> lk(mu_);
  return rings_.size();
}

std::uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::uint64_t d = 0;
  for (const auto& r : rings_) d += r->dropped_;
  return d;
}

std::vector<TraceEvent> Tracer::events() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<TraceEvent> out;
  for (const auto& r : rings_) {
    for (std::size_t i = 0; i < r->buf_.size(); ++i)
      out.push_back(r->buf_[(r->head_ + i) % r->buf_.size()]);
  }
  // Events are pushed at span *end*, so rings are ordered by end time;
  // sort into (tid, start, longest-first) so a parent precedes the
  // children it contains — the order nesting validators expect.
  std::stable_sort(out.begin(), out.end(), [](const TraceEvent& a, const TraceEvent& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
    return a.dur_ns > b.dur_ns;
  });
  return out;
}

Json Tracer::chrome_trace_json() const {
  Json doc = Json::object();
  Json list = Json::array();
  for (const TraceEvent& e : events()) {
    Json ev = Json::object();
    ev.set("name", Json::string(e.name));
    ev.set("cat", Json::string("emc"));
    ev.set("ph", Json::string("X"));
    ev.set("ts", Json::number(static_cast<double>(e.ts_ns) / 1e3));
    ev.set("dur", Json::number(static_cast<double>(e.dur_ns) / 1e3));
    ev.set("pid", Json::integer(1));
    ev.set("tid", Json::integer(static_cast<long>(e.tid)));
    Json args = Json::object();
    args.set("depth", Json::integer(static_cast<long>(e.depth)));
    ev.set("args", std::move(args));
    list.push(std::move(ev));
  }
  doc.set("traceEvents", std::move(list));
  doc.set("displayTimeUnit", Json::string("ns"));
  Json other = Json::object();
  other.set("dropped_events", Json::integer(static_cast<long>(dropped())));
  doc.set("otherData", std::move(other));
  return doc;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  return chrome_trace_json().write_file(path);
}

Span::Span(const char* name) : name_(name), ring_(nullptr) {
  Tracer* t = g_tracer.load(std::memory_order_relaxed);
  if (!t) return;
  ring_ = t->ring_for_current_thread();
  ++ring_->depth_;
  t0_ns_ = now_ns();
}

Span::~Span() {
  if (!ring_) return;
  --ring_->depth_;
  TraceEvent e;
  e.name = name_;
  e.tid = ring_->tid_;
  e.depth = ring_->depth_;
  e.ts_ns = t0_ns_ - ring_->epoch_ns_;
  e.dur_ns = now_ns() - t0_ns_;
  ring_->push(e);
}

}  // namespace emc::obs
