#include "circuit/engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>

#include "circuit/newton.hpp"
#include "linalg/decomp.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "robust/fault.hpp"

namespace emc::ckt {

void NewtonWorkspace::resize(std::size_t n) {
  g = linalg::Matrix(n, n);
  rhs.assign(n, 0.0);
  x_new.assign(n, 0.0);
  // A size change is a topology change for good: drop the sparse systems
  // entirely (patterns, symbolic analyses, value storage).
  sp_tr = SparseSystem{};
  sp_dc = SparseSystem{};
  ports = PortSystem{};
  invalidate();
}

void NewtonWorkspace::invalidate() {
  for (SparseSystem* s : {&sp_tr, &sp_dc}) {
    s->pattern_ready = false;
    s->use_sparse = -1;
  }
  ports.ports.clear();
  ports.ready = false;
  ports.bypass = false;
  ports.used = false;
  ports.rate = PortSystem::Rate::kUnknown;
}

TransientResult::TransientResult(double t0, double dt, std::size_t n_unknowns)
    : t0_(t0), dt_(dt), n_(n_unknowns) {}

sig::Waveform TransientResult::waveform(int id) const {
  std::vector<double> y(frames_);
  if (id != 0) {
    const auto idx = static_cast<std::size_t>(id) - 1;
    if (idx >= n_) throw std::out_of_range("TransientResult::waveform: bad unknown id");
    for (std::size_t k = 0; k < frames_; ++k) y[k] = data_[k * n_ + idx];
  }
  return sig::Waveform(t0_, dt_, std::move(y));
}

double TransientResult::value(std::size_t step, int id) const {
  if (id == 0) return 0.0;
  if (step >= frames_) throw std::out_of_range("TransientResult::value: bad step");
  const auto idx = static_cast<std::size_t>(id) - 1;
  if (idx >= n_) throw std::out_of_range("TransientResult::value: bad unknown id");
  return data_[step * n_ + idx];
}

void dc_operating_point(Circuit& ckt, std::vector<double>& x, const TransientOptions& opt) {
  NewtonWorkspace ws(x.size());
  detail::dc_operating_point_impl(ckt, ws, detail::circuit_is_linear(ckt), x, opt);
}

TransientResult run_transient(Circuit& ckt, const TransientOptions& opt) {
  NewtonWorkspace ws;
  return run_transient(ckt, opt, ws);
}

TransientResult run_transient(Circuit& ckt, const TransientOptions& opt,
                              NewtonWorkspace& ws) {
  // Thin recording-sink wrapper over the streamed path: probe every
  // unknown in id order, so the frame-major recording IS the step-major
  // record layout, moved into the result without reshaping.
  const int n_unknowns = ckt.finalize();
  std::vector<int> probes(static_cast<std::size_t>(n_unknowns));
  for (int i = 0; i < n_unknowns; ++i) probes[static_cast<std::size_t>(i)] = i + 1;

  sig::RecordingSink rec;
  TransientResult result(opt.t_start, opt.dt, static_cast<std::size_t>(n_unknowns));
  result.stats = run_transient_streamed(ckt, opt, ws, probes, rec);
  result.frames_ = rec.frames();
  result.data_ = std::move(rec).take_data();
  return result;
}

SolveStats run_transient_streamed(Circuit& ckt, const TransientOptions& opt,
                                  NewtonWorkspace& ws, std::span<const int> probes,
                                  sig::SampleSink& sink, std::size_t chunk_frames) {
  static const obs::Counter c_runs("ckt.transient.runs");
  static const obs::Counter c_steps("ckt.transient.steps");
  static const obs::Counter c_iters("ckt.newton.iters");
  static const obs::Counter c_weak("ckt.newton.weak_steps");
  static const obs::Counter c_sparse_runs("ckt.transient.sparse_runs");
  static const obs::Counter c_dense_runs("ckt.transient.dense_runs");
  static const obs::Counter c_reduced_runs("ckt.transient.port_reduced_runs");
  static const obs::Histogram h_step_iters("ckt.newton.iters_per_step");
  obs::Span span("transient");

  // Reject bad options before any stamping: a NaN time would otherwise
  // pass the comparisons below and set the step count through llround,
  // and max_newton < 1 would accept every step unsolved at x_prev.
  if (!std::isfinite(opt.t_start) || !std::isfinite(opt.t_stop) || !std::isfinite(opt.dt))
    throw std::invalid_argument("run_transient: t_start, t_stop and dt must be finite");
  if (opt.t_stop <= opt.t_start)
    throw std::invalid_argument("run_transient: t_stop must exceed t_start");
  if (opt.dt <= 0.0) throw std::invalid_argument("run_transient: dt must be positive");
  if (opt.max_newton < 1)
    throw std::invalid_argument("run_transient: max_newton must be >= 1");
  if (!std::isfinite(opt.tol) || opt.tol <= 0.0)
    throw std::invalid_argument("run_transient: tol must be finite and positive");
  if (!std::isfinite(opt.dx_limit) || opt.dx_limit <= 0.0)
    throw std::invalid_argument("run_transient: dx_limit must be finite and positive");
  if (!std::isfinite(opt.gmin) || opt.gmin < 0.0)
    throw std::invalid_argument("run_transient: gmin must be finite and non-negative");
  if (chunk_frames == 0)
    throw std::invalid_argument("run_transient_streamed: chunk_frames must be >= 1");

  const int n_unknowns = ckt.finalize();
  for (int id : probes)
    if (id < 0 || id > n_unknowns)
      throw std::invalid_argument("run_transient_streamed: probe id out of range");

  std::vector<double> x(static_cast<std::size_t>(n_unknowns), 0.0);

  for (const auto& dev : ckt.devices()) dev->reset();

  // Reuse caller-owned scratch when the size already matches; cached
  // port-reduced factors can never be trusted across circuits, so they
  // are dropped either way.
  if (ws.g.rows() != static_cast<std::size_t>(n_unknowns))
    ws.resize(static_cast<std::size_t>(n_unknowns));
  else
    ws.invalidate();
  const bool linear = detail::circuit_is_linear(ckt);
  // The devices whose start_step/commit do anything (Device::phases).
  std::vector<Device*> stepped;
  for (const auto& dev : ckt.devices())
    if (dev->phases() & Device::kStepHooks) stepped.push_back(dev.get());

  SolveStats stats;
  detail::dc_operating_point_impl(ckt, ws, linear, x, opt, &stats);
  const SimState dc_state{x, x, opt.t_start, 0.0, true, 1.0};
  for (const auto& dev : ckt.devices()) dev->post_dc(dc_state);

  const auto n_steps =
      static_cast<std::size_t>(std::llround((opt.t_stop - opt.t_start) / opt.dt));
  const std::size_t channels = probes.size();

  sig::StreamInfo info;
  info.t0 = opt.t_start;
  info.dt = opt.dt;
  info.channels = channels;
  info.total_frames = n_steps + 1;
  sink.begin(info);

  ws.stream_buf.resize(chunk_frames * channels);
  std::size_t buffered = 0;     ///< frames staged in stream_buf
  std::size_t flushed = 0;      ///< frames already delivered to the sink

  const robust::FaultCtx fctx = detail::fault_ctx(opt);
  double t_now = opt.t_start;

  // Chunk delivery; an injected write failure throws before the sink sees
  // the chunk (a real sink exception propagates as-is from consume()).
  const auto deliver = [&](std::size_t first, std::size_t frames) {
    if (robust::fault(robust::FaultSite::kSinkWrite, fctx)) {
      auto info = detail::solve_error_info(robust::FailureKind::kSinkFailure,
                                           "run_transient", opt, t_now, ws);
      info.detail = "injected sink write failure";
      throw robust::SolveError(std::move(info));
    }
    sig::SampleChunk chunk{first, frames, channels, ws.stream_buf.data()};
    sink.consume(chunk);
  };

  const auto stage_frame = [&] {
    double* dst = ws.stream_buf.data() + buffered * channels;
    for (std::size_t c = 0; c < channels; ++c) {
      const int id = probes[c];
      dst[c] = id == 0 ? 0.0 : x[static_cast<std::size_t>(id) - 1];
    }
    if (++buffered == chunk_frames) {
      deliver(flushed, buffered);
      flushed += buffered;
      buffered = 0;
    }
  };

  stage_frame();  // frame 0: the state at t_start

  std::vector<double> x_prev = x;
  for (std::size_t k = 1; k <= n_steps; ++k) {
    const double t = opt.t_start + opt.dt * static_cast<double>(k);
    t_now = t;
    obs::Span step_span("newton_step");

    // Per-step cooperative cancellation (newton_solve also checks per
    // iteration, so one stuck solve cannot overrun the budget by a corner).
    const bool forced_overrun = robust::fault(robust::FaultSite::kDeadline, fctx);
    if (forced_overrun || (opt.deadline != nullptr && opt.deadline->expired())) {
      auto info = detail::solve_error_info(robust::FailureKind::kDeadlineExceeded,
                                           "run_transient", opt, t, ws);
      if (forced_overrun) {
        info.detail = "injected deadline overrun";
      } else {
        char detail[64];
        std::snprintf(detail, sizeof detail, "wall budget %.3g s exhausted",
                      opt.deadline->budget_s());
        info.detail = detail;
      }
      throw robust::SolveError(std::move(info));
    }

    {
      SimState st{x_prev, x_prev, t, opt.dt, false, 1.0};
      for (Device* dev : stepped) dev->start_step(st);
    }

    x = x_prev;  // warm start
    const long iters_before = stats.total_newton_iters;
    const bool ok = detail::newton_solve(ckt, ws, linear, x, x_prev, t, opt.dt, false, 1.0,
                                         opt, &stats);
    h_step_iters.record(static_cast<std::uint64_t>(stats.total_newton_iters - iters_before));
    const bool poisoned = robust::fault(robust::FaultSite::kTransientStep, fctx);
    if (poisoned) x[0] = std::numeric_limits<double>::quiet_NaN();
    if (!ok || poisoned) {
      // Accept weakly converged steps (common right on a switching edge);
      // a genuinely diverged solve produces NaNs that we reject.
      bool finite = true;
      for (double v : x) finite = finite && std::isfinite(v);
      if (!finite) {
        auto info = detail::solve_error_info(robust::FailureKind::kTransientDivergence,
                                             "run_transient", opt, t, ws);
        if (poisoned) info.detail = "injected NaN residual";
        throw robust::SolveError(std::move(info));
      }
      ++stats.weak_steps;
    }

    {
      SimState st{x, x_prev, t, opt.dt, false, 1.0};
      for (Device* dev : stepped) dev->commit(st);
    }
    stage_frame();
    std::swap(x_prev, x);
    ++stats.steps;
  }

  if (buffered > 0) deliver(flushed, buffered);
  sink.finish();

  stats.used_sparse = ws.sp_tr.use_sparse == 1 ? 1 : 0;
  c_runs.add();
  c_steps.add(static_cast<std::uint64_t>(stats.steps));
  c_iters.add(static_cast<std::uint64_t>(stats.total_newton_iters));
  c_weak.add(static_cast<std::uint64_t>(stats.weak_steps));
  (stats.used_sparse == 1 ? c_sparse_runs : c_dense_runs).add();
  if (ws.ports.used) c_reduced_runs.add();
  return stats;
}

}  // namespace emc::ckt
