#include "circuit/newton.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "circuit/stampers.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "robust/fault.hpp"

namespace emc::ckt::detail {

static_assert(static_cast<int>(SolverKind::kDense) == robust::kSolverDenseAsInt,
              "robust::FaultSpec::spare_dense assumes SolverKind::kDense == 1");

robust::FaultCtx fault_ctx(const TransientOptions& opt) {
  robust::FaultCtx ctx;
  ctx.key = opt.context;
  ctx.solver = static_cast<int>(opt.solver);
  ctx.dt = opt.dt;
  ctx.gmin = opt.gmin;
  ctx.dx_limit = opt.dx_limit;
  return ctx;
}

robust::SolveErrorInfo solve_error_info(robust::FailureKind kind, const char* site,
                                        const TransientOptions& opt, double t,
                                        const NewtonWorkspace& ws) {
  robust::SolveErrorInfo info;
  info.kind = kind;
  info.site = site;
  info.context = opt.context;
  info.t = t;
  info.dt = opt.dt;
  info.solver = static_cast<int>(opt.solver);
  info.residual_history = ws.residual_history;
  return info;
}

bool circuit_is_linear(const Circuit& ckt) {
  for (const auto& dev : ckt.devices())
    if (dev->nonlinear()) return false;
  return true;
}

namespace {

/// Structure-discovery pass: stamp every device through a PatternStamper
/// at `state` and return the recorded positions (0-based, ground dropped).
std::vector<linalg::SparseCoord> stamp_pattern(Circuit& ckt, const SimState& state) {
  PatternStamper ps;
  for (const auto& dev : ckt.devices()) dev->stamp(ps, state);
  return std::move(ps).take_coords();
}

/// Resolve the backend for this solve's mode. Returns the mode's
/// SparseSystem when the sparse path is selected (building the pattern on
/// first use), nullptr for dense. The decision is cached in the system
/// until the workspace is invalidated, and depends only on structure and
/// options — never on values.
SparseSystem* resolve_sparse(Circuit& ckt, NewtonWorkspace& ws, const SimState& state,
                             bool dc, const TransientOptions& opt, std::size_t n) {
  if (opt.solver == SolverKind::kDense) return nullptr;
  if (opt.solver == SolverKind::kAuto && n < opt.sparse_min_unknowns) return nullptr;

  SparseSystem& s = dc ? ws.sp_dc : ws.sp_tr;
  if (!s.pattern_ready) {
    s.coords = stamp_pattern(ckt, state);
    s.pattern = linalg::SparsePattern::build(n, s.coords);
    s.pattern_ready = true;
    s.use_sparse = -1;
    s.a.set_pattern(&s.pattern);
    s.num_cached = false;
  } else if (s.a.pattern() != &s.pattern) {
    // The workspace object moved since the pattern was built; rebind.
    s.a.set_pattern(&s.pattern);
    s.num_cached = false;
  }
  if (s.use_sparse < 0) {
    const bool dense_enough =
        static_cast<double>(s.pattern.nnz()) <=
        opt.sparse_max_density * static_cast<double>(n) * static_cast<double>(n);
    s.use_sparse = (opt.solver == SolverKind::kSparse || dense_enough) ? 1 : 0;
  }
  return s.use_sparse == 1 ? &s : nullptr;
}

}  // namespace

bool newton_solve(Circuit& ckt, NewtonWorkspace& ws, bool linear, std::vector<double>& x,
                  const std::vector<double>& x_prev, double t, double dt, bool dc,
                  double src_scale, const TransientOptions& opt, SolveStats* stats) {
  static const obs::Counter c_restamps("ckt.newton.restamps");
  const std::size_t n = x.size();

  SparseSystem* sys;
  {
    SimState state{x, x_prev, t, dt, dc, src_scale};
    sys = resolve_sparse(ckt, ws, state, dc, opt, n);
  }

  const auto assemble_dense = [&] {
    ws.g.fill(0.0);
    std::fill(ws.rhs.begin(), ws.rhs.end(), 0.0);
    DenseStamper st(ws.g, ws.rhs);
    SimState state{x, x_prev, t, dt, dc, src_scale};
    for (const auto& dev : ckt.devices()) dev->stamp(st, state);
    for (std::size_t i = 0; i < n; ++i) ws.g(i, i) += opt.gmin;
  };

  const auto assemble_sparse = [&] {
    for (int attempt = 0;; ++attempt) {
      sys->a.clear_values();
      std::fill(ws.rhs.begin(), ws.rhs.end(), 0.0);
      SparseStamper st(sys->a, ws.rhs);
      SimState state{x, x_prev, t, dt, dc, src_scale};
      for (const auto& dev : ckt.devices()) dev->stamp(st, state);
      if (st.missed().empty()) {
        sys->a.add_diag(opt.gmin);
        return;
      }
      // A device stamped outside the discovered pattern (state-dependent
      // structure): grow the pattern by the missed positions and retry.
      if (attempt >= 3)
        throw robust::SolveError(solve_error_info(robust::FailureKind::kPatternUnstable,
                                                  "newton_solve", opt, t, ws));
      if (stats) ++stats->restamps;
      c_restamps.add();
      sys->coords.insert(sys->coords.end(), st.missed().begin(), st.missed().end());
      sys->pattern = linalg::SparsePattern::build(n, sys->coords);
      sys->a.set_pattern(&sys->pattern);
      sys->num_cached = false;
    }
  };

  const auto assemble = [&] { sys ? assemble_sparse() : assemble_dense(); };

  const robust::FaultCtx fctx = fault_ctx(opt);
  // Injected singular pivots throw (a recordable failure the retry ladder
  // can escalate past); genuinely singular factorizations keep the
  // historical return-false semantics (weak-step tolerance).
  const auto probe_factor_fault = [&] {
    if (!robust::fault(robust::FaultSite::kFactor, fctx)) return;
    ws.lu_cached = false;
    if (sys) sys->num_cached = false;
    auto info = solve_error_info(robust::FailureKind::kSingularSystem, "newton_solve",
                                 opt, t, ws);
    info.detail = "injected singular pivot";
    throw robust::SolveError(std::move(info));
  };
  const auto check_deadline = [&] {
    if (opt.deadline == nullptr || !opt.deadline->expired()) return;
    char detail[64];
    std::snprintf(detail, sizeof detail, "wall budget %.3g s exhausted",
                  opt.deadline->budget_s());
    auto info = solve_error_info(robust::FailureKind::kDeadlineExceeded, "newton_solve",
                                 opt, t, ws);
    info.detail = detail;
    throw robust::SolveError(std::move(info));
  };

  ws.residual_history.clear();

  if (linear && opt.cache_lu) {
    // Linear fast path: the Jacobian depends only on (dt, dc, gmin) —
    // never on t, x, or src_scale, which enter the right-hand side only —
    // so factor once per configuration and reuse the factors for every
    // step. The single solve is exact; no damping loop is needed.
    assemble();
    if (stats) ++stats->total_newton_iters;
    probe_factor_fault();
    if (sys) {
      if (!sys->num_cached || sys->key_dt != dt || sys->key_dc != dc ||
          sys->key_gmin != opt.gmin) {
        try {
          obs::Span sp_factor("factor");
          sys->lu.factor(sys->a);
        } catch (const std::runtime_error&) {
          sys->num_cached = false;
          return false;  // singular system
        }
        sys->num_cached = true;
        sys->key_dt = dt;
        sys->key_dc = dc;
        sys->key_gmin = opt.gmin;
      }
      std::copy(ws.rhs.begin(), ws.rhs.end(), ws.x_new.begin());
      sys->lu.solve_in_place(ws.x_new);
    } else {
      if (!ws.lu_cached || ws.lu_dt != dt || ws.lu_dc != dc || ws.lu_gmin != opt.gmin) {
        try {
          obs::Span sp_factor("factor");
          ws.lu.factor(ws.g);
        } catch (const std::runtime_error&) {
          ws.lu_cached = false;
          return false;  // singular system
        }
        ws.lu_cached = true;
        ws.lu_dt = dt;
        ws.lu_dc = dc;
        ws.lu_gmin = opt.gmin;
      }
      std::copy(ws.rhs.begin(), ws.rhs.end(), ws.x_new.begin());
      ws.lu.solve_in_place(ws.x_new);
    }
    std::copy(ws.x_new.begin(), ws.x_new.end(), x.begin());
    return true;
  }

  for (int it = 0; it < opt.max_newton; ++it) {
    check_deadline();
    if (stats) ++stats->total_newton_iters;
    assemble();
    probe_factor_fault();
    try {
      obs::Span sp_factor("factor");
      if (sys)
        sys->lu.factor(sys->a);
      else
        ws.lu.factor(ws.g);
    } catch (const std::runtime_error&) {
      ws.lu_cached = false;
      if (sys) sys->num_cached = false;
      return false;  // singular system at this iterate
    }
    // The generic path leaves no reusable numeric factorization (the
    // symbolic analysis inside the SparseLu survives on its own).
    ws.lu_cached = false;
    if (sys) sys->num_cached = false;
    std::copy(ws.rhs.begin(), ws.rhs.end(), ws.x_new.begin());
    if (sys)
      sys->lu.solve_in_place(ws.x_new);
    else
      ws.lu.solve_in_place(ws.x_new);

    double dx_max = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      dx_max = std::max(dx_max, std::abs(ws.x_new[i] - x[i]));
    if (ws.residual_history.size() >= NewtonWorkspace::kResidualHistoryCap)
      ws.residual_history.erase(ws.residual_history.begin());
    ws.residual_history.push_back(dx_max);

    if (dx_max <= opt.tol) {
      std::copy(ws.x_new.begin(), ws.x_new.end(), x.begin());
      return true;
    }
    // Damping: clamp the update so nonlinear devices cannot be thrown far
    // outside their linearization region.
    const double scale = (dx_max > opt.dx_limit) ? opt.dx_limit / dx_max : 1.0;
    for (std::size_t i = 0; i < n; ++i) x[i] += scale * (ws.x_new[i] - x[i]);
  }
  return false;
}

void dc_operating_point_impl(Circuit& ckt, NewtonWorkspace& ws, bool linear,
                             std::vector<double>& x, const TransientOptions& opt,
                             SolveStats* stats) {
  static const obs::Counter c_runs("ckt.dc.runs");
  static const obs::Counter c_iters("ckt.dc.newton_iters");
  static const obs::Counter c_gmin("ckt.dc.gmin_stages");
  static const obs::Counter c_src("ckt.dc.source_steps");
  obs::Span span("dc");
  c_runs.add();

  if (robust::fault(robust::FaultSite::kDcSolve, fault_ctx(opt))) {
    auto info = solve_error_info(robust::FailureKind::kDcDivergence,
                                 "dc_operating_point", opt, opt.t_start, ws);
    info.detail = "injected dc divergence";
    throw robust::SolveError(std::move(info));
  }

  // Local tally, folded into `stats` and the counters on every exit path —
  // the continuation history matters most when the solve throws.
  SolveStats local;
  struct Fold {
    SolveStats& l;
    SolveStats* out;
    ~Fold() {
      c_iters.add(static_cast<std::uint64_t>(l.total_newton_iters));
      c_gmin.add(static_cast<std::uint64_t>(l.dc_gmin_stages));
      c_src.add(static_cast<std::uint64_t>(l.dc_source_steps));
      if (out) {
        out->dc_newton_iters += l.total_newton_iters;
        out->restamps += l.restamps;
        out->dc_gmin_stages += l.dc_gmin_stages;
        out->dc_source_steps += l.dc_source_steps;
      }
    }
  } fold{local, stats};

  const std::vector<double> zeros(x.size(), 0.0);

  // Divergence here is diagnosed from sweep logs where the circuit is long
  // gone — the exception must carry the whole continuation history.
  std::string attempted = "gmin schedule:";
  char buf[40];
  const auto note = [&](double v) {
    std::snprintf(buf, sizeof buf, " %g", v);
    attempted += buf;
  };

  // Strategy 1: gmin continuation from a heavily damped system.
  for (double gmin : {1e-2, 1e-4, 1e-6, 1e-9, opt.gmin}) {
    TransientOptions o = opt;
    o.gmin = std::max(gmin, opt.gmin);
    o.max_newton = 200;
    note(o.gmin);
    ++local.dc_gmin_stages;
    if (!newton_solve(ckt, ws, linear, x, zeros, opt.t_start, 0.0, /*dc=*/true, 1.0, o,
                      &local)) {
      // Restart the continuation with source stepping below.
      attempted += " (diverged)";
      break;
    }
    if (o.gmin == opt.gmin) return;
  }

  // Strategy 2: source stepping on top of gmin continuation. The failed
  // ladder solve left devices linearized around a diverged iterate — start
  // over from a clean slate: zero the solution AND reset device history.
  std::fill(x.begin(), x.end(), 0.0);
  for (const auto& dev : ckt.devices()) dev->reset();
  attempted += "; source-scale schedule (gmin 1e-9):";
  for (double scale : {0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0}) {
    TransientOptions o = opt;
    o.max_newton = 300;
    o.gmin = 1e-9;
    note(scale);
    ++local.dc_source_steps;
    if (!newton_solve(ckt, ws, linear, x, zeros, opt.t_start, 0.0, true, scale, o,
                      &local)) {
      auto info = solve_error_info(robust::FailureKind::kDcDivergence,
                                   "dc_operating_point", opt, opt.t_start, ws);
      info.detail =
          "no convergence at source scale " + std::to_string(scale) + " [attempted " +
          attempted + "]";
      throw robust::SolveError(std::move(info));
    }
  }
  TransientOptions o = opt;
  o.max_newton = 300;
  if (!newton_solve(ckt, ws, linear, x, zeros, opt.t_start, 0.0, true, 1.0, o, &local)) {
    auto info = solve_error_info(robust::FailureKind::kDcDivergence,
                                 "dc_operating_point", opt, opt.t_start, ws);
    info.detail = "final polish failed [attempted " + attempted + "]";
    throw robust::SolveError(std::move(info));
  }
}

}  // namespace emc::ckt::detail
