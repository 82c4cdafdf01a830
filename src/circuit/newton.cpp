#include "circuit/newton.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <span>
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
  if (opt.solver == SolverKind::kAuto && n < kSparseMinUnknowns) return nullptr;

  SparseSystem& s = dc ? ws.sp_dc : ws.sp_tr;
  if (!s.pattern_ready) {
    s.coords = stamp_pattern(ckt, state);
    s.pattern = linalg::SparsePattern::build(n, s.coords);
    s.pattern_ready = true;
    s.use_sparse = -1;
    s.a.set_pattern(&s.pattern);
  } else if (s.a.pattern() != &s.pattern) {
    // The workspace object moved since the pattern was built; rebind.
    s.a.set_pattern(&s.pattern);
  }
  if (s.use_sparse < 0) {
    const bool dense_enough =
        static_cast<double>(s.pattern.nnz()) <=
        kSparseMaxDensity * static_cast<double>(n) * static_cast<double>(n);
    s.use_sparse = (opt.solver == SolverKind::kSparse || dense_enough) ? 1 : 0;
  }
  return s.use_sparse == 1 ? &s : nullptr;
}

/// Outcome of a port-reduced build or solve. kFailed: a singular system,
/// or no convergence within max_newton (a weak step, as on the generic
/// path); kBypass: more than kMaxPorts ports, take the generic path.
enum class PortResult { kOk, kFailed, kBypass };

/// x = wb - W x_P, with x_P read from (and kept at) x's port entries:
/// the interior that the port-reduced iteration leaves stale.
void form_interior(const PortSystem& ps, std::span<double> x) {
  const std::size_t k = ps.ports.size();
  double xp[PortSystem::kMaxPorts];
  for (std::size_t j = 0; j < k; ++j) xp[j] = x[static_cast<std::size_t>(ps.ports[j])];
  std::copy(ps.wb.begin(), ps.wb.end(), x.begin());
  for (std::size_t j = 0; j < k; ++j) {
    const auto wj = ps.w.row(j);
    for (std::size_t i = 0; i < x.size(); ++i) x[i] -= wj[i] * xp[j];
  }
  for (std::size_t j = 0; j < k; ++j) x[static_cast<std::size_t>(ps.ports[j])] = xp[j];
}

/// Add `extra` (0-based unknowns) to the port set and refresh the slot map.
void add_ports(PortSystem& ps, std::span<const int> extra, std::size_t n) {
  ps.ports.insert(ps.ports.end(), extra.begin(), extra.end());
  std::sort(ps.ports.begin(), ps.ports.end());
  ps.ports.erase(std::unique(ps.ports.begin(), ps.ports.end()), ps.ports.end());
  ps.slot.assign(n, -1);
  for (std::size_t j = 0; j < ps.ports.size(); ++j)
    ps.slot[static_cast<std::size_t>(ps.ports[j])] = static_cast<int>(j);
}

/// Interior unknowns coupled to a port whose row or column of A_II holds
/// nothing but gmin (no stamped diagonal and no stamped off-diagonal
/// entry): the split moved all their coupling into the border. `coords`
/// are the interior stamps; ps.border and ps.w (still A_IP transposed)
/// hold the port couplings.
std::vector<int> gmin_only_interior(const PortSystem& ps,
                                    std::span<const linalg::SparseCoord> coords,
                                    std::size_t n) {
  std::vector<char> diag(n, 0), row_has(n, 0), col_has(n, 0);
  for (const auto& [r, c] : coords) {
    if (r == c) {
      diag[static_cast<std::size_t>(r)] = 1;
    } else {
      row_has[static_cast<std::size_t>(r)] = 1;
      col_has[static_cast<std::size_t>(c)] = 1;
    }
  }
  const auto coupled = [&](std::size_t i) {
    for (std::size_t j = 0; j < ps.ports.size(); ++j)
      if (ps.border(j, i) != 0.0 || ps.w(j, i) != 0.0) return true;
    return false;
  };
  std::vector<int> out;
  for (std::size_t i = 0; i < n; ++i)
    if (ps.slot[i] < 0 && !diag[i] && (!row_has[i] || !col_has[i]) && coupled(i))
      out.push_back(static_cast<int>(i));
  return out;
}

/// Factor the linear devices in bordered form around the ports (see
/// PortSystem) for the configuration in `state`. P first grows by every
/// unknown the nonlinear devices stamp into at `state`, then by interior
/// unknowns left with nothing but gmin in A_II. kFailed: A_II is
/// singular; kBypass: nothing was factored.
PortResult build_ports(Circuit& ckt, NewtonWorkspace& ws, SparseSystem* sys,
                      const SimState& state, double gmin, std::size_t n) {
  PortSystem& ps = ws.ports;
  ps.ready = false;
  ps.linear.clear();
  ps.nonlinear.clear();
  ps.rhs.clear();
  for (const auto& dev : ckt.devices()) {
    (dev->nonlinear() ? ps.nonlinear : ps.linear).push_back(dev.get());
    if (!dev->nonlinear() && (dev->phases() & Device::kRhs)) ps.rhs.push_back(dev.get());
  }

  add_ports(ps, {}, n);
  {
    ps.m = linalg::Matrix(ps.ports.size(), ps.ports.size());
    ps.r.assign(ps.ports.size(), 0.0);
    PortStamper discover(ps.slot, ps.m, ps.r);
    for (const Device* dev : ps.nonlinear) dev->stamp(discover, state);
    add_ports(ps, discover.missed(), n);
  }

  // Structure pass: the interior stamps (border and A_IP fill as a side
  // effect), repeated until no interior unknown is left gmin-only.
  std::vector<linalg::SparseCoord> coords;
  for (;;) {
    const std::size_t k = ps.ports.size();
    if (k > PortSystem::kMaxPorts) return PortResult::kBypass;
    ps.border = linalg::Matrix(k, n);
    ps.w = linalg::Matrix(k, n);  // A_IP transposed until the solves below
    PatternStamper pattern;
    BorderedStamper split(ps.slot, pattern, ps.border, ps.w);
    for (const Device* dev : ps.linear) dev->stamp(split, state);
    coords = std::move(pattern).take_coords();
    const auto orphans = gmin_only_interior(ps, coords, n);
    if (orphans.empty()) break;
    add_ports(ps, orphans, n);
  }

  // Value pass into the backend: the interior pattern carries the port
  // diagonals too.
  ps.border.fill(0.0);
  ps.w.fill(0.0);
  if (sys) {
    sys->coords = std::move(coords);
    for (int p : ps.ports) sys->coords.push_back({p, p});
    sys->pattern = linalg::SparsePattern::build(n, sys->coords);
    sys->a.set_pattern(&sys->pattern);
    SparseStamper interior(sys->a, ws.rhs);
    BorderedStamper st(ps.slot, interior, ps.border, ps.w);
    for (const Device* dev : ps.linear) dev->stamp(st, state);
  } else {
    ws.g.fill(0.0);
    DenseStamper interior(ws.g, ws.rhs);
    BorderedStamper st(ps.slot, interior, ps.border, ps.w);
    for (const Device* dev : ps.linear) dev->stamp(st, state);
  }

  // gmin on every diagonal; a port's row and column in the factored
  // matrix are its unit diagonal alone, so A_II^-1 leaves port entries 0.
  const std::size_t k = ps.ports.size();
  if (sys) {
    sys->a.add_diag(gmin);
    for (int p : ps.ports) sys->a.add(p, p, 1.0);
  } else {
    for (std::size_t i = 0; i < n; ++i) ws.g(i, i) += gmin;
    for (int p : ps.ports) ws.g(static_cast<std::size_t>(p), static_cast<std::size_t>(p)) += 1.0;
  }
  for (std::size_t j = 0; j < k; ++j) ps.border(j, static_cast<std::size_t>(ps.ports[j])) += gmin;

  try {
    obs::Span sp_factor("factor");
    if (sys)
      sys->lu.factor(sys->a);
    else
      ws.lu.factor(ws.g);
  } catch (const std::runtime_error&) {
    return PortResult::kFailed;
  }

  // W = A_II^-1 A_IP one port column at a time, then S = A_PP - A_PI W
  // (W is zero at the ports, so the full border row dots it exactly).
  ps.schur = linalg::Matrix(k, k);
  ps.w_norm.assign(k, 0.0);
  for (std::size_t j = 0; j < k; ++j) {
    if (sys)
      sys->lu.solve_in_place(ps.w.row(j));
    else
      ws.lu.solve_in_place(ps.w.row(j));
    for (double v : ps.w.row(j)) ps.w_norm[j] = std::max(ps.w_norm[j], std::abs(v));
  }
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t j = 0; j < k; ++j)
      ps.schur(i, j) = ps.border(i, static_cast<std::size_t>(ps.ports[j])) -
                       linalg::dot(ps.border.row(i), ps.w.row(j));

  ps.m = linalg::Matrix(k, k);
  ps.b.assign(n, 0.0);
  ps.wb.assign(n, 0.0);
  ps.c.assign(k, 0.0);
  ps.r.assign(k, 0.0);
  ps.ready = true;
  return PortResult::kOk;
}

/// This step's linear right-hand side through the factored system:
/// b (Device::stamp_rhs of every linear device with an rhs phase),
/// wb = A_II^-1 b_I and c = b_P - A_PI wb.
void port_step_rhs(NewtonWorkspace& ws, SparseSystem* sys, const SimState& state) {
  PortSystem& ps = ws.ports;
  std::fill(ps.b.begin(), ps.b.end(), 0.0);
  RhsStamper st(ps.b);
  for (const Device* dev : ps.rhs) dev->stamp_rhs(st, state);

  std::copy(ps.b.begin(), ps.b.end(), ps.wb.begin());
  for (int p : ps.ports) ps.wb[static_cast<std::size_t>(p)] = 0.0;
  if (sys)
    sys->lu.solve_in_place(ps.wb);
  else
    ws.lu.solve_in_place(ps.wb);
  for (std::size_t j = 0; j < ps.ports.size(); ++j)
    ps.c[j] = ps.b[static_cast<std::size_t>(ps.ports[j])] - linalg::dot(ps.border.row(j), ps.wb);
}

}  // namespace

bool newton_solve(Circuit& ckt, NewtonWorkspace& ws, bool linear, std::vector<double>& x,
                  const std::vector<double>& x_prev, double t, double dt, bool dc,
                  double src_scale, const TransientOptions& opt, SolveStats* stats) {
  static const obs::Counter c_restamps("ckt.newton.restamps");
  const std::size_t n = x.size();
  PortSystem& ps = ws.ports;
  const SimState state{x, x_prev, t, dt, dc, src_scale};

  SparseSystem* sys = resolve_sparse(ckt, ws, state, dc, opt, n);

  const auto assemble_dense = [&] {
    ws.g.fill(0.0);
    std::fill(ws.rhs.begin(), ws.rhs.end(), 0.0);
    DenseStamper st(ws.g, ws.rhs);
    for (const auto& dev : ckt.devices()) dev->stamp(st, state);
    for (std::size_t i = 0; i < n; ++i) ws.g(i, i) += opt.gmin;
  };

  const auto assemble_sparse = [&] {
    for (int attempt = 0;; ++attempt) {
      sys->a.clear_values();
      std::fill(ws.rhs.begin(), ws.rhs.end(), 0.0);
      SparseStamper st(sys->a, ws.rhs);
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
    }
  };

  const auto assemble = [&] { sys ? assemble_sparse() : assemble_dense(); };

  const robust::FaultCtx fctx = fault_ctx(opt);
  // Injected singular pivots throw (a recordable failure the retry ladder
  // can escalate past); genuinely singular factorizations keep the
  // historical return-false semantics (weak-step tolerance).
  const auto probe_factor_fault = [&] {
    if (!robust::fault(robust::FaultSite::kFactor, fctx)) return;
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

  const auto record_dx = [&](double dx) {
    if (ws.residual_history.size() >= NewtonWorkspace::kResidualHistoryCap)
      ws.residual_history.erase(ws.residual_history.begin());
    ws.residual_history.push_back(dx);
  };

  // The generic path's convergence test and damping over the full x:
  // true when the candidate in ws.x_new is accepted into x.
  const auto accept_or_damp = [&] {
    double dx_max = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      dx_max = std::max(dx_max, std::abs(ws.x_new[i] - x[i]));
    record_dx(dx_max);

    if (dx_max <= opt.tol) {
      std::copy(ws.x_new.begin(), ws.x_new.end(), x.begin());
      return true;
    }
    // Damping: clamp the update so nonlinear devices cannot be thrown far
    // outside their linearization region.
    const double scale = (dx_max > opt.dx_limit) ? opt.dx_limit / dx_max : 1.0;
    for (std::size_t i = 0; i < n; ++i) x[i] += scale * (ws.x_new[i] - x[i]);
    return false;
  };

  ws.residual_history.clear();

  // Port-reduced Newton (PortSystem). The factors depend only on (dt, dc,
  // gmin) — the linear devices' matrix is fixed once start_step has run —
  // so they are built on the first solve of a configuration.
  const auto build = [&] {
    const PortResult built = build_ports(ckt, ws, sys, state, opt.gmin, n);
    if (built != PortResult::kOk) return built;
    ps.key_dt = dt;
    ps.key_dc = dc;
    ps.key_gmin = opt.gmin;
    port_step_rhs(ws, sys, state);
    return built;
  };
  const auto reduced = [&] {
    if (!ps.ready || ps.key_dt != dt || ps.key_dc != dc || ps.key_gmin != opt.gmin) {
      const PortResult built = build();
      if (built != PortResult::kOk) return built;
    } else {
      port_step_rhs(ws, sys, state);
    }
    if (!dc) ps.used = true;

    // Newton on x_P alone: the nonlinear stamps read only the ports, and
    // x_I = wb - W x_P is formed once the step is accepted or given up.
    // x_I is linear in x_P, so an update D moves it by at most
    // sum_j |W_j|_inf |D_j|; the test and damping use
    // dx = max(max_j |D_j|, that sum), never below the full-vector |dx|.
    // Beside dx <= tol, the step stops when two consecutive undamped
    // updates contract by theta = dx_m / dx_(m-1) < 1 and the estimated
    // remaining error theta / (1 - theta) * dx_m is within tol. That
    // estimate holds while the contraction shrinks from one iteration to
    // the next, as in Newton's superlinear convergence on exact slopes, so
    // the stop waits until a step has shown a shrinking theta over three
    // undamped updates, and is off for the rest of the run once one shows
    // a growing theta (linear convergence: a stamp's slope is not its
    // current's).
    bool stale = false;  // x_P moved since x_I was last formed
    double dx_prev = 0.0;     // the previous update's dx if it was undamped, else 0
    double theta_prev = 0.0;  // the previous iteration's theta if dx_prev was set, else 0
    const auto finish = [&](PortResult res) {
      if (stale) form_interior(ps, x);
      return res;
    };
    for (int it = 0; it < opt.max_newton; ++it) {
      check_deadline();
      if (stats) ++stats->total_newton_iters;
      // M = S + G and r = c + the nonlinear rhs. A nonlinear stamp off
      // the ports grows P and rebuilds the factors for this step.
      for (;;) {
        std::copy(ps.schur.data(), ps.schur.data() + ps.schur.rows() * ps.schur.cols(),
                  ps.m.data());
        std::copy(ps.c.begin(), ps.c.end(), ps.r.begin());
        PortStamper st(ps.slot, ps.m, ps.r);
        for (const Device* dev : ps.nonlinear) dev->stamp(st, state);
        if (st.missed().empty()) break;
        if (stats) ++stats->restamps;
        c_restamps.add();
        if (stale) form_interior(ps, x);  // the new ports read the current iterate
        stale = false;
        dx_prev = theta_prev = 0.0;
        add_ports(ps, st.missed(), n);
        const PortResult built = build();
        if (built != PortResult::kOk) return built;
      }
      probe_factor_fault();
      try {
        ps.m_lu.factor(ps.m);
      } catch (const std::runtime_error&) {
        return finish(PortResult::kFailed);  // singular S + G at this iterate
      }
      ps.m_lu.solve_in_place(ps.r);  // r now holds the candidate x_P
      if (ps.ports.empty()) {  // a linear system: the one solve is exact
        form_interior(ps, x);
        return PortResult::kOk;
      }

      double d_max = 0.0, d_int = 0.0;
      for (std::size_t j = 0; j < ps.ports.size(); ++j) {
        const double d = std::abs(ps.r[j] - x[static_cast<std::size_t>(ps.ports[j])]);
        d_max = std::max(d_max, d);
        d_int += ps.w_norm[j] * d;
      }
      const double dx = std::max(d_max, d_int);
      record_dx(dx);
      stale = true;

      const double theta = dx_prev > 0.0 ? dx / dx_prev : 1.0;
      if (dx_prev > 0.0 && theta_prev > 0.0 && ps.rate != PortSystem::Rate::kLinear)
        ps.rate = theta < theta_prev ? PortSystem::Rate::kSuperlinear : PortSystem::Rate::kLinear;
      if (dx <= opt.tol || (ps.rate == PortSystem::Rate::kSuperlinear && theta < 1.0 &&
                            theta / (1.0 - theta) * dx <= opt.tol)) {
        for (std::size_t j = 0; j < ps.ports.size(); ++j)
          x[static_cast<std::size_t>(ps.ports[j])] = ps.r[j];
        return finish(PortResult::kOk);
      }
      const double scale = (dx > opt.dx_limit) ? opt.dx_limit / dx : 1.0;
      for (std::size_t j = 0; j < ps.ports.size(); ++j) {
        double& xp = x[static_cast<std::size_t>(ps.ports[j])];
        xp += scale * (ps.r[j] - xp);
      }
      theta_prev = dx_prev > 0.0 ? theta : 0.0;
      dx_prev = scale == 1.0 ? dx : 0.0;
    }
    return finish(PortResult::kFailed);
  };

  if (opt.cache_lu && (!dc || linear) && !ps.bypass) {
    const PortResult outcome = reduced();
    if (outcome != PortResult::kBypass) return outcome == PortResult::kOk;
    // Too many ports for this run: back to the full system and pattern.
    ps.bypass = true;
    if (sys) {
      sys->pattern_ready = false;
      sys = resolve_sparse(ckt, ws, state, dc, opt, n);
    }
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
      return false;  // singular system at this iterate
    }
    std::copy(ws.rhs.begin(), ws.rhs.end(), ws.x_new.begin());
    if (sys)
      sys->lu.solve_in_place(ws.x_new);
    else
      ws.lu.solve_in_place(ws.x_new);
    if (accept_or_damp()) return true;
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
