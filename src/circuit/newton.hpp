// Internal Newton/MNA solve machinery behind the transient engine
// (engine.cpp). Not part of the public surface — include
// circuit/engine.hpp instead.
#pragma once

#include <vector>

#include "circuit/engine.hpp"
#include "robust/fault.hpp"

namespace emc::ckt::detail {

/// Fault-injection probe context for this run/attempt (robust::fault):
/// the transient key plus the options the spare thresholds grade.
robust::FaultCtx fault_ctx(const TransientOptions& opt);

/// SolveErrorInfo skeleton shared by every engine throw site: kind, site,
/// run context, time/step/solver of the attempt, and the workspace's
/// Newton residual history.
robust::SolveErrorInfo solve_error_info(robust::FailureKind kind, const char* site,
                                        const TransientOptions& opt, double t,
                                        const NewtonWorkspace& ws);

/// True when no device's stamp depends on the candidate solution, i.e. the
/// MNA system G x = rhs is solved exactly by a single factorization.
bool circuit_is_linear(const Circuit& ckt);

/// One damped Newton solve of the (non)linear MNA system at a fixed
/// (t, dt, dc, src_scale) configuration, through the backend
/// opt.solver resolves to for this mode. With opt.cache_lu the solve is
/// port-reduced (PortSystem) on the transient, and in DC when `linear`;
/// otherwise, and above PortSystem::kMaxPorts ports, every iteration
/// refactors the full system. Returns true on convergence; x holds the
/// solution (or the last iterate on failure). All scratch lives in `ws`:
/// steady-state calls perform no heap allocation. When `stats` is
/// non-null, total_newton_iters and restamps accumulate into it (callers
/// decide which bucket DC iterations land in).
bool newton_solve(Circuit& ckt, NewtonWorkspace& ws, bool linear, std::vector<double>& x,
                  const std::vector<double>& x_prev, double t, double dt, bool dc,
                  double src_scale, const TransientOptions& opt, SolveStats* stats);

/// DC operating point with gmin continuation and source stepping; throws
/// robust::SolveError (kDcDivergence, detail = the schedule attempted)
/// when everything fails. When `stats` is non-null, fills
/// dc_newton_iters / dc_gmin_stages / dc_source_steps (and restamps).
void dc_operating_point_impl(Circuit& ckt, NewtonWorkspace& ws, bool linear,
                             std::vector<double>& x, const TransientOptions& opt,
                             SolveStats* stats = nullptr);

}  // namespace emc::ckt::detail
