// Device / stamp interface of the MNA transient engine.
//
// Conventions
// -----------
// * Terminal ids live in one id space: id 0 is ground, ids 1..n-1 are
//   circuit nodes, ids >= n are engine-assigned extra unknowns (branch
//   currents of voltage sources / inductors). Unknown vector index of a
//   non-ground id is (id - 1).
// * Rows of the MNA system are "sum of currents leaving the node = 0";
//   G x = rhs after moving constants to the right-hand side.
// * Transient integration is trapezoidal with a fixed step (the step is
//   locked to the macromodel sampling time Ts, which is how discrete-time
//   behavioral models are coupled to the analog solver).
#pragma once

#include <span>

#include "linalg/matrix.hpp"

namespace emc::ckt {

/// Snapshot handed to devices during stamping / commit.
struct SimState {
  std::span<const double> x;       ///< candidate solution (unknown space)
  std::span<const double> x_prev;  ///< accepted solution of the previous step
  double t = 0.0;                  ///< time of the step being solved
  double dt = 0.0;                 ///< fixed step (0 during DC)
  bool dc = false;                 ///< true while solving the operating point
  double src_scale = 1.0;          ///< source-stepping continuation factor

  double v(int id) const { return id == 0 ? 0.0 : x[static_cast<std::size_t>(id) - 1]; }
  double v_prev(int id) const {
    return id == 0 ? 0.0 : x_prev[static_cast<std::size_t>(id) - 1];
  }
};

/// Assembles the linearized MNA system; devices talk only to this.
///
/// Abstract on purpose: a device's stamp is target-agnostic. The engine
/// routes it into a dense Jacobian, a sparse matrix, or a pure
/// pattern-discovery pass through the implementations in
/// circuit/stampers.hpp — the device never knows which.
class Stamper {
 public:
  virtual ~Stamper() = default;

  /// G[row][col] += val (ground rows/columns are dropped).
  virtual void g(int row_id, int col_id, double val) = 0;

  /// rhs[row] += val.
  virtual void rhs(int row_id, double val) = 0;

  /// Two-terminal conductance between a and b.
  void conductance(int a, int b, double gval) {
    g(a, a, gval);
    g(b, b, gval);
    g(a, b, -gval);
    g(b, a, -gval);
  }

  /// Independent current source of value i flowing from a to b.
  void current_source(int a, int b, double i) {
    rhs(a, -i);
    rhs(b, i);
  }

  /// Linearized nonlinear branch current i(v), v = v(a)-v(b), around
  /// operating point (v0, i0) with conductance g0 = di/dv|v0.
  void nonlinear_current(int a, int b, double i0, double g0, double v0) {
    conductance(a, b, g0);
    current_source(a, b, i0 - g0 * v0);
  }
};

/// Base class of all circuit elements.
class Device {
 public:
  virtual ~Device() = default;

  /// Number of extra (branch-current) unknowns this device needs.
  virtual int num_extra() const { return 0; }

  /// Engine assigns the first extra unknown id before any analysis.
  void set_extra_base(int id) { extra_base_ = id; }
  int extra_base() const { return extra_base_; }

  /// True if the stamp depends on the candidate solution x.
  ///
  /// Returning false is a stronger promise than x-independence: the
  /// engine's port-reduced path (TransientOptions::cache_lu) factors a
  /// linear device's *matrix* entries once per (dt, dc) configuration,
  /// right after the first start_step of the run, and from then on
  /// re-stamps only the right-hand side. So once that first start_step
  /// has run, the matrix must stay bit-identical for every later step;
  /// time, history and the source scale may enter the right-hand side
  /// only, and the right-hand side must not read the candidate x. A
  /// device whose conductance varies with t or committed history must
  /// return true even if its stamp ignores x.
  virtual bool nonlinear() const { return false; }

  /// Per-step hooks a device may do work in, for phases().
  enum Phase : unsigned {
    kStepHooks = 1u,  ///< start_step and commit
    kRhs = 2u,        ///< stamp_rhs
    kAllPhases = kStepHooks | kRhs,
  };

  /// The per-step hooks of this device that can change anything. A phase
  /// left out is a promise: start_step and commit leave every state the
  /// device's stamps read as it was (without kStepHooks), and stamp_rhs
  /// writes nothing (without kRhs). The transient engine then never calls
  /// those hooks; it builds its start_step/commit list once per run and
  /// the port-reduced path its stamp_rhs list once per factor build. The
  /// default, every phase, is always correct. reset and post_dc are
  /// called on every device regardless.
  virtual unsigned phases() const { return kAllPhases; }

  /// Contribute only the right-hand-side entries of stamp(): the
  /// port-reduced path's per-step restamp of a linear device whose matrix
  /// is already factored. The contract: stamp_rhs writes exactly the rhs
  /// entries stamp() writes, with the same values in the same order, and
  /// no matrix entry. The default calls stamp(), which is always correct;
  /// a device overriding it has stamp() emit its matrix part and then call
  /// its own stamp_rhs(), so the rhs formula lives in one place.
  virtual void stamp_rhs(Stamper& s, const SimState& st) const { stamp(s, st); }

  /// Called once per time step before the Newton loop; history-dependent
  /// companion terms are computed here (x in `st` is the previous solution).
  virtual void start_step(const SimState& st) { (void)st; }

  /// Contribute the (linearized) stamp for the current Newton candidate.
  ///
  /// A nonlinear device's stamp reads only the unknowns it stamps into (as
  /// a row, a column or an rhs row). The port-reduced path iterates on
  /// those unknowns alone and forms the others once the step is solved,
  /// so anything else in `st.x` may be stale during the iteration.
  ///
  /// `stamp` is const on purpose: it runs once per Newton iteration and
  /// must not mutate device state — history updates belong in start_step
  /// (before the solve) and commit (after it). This is what makes a
  /// device's backing model (e.g. one estimated macromodel instance)
  /// provably safe to share across concurrently running analyses.
  virtual void stamp(Stamper& s, const SimState& st) const = 0;

  /// Accept the step: update internal history from the solved state.
  virtual void commit(const SimState& st) { (void)st; }

  /// Reset all history (called when a new analysis begins).
  virtual void reset() {}

  /// Called once after the DC operating point converged, so devices with
  /// memory (lines, capacitors) can seed their history consistently.
  virtual void post_dc(const SimState& st) { (void)st; }

 protected:
  int extra_base_ = -1;
};

}  // namespace emc::ckt
