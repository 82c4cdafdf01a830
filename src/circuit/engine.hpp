// Transient / DC analysis engine.
//
// Fixed-step trapezoidal integration with a damped Newton-Raphson solve at
// every step. The step is fixed on purpose: the behavioral macromodels of
// the paper are discrete-time systems with sampling time Ts, and locking
// the circuit step to Ts is how they are coupled to the analog solver
// (DESIGN.md, "Numerical design choices").
#pragma once

#include <span>
#include <vector>

#include "circuit/netlist.hpp"
#include "linalg/decomp.hpp"
#include "linalg/sparse.hpp"
#include "robust/error.hpp"
#include "signal/sample_sink.hpp"
#include "signal/waveform.hpp"

namespace emc::ckt {

/// Which linear-system backend the Newton solve uses.
///
/// kAuto picks per run and per mode (DC stamps a different topology than
/// the transient): dense when the system is small (n <
/// kSparseMinUnknowns, skipping even the pattern pass — identical cost
/// and results to the pre-sparse engine), otherwise a structure-discovery
/// pass decides by pattern density (kSparseMaxDensity). kDense / kSparse
/// force a backend. The selection is a pure function of the circuit
/// structure and the options, never of values, so sweeps stay
/// deterministic.
enum class SolverKind { kAuto, kDense, kSparse };

struct TransientOptions {
  double dt = 25e-12;      ///< fixed step; defaults to the paper's Ts = 25 ps
  double t_stop = 0.0;     ///< end time (required)
  double t_start = 0.0;
  int max_newton = 100;
  /// Infinity-norm convergence tolerance on dx. The port-reduced path
  /// also stops once its contraction estimate of the remaining error is
  /// within tol (PortSystem).
  double tol = 1e-6;
  double dx_limit = 0.5;   ///< Newton damping: max |dx| per iteration
  double gmin = 1e-12;     ///< diagonal leakage keeping the system regular
  /// Factor the x-independent part of the system once per (dt, dc, gmin)
  /// configuration: the port-reduced path (PortSystem). The linear
  /// devices are factored in bordered form around the port unknowns the
  /// nonlinear devices stamp into; each step re-stamps only their
  /// right-hand side and pays one back-substitution, and each Newton
  /// iteration solves a dense k x k system on the k ports. A purely
  /// linear circuit is the k = 0 case (one exact solve per step, DC
  /// included). Transients with more than PortSystem::kMaxPorts ports and
  /// the DC solve of a nonlinear circuit take the generic path. Disable
  /// to force the generic re-factorizing Newton path everywhere (the
  /// reference behavior for regression benches). Applies to both backends.
  bool cache_lu = true;

  /// Linear-system backend; see SolverKind. kAuto keeps every circuit
  /// below kSparseMinUnknowns on the dense path bit-identically to the
  /// pre-sparse engine.
  SolverKind solver = SolverKind::kAuto;

  /// Run identity for failure reports and the fault-injection harness
  /// (the sweep layer sets it to the corner's transient key). Carried
  /// into every robust::SolveError thrown by this run; empty is fine.
  std::string context;

  /// Cooperative wall-clock deadline: checked once per time step and once
  /// per Newton iteration; expiry throws robust::SolveError
  /// (kDeadlineExceeded). Null = no deadline. The pointee must outlive
  /// the run.
  const robust::Deadline* deadline = nullptr;
};

/// Per-mode sparse solve state inside a NewtonWorkspace (the DC and
/// transient stamps of reactive devices and lines differ structurally, so
/// each mode keeps its own pattern). The pattern is rebuilt per run (it
/// is cheap) but the SparseLu's symbolic analysis survives as long as the
/// pattern hash keeps matching — which is how corners sharing a topology
/// share one symbolic analysis.
struct SparseSystem {
  std::vector<linalg::SparseCoord> coords;  ///< raw stamped positions
  linalg::SparsePattern pattern;
  bool pattern_ready = false;
  int use_sparse = -1;  ///< resolved backend for this run: -1 undecided
  linalg::SparseMatrix a;
  linalg::SparseLu lu;
};

/// SolverKind::kAuto: smallest unknown count worth a structure pass.
inline constexpr std::size_t kSparseMinUnknowns = 64;
/// SolverKind::kAuto: densest pattern (nnz / n^2) still solved sparsely.
inline constexpr double kSparseMaxDensity = 0.25;

/// Port-reduced solve state (TransientOptions::cache_lu). P is the set of
/// unknowns the nonlinear devices stamp into (row, column or rhs row); all
/// other unknowns are interior. The linear devices' matrix is split as
///
///   [ A_II  A_IP ] [x_I]   [b_I]        S = A_PP - A_PI W,
///   [ A_PI  A_PP ] [x_P] = [b_P],       W = A_II^-1 A_IP,
///
/// and factored once per (dt, dc, gmin): A_II, with unit diagonals on the
/// port rows, in the backend's LU (the dense `lu` or the mode's
/// SparseSystem), the port rows densely in `border`. Each Newton
/// iteration then solves (S + G) x_P = c + r for the nonlinear devices'
/// k x k stamp G, r, and updates x_P only; x_I = A_II^-1 b_I - W x_P is
/// formed once, when the step is accepted or given up. The bordered
/// form never inverts a port row's own diagonal, which may be gmin alone
/// (a node touched only by nonlinear devices). An interior unknown whose
/// A_II row or column holds nothing but gmin (a voltage source's branch
/// at a port node) joins P for the same reason.
struct PortSystem {
  /// Above this many ports the transient takes the generic path. The
  /// dense port solve costs O(k^3 + nk) per iteration, while the split
  /// saves less as P takes over the system. Eight covers the coupled
  /// buses here and keeps a transistor-level driver (11 of its 16
  /// unknowns nonlinear) on the generic path.
  static constexpr std::size_t kMaxPorts = 8;

  std::vector<const Device*> linear;     ///< the circuit's linear devices
  std::vector<const Device*> nonlinear;  ///< ... and its nonlinear ones
  std::vector<const Device*> rhs;        ///< linear devices with Device::kRhs
  std::vector<int> ports;  ///< P, ascending 0-based unknowns
  std::vector<int> slot;   ///< per unknown: index into ports, or -1
  linalg::Matrix border;   ///< k x n: the linear port rows [A_PI A_PP] (+ gmin)
  linalg::Matrix w;        ///< k x n: row j = column j of W (zero at ports)
  std::vector<double> w_norm;  ///< k: max_i |W(i, j)|, bounds x_I's move per unit of x_P[j]
  linalg::Matrix schur;    ///< k x k: S
  linalg::Matrix m;        ///< k x k: S + G of the current iterate
  linalg::LuFactor m_lu;
  std::vector<double> b;   ///< this step's linear rhs, n
  std::vector<double> wb;  ///< A_II^-1 b_I, n (zero at ports)
  std::vector<double> c;   ///< b_P - A_PI wb, k
  std::vector<double> r;   ///< c + nonlinear rhs, then the candidate x_P, k

  /// How this run's Newton contraction theta = dx_m / dx_(m-1) moved over
  /// three consecutive undamped updates: kUnknown until the first such
  /// triple, kSuperlinear while every one shrank, kLinear for good once
  /// one did not. The contraction stop runs only while kSuperlinear.
  enum class Rate { kUnknown, kSuperlinear, kLinear };
  Rate rate = Rate::kUnknown;

  bool ready = false;   ///< factors valid for the key below
  bool bypass = false;  ///< more than kMaxPorts ports: generic path this run
  bool used = false;    ///< a transient step of this run was solved here
  double key_dt = 0.0;
  bool key_dc = false;
  double key_gmin = 0.0;
};

/// Reusable scratch for the Newton/MNA solve. Hoists the dense system
/// (Jacobian, right-hand side, candidate update) and the LU factorization
/// storage out of the per-step solve, so steady-state stepping performs no
/// heap allocation. One workspace serves one circuit at a time; the
/// two-argument run_transient owns one internally, and batch drivers (the
/// emc::sweep corner runner) pass a long-lived workspace to the
/// three-argument overload so back-to-back analyses of same-sized circuits
/// reuse the dense storage without reallocation.
class NewtonWorkspace {
 public:
  NewtonWorkspace() = default;
  explicit NewtonWorkspace(std::size_t n) { resize(n); }

  /// Size the scratch for an n-unknown system and drop any cached factors
  /// including the sparse symbolic analyses (the topology changed size).
  void resize(std::size_t n);

  /// Forget the port-reduced factorization and port set and the per-run
  /// sparse pattern/backend decisions (topology or configuration may have
  /// changed). The sparse symbolic analyses are kept — they revalidate
  /// themselves against the rebuilt pattern's hash.
  void invalidate();

  linalg::Matrix g;           ///< MNA Jacobian scratch
  std::vector<double> rhs;    ///< right-hand side scratch
  std::vector<double> x_new;  ///< Newton candidate scratch (generic path)
  linalg::LuFactor lu;        ///< refactorizable LU storage (dense backend)

  /// Chunk staging for run_transient_streamed (frame-major, chunk_frames x
  /// channels). Lives in the workspace so batch drivers streaming many
  /// records (sweep corners) reuse one buffer instead of allocating per
  /// run. Untouched by the dense-solve paths; resize() leaves it alone.
  std::vector<double> stream_buf;

  /// Sparse solve state, one per stamping mode (transient / DC).
  SparseSystem sp_tr;
  SparseSystem sp_dc;

  /// Port-reduced factorization of the linear devices (cache_lu).
  PortSystem ports;

  /// |dx|_inf per iteration of the most recent damped Newton solve,
  /// oldest-first and capped at kResidualHistoryCap (older entries are
  /// dropped); the port-reduced path records its port-space bound on it.
  /// Failure reports copy it into SolveErrorInfo so a diverging solve's
  /// trajectory survives the throw. A port-reduced solve with no ports (a
  /// linear circuit) leaves it empty.
  static constexpr std::size_t kResidualHistoryCap = 12;
  std::vector<double> residual_history;
};

struct SolveStats {
  long total_newton_iters = 0;
  long steps = 0;
  long weak_steps = 0;  ///< steps accepted at loose tolerance (diagnostic)

  // Observability extensions (filled by the engine; zero-cost to carry).
  long restamps = 0;         ///< sparse pattern or port-set growth retries (state-dependent structure)
  long dc_newton_iters = 0;  ///< Newton iterations spent on the operating point
  long dc_gmin_stages = 0;   ///< gmin continuation stages attempted
  long dc_source_steps = 0;  ///< source-stepping stages attempted (0 = not needed)
  int used_sparse = -1;      ///< transient backend: 1 sparse, 0 dense, -1 unknown

  /// Fold another run's statistics into this one (backend: keep when
  /// equal, -1 when mixed or unknown).
  void merge(const SolveStats& o) {
    total_newton_iters += o.total_newton_iters;
    steps += o.steps;
    weak_steps += o.weak_steps;
    restamps += o.restamps;
    dc_newton_iters += o.dc_newton_iters;
    dc_gmin_stages += o.dc_gmin_stages;
    dc_source_steps += o.dc_source_steps;
    if (used_sparse != o.used_sparse) used_sparse = -1;
  }
};

/// Full solution record of a transient run. Storage is one contiguous
/// step-major buffer (step k, unknown id at data()[k * n + id - 1]) — a
/// single allocation for the whole record instead of one vector per step.
class TransientResult {
 public:
  TransientResult(double t0, double dt, std::size_t n_unknowns);

  /// Waveform of node/extra unknown `id` (ground returns all-zero).
  sig::Waveform waveform(int id) const;

  /// Raw access for derived quantities.
  double value(std::size_t step, int id) const;
  /// Number of stored records: the initial state plus one per time step.
  std::size_t steps() const { return frames_; }
  double t0() const { return t0_; }
  double dt() const { return dt_; }

  /// The flat step-major sample buffer, steps() x n_unknowns.
  const std::vector<double>& data() const { return data_; }

  SolveStats stats;

 private:
  friend TransientResult run_transient(Circuit& ckt, const TransientOptions& opt,
                                       NewtonWorkspace& ws);
  double t0_, dt_;
  std::size_t n_;
  std::size_t frames_ = 0;
  std::vector<double> data_;  ///< frames_ * n_ samples, step-major
};

/// Solve the DC operating point (writes the solution into x, whose size
/// must be the circuit's unknown count). Uses damped Newton with gmin and
/// source stepping as fallbacks. Throws robust::SolveError (IS-A
/// std::runtime_error; info() carries the failure kind, the schedule
/// attempted and the Newton residual history) if everything fails.
void dc_operating_point(Circuit& ckt, std::vector<double>& x, const TransientOptions& opt);

/// Run a transient analysis; the result holds every unknown at every step
/// (the first record is the state at t_start). Implemented as a recording
/// sink over run_transient_streamed, so the two paths can never drift:
/// the record is bit-identical to what any other sink observes.
TransientResult run_transient(Circuit& ckt, const TransientOptions& opt);

/// Same analysis with caller-owned Newton scratch. The workspace is
/// resized to the circuit's unknown count only when it does not already
/// match (so a batch of equally sized circuits never reallocates) and any
/// cached linear-circuit factorization is dropped (the circuit behind it
/// may have changed). Results are identical to the two-argument overload.
TransientResult run_transient(Circuit& ckt, const TransientOptions& opt,
                              NewtonWorkspace& ws);

/// Streaming transient analysis: instead of materializing the record, emit
/// chunks of `chunk_frames` frames holding only the probed unknowns
/// (flat, frame-major, in `probes` order) through `sink`. Peak memory is
/// O(chunk_frames * probes.size()) on top of the dense solver scratch, for
/// any record length — the entry point for PRBS patterns far beyond what a
/// full record can hold.
///
/// `probes` are unknown ids (0 = ground streams constant 0.0); frame 0 is
/// the state at t_start, followed by one frame per step. The sink sees
/// begin() with the stream geometry (total_frames = step count + 1),
/// gap-free consume() calls, then finish(); if the sink or the solver
/// throws, the exception propagates and finish() is never called. Returns
/// the solver statistics a TransientResult would have carried.
SolveStats run_transient_streamed(Circuit& ckt, const TransientOptions& opt,
                                  NewtonWorkspace& ws, std::span<const int> probes,
                                  sig::SampleSink& sink,
                                  std::size_t chunk_frames = 1024);

}  // namespace emc::ckt
