// Engine-internal behavior: TransientResult bounds checking, SolveStats
// accounting, the linear-device contract the port-reduced path rests on,
// and the port-reduced path itself (cache_lu): one exact solve per step on
// a linear circuit, and on nonlinear ones the same waveforms and Newton
// iteration counts as the generic re-factorizing path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <typeinfo>
#include <utility>
#include <vector>

#include "circuit/devices_linear.hpp"
#include "circuit/devices_nonlinear.hpp"
#include "circuit/engine.hpp"
#include "circuit/netlist.hpp"
#include "circuit/stampers.hpp"
#include "circuit/tline.hpp"
#include "core/circuit_dut.hpp"
#include "core/driver_device.hpp"
#include "core/driver_estimator.hpp"
#include "devices/reference_driver.hpp"
#include "obs/metrics.hpp"
#include "robust/error.hpp"
#include "robust/fault.hpp"

namespace ckt = emc::ckt;

namespace {

/// Step-driven RLC ladder: Vsrc -- R -- L -- node(out) -- C || R_load.
/// Purely linear, with enough state (L, C histories) to exercise the
/// companion-model rhs refresh under a frozen Jacobian.
int build_rlc(ckt::Circuit& c) {
  const int n1 = c.node("in");
  const int n2 = c.node("mid");
  const int out = c.node("out");
  c.add<ckt::VSource>(n1, 0, [](double t) { return t < 1e-9 ? 0.0 : 3.3; });
  c.add<ckt::Resistor>(n1, n2, 25.0);
  c.add<ckt::Inductor>(n2, out, 5e-9);
  c.add<ckt::Capacitor>(out, 0, 10e-12);
  c.add<ckt::Resistor>(out, 0, 1e3);
  return out;
}

ckt::TransientOptions rlc_options() {
  ckt::TransientOptions opt;
  opt.dt = 25e-12;
  opt.t_stop = 10e-9;
  return opt;
}

}  // namespace

TEST(TransientResult, WaveformOutOfRangeIdThrows) {
  ckt::Circuit c;
  const int out = build_rlc(c);
  const auto res = ckt::run_transient(c, rlc_options());

  EXPECT_NO_THROW(res.waveform(0));    // ground: all-zero waveform
  EXPECT_NO_THROW(res.waveform(out));  // valid node
  // 3 nodes + 2 branch currents (VSource, Inductor) = 5 unknowns; id 6 is
  // past the end.
  EXPECT_THROW(res.waveform(6), std::out_of_range);
  EXPECT_THROW(res.waveform(1000), std::out_of_range);
}

TEST(TransientResult, GroundWaveformIsZero) {
  ckt::Circuit c;
  build_rlc(c);
  const auto res = ckt::run_transient(c, rlc_options());
  const auto gnd = res.waveform(0);
  for (std::size_t k = 0; k < gnd.size(); ++k) EXPECT_EQ(gnd[k], 0.0);
}

TEST(SolveStats, PopulatedByTransientRun) {
  ckt::Circuit c;
  build_rlc(c);
  const auto opt = rlc_options();
  const auto res = ckt::run_transient(c, opt);

  const long expected_steps =
      std::llround((opt.t_stop - opt.t_start) / opt.dt);
  EXPECT_EQ(res.stats.steps, expected_steps);
  EXPECT_GE(res.stats.total_newton_iters, res.stats.steps);
  EXPECT_EQ(res.stats.weak_steps, 0);
  // Result holds the initial state plus one record per step.
  EXPECT_EQ(res.steps(), static_cast<std::size_t>(expected_steps) + 1);
}

TEST(LinearFastPath, OneNewtonIterationPerStep) {
  // Regression: a purely linear circuit must ride the cached-LU fast path,
  // which solves each step with exactly one (exact) Newton iteration.
  ckt::Circuit c;
  build_rlc(c);
  const auto res = ckt::run_transient(c, rlc_options());
  EXPECT_EQ(res.stats.total_newton_iters, res.stats.steps);
  EXPECT_EQ(res.stats.weak_steps, 0);
}

TEST(LinearFastPath, MatchesGenericNewtonPath) {
  ckt::Circuit fast, ref;
  const int out_fast = build_rlc(fast);
  const int out_ref = build_rlc(ref);

  auto opt = rlc_options();
  opt.cache_lu = true;
  const auto res_fast = ckt::run_transient(fast, opt);
  opt.cache_lu = false;
  const auto res_ref = ckt::run_transient(ref, opt);

  ASSERT_EQ(res_fast.steps(), res_ref.steps());
  const auto wf = res_fast.waveform(out_fast);
  const auto wr = res_ref.waveform(out_ref);
  double max_dv = 0.0;
  for (std::size_t k = 0; k < wf.size(); ++k)
    max_dv = std::max(max_dv, std::abs(wf[k] - wr[k]));
  EXPECT_LT(max_dv, 1e-9);
}

TEST(LinearFastPath, NonlinearCircuitUsesGenericPath) {
  // A diode clamp makes the circuit nonlinear: Newton must iterate, so the
  // per-step iteration count exceeds one somewhere in the run.
  ckt::Circuit c;
  const int n1 = c.node();
  c.add<ckt::VSource>(n1, 0, [](double t) { return t < 1e-9 ? 0.0 : 3.3; });
  const int out = c.node();
  c.add<ckt::Resistor>(n1, out, 100.0);
  c.add<ckt::Diode>(out, 0);
  c.add<ckt::Capacitor>(out, 0, 1e-12);

  auto opt = rlc_options();
  const auto res = ckt::run_transient(c, opt);
  EXPECT_GT(res.stats.total_newton_iters, res.stats.steps);
}

namespace {

/// Same unknown count as build_rlc (3 nodes + 2 branch currents) but a
/// different connection structure => different sparsity pattern.
int build_rc_ladder(ckt::Circuit& c) {
  const int n1 = c.node();
  const int n2 = c.node();
  const int out = c.node();
  c.add<ckt::VSource>(n1, 0, [](double t) { return t < 1e-9 ? 0.0 : 3.3; });
  c.add<ckt::Resistor>(n1, n2, 50.0);
  c.add<ckt::Resistor>(n2, out, 50.0);
  c.add<ckt::Capacitor>(out, 0, 10e-12);
  c.add<ckt::Inductor>(out, 0, 20e-9);
  return out;
}

double max_waveform_delta(const ckt::TransientResult& a, const ckt::TransientResult& b,
                          int id) {
  const auto wa = a.waveform(id);
  const auto wb = b.waveform(id);
  EXPECT_EQ(wa.size(), wb.size());
  double max_dv = 0.0;
  for (std::size_t k = 0; k < wa.size(); ++k)
    max_dv = std::max(max_dv, std::abs(wa[k] - wb[k]));
  return max_dv;
}

}  // namespace

TEST(WorkspaceInvalidation, DenseCacheDroppedOnOptionChange) {
  // Reusing a workspace across runs with different dt or gmin must refactor
  // rather than reuse a stale cached LU: each run's waveforms must equal a
  // fresh-workspace run of the same configuration exactly.
  ckt::Circuit shared_c, fresh_c;
  const int out_shared = build_rlc(shared_c);
  const int out_fresh = build_rlc(fresh_c);

  ckt::NewtonWorkspace ws;
  auto opt = rlc_options();
  ckt::run_transient(shared_c, opt, ws);  // primes the dt = 25 ps cache

  for (const auto& [dt, gmin] : {std::pair{50e-12, 1e-12}, std::pair{50e-12, 1e-9}}) {
    opt.dt = dt;
    opt.gmin = gmin;
    const auto res = ckt::run_transient(shared_c, opt, ws);
    ckt::NewtonWorkspace fresh_ws;
    const auto ref = ckt::run_transient(fresh_c, opt, fresh_ws);
    EXPECT_EQ(max_waveform_delta(res, ref, out_shared), 0.0)
        << "dt=" << dt << " gmin=" << gmin;
    (void)out_fresh;
  }
}

TEST(WorkspaceInvalidation, SparseSymbolicSurvivesNumericDrop) {
  // Between runs the numeric factors are dropped but the symbolic analysis
  // (pattern-hash-validated) is reused: a second identical run re-factors
  // without re-analyzing, and an option change still matches a fresh run.
  ckt::Circuit c;
  const int out = build_rlc(c);
  auto opt = rlc_options();
  opt.solver = ckt::SolverKind::kSparse;

  ckt::NewtonWorkspace ws;
  ckt::run_transient(c, opt, ws);
  const auto& st = ws.sp_tr.lu.stats();
  EXPECT_EQ(st.analyses, 1);
  const long refactors_first = st.refactors;
  EXPECT_GT(refactors_first, 0);

  ckt::run_transient(c, opt, ws);
  EXPECT_EQ(st.analyses, 1);  // same topology: symbolic reused...
  EXPECT_GT(st.symbolic_reuses, 0);
  EXPECT_GT(st.refactors, refactors_first);  // ...but the numbers were redone

  opt.gmin = 1e-9;
  const auto res = ckt::run_transient(c, opt, ws);
  ckt::Circuit fresh_c;
  build_rlc(fresh_c);
  ckt::NewtonWorkspace fresh_ws;
  const auto ref = ckt::run_transient(fresh_c, opt, fresh_ws);
  EXPECT_EQ(max_waveform_delta(res, ref, out), 0.0);
}

TEST(WorkspaceInvalidation, TopologyChangeSameSizeReanalyzes) {
  // Equal unknown counts keep the workspace buffers, but a different
  // stamped pattern must trigger a fresh symbolic analysis and produce the
  // same waveforms as an unshared workspace.
  ckt::Circuit a, b, b_fresh;
  build_rlc(a);
  const int out_b = build_rc_ladder(b);
  build_rc_ladder(b_fresh);
  ASSERT_EQ(a.finalize(), b.finalize());

  auto opt = rlc_options();
  opt.solver = ckt::SolverKind::kSparse;
  ckt::NewtonWorkspace ws;
  ckt::run_transient(a, opt, ws);
  EXPECT_EQ(ws.sp_tr.lu.stats().analyses, 1);

  const auto res = ckt::run_transient(b, opt, ws);
  EXPECT_EQ(ws.sp_tr.lu.stats().analyses, 2);

  ckt::NewtonWorkspace fresh_ws;
  const auto ref = ckt::run_transient(b_fresh, opt, fresh_ws);
  EXPECT_EQ(max_waveform_delta(res, ref, out_b), 0.0);
}

TEST(SparseSolver, MatchesDenseOnNonlinearCircuit) {
  // Different elimination orders round differently, but the converged
  // waveforms of the two backends must agree to solver tolerance.
  ckt::Circuit dense_c, sparse_c;
  for (ckt::Circuit* c : {&dense_c, &sparse_c}) {
    const int n1 = c->node();
    c->add<ckt::VSource>(n1, 0, [](double t) { return t < 1e-9 ? 0.0 : 3.3; });
    const int out = c->node();
    c->add<ckt::Resistor>(n1, out, 100.0);
    c->add<ckt::Diode>(out, 0);
    c->add<ckt::Capacitor>(out, 0, 1e-12);
  }

  auto opt = rlc_options();
  opt.solver = ckt::SolverKind::kDense;
  const auto res_dense = ckt::run_transient(dense_c, opt);
  opt.solver = ckt::SolverKind::kSparse;
  const auto res_sparse = ckt::run_transient(sparse_c, opt);

  ASSERT_EQ(res_dense.steps(), res_sparse.steps());
  EXPECT_LT(max_waveform_delta(res_dense, res_sparse, 2), 1e-9);
}

TEST(SparseSolver, AutoSelectionByProblemSize) {
  // kAuto below kSparseMinUnknowns must not even build a sparse pattern
  // (the dense path is bit-identical to the pre-sparse engine).
  {
    ckt::Circuit c;
    build_rlc(c);  // 5 unknowns
    ckt::NewtonWorkspace ws;
    ckt::run_transient(c, rlc_options(), ws);
    EXPECT_FALSE(ws.sp_tr.pattern_ready);
    EXPECT_EQ(ws.sp_tr.lu.stats().refactors, 0);
  }

  // kSparseMinUnknowns nodes, each loaded to ground and driven through
  // `link(c, nodes)`: 64 nodes plus the source's branch current. Returns
  // what the transient's backend decision left behind.
  struct Decision {
    bool pattern_ready;
    double density;  ///< nnz / n^2 of the pattern
    int use_sparse;
    long refactors;
  };
  const auto run_network = [](const auto& link) {
    ckt::Circuit c;
    std::vector<int> nodes(ckt::kSparseMinUnknowns);
    for (int& n : nodes) n = c.node();
    c.add<ckt::VSource>(nodes[0], 0, [](double t) { return t < 1e-9 ? 0.0 : 3.3; });
    for (std::size_t k = 1; k < nodes.size(); ++k) c.add<ckt::Capacitor>(nodes[k], 0, 1e-12);
    link(c, nodes);
    EXPECT_GE(static_cast<std::size_t>(c.finalize()), ckt::kSparseMinUnknowns);
    ckt::NewtonWorkspace ws;
    ckt::run_transient(c, rlc_options(), ws);
    const auto n = static_cast<double>(ws.sp_tr.pattern.n());
    return Decision{ws.sp_tr.pattern_ready,
                    static_cast<double>(ws.sp_tr.pattern.nnz()) / (n * n),
                    ws.sp_tr.use_sparse, static_cast<long>(ws.sp_tr.lu.stats().refactors)};
  };

  // Past the size gate but failing the density rule: in a full resistor
  // mesh every node couples to every other, far denser than
  // kSparseMaxDensity. The pattern is built for the decision, then the
  // dense backend is kept.
  const Decision mesh = run_network([](ckt::Circuit& c, const std::vector<int>& n) {
    for (std::size_t i = 0; i < n.size(); ++i)
      for (std::size_t j = i + 1; j < n.size(); ++j) c.add<ckt::Resistor>(n[i], n[j], 1e3);
  });
  EXPECT_TRUE(mesh.pattern_ready);
  EXPECT_GT(mesh.density, ckt::kSparseMaxDensity);
  EXPECT_EQ(mesh.use_sparse, 0);
  EXPECT_EQ(mesh.refactors, 0);

  // Sparse enough: the same nodes as an RC ladder are tridiagonal, so the
  // sparse backend factors them.
  const Decision ladder = run_network([](ckt::Circuit& c, const std::vector<int>& n) {
    for (std::size_t k = 1; k < n.size(); ++k) c.add<ckt::Resistor>(n[k - 1], n[k], 1e3);
  });
  EXPECT_TRUE(ladder.pattern_ready);
  EXPECT_EQ(ladder.use_sparse, 1);
  EXPECT_LE(ladder.density, ckt::kSparseMaxDensity);
  EXPECT_GT(ladder.refactors, 0);
}

TEST(LinearFastPath, DcOperatingPointOfLinearDivider) {
  // The cached-LU path is also taken during DC (dt = 0 key); the divider
  // solution must be exact.
  ckt::Circuit c;
  const int n1 = c.node();
  const int n2 = c.node();
  c.add<ckt::VSource>(n1, 0, 2.0);
  c.add<ckt::Resistor>(n1, n2, 1e3);
  c.add<ckt::Resistor>(n2, 0, 1e3);

  ckt::TransientOptions opt;
  c.finalize();
  std::vector<double> x(3, 0.0);  // 2 nodes + 1 branch current
  ckt::dc_operating_point(c, x, opt);
  EXPECT_NEAR(x[0], 2.0, 1e-9);
  EXPECT_NEAR(x[1], 1.0, 1e-6);
}

// --------------------------------------------------- linear-device contract

namespace {

/// Counts matrix entries and accumulates the right-hand side.
class RhsProbe final : public ckt::Stamper {
 public:
  explicit RhsProbe(std::vector<double>& rhs) : rhs_(rhs) {}
  void g(int, int, double) override { ++g_calls; }
  void rhs(int row_id, double val) override {
    if (row_id != 0) rhs_[static_cast<std::size_t>(row_id) - 1] += val;
  }
  int g_calls = 0;

 private:
  std::vector<double>& rhs_;
};

/// Device::stamp_rhs of `dev` at `st` against its full stamp: a bit-equal
/// right-hand side and not one matrix entry.
void expect_rhs_only(const ckt::Device& dev, const ckt::SimState& st, std::size_t size,
                     const std::string& where) {
  std::vector<double> full(size, 0.0), only(size, 0.0);
  emc::linalg::Matrix g(size, size);
  ckt::DenseStamper st_full(g, full);
  dev.stamp(st_full, st);
  RhsProbe probe(only);
  dev.stamp_rhs(probe, st);
  EXPECT_EQ(probe.g_calls, 0) << where;
  EXPECT_EQ(std::memcmp(full.data(), only.data(), size * sizeof(double)), 0) << where;
}

/// One device of every linear type: R, C, L, V and I sources, Vccs, Vcvs,
/// an ideal line, a modal segment and a lossy coupled line (its segments
/// and skin ladder), on ten nodes, for a transient at step `dt`.
void build_every_linear_type(ckt::Circuit& c, double dt) {
  std::vector<int> n;
  for (int i = 0; i < 10; ++i) n.push_back(c.node());
  c.add<ckt::Resistor>(n[0], n[1], 50.0);
  c.add<ckt::Capacitor>(n[1], 0, 1e-12);
  c.add<ckt::Inductor>(n[1], n[2], 5e-9);
  c.add<ckt::VSource>(n[0], 0, [](double t) { return 1.0 + 1e9 * t; });
  c.add<ckt::ISource>(n[2], 0, [](double t) { return 1e-3 * (1.0 + 1e9 * t); });
  c.add<ckt::Vccs>(n[3], 0, n[0], n[1], 1e-2);
  c.add<ckt::Vcvs>(n[4], 0, n[2], 0, 2.0);
  c.add<ckt::IdealLine>(n[2], 0, n[3], 0, 50.0, 0.2e-9);
  const emc::linalg::Matrix l{{300e-9, 60e-9}, {60e-9, 300e-9}};
  const emc::linalg::Matrix cap{{100e-12, -20e-12}, {-20e-12, 100e-12}};
  c.add<ckt::ModalLineSegment>(std::vector<int>{n[3], n[4]}, std::vector<int>{n[5], n[6]},
                               l, cap, 0.05);
  ckt::CoupledLineParams p;
  p.l = l;
  p.c = cap;
  p.length = 0.1;
  p.loss.rdc = 5.0;
  p.loss.rskin = 1e-3;  // adds the skin-effect R/L ladder
  p.loss.tan_delta = 0.02;
  ckt::add_coupled_lossy_line(c, {n[5], n[6]}, {n[7], n[8]}, p, dt, 3);
  c.add<ckt::Resistor>(n[8], n[9], 10.0);
}

}  // namespace

TEST(LinearDeviceContract, MatrixFixedAfterStartStepRhsIndependentOfCandidate) {
  // The port-reduced path factors the linear devices' matrix once, right
  // after the first start_step, and re-stamps only their right-hand side
  // each step through Device::stamp_rhs. That is sound only if, for every
  // linear device type, the matrix stamped at step 1 is bit-equal to the
  // one at step N, the rhs ignores the candidate x, and stamp_rhs writes
  // exactly stamp's rhs (DC included: a linear circuit's operating point
  // takes the same path) and no matrix entry.
  constexpr double dt = 25e-12;
  ckt::Circuit c;
  build_every_linear_type(c, dt);
  for (const auto& dev : c.devices()) ASSERT_FALSE(dev->nonlinear());

  const auto size = static_cast<std::size_t>(c.finalize());
  const auto& devs = c.devices();
  std::vector<emc::linalg::Matrix> first(devs.size());
  std::vector<double> x_prev(size), x_other(size), rhs_a(size), rhs_b(size);
  for (std::size_t i = 0; i < size; ++i) x_prev[i] = 0.1 * std::sin(0.7 * double(i));
  for (const auto& dev : devs) dev->reset();
  for (std::size_t d = 0; d < devs.size(); ++d)
    expect_rhs_only(*devs[d], ckt::SimState{x_prev, x_prev, 0.0, 0.0, true, 0.5}, size,
                    std::string("dc, device ") + std::to_string(d) + " (" +
                        typeid(*devs[d]).name() + ")");

  for (int k = 1; k <= 60; ++k) {
    const double t = dt * k;
    const ckt::SimState prev{x_prev, x_prev, t, dt, false, 1.0};
    for (const auto& dev : devs) dev->start_step(prev);
    for (std::size_t i = 0; i < size; ++i) x_other[i] = x_prev[i] + 0.3 * std::cos(double(i + k));
    for (std::size_t d = 0; d < devs.size(); ++d) {
      emc::linalg::Matrix g_a(size, size), g_b(size, size);
      std::fill(rhs_a.begin(), rhs_a.end(), 0.0);
      std::fill(rhs_b.begin(), rhs_b.end(), 0.0);
      ckt::DenseStamper st_a(g_a, rhs_a), st_b(g_b, rhs_b);
      devs[d]->stamp(st_a, ckt::SimState{x_prev, x_prev, t, dt, false, 1.0});
      devs[d]->stamp(st_b, ckt::SimState{x_other, x_prev, t, dt, false, 1.0});
      const char* type = typeid(*devs[d]).name();
      ASSERT_EQ(rhs_a, rhs_b) << "device " << d << " (" << type << ") step " << k;
      if (k == 1) first[d] = g_a;
      ASSERT_EQ(std::memcmp(first[d].data(), g_a.data(), size * size * sizeof(double)), 0)
          << "device " << d << " (" << type << ") step " << k;
      expect_rhs_only(*devs[d], ckt::SimState{x_prev, x_prev, t, dt, false, 1.0}, size,
                      "device " + std::to_string(d) + " (" + type + ") step " +
                          std::to_string(k));
    }
    // Commit a moving state so every history term changes.
    for (std::size_t i = 0; i < size; ++i) x_other[i] = x_prev[i] + 0.05 * std::sin(double(3 * k + i));
    const ckt::SimState done{x_other, x_prev, t, dt, false, 1.0};
    for (const auto& dev : devs) dev->commit(done);
    x_prev = x_other;
  }
}

namespace {

/// Device::phases() of the first device of type T in `c`.
template <class T>
unsigned phases_of(const ckt::Circuit& c) {
  for (const auto& dev : c.devices())
    if (dynamic_cast<const T*>(dev.get()) != nullptr) return dev->phases();
  ADD_FAILURE() << "no " << typeid(T).name() << " in the circuit";
  return 0;
}

}  // namespace

TEST(LinearDeviceContract, UndeclaredPhasesWriteNothing) {
  // The engine calls start_step/commit only on devices declaring
  // Device::kStepHooks, and the port-reduced path stamp_rhs only on those
  // declaring Device::kRhs. A skipped hook must be a no-op: without kRhs,
  // stamp_rhs writes no rhs entry; without kStepHooks, start_step and
  // commit leave the device's full stamp bit-equal (its state unchanged).
  constexpr double dt = 25e-12;
  ckt::Circuit c;
  build_every_linear_type(c, dt);

  const auto size = static_cast<std::size_t>(c.finalize());
  const auto& devs = c.devices();
  std::vector<double> x_prev(size), x(size), rhs(size), rhs_before(size);
  for (std::size_t i = 0; i < size; ++i) x_prev[i] = 0.1 * std::sin(0.7 * double(i));
  for (const auto& dev : devs) dev->reset();

  // The declarations the step loop's savings rest on.
  EXPECT_EQ(phases_of<ckt::Resistor>(c), 0u);
  EXPECT_EQ(phases_of<ckt::Vccs>(c), 0u);
  EXPECT_EQ(phases_of<ckt::Vcvs>(c), 0u);
  EXPECT_EQ(phases_of<ckt::Inductor>(c), unsigned{ckt::Device::kRhs});
  EXPECT_EQ(phases_of<ckt::Capacitor>(c), unsigned{ckt::Device::kAllPhases});

  std::size_t skipped_rhs = 0, skipped_hooks = 0;
  for (int k = 1; k <= 40; ++k) {
    const double t = dt * k;
    for (std::size_t i = 0; i < size; ++i) x[i] = x_prev[i] + 0.05 * std::sin(double(3 * k + i));
    const ckt::SimState prev{x_prev, x_prev, t, dt, false, 1.0};
    const ckt::SimState done{x, x_prev, t, dt, false, 1.0};
    for (std::size_t d = 0; d < devs.size(); ++d) {
      ckt::Device& dev = *devs[d];
      const std::string where = "device " + std::to_string(d) + " (" + typeid(dev).name() +
                                ") step " + std::to_string(k);
      if (!(dev.phases() & ckt::Device::kRhs)) {
        std::fill(rhs.begin(), rhs.end(), 0.0);
        ckt::RhsStamper st(rhs);
        dev.stamp_rhs(st, prev);
        EXPECT_EQ(rhs, std::vector<double>(size, 0.0)) << where;
        skipped_rhs += k == 1;
      }
      if (dev.phases() & ckt::Device::kStepHooks) {
        dev.start_step(prev);
        dev.commit(done);
        continue;
      }
      // The full stamp at a fixed state, before and after the hooks.
      emc::linalg::Matrix g_before(size, size), g_after(size, size);
      std::fill(rhs_before.begin(), rhs_before.end(), 0.0);
      std::fill(rhs.begin(), rhs.end(), 0.0);
      ckt::DenseStamper st_before(g_before, rhs_before), st_after(g_after, rhs);
      dev.stamp(st_before, done);
      dev.start_step(prev);
      dev.commit(done);
      dev.stamp(st_after, done);
      EXPECT_EQ(std::memcmp(g_before.data(), g_after.data(), size * size * sizeof(double)), 0)
          << where;
      EXPECT_EQ(std::memcmp(rhs_before.data(), rhs.data(), size * sizeof(double)), 0) << where;
      skipped_hooks += k == 1;
    }
    x_prev = x;
  }
  // Resistors (ladder and terminations), Vccs, Vcvs and the inductors at least.
  EXPECT_GE(skipped_rhs, 4u);
  EXPECT_GE(skipped_hooks, 6u);
}

// ------------------------------------------------------- port-reduced path

namespace {

struct RunOut {
  std::vector<double> record;  ///< all unknowns, step-major
  ckt::SolveStats stats;
  std::size_t ports = 0;  ///< port count the reduced path ended the run with
  ckt::PortSystem::Rate rate = ckt::PortSystem::Rate::kUnknown;  ///< ... and its rate
};

/// One transient of the circuit `build` makes, fresh workspace.
template <class Build>
RunOut run_with(Build build, ckt::TransientOptions opt, bool cache_lu, ckt::SolverKind solver) {
  ckt::Circuit c;
  build(c);
  opt.cache_lu = cache_lu;
  opt.solver = solver;
  ckt::NewtonWorkspace ws;
  auto res = ckt::run_transient(c, opt, ws);
  return {res.data(), res.stats, ws.ports.ports.size(), ws.ports.rate};
}

double max_abs_delta(const std::vector<double>& a, const std::vector<double>& b) {
  EXPECT_EQ(a.size(), b.size());
  double m = 0.0;
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i)
    m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

/// The reduced path (cache_lu) against the generic reference on both
/// backends: every unknown within 1e-7 (10x below the default tol; the
/// reduced path stops on its contraction estimate, the reference on
/// |dx| <= tol), no more Newton iterations than the reference, identical
/// DC iteration and weak-step counts, and the expected port count.
template <class Build>
void expect_matches_reference(Build build, const ckt::TransientOptions& opt,
                              std::size_t ports) {
  for (auto solver : {ckt::SolverKind::kDense, ckt::SolverKind::kSparse}) {
    const RunOut red = run_with(build, opt, true, solver);
    const RunOut ref = run_with(build, opt, false, solver);
    const int s = static_cast<int>(solver);
    EXPECT_LE(max_abs_delta(red.record, ref.record), 1e-7) << "solver " << s;
    EXPECT_LE(red.stats.total_newton_iters, ref.stats.total_newton_iters) << "solver " << s;
    EXPECT_EQ(red.stats.weak_steps, ref.stats.weak_steps) << "solver " << s;
    EXPECT_EQ(red.stats.dc_newton_iters, ref.stats.dc_newton_iters) << "solver " << s;
    EXPECT_EQ(red.ports, ports) << "solver " << s;
    EXPECT_GT(red.stats.total_newton_iters, red.stats.steps) << "solver " << s;
  }
}

/// Fig. 3 coupled on-MCM line (bench/experiments.cpp mcm_fig3_params).
ckt::CoupledLineParams fig3_line() {
  ckt::CoupledLineParams p;
  p.l = emc::linalg::Matrix{{466e-9, 66e-9}, {66e-9, 466e-9}};
  p.c = emc::linalg::Matrix{{66e-12, -6.6e-12}, {-6.6e-12, 66e-12}};
  p.length = 0.1;
  p.loss.rdc = 66.0;
  p.loss.rskin = 1.6e-3;
  p.loss.tan_delta = 0.001;
  p.loss.f_ref = 1e9;
  return p;
}

/// `conductors` R-driven lines of a coupled lossy bus, every far end
/// clamped to ground by a diode and loaded: one port per far end.
void build_clamped_bus(ckt::Circuit& c, int conductors) {
  const auto m = static_cast<std::size_t>(conductors);
  emc::linalg::Matrix l(m, m), cap(m, m);
  for (std::size_t i = 0; i < m; ++i) {
    l(i, i) = 300e-9;
    cap(i, i) = 100e-12;
    if (i + 1 < m) {
      l(i, i + 1) = l(i + 1, i) = 60e-9;
      cap(i, i + 1) = cap(i + 1, i) = -20e-12;
    }
  }
  ckt::CoupledLineParams p;
  p.l = l;
  p.c = cap;
  p.length = 0.2;
  p.loss.rdc = 5.0;
  p.loss.rskin = 1e-3;
  p.loss.tan_delta = 0.02;
  std::vector<int> near, far;
  for (std::size_t k = 0; k < m; ++k) {
    near.push_back(c.node());
    far.push_back(c.node());
  }
  for (std::size_t k = 0; k < m; ++k) {
    const int src = c.node();
    const double t_edge = 0.5e-9 + 0.1e-9 * static_cast<double>(k);
    c.add<ckt::VSource>(src, 0, [t_edge](double t) { return t < t_edge ? 0.0 : 1.5; });
    c.add<ckt::Resistor>(src, near[k], 25.0);
  }
  ckt::add_coupled_lossy_line(c, near, far, p, 50e-12, 4);
  for (std::size_t k = 0; k < m; ++k) {
    c.add<ckt::Diode>(0, far[k]);
    c.add<ckt::Capacitor>(far[k], 0, 2e-12);
  }
}

/// Nonlinear test device: a diode from `a` to ground from the start and a
/// second one from `b` to ground from t_on on — a stamp outside the port
/// set discovered on the first step.
class LateClamp : public ckt::Device {
 public:
  LateClamp(int a, int b, double t_on) : a_(a), b_(b), t_on_(t_on) {}
  bool nonlinear() const override { return true; }
  void stamp(ckt::Stamper& s, const ckt::SimState& st) const override {
    clamp(s, st, a_);
    if (!st.dc && st.t >= t_on_) clamp(s, st, b_);
  }

 private:
  void clamp(ckt::Stamper& s, const ckt::SimState& st, int node) const {
    const auto [i, g] = diode_.eval(st.v(node));
    s.nonlinear_current(node, 0, i, g, st.v(node));
  }

  int a_, b_;
  double t_on_;
  ckt::Diode diode_{0, 0};
};

/// Nonlinear test device: a diode from `a` to ground whose stamp reports
/// `slope_scale` times its true slope, so Newton converges only linearly
/// (contraction about 1 - 1/slope_scale where the diode dominates).
class MisslopedClamp : public ckt::Device {
 public:
  MisslopedClamp(int a, double slope_scale) : a_(a), slope_scale_(slope_scale) {}
  bool nonlinear() const override { return true; }
  void stamp(ckt::Stamper& s, const ckt::SimState& st) const override {
    const double v = st.v(a_);
    const auto [i, g] = diode_.eval(v);
    s.nonlinear_current(a_, 0, i, slope_scale_ * g, v);
  }

 private:
  int a_;
  double slope_scale_;
  ckt::Diode diode_{0, 0};
};

std::uint64_t fnv1a(const std::vector<double>& v) {
  std::uint64_t h = 14695981039346656037ull;
  for (double d : v) {
    unsigned char bytes[sizeof(double)];
    std::memcpy(bytes, &d, sizeof d);
    for (unsigned char byte : bytes) {
      h ^= byte;
      h *= 1099511628211ull;
    }
  }
  return h;
}

/// Linear RLC ladder (6 sections) driven by a 1 ns ramp to 3.3 V.
void build_linear_ladder(ckt::Circuit& c) {
  const int in = c.node();
  c.add<ckt::VSource>(in, 0, [](double t) {
    return t < 1e-9 ? 0.0 : (t < 2e-9 ? 3.3 * (t - 1e-9) / 1e-9 : 3.3);
  });
  int prev = in;
  for (int s = 0; s < 6; ++s) {
    const int mid = c.node();
    const int out = c.node();
    c.add<ckt::Resistor>(prev, mid, 5.0);
    c.add<ckt::Inductor>(mid, out, 2e-9);
    c.add<ckt::Capacitor>(out, 0, 1e-12);
    prev = out;
  }
  c.add<ckt::Resistor>(prev, 0, 50.0);
}

}  // namespace

namespace {

/// MD3, estimated once per test binary.
const emc::core::PwRbfDriverModel& md3_model() {
  static const auto model = emc::core::estimate_driver_model(
      emc::core::CircuitDriverDut(emc::dev::DriverTech::md3_ibm25()));
  return model;
}

constexpr std::string_view kFig3Active = "0110100111010010";

/// The emission corner of the sweep: two PW-RBF drivers (MD3) on the lossy
/// coupled Fig. 3 line, far ends loaded, kFig3Active on the first driver.
/// Only the two pads are ports.
void build_fig3_corner(ckt::Circuit& c) {
  const auto& model = md3_model();
  const std::string active(kFig3Active);
  const int a1 = c.node(), a2 = c.node(), b1 = c.node(), b2 = c.node();
  ckt::add_coupled_lossy_line(c, {a1, a2}, {b1, b2}, fig3_line(), model.ts);
  c.add<ckt::Capacitor>(b1, 0, 1e-12);
  c.add<ckt::Capacitor>(b2, 0, 1e-12);
  c.add<emc::core::DriverDevice>(a1, model, active, 1e-9);
  c.add<emc::core::DriverDevice>(a2, model, std::string(active.size(), '0'), 1e-9);
}

ckt::TransientOptions fig3_options() {
  ckt::TransientOptions opt;
  opt.dt = md3_model().ts;
  opt.t_stop = 1e-9 * static_cast<double>(kFig3Active.size());
  return opt;
}

}  // namespace

TEST(PortReduced, Fig3EmissionCornerMatchesReference) {
  expect_matches_reference(build_fig3_corner, fig3_options(), 2);
}

TEST(PortReduced, ContractionStopCutsIterations) {
  // The contraction stop ends most steps one iteration before |dx| <= tol
  // would: on the Fig. 3 corner the port-reduced path needs at most 0.8x
  // the generic path's Newton iterations (it reads 0.75; without the stop
  // 0.99).
  const RunOut red = run_with(build_fig3_corner, fig3_options(), true, ckt::SolverKind::kAuto);
  const RunOut ref = run_with(build_fig3_corner, fig3_options(), false, ckt::SolverKind::kAuto);
  EXPECT_LE(static_cast<double>(red.stats.total_newton_iters),
            0.8 * static_cast<double>(ref.stats.total_newton_iters));
  EXPECT_EQ(red.stats.steps, ref.stats.steps);
}

TEST(PortReduced, DiodeClampedBusWithEightPorts) {
  // The bench_sparse harness shape at kMaxPorts: eight clamped far ends.
  ckt::TransientOptions opt;
  opt.dt = 50e-12;
  opt.t_stop = 3e-9;
  const auto runs = [] {
    return emc::obs::registry().snapshot().value("ckt.transient.port_reduced_runs");
  };
  const auto before = runs();
  expect_matches_reference([](ckt::Circuit& c) { build_clamped_bus(c, 8); }, opt, 8);
  EXPECT_EQ(runs() - before, 2u);  // the two cache_lu runs, not the references
}

TEST(PortReduced, MorePortsThanLimitTakesGenericPath) {
  ckt::TransientOptions opt;
  opt.dt = 50e-12;
  opt.t_stop = 1e-9;
  const auto build = [](ckt::Circuit& c) { build_clamped_bus(c, 9); };
  for (auto solver : {ckt::SolverKind::kDense, ckt::SolverKind::kSparse}) {
    const RunOut red = run_with(build, opt, true, solver);
    const RunOut ref = run_with(build, opt, false, solver);
    EXPECT_EQ(red.record, ref.record);  // the same generic solve, bit for bit
    EXPECT_EQ(red.stats.total_newton_iters, ref.stats.total_newton_iters);
  }
}

TEST(PortReduced, GminOnlyPortNodeMatchesReference) {
  // The node between two series diodes is stamped by nothing linear: its
  // port row holds gmin alone. The bordered form never inverts it (a
  // Woodbury update of the linear matrix would invert that 1e-12 pivot).
  const auto build = [](ckt::Circuit& c) {
    const int in = c.node(), a = c.node(), mid = c.node();
    c.add<ckt::VSource>(in, 0, [](double t) { return t < 0.5e-9 ? 0.0 : 3.0; });
    c.add<ckt::Resistor>(in, a, 100.0);
    c.add<ckt::Capacitor>(a, 0, 1e-12);
    c.add<ckt::Diode>(a, mid);
    c.add<ckt::Diode>(mid, 0);
  };
  ckt::TransientOptions opt;
  opt.dt = 10e-12;
  opt.t_stop = 3e-9;
  expect_matches_reference(build, opt, 2);
}

TEST(PortReduced, VoltageSourceAtPortJoinsPorts) {
  // A diode straight across a voltage source: the source's branch row and
  // column in the interior block would hold gmin alone, so the branch
  // current joins the ports with the node.
  const auto build = [](ckt::Circuit& c) {
    const int in = c.node(), out = c.node();
    c.add<ckt::VSource>(in, 0, [](double t) { return t < 0.5e-9 ? 0.2 : 0.8; });
    c.add<ckt::Diode>(in, 0);
    c.add<ckt::Resistor>(in, out, 50.0);
    c.add<ckt::Capacitor>(out, 0, 1e-12);
  };
  ckt::TransientOptions opt;
  opt.dt = 10e-12;
  opt.t_stop = 2e-9;
  expect_matches_reference(build, opt, 2);
}

TEST(PortReduced, FloatingNodeOfLinearCircuitIsNoPort) {
  // In DC the capacitor-only island has a gmin-only row, but it touches
  // no port: a linear circuit keeps k = 0 and its one solve per step.
  const auto build = [](ckt::Circuit& c) {
    const int in = c.node(), island = c.node();
    c.add<ckt::VSource>(in, 0, [](double t) { return t < 0.2e-9 ? 0.0 : 1.0; });
    c.add<ckt::Capacitor>(in, island, 1e-12);
    c.add<ckt::Resistor>(in, 0, 50.0);
  };
  ckt::TransientOptions opt;
  opt.dt = 10e-12;
  opt.t_stop = 1e-9;
  const RunOut run = run_with(build, opt, true, ckt::SolverKind::kDense);
  EXPECT_EQ(run.ports, 0u);
  EXPECT_EQ(run.stats.total_newton_iters, run.stats.steps);
  EXPECT_EQ(run.stats.dc_newton_iters, 5);
}

TEST(PortReduced, LateStampOutsidePortsGrowsPortSet) {
  const auto build = [](ckt::Circuit& c) {
    const int in = c.node(), a = c.node(), b = c.node();
    c.add<ckt::VSource>(in, 0, [](double t) { return t < 0.2e-9 ? 0.0 : 2.0; });
    c.add<ckt::Resistor>(in, a, 50.0);
    c.add<ckt::Resistor>(a, b, 50.0);
    c.add<ckt::Capacitor>(b, 0, 1e-12);
    c.add<LateClamp>(a, b, 1e-9);
  };
  ckt::TransientOptions opt;
  opt.dt = 10e-12;
  opt.t_stop = 2e-9;
  expect_matches_reference(build, opt, 2);
  // One growth per run: the first step at t_on stamps node b.
  const RunOut dense = run_with(build, opt, true, ckt::SolverKind::kDense);
  EXPECT_EQ(dense.stats.restamps, 1);
}

TEST(PortReduced, LinearlyConvergingNewtonStaysWithinTol) {
  // A clamp whose stamp overstates its slope 1.5x makes Newton converge
  // only linearly, with a contraction that grows as the diode turns on:
  // the first ratio of a step then underestimates the remaining error, so
  // the contraction stop must stay off. The record stays within tol of a
  // run at tol 1e-12, as the |dx| <= tol test alone keeps it while the
  // contraction stays below 1/2 (error <= theta / (1 - theta) * tol).
  const auto build = [](double slope_scale) {
    return [slope_scale](ckt::Circuit& c) {
      const int in = c.node(), a = c.node(), b = c.node();
      c.add<ckt::VSource>(in, 0, [](double t) {
        const double ph = std::fmod(t, 2e-9);
        return ph < 1e-9 ? 3.0 * ph / 1e-9 : 3.0 * (2e-9 - ph) / 1e-9;
      });
      c.add<ckt::Resistor>(in, a, 50.0);
      c.add<ckt::Capacitor>(a, 0, 0.5e-12);
      c.add<ckt::Resistor>(a, b, 50.0);
      c.add<ckt::Capacitor>(b, 0, 1e-12);
      c.add<MisslopedClamp>(a, slope_scale);
    };
  };
  ckt::TransientOptions opt;
  opt.dt = 10e-12;
  opt.t_stop = 4e-9;
  ckt::TransientOptions tight = opt;
  tight.tol = 1e-12;
  for (auto solver : {ckt::SolverKind::kDense, ckt::SolverKind::kSparse}) {
    const int s = static_cast<int>(solver);
    const RunOut exact = run_with(build(1.0), opt, true, solver);
    const RunOut run = run_with(build(1.5), opt, true, solver);
    const RunOut ref = run_with(build(1.5), tight, true, solver);
    EXPECT_LE(max_abs_delta(run.record, ref.record), opt.tol) << "solver " << s;
    EXPECT_GT(run.stats.total_newton_iters, 2 * exact.stats.total_newton_iters) << "solver " << s;
    EXPECT_EQ(run.stats.weak_steps, 0) << "solver " << s;
    EXPECT_EQ(exact.rate, ckt::PortSystem::Rate::kSuperlinear) << "solver " << s;
    EXPECT_EQ(run.rate, ckt::PortSystem::Rate::kLinear) << "solver " << s;
  }
}

TEST(PortReduced, OneFactorProbePerNewtonIteration) {
  // The kFactor fault site is probed exactly once per Newton iteration,
  // DC and transient, on both paths: an armed fault that skips N probes
  // never fires in a run of N iterations, one that skips N - 1 does.
  const auto build = [](ckt::Circuit& c) { build_clamped_bus(c, 2); };
  ckt::TransientOptions opt;
  opt.dt = 50e-12;
  opt.t_stop = 2e-9;
  for (bool cache_lu : {true, false}) {
    const RunOut clean = run_with(build, opt, cache_lu, ckt::SolverKind::kAuto);
    const long iters = clean.stats.total_newton_iters + clean.stats.dc_newton_iters;
    for (long skip : {iters, iters - 1}) {
      emc::robust::FaultPlan plan;
      emc::robust::FaultSpec spec;
      spec.site = emc::robust::FaultSite::kFactor;
      spec.skip = skip;
      plan.arm(spec);
      emc::robust::ScopedFaultPlan scoped(plan);
      if (skip == iters) {
        EXPECT_NO_THROW(run_with(build, opt, cache_lu, ckt::SolverKind::kAuto));
        EXPECT_EQ(plan.fired(), 0) << "cache_lu " << cache_lu;
      } else {
        EXPECT_THROW(run_with(build, opt, cache_lu, ckt::SolverKind::kAuto),
                     emc::robust::SolveError);
        EXPECT_EQ(plan.fired(), 1) << "cache_lu " << cache_lu;
      }
    }
  }
}

TEST(PortReduced, LinearLadderBitIdenticalToCachedLuRecord) {
  // A linear circuit is the k = 0 case: one exact solve per step, DC
  // included, and the record bit-identical to the cached-LU fast path the
  // port-reduced path replaced (FNV-1a over the record's bytes as that path
  // produced it, IEEE double arithmetic without fused multiply-add).
  ckt::TransientOptions opt;
  opt.dt = 25e-12;
  opt.t_stop = 8e-9;
  const std::pair<ckt::SolverKind, std::uint64_t> expected[] = {
      {ckt::SolverKind::kDense, 0x9693420af3a3d875ull},
      {ckt::SolverKind::kSparse, 0xf67f111e5766e1e3ull},
  };
  for (const auto& [solver, hash] : expected) {
    const RunOut run = run_with(build_linear_ladder, opt, true, solver);
    EXPECT_EQ(fnv1a(run.record), hash) << "solver " << static_cast<int>(solver);
    EXPECT_EQ(run.stats.total_newton_iters, run.stats.steps);
    EXPECT_EQ(run.stats.dc_newton_iters, 5);  // one solve per gmin stage
    EXPECT_EQ(run.ports, 0u);
  }
}

namespace {

/// A repeating 0 -> 3.3 V -> 0 ramp into the Fig. 3 coupled lossy line
/// (quiet conductor terminated in 50 ohm), both far ends capacitively
/// loaded, and an ideal line from one far end into a third load.
ckt::CoupledLineHandle build_coupled_ramp(ckt::Circuit& c, ckt::IdealLine*& tail) {
  const int a1 = c.node(), a2 = c.node(), b1 = c.node(), b2 = c.node(), d = c.node();
  c.add<ckt::VSource>(a1, 0, [](double t) {
    const double ph = std::fmod(t, 4e-9);
    return ph < 2e-9 ? 3.3 * ph / 2e-9 : 3.3 * (4e-9 - ph) / 2e-9;
  });
  c.add<ckt::Resistor>(a2, 0, 50.0);
  const auto line = ckt::add_coupled_lossy_line(c, {a1, a2}, {b1, b2}, fig3_line(), 25e-12);
  c.add<ckt::Capacitor>(b1, 0, 2e-12);
  c.add<ckt::Capacitor>(b2, 0, 2e-12);
  tail = &c.add<ckt::IdealLine>(b1, 0, d, 0, 50.0, 0.3e-9);
  c.add<ckt::Capacitor>(d, 0, 1e-12);
  return line;
}

}  // namespace

TEST(PortReduced, CoupledLineRecordBitIdenticalWithBoundedHistory) {
  // Line wave histories are trimmed once they hold twice their delay
  // window (floor(td_max/dt) + 3 samples). Over a run more than 25x the
  // longest modal delay of the whole line the trim fires many times, and the
  // record stays bit-identical to the one the untrimmed, whole-run
  // histories produced (FNV-1a as for the ladder above).
  ckt::TransientOptions opt;
  opt.dt = 25e-12;
  opt.t_stop = 16e-9;
  const std::pair<ckt::SolverKind, std::uint64_t> expected[] = {
      {ckt::SolverKind::kDense, 0xe87cbb3548fdaf10ull},
      {ckt::SolverKind::kSparse, 0xd955d86b5d532f9bull},
  };
  const auto bound = [&](double td_max) {
    return 2 * (static_cast<std::size_t>(std::floor(td_max / opt.dt)) + 3);
  };
  for (const auto& [solver, hash] : expected) {
    const int s = static_cast<int>(solver);
    ckt::Circuit c;
    ckt::IdealLine* tail = nullptr;
    const auto line = build_coupled_ramp(c, tail);
    opt.solver = solver;
    ckt::NewtonWorkspace ws;
    const auto res = ckt::run_transient(c, opt, ws);
    EXPECT_EQ(fnv1a(res.data()), hash) << "solver " << s;
    EXPECT_EQ(res.stats.total_newton_iters, res.stats.steps) << "solver " << s;

    ASSERT_EQ(line.segments.size(), 16u);
    for (const ckt::ModalLineSegment* seg : line.segments) {
      double td_max = 0.0;
      for (std::size_t m = 0; m < seg->modes(); ++m) td_max = std::max(td_max, seg->modal_td(m));
      EXPECT_LE(seg->history_samples(), bound(td_max)) << "solver " << s;
      EXPECT_GE(seg->history_samples(), bound(td_max) / 2) << "solver " << s;
    }
    EXPECT_LE(tail->history_samples(), bound(tail->td())) << "solver " << s;
    EXPECT_LT(bound(tail->td()), static_cast<std::size_t>(res.stats.steps) / 20);
  }
}
