// Microbenchmarks of the substrate: they explain where the Table 1 CPU
// time goes (dense MNA solves vs device evaluation) and quantify the cost
// of the macromodel primitives (RBF evaluation, OLS estimation).
#include <benchmark/benchmark.h>

#include <cmath>

#include "circuit/devices_linear.hpp"
#include "circuit/devices_nonlinear.hpp"
#include "circuit/engine.hpp"
#include "circuit/netlist.hpp"
#include "circuit/tline.hpp"
#include "core/circuit_dut.hpp"
#include "core/driver_device.hpp"
#include "core/driver_estimator.hpp"
#include "experiments.hpp"
#include "ident/rbf.hpp"
#include "linalg/decomp.hpp"
#include "signal/sample_sink.hpp"
#include "signal/sources.hpp"
#include "sweep/corner_grid.hpp"
#include "sweep/thread_pool.hpp"

namespace {

using namespace emc;

void BM_DenseLuSolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  linalg::Matrix a(n, n);
  sig::Lcg rng(7);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.uniform() - 0.5;
  for (std::size_t i = 0; i < n; ++i) a(i, i) += static_cast<double>(n);
  std::vector<double> b(n, 1.0);
  for (auto _ : state) {
    auto x = linalg::LuFactor(a).solve(b);
    benchmark::DoNotOptimize(x);
  }
}

void BM_RbfEval(benchmark::State& state) {
  const auto nb = static_cast<std::size_t>(state.range(0));
  const std::size_t dim = 5;  // order-2 NARX regressor
  ident::Scaler sc(std::vector<double>(dim, 0.0), std::vector<double>(dim, 1.0));
  linalg::Matrix centers(nb, dim);
  std::vector<double> w(nb, 0.1);
  sig::Lcg rng(3);
  for (std::size_t j = 0; j < nb; ++j)
    for (std::size_t k = 0; k < dim; ++k) centers(j, k) = rng.uniform() * 2.0 - 1.0;
  ident::RbfModel m(sc, centers, w, 0.0, 1.5);

  std::vector<double> x(dim, 0.3);
  for (auto _ : state) {
    double g = 0.0;
    const double y = m.eval_with_grad(x, 0, &g);
    benchmark::DoNotOptimize(y);
    benchmark::DoNotOptimize(g);
  }
}

void BM_TransientRcLadder(benchmark::State& state) {
  // Cost per simulated nanosecond of a linear ladder with n sections.
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    ckt::Circuit c;
    sig::Pwl step({{0.0, 0.0}, {0.1e-9, 1.0}});
    int prev = c.node();
    c.add<ckt::VSource>(prev, c.ground(), [step](double t) { return step(t); });
    for (int k = 0; k < n; ++k) {
      const int nxt = c.node();
      c.add<ckt::Resistor>(prev, nxt, 10.0);
      c.add<ckt::Capacitor>(nxt, c.ground(), 1e-12);
      prev = nxt;
    }
    ckt::TransientOptions opt;
    opt.dt = 25e-12;
    opt.t_stop = 1e-9;
    auto res = ckt::run_transient(c, opt);
    benchmark::DoNotOptimize(res);
  }
}

void BM_TransientCmosInverter(benchmark::State& state) {
  // Nonlinear Newton cost: one switching CMOS stage per step.
  for (auto _ : state) {
    ckt::Circuit c;
    const int vdd = c.node();
    const int in = c.node();
    const int out = c.node();
    c.add<ckt::VSource>(vdd, c.ground(), 2.5);
    auto bits = sig::bit_stream("0101", 1e-9, 0.1e-9, 0.0, 2.5);
    c.add<ckt::VSource>(in, c.ground(), [bits](double t) { return bits(t); });
    ckt::MosParams pn;
    pn.vt0 = 0.5;
    ckt::MosParams pp;
    pp.type = ckt::MosType::Pmos;
    pp.vt0 = 0.5;
    pp.w = 25e-6;
    c.add<ckt::Mosfet>(out, in, c.ground(), pn);
    c.add<ckt::Mosfet>(out, in, vdd, pp);
    c.add<ckt::Capacitor>(out, c.ground(), 50e-15);
    ckt::TransientOptions opt;
    opt.dt = 25e-12;
    opt.t_stop = 4e-9;
    auto res = ckt::run_transient(c, opt);
    benchmark::DoNotOptimize(res);
  }
}

/// The transient_bus corner of verdictbench: two MD3 PW-RBF drivers on the
/// 0.1 m Fig. 3 line, 1 pF far-end loads, the first pattern seed's 15-bit
/// PRBS repeated 4 times, the far-end land streamed into a NullSink
/// through one reused workspace (as a sweep worker runs it). `steps` = 0
/// runs the whole pattern. Estimation runs once, outside the timed loop.
struct BusCorner {
  core::PwRbfDriverModel model = exp::make_driver_model(dev::DriverTech::md3_ibm25(), "MD3");
  std::string active;
  ckt::CoupledLineParams line = exp::mcm_fig3_params();
  ckt::TransientOptions opt;
  ckt::NewtonWorkspace ws;
  sig::NullSink sink;

  explicit BusCorner(std::size_t steps) {
    for (int p = 0; p < 4; ++p) active += sweep::prbs_bits(1, 15);
    line.length = 0.1;
    opt.dt = model.ts;
    opt.t_stop = steps == 0 ? 1e-9 * static_cast<double>(active.size())
                            : opt.dt * static_cast<double>(steps);
  }

  ckt::SolveStats run() {
    ckt::Circuit c;
    const int a1 = c.node(), a2 = c.node(), b1 = c.node(), b2 = c.node();
    ckt::add_coupled_lossy_line(c, {a1, a2}, {b1, b2}, line, model.ts);
    c.add<ckt::Capacitor>(b1, c.ground(), 1e-12);
    c.add<ckt::Capacitor>(b2, c.ground(), 1e-12);
    c.add<core::DriverDevice>(a1, model, active, 1e-9);
    c.add<core::DriverDevice>(a2, model, std::string(active.size(), '0'), 1e-9);
    const int probes[] = {b1};
    return ckt::run_transient_streamed(c, opt, ws, probes, sink);
  }
};

void BM_CornerTransient(benchmark::State& state) {
  // One transient_bus corner on one thread.
  BusCorner corner(0);
  ckt::SolveStats stats;
  for (auto _ : state) {
    stats = corner.run();
    benchmark::DoNotOptimize(stats);
  }
  const auto steps = static_cast<double>(stats.steps);
  // The inverted step rate: time per step (printed in us).
  state.counters["time_per_step"] = benchmark::Counter(
      steps, benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
  state.counters["iters_per_step"] =
      benchmark::Counter(static_cast<double>(stats.total_newton_iters) / steps);
}

void BM_CornerSetup(benchmark::State& state) {
  // The same corner run for one step: circuit and driver construction,
  // reset, the DC operating point, post_dc and the first step.
  BusCorner corner(1);
  for (auto _ : state) {
    const ckt::SolveStats stats = corner.run();
    benchmark::DoNotOptimize(stats);
  }
}

/// Synthetic NARX-sized regression data: `n` rows of 5 inputs in [-2, 2].
ident::Dataset ols_dataset(std::size_t n) {
  ident::Dataset ds{linalg::Matrix(n, 5), std::vector<double>(n)};
  sig::Lcg rng(11);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t cidx = 0; cidx < 5; ++cidx) ds.x(r, cidx) = rng.uniform() * 4.0 - 2.0;
    ds.y[r] = std::tanh(ds.x(r, 0)) + 0.2 * ds.x(r, 3);
  }
  return ds;
}

void BM_OlsFit(benchmark::State& state) {
  // RBF estimation cost on a synthetic NARX-sized dataset (the per-model
  // cost of the paper's "low cost of generation" claim). Args: rows, basis
  // functions, pool workers; 5 inputs and the default 400 candidate
  // centers. 7668 x 26 is the shape of one driver submodel path (orders
  // 2/2, MD1-MD3); the model is the same at every worker count.
  const ident::Dataset ds = ols_dataset(static_cast<std::size_t>(state.range(0)));
  ident::RbfFitOptions opt;
  opt.max_basis = static_cast<int>(state.range(1));
  sweep::ThreadPool pool(static_cast<std::size_t>(state.range(2)));
  for (auto _ : state) {
    const ident::OlsPath path(ds.x, ds.y, opt, &pool);
    auto m = path.model(static_cast<std::size_t>(opt.max_basis));
    benchmark::DoNotOptimize(m);
  }
}

void BM_FitBest(benchmark::State& state) {
  // One driver submodel fit: fit_rbf_best over the driver estimator's
  // sigma and basis grids on 7668 x 5, so four OLS paths share one
  // candidate workspace. The score is a cheap one-step error on every
  // 16th row, so the time is the paths'. Arg: pool workers.
  const ident::Dataset ds = ols_dataset(7668);
  const double sigma_grid[] = {1.0, 1.5, 2.2, 3.2};
  const int basis_grid[] = {6, 10, 14, 18, 22, 26};
  const auto score = [&](const ident::RbfModel& m) {
    double e = 0.0;
    for (std::size_t r = 0; r < ds.x.rows(); r += 16) {
      const double d = m.eval(ds.x.row(r)) - ds.y[r];
      e += d * d;
    }
    return e;
  };
  sweep::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto m = ident::fit_rbf_best(ds.x, ds.y, ident::RbfFitOptions{}, sigma_grid, basis_grid,
                                 score, &pool);
    benchmark::DoNotOptimize(m);
  }
}

void BM_EstimateDriver(benchmark::State& state) {
  // One MD3 driver estimate, records and fits: the eight transistor-level
  // identification records and the OLS paths run on a pool of
  // Arg workers. The model is the same at every worker count.
  const core::CircuitDriverDut dut(dev::DriverTech::md3_ibm25());
  sweep::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto m = core::estimate_driver_model(dut, {}, &pool);
    benchmark::DoNotOptimize(m);
  }
}

}  // namespace

BENCHMARK(BM_DenseLuSolve)->Arg(32)->Arg(64)->Arg(128)->Arg(256);
BENCHMARK(BM_RbfEval)->Arg(8)->Arg(16)->Arg(32);
BENCHMARK(BM_TransientRcLadder)->Arg(8)->Arg(32)->Arg(64)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TransientCmosInverter)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CornerTransient)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CornerSetup)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_OlsFit)
    ->Args({4000, 8, 1})
    ->Args({4000, 16, 1})
    ->Args({4000, 24, 1})
    ->Args({7668, 26, 1})
    ->Args({7668, 26, 4})
    ->UseRealTime()  // the pool's helpers do part of the work
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FitBest)->Arg(1)->Arg(4)->UseRealTime()->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EstimateDriver)->Arg(1)->Arg(4)->UseRealTime()->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
