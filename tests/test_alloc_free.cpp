// The per-step transient path allocates nothing: a counting global
// operator new (this binary only) brackets the PW-RBF evaluation, the
// driver stamp and whole Fig. 3 emission-corner transients. A per-step
// heap allocation shows as a count that grows with the step count. The
// same operator new also sums the bytes, which bounds what one driver-size
// PW-RBF fit and one transistor-level identification record allocate.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "circuit/devices_linear.hpp"
#include "circuit/engine.hpp"
#include "circuit/netlist.hpp"
#include "circuit/stampers.hpp"
#include "circuit/tline.hpp"
#include "core/circuit_dut.hpp"
#include "core/driver_device.hpp"
#include "core/driver_estimator.hpp"
#include "devices/reference_driver.hpp"
#include "ident/rbf.hpp"
#include "signal/sample_sink.hpp"
#include "signal/sources.hpp"
#include "sweep/thread_pool.hpp"

namespace {
std::atomic<long> g_allocations{0};
std::atomic<std::size_t> g_bytes{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace ckt = emc::ckt;
namespace core = emc::core;

namespace {

long allocations() { return g_allocations.load(std::memory_order_relaxed); }
std::size_t allocated_bytes() { return g_bytes.load(std::memory_order_relaxed); }

class AllocFree : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    model_ = new core::PwRbfDriverModel(
        core::estimate_driver_model(core::CircuitDriverDut(emc::dev::DriverTech::md3_ibm25())));
  }
  static void TearDownTestSuite() {
    delete model_;
    model_ = nullptr;
  }

  /// Allocations made by one Fig. 3 MD3 emission-corner transient of
  /// `steps` steps (as in PortReduced.Fig3EmissionCornerMatchesReference)
  /// streamed into a NullSink in chunks of `chunk_frames` frames, circuit
  /// construction included.
  static long corner_allocations(std::size_t steps, std::size_t chunk_frames) {
    const long before = allocations();
    {
      const std::string active = "0110100111010010";
      ckt::Circuit c;
      const int a1 = c.node(), a2 = c.node(), b1 = c.node(), b2 = c.node();
      ckt::CoupledLineParams p;
      p.l = emc::linalg::Matrix{{466e-9, 66e-9}, {66e-9, 466e-9}};
      p.c = emc::linalg::Matrix{{66e-12, -6.6e-12}, {-6.6e-12, 66e-12}};
      p.length = 0.1;
      p.loss.rdc = 66.0;
      p.loss.rskin = 1.6e-3;
      p.loss.tan_delta = 0.001;
      ckt::add_coupled_lossy_line(c, {a1, a2}, {b1, b2}, p, model_->ts);
      c.add<ckt::Capacitor>(b1, 0, 1e-12);
      c.add<ckt::Capacitor>(b2, 0, 1e-12);
      c.add<core::DriverDevice>(a1, *model_, active, 1e-9);
      c.add<core::DriverDevice>(a2, *model_, std::string(active.size(), '0'), 1e-9);

      ckt::TransientOptions opt;
      opt.dt = model_->ts;
      opt.t_stop = opt.dt * static_cast<double>(steps);
      ckt::NewtonWorkspace ws;
      emc::sig::NullSink sink;
      const std::vector<int> probes{a1, b1, b2};
      ckt::run_transient_streamed(c, opt, ws, probes, sink, chunk_frames);
    }
    return allocations() - before;
  }

  static core::PwRbfDriverModel* model_;
};

core::PwRbfDriverModel* AllocFree::model_ = nullptr;

TEST_F(AllocFree, PwRbfEvaluationAndDriverStamp) {
  const core::PwRbfDriverModel& m = *model_;
  const std::vector<double> v_hist(static_cast<std::size_t>(m.orders.nv) + 1, 1.2);
  const std::vector<double> i_hist(static_cast<std::size_t>(m.orders.ni), -0.01);
  core::SubmodelState sub(m, true, 1.2);

  // "01" switches at 1 ns, so the steps below cover the steady weights
  // (one submodel skipped) and the transition (both evaluated).
  core::DriverDevice drv(1, m, "01", 1e-9);
  std::vector<double> x(1, 0.0), rhs(1, 0.0);
  emc::linalg::Matrix g(1, 1);
  ckt::DenseStamper st(g, rhs);
  drv.reset();
  drv.post_dc(ckt::SimState{x, x, 0.0, 0.0, true, 1.0});

  double sink = 0.0;
  const long before = allocations();
  for (int k = 0; k < 3; ++k) {
    double d = 0.0;
    sink += m.submodel_current(k % 2 == 0, v_hist, i_hist, &d) + d;
    sink += m.submodel_current(k % 2 == 0, v_hist, i_hist);
    sink += sub.peek(1.1, &d) + sub.peek(1.3) + d;
    sink += sub.step(1.2, &d);
  }
  for (int k = 1; k <= 120; ++k) {
    const double t = m.ts * k;
    x[0] = 1.5 + 0.01 * k;
    const ckt::SimState state{x, x, t, m.ts, false, 1.0};
    drv.start_step(state);
    drv.stamp(st, state);
    drv.commit(state);
  }
  const long made = allocations() - before;
  EXPECT_EQ(made, 0);
  EXPECT_TRUE(std::isfinite(sink + g(0, 0) + rhs[0]));
}

TEST_F(AllocFree, SteadyCurrentAllocatesNothing) {
  // The DC side of the driver: the steady-state solve with and without its
  // slope, the DC stamp and the reseeds of reset() and post_dc().
  const core::PwRbfDriverModel& m = *model_;
  core::DriverDevice drv(1, m, "01", 1e-9);
  std::vector<double> x(1, 0.7), rhs(1, 0.0);
  emc::linalg::Matrix g(1, 1);
  ckt::DenseStamper st(g, rhs);
  const ckt::SimState dc{x, x, 0.0, 0.0, true, 1.0};

  double sink = 0.0;
  const long before = allocations();
  for (int k = 0; k < 8; ++k) {
    const double v = -1.0 + 0.5 * k;
    double di_dv = 0.0;
    sink += m.steady_current(k % 2 == 0, v) + m.steady_current(k % 2 != 0, v, &di_dv) + di_dv;
  }
  drv.reset();
  drv.stamp(st, dc);
  drv.post_dc(dc);
  const long made = allocations() - before;
  EXPECT_EQ(made, 0);
  EXPECT_TRUE(std::isfinite(sink + g(0, 0) + rhs[0]));
}

TEST_F(AllocFree, Fig3CornerTransientStepsAllocateNothing) {
  // 64-frame chunks: the runs flush 6 and 18 full chunks, so an equal
  // count also shows the chunk staging buffer is reused, i.e. a streamed
  // transient holds O(chunk) memory over a record many chunks long.
  constexpr std::size_t kChunk = 64;
  corner_allocations(40, kChunk);  // first-use setup: metric registry, trace tables
  const long short_run = corner_allocations(400, kChunk);
  const long long_run = corner_allocations(1200, kChunk);
  EXPECT_EQ(long_run - short_run, 0) << "allocations per step: "
                                     << static_cast<double>(long_run - short_run) / 800.0;
}

/// A NARX dataset of the driver records' shape: 7668 rows of orders
/// (2, 2), so 5 regressors, from a seeded staircase through a saturating
/// second-order system.
emc::ident::Dataset driver_sized_dataset() {
  const std::size_t len = 7670;
  emc::sig::Lcg rng(5);
  std::vector<double> v(len), i(len, 0.0);
  double level = 0.0;
  for (std::size_t k = 0; k < len; ++k) {
    if (k % 40 == 0) level = 3.5 * rng.uniform() - 0.5;
    v[k] = level + 0.05 * (rng.uniform() - 0.5);
    if (k >= 2)
      i[k] = 0.6 * i[k - 1] - 0.1 * i[k - 2] + 0.02 * std::tanh(2.0 * (v[k] - 1.25)) -
             0.01 * v[k - 1];
  }
  return emc::ident::build_narx_dataset(emc::sig::Waveform(0.0, 1.0, v),
                                        emc::sig::Waveform(0.0, 1.0, i),
                                        emc::ident::NarxOrders{2, 2});
}

TEST(AllocBytes, FitBestHoldsOneCandidateMatrixAcrossItsSigmaPaths) {
  const emc::ident::Dataset ds = driver_sized_dataset();
  ASSERT_EQ(ds.x.rows(), 7668u);
  ASSERT_EQ(ds.x.cols(), 5u);
  // The driver estimator's grids and candidate count.
  const double sigma_grid[] = {1.0, 1.5, 2.2, 3.2};
  const int basis_grid[] = {6, 10, 14, 18, 22, 26};
  const emc::ident::RbfFitOptions opt;
  const std::size_t matrix_bytes =
      static_cast<std::size_t>(opt.max_candidates) * ds.x.rows() * sizeof(double);
  // Allocation-free score, so the bytes below are the fit's own.
  const auto score = [&](const emc::ident::RbfModel& m) {
    double e = 0.0;
    for (std::size_t r = 0; r < ds.x.rows(); r += 16) {
      const double d = m.eval(ds.x.row(r)) - ds.y[r];
      e += d * d;
    }
    return e;
  };

  emc::sweep::ThreadPool pool(4);
  for (emc::sweep::ThreadPool* p : {static_cast<emc::sweep::ThreadPool*>(nullptr), &pool}) {
    const std::size_t before = allocated_bytes();
    const auto model = emc::ident::fit_rbf_best(ds.x, ds.y, opt, sigma_grid, basis_grid,
                                                score, p);
    const std::size_t made = allocated_bytes() - before;
    EXPECT_LT(static_cast<double>(made), 1.5 * static_cast<double>(matrix_bytes))
        << (p ? "pool" : "inline") << ": "
        << static_cast<double>(made) / static_cast<double>(matrix_bytes)
        << " candidate matrices";
    EXPECT_GT(model.num_basis(), 0u);
  }
}

TEST(AllocBytes, DriverRecordHoldsOnlyThePortChannels) {
  // The estimator's state record (default options): 7668 steps of the MD3
  // transistor-level driver, about 18 unknowns. Only the pad and the
  // source node are recorded, so the record, its two waveforms and the
  // solver scratch stay under six channels of samples.
  const core::DriverEstimationOptions opt;
  const core::CircuitDriverDut dut(emc::dev::DriverTech::md3_ibm25());
  const auto vsrc =
      emc::sig::multilevel_signal(-opt.v_margin, dut.vdd() + opt.v_margin, opt.n_levels,
                                  opt.n_steps, opt.t_hold, opt.t_edge, opt.seed);
  const double t_stop = (opt.t_hold + opt.t_edge) * (opt.n_steps + 2);

  const std::size_t before = allocated_bytes();
  const auto rec = dut.forced_response(true, vsrc, opt.rs, opt.ts, t_stop);
  const std::size_t made = allocated_bytes() - before;

  ASSERT_EQ(rec.v.size(), 7669u);
  const std::size_t channel_bytes = rec.v.size() * sizeof(double);
  EXPECT_LT(made, 6 * channel_bytes)
      << static_cast<double>(made) / static_cast<double>(channel_bytes) << " channels";
}

}  // namespace
