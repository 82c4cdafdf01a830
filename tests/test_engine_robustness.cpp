// Robustness paths of the transient engine: DC convergence fallbacks,
// degenerate circuits, stats accounting, and device interactions not
// covered by the physics suites.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "circuit/devices_linear.hpp"
#include "circuit/devices_nonlinear.hpp"
#include "circuit/engine.hpp"
#include "circuit/netlist.hpp"
#include "signal/sources.hpp"

using namespace emc::ckt;

TEST(EngineRobustness, FloatingNodeRegularizedByGmin) {
  // A node connected only through a capacitor has no DC path; the gmin
  // leak must keep the operating point solvable.
  Circuit ckt;
  const int vin = ckt.node();
  const int island = ckt.node();
  ckt.add<VSource>(vin, ckt.ground(), 1.0);
  ckt.add<Capacitor>(vin, island, 1e-12);

  TransientOptions opt;
  opt.dt = 1e-10;
  opt.t_stop = 1e-9;
  auto res = run_transient(ckt, opt);
  EXPECT_TRUE(std::isfinite(res.waveform(island)[0]));
}

TEST(EngineRobustness, StiffDiodeDcConverges) {
  // A hard-driven diode stack is the classic gmin/source-stepping test.
  Circuit ckt;
  const int vin = ckt.node();
  int prev = vin;
  ckt.add<VSource>(vin, ckt.ground(), 12.0);
  for (int k = 0; k < 4; ++k) {
    const int nxt = ckt.node();
    ckt.add<Diode>(prev, nxt);
    prev = nxt;
  }
  ckt.add<Resistor>(prev, ckt.ground(), 10.0);

  TransientOptions opt;
  opt.dt = 1e-10;
  opt.t_stop = 1e-9;
  auto res = run_transient(ckt, opt);
  // ~0.75 V per diode, the rest across the resistor.
  const double v_load = res.waveform(prev)[0];
  EXPECT_GT(v_load, 7.0);
  EXPECT_LT(v_load, 11.0);
}

TEST(EngineRobustness, StatsCountStepsAndIterations) {
  Circuit ckt;
  const int a = ckt.node();
  ckt.add<VSource>(a, ckt.ground(), 1.0);
  ckt.add<Resistor>(a, ckt.ground(), 50.0);

  TransientOptions opt;
  opt.dt = 1e-10;
  opt.t_stop = 1e-8;
  auto res = run_transient(ckt, opt);
  EXPECT_EQ(res.stats.steps, 100);
  EXPECT_GE(res.stats.total_newton_iters, res.stats.steps);
  EXPECT_EQ(res.stats.weak_steps, 0);  // a linear circuit always converges
}

TEST(EngineRobustness, ResultIndexValidation) {
  Circuit ckt;
  const int a = ckt.node();
  ckt.add<VSource>(a, ckt.ground(), 1.0);
  ckt.add<Resistor>(a, ckt.ground(), 50.0);
  TransientOptions opt;
  opt.dt = 1e-10;
  opt.t_stop = 1e-9;
  auto res = run_transient(ckt, opt);
  EXPECT_NO_THROW(res.waveform(0));  // ground: all zeros
  EXPECT_DOUBLE_EQ(res.waveform(0)[3], 0.0);
  EXPECT_THROW(res.waveform(999), std::out_of_range);
}

TEST(EngineRobustness, NamedNodesAreStable) {
  Circuit ckt;
  const int a = ckt.node("pad");
  const int b = ckt.node("pad");
  EXPECT_EQ(a, b);
  const int c = ckt.node("other");
  EXPECT_NE(a, c);
  EXPECT_EQ(ckt.ground(), 0);
}

TEST(EngineRobustness, InductorCurrentContinuousAcrossDc) {
  // DC current through an inductor must carry into the transient without
  // a jump (the extra unknown is seeded by the operating point).
  Circuit ckt;
  const int vin = ckt.node();
  const int mid = ckt.node();
  ckt.add<VSource>(vin, ckt.ground(), 2.0);
  ckt.add<Resistor>(vin, mid, 100.0);
  auto& ind = ckt.add<Inductor>(mid, ckt.ground(), 1e-6);

  TransientOptions opt;
  opt.dt = 1e-10;
  opt.t_stop = 1e-8;
  auto res = run_transient(ckt, opt);
  const auto i = res.waveform(ind.current_id());
  for (std::size_t k = 0; k < i.size(); ++k) EXPECT_NEAR(i[k], 0.02, 1e-4);
}

TEST(EngineRobustness, SourceFunctionSampledAtStepTimes) {
  // The engine must evaluate time-dependent sources at the *new* time of
  // each step (off-by-one here shifts every waveform by dt).
  Circuit ckt;
  const int a = ckt.node();
  ckt.add<VSource>(a, ckt.ground(), [](double t) { return t * 1e9; });
  ckt.add<Resistor>(a, ckt.ground(), 50.0);

  TransientOptions opt;
  opt.dt = 1e-10;
  opt.t_stop = 1e-9;
  auto res = run_transient(ckt, opt);
  const auto v = res.waveform(a);
  EXPECT_NEAR(v[5], 0.5, 1e-9);   // t = 0.5 ns -> 0.5 V
  EXPECT_NEAR(v[10], 1.0, 1e-9);  // t = 1.0 ns -> 1.0 V
}

TEST(EngineRobustness, TableCurrentScaleIsLive) {
  // The IBIS device relies on updating a TableCurrent's scale between
  // steps; verify the scale factor applies at stamp time.
  std::vector<std::pair<double, double>> iv{{-1.0, -1e-3}, {1.0, 1e-3}};
  Circuit ckt;
  const int a = ckt.node();
  auto& vs = ckt.add<VSource>(a, ckt.ground(), 1.0);
  auto& tc = ckt.add<TableCurrent>(a, ckt.ground(), iv);
  tc.set_scale(3.0);

  TransientOptions opt;
  opt.dt = 1e-10;
  opt.t_stop = 1e-9;
  auto res = run_transient(ckt, opt);
  // Source supplies 3x the table current: branch current = -3 mA.
  EXPECT_NEAR(res.waveform(vs.current_id())[5], -3e-3, 1e-6);
}

TEST(EngineRobustness, ZeroVoltSourceActsAsAmmeter) {
  // The standard current-probe idiom: a 0 V source in series.
  Circuit ckt;
  const int vin = ckt.node();
  const int mid = ckt.node();
  ckt.add<VSource>(vin, ckt.ground(), 5.0);
  auto& probe = ckt.add<VSource>(vin, mid, 0.0);
  ckt.add<Resistor>(mid, ckt.ground(), 1000.0);

  TransientOptions opt;
  opt.dt = 1e-10;
  opt.t_stop = 1e-9;
  auto res = run_transient(ckt, opt);
  EXPECT_NEAR(res.waveform(mid)[2], 5.0, 1e-6);
  EXPECT_NEAR(res.waveform(probe.current_id())[2], 5e-3, 1e-8);
}

namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Counts stamp calls without contributing to the system.
class StampCounter : public Device {
 public:
  explicit StampCounter(int* calls) : calls_(calls) {}
  void stamp(Stamper& s, const SimState& st) const override {
    (void)s;
    (void)st;
    ++*calls_;
  }

 private:
  int* calls_;
};

}  // namespace

TEST(EngineRobustness, RejectsBadOptionsBeforeStamping) {
  // max_newton = 0 used to accept every step unsolved at x_prev (a flat
  // 0 V waveform), and a NaN time passed the ordering checks and set the
  // step count through llround. Every such option must throw before any
  // device is stamped.
  Circuit ckt;
  const int vin = ckt.node();
  const int out = ckt.node();
  ckt.add<VSource>(vin, ckt.ground(), 1.0);
  ckt.add<Resistor>(vin, out, 100.0);
  ckt.add<Capacitor>(out, ckt.ground(), 1e-12);
  ckt.add<Diode>(out, ckt.ground());
  int stamps = 0;
  ckt.add<StampCounter>(&stamps);

  TransientOptions good;
  good.dt = 1e-11;
  good.t_stop = 2e-9;
  const std::vector<std::pair<const char*, void (*)(TransientOptions&)>> cases = {
      {"max_newton 0", [](TransientOptions& o) { o.max_newton = 0; }},
      {"max_newton -1", [](TransientOptions& o) { o.max_newton = -1; }},
      {"dt NaN", [](TransientOptions& o) { o.dt = kNan; }},
      {"dt inf", [](TransientOptions& o) { o.dt = kInf; }},
      {"t_stop NaN", [](TransientOptions& o) { o.t_stop = kNan; }},
      {"t_stop inf", [](TransientOptions& o) { o.t_stop = kInf; }},
      {"t_start NaN", [](TransientOptions& o) { o.t_start = kNan; }},
      {"t_start -inf", [](TransientOptions& o) { o.t_start = -kInf; }},
      {"tol 0", [](TransientOptions& o) { o.tol = 0.0; }},
      {"tol -1", [](TransientOptions& o) { o.tol = -1.0; }},
      {"tol NaN", [](TransientOptions& o) { o.tol = kNan; }},
      {"tol inf", [](TransientOptions& o) { o.tol = kInf; }},
      {"dx_limit 0", [](TransientOptions& o) { o.dx_limit = 0.0; }},
      {"dx_limit NaN", [](TransientOptions& o) { o.dx_limit = kNan; }},
      {"dx_limit inf", [](TransientOptions& o) { o.dx_limit = kInf; }},
      {"gmin -1e-12", [](TransientOptions& o) { o.gmin = -1e-12; }},
      {"gmin NaN", [](TransientOptions& o) { o.gmin = kNan; }},
      {"gmin inf", [](TransientOptions& o) { o.gmin = kInf; }},
  };
  for (const auto& [name, corrupt] : cases) {
    TransientOptions bad = good;
    corrupt(bad);
    EXPECT_THROW(run_transient(ckt, bad), std::invalid_argument) << name;
    EXPECT_EQ(stamps, 0) << name;
  }

  // The same circuit with valid options solves: the diode clamps the
  // 1 V step well above 0 V.
  const auto res = run_transient(ckt, good);
  EXPECT_GT(stamps, 0);
  EXPECT_GT(res.waveform(out)[res.steps() - 1], 0.5);
}
