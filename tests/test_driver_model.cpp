#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "circuit/devices_linear.hpp"
#include "circuit/engine.hpp"
#include "circuit/netlist.hpp"
#include "circuit/tline.hpp"
#include "core/circuit_dut.hpp"
#include "core/driver_device.hpp"
#include "core/driver_estimator.hpp"
#include "core/validation.hpp"
#include "devices/reference_driver.hpp"
#include "signal/sources.hpp"
#include "sweep/thread_pool.hpp"
#include "test_model_hash.hpp"

using namespace emc;

/// Estimate the MD1-class model once for the whole suite (the estimation
/// itself is the expensive step).
class DriverModelTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    tech_ = new dev::DriverTech(dev::DriverTech::md1_lvc244());
    dut_ = new core::CircuitDriverDut(*tech_);
    model_ = new core::PwRbfDriverModel(core::estimate_driver_model(*dut_));
    model_->name = "MD1-test";
  }
  static void TearDownTestSuite() {
    delete model_;
    delete dut_;
    delete tech_;
    model_ = nullptr;
    dut_ = nullptr;
    tech_ = nullptr;
  }

  static dev::DriverTech* tech_;
  static core::CircuitDriverDut* dut_;
  static core::PwRbfDriverModel* model_;
};

dev::DriverTech* DriverModelTest::tech_ = nullptr;
core::CircuitDriverDut* DriverModelTest::dut_ = nullptr;
core::PwRbfDriverModel* DriverModelTest::model_ = nullptr;

TEST_F(DriverModelTest, SubmodelsFreeRunAccuracy) {
  const auto rep = core::validate_submodels(*dut_, *model_);
  EXPECT_LT(rep.rel_rms_high, 0.10);
  EXPECT_LT(rep.rel_rms_low, 0.10);
}

TEST_F(DriverModelTest, StaticHighIvIsMonotone) {
  double prev = -1e9;
  for (double v = -0.5; v <= tech_->vdd + 1.0; v += 0.2) {
    const double i = model_->steady_current(true, v);
    EXPECT_GE(i, prev - 2e-3) << "at v = " << v;  // small tolerance for RBF ripple
    prev = i;
  }
}

TEST_F(DriverModelTest, StaticIvZeroAtOwnRail) {
  // i_H at VDD and i_L at 0 V correspond to the unloaded settled states
  // (tolerance ~4% of the +-0.45 A full scale the model was fitted over).
  EXPECT_NEAR(model_->steady_current(true, tech_->vdd), 0.0, 0.02);
  EXPECT_NEAR(model_->steady_current(false, 0.0), 0.0, 0.02);
}

TEST_F(DriverModelTest, StaticIvSignsMatchDriverAction) {
  // High state below VDD: driver sources current (i into pin negative).
  EXPECT_LT(model_->steady_current(true, 1.0), -0.05);
  // Low state above 0: driver sinks current.
  EXPECT_GT(model_->steady_current(false, 2.0), 0.05);
}

namespace {

/// The damped recursion i <- (i + f(v..v, i..i)) / 2 run for `steps`
/// steps from i = 0: a slow but plain reference for the fixed point.
double damped_fixed_point(const core::PwRbfDriverModel& m, bool high, double v, int steps) {
  const std::vector<double> v_hist(static_cast<std::size_t>(m.orders.nv) + 1, v);
  std::vector<double> i_hist(static_cast<std::size_t>(m.orders.ni), 0.0);
  double i = 0.0;
  for (int k = 0; k < steps; ++k) {
    i = 0.5 * i + 0.5 * m.submodel_current(high, v_hist, i_hist);
    for (auto& h : i_hist) h = i;
  }
  return i;
}

}  // namespace

TEST_F(DriverModelTest, SteadyCurrentIsTheSubmodelFixedPoint) {
  const dev::DriverTech md3 = dev::DriverTech::md3_ibm25();
  const core::PwRbfDriverModel model3 =
      core::estimate_driver_model(core::CircuitDriverDut(md3));
  const double v_margin = core::DriverEstimationOptions{}.v_margin;
  const std::pair<const core::PwRbfDriverModel*, double> models[] = {{model_, tech_->vdd},
                                                                     {&model3, md3.vdd}};
  for (const auto& [m, vdd] : models) {
    for (const bool high : {true, false}) {
      // The identified range [-v_margin, vdd + v_margin] in 0.1 V steps.
      for (int k = 0; -v_margin + 0.1 * k <= vdd + v_margin + 1e-9; ++k) {
        const double v = -v_margin + 0.1 * k;
        SCOPED_TRACE(::testing::Message() << "vdd " << vdd << (high ? " i_H" : " i_L")
                                          << " at v = " << v);
        double di_dv = 0.0;
        const double i = m->steady_current(high, v, &di_dv);
        const std::vector<double> v_hist(static_cast<std::size_t>(m->orders.nv) + 1, v);
        const std::vector<double> i_hist(static_cast<std::size_t>(m->orders.ni), i);
        EXPECT_LE(std::abs(m->submodel_current(high, v_hist, i_hist) - i), 1e-11);
        EXPECT_NEAR(i, damped_fixed_point(*m, high, v, 20000), 1e-10);
        // Central difference; relative to 10 mS where the slope crosses 0.
        const double h = 1e-5;
        const double cd =
            (m->steady_current(high, v + h) - m->steady_current(high, v - h)) / (2.0 * h);
        EXPECT_NEAR(di_dv, cd, 1e-5 * std::max(std::abs(cd), 1e-2));
      }
    }
  }
}

TEST_F(DriverModelTest, WeightSequencesStartAndSettleCorrectly) {
  ASSERT_FALSE(model_->up.empty());
  ASSERT_FALSE(model_->down.empty());
  // Up: starts at the Low steady pair and settles at the High pair.
  EXPECT_NEAR(model_->up.wh.front(), 0.0, 1e-9);
  EXPECT_NEAR(model_->up.wl.front(), 1.0, 1e-9);
  EXPECT_NEAR(model_->up.wh.back(), 1.0, 1e-9);
  EXPECT_NEAR(model_->up.wl.back(), 0.0, 1e-9);
  EXPECT_NEAR(model_->down.wh.front(), 1.0, 1e-9);
  EXPECT_NEAR(model_->down.wl.back(), 1.0, 1e-9);
}

TEST_F(DriverModelTest, WeightsStayInPhysicalBand) {
  for (const auto* seq : {&model_->up, &model_->down}) {
    for (std::size_t k = 0; k < seq->size(); ++k) {
      EXPECT_GE(seq->wh[k], -0.3);
      EXPECT_LE(seq->wh[k], 1.3);
      EXPECT_GE(seq->wl[k], -0.3);
      EXPECT_LE(seq->wl[k], 1.3);
    }
  }
}

TEST_F(DriverModelTest, WeightsAtBeyondSequenceAreSteady) {
  const auto [wh, wl] = model_->weights_at(true, model_->up.size() + 100);
  EXPECT_DOUBLE_EQ(wh, 1.0);
  EXPECT_DOUBLE_EQ(wl, 0.0);
}

namespace {

/// Closed-loop run of either the macromodel or the reference on a load
/// builder; returns the pad waveform.
template <typename LoadFn>
sig::Waveform closed_loop(const dev::DriverTech& tech, const core::PwRbfDriverModel* model,
                          const std::string& bits, double bit_time, double t_stop,
                          LoadFn&& add_load) {
  ckt::Circuit c;
  const int pad = c.node();
  add_load(c, pad);
  if (model) {
    c.add<core::DriverDevice>(pad, *model, bits, bit_time);
  } else {
    auto pattern = sig::bit_stream(bits, bit_time, 0.1e-9, 0.0, tech.vdd);
    auto inst = dev::build_reference_driver(c, tech,
                                            [pattern](double t) { return pattern(t); });
    c.add<ckt::Resistor>(inst.pad, pad, 1e-3);
  }
  ckt::TransientOptions topt;
  topt.dt = 25e-12;
  topt.t_stop = t_stop;
  auto res = ckt::run_transient(c, topt);
  return res.waveform(pad);
}

}  // namespace

TEST_F(DriverModelTest, ClosedLoopResistorLoadTracksReference) {
  auto load = [](ckt::Circuit& c, int pad) { c.add<ckt::Resistor>(pad, c.ground(), 50.0); };
  const auto v_ref = closed_loop(*tech_, nullptr, "01", 3e-9, 9e-9, load);
  const auto v_mod = closed_loop(*tech_, model_, "01", 3e-9, 9e-9, load);
  const auto rep = core::validate_waveform("r-load", v_ref, v_mod, tech_->vdd / 2, 0.2e-9);
  EXPECT_LT(rep.rel_rms, 0.10);
  ASSERT_TRUE(rep.timing_error.has_value());
  EXPECT_LT(*rep.timing_error, 20e-12);  // the paper's Section 5 bound
}

TEST_F(DriverModelTest, ClosedLoopTransmissionLineTimingError) {
  // The paper's Figure 1 class of validation: line + far capacitor.
  auto load = [](ckt::Circuit& c, int pad) {
    const int far = c.node();
    c.add<ckt::IdealLine>(pad, c.ground(), far, c.ground(), 50.0, 0.5e-9);
    c.add<ckt::Capacitor>(far, c.ground(), 10e-12);
  };
  const auto v_ref = closed_loop(*tech_, nullptr, "01", 2e-9, 12e-9, load);
  const auto v_mod = closed_loop(*tech_, model_, "01", 2e-9, 12e-9, load);
  const auto rep = core::validate_waveform("line", v_ref, v_mod, tech_->vdd / 2, 0.2e-9);
  EXPECT_LT(rep.rel_rms, 0.10);
  ASSERT_TRUE(rep.timing_error.has_value());
  EXPECT_LT(*rep.timing_error, 20e-12);
}

TEST_F(DriverModelTest, ClosedLoopPulsePattern) {
  // A "010" pulse exercises both weight sequences back to back.
  auto load = [](ckt::Circuit& c, int pad) { c.add<ckt::Resistor>(pad, c.ground(), 100.0); };
  const auto v_ref = closed_loop(*tech_, nullptr, "010", 2.5e-9, 10e-9, load);
  const auto v_mod = closed_loop(*tech_, model_, "010", 2.5e-9, 10e-9, load);
  const auto rep = core::validate_waveform("pulse", v_ref, v_mod, tech_->vdd / 2, 0.3e-9);
  EXPECT_LT(rep.rel_rms, 0.12);
  ASSERT_TRUE(rep.timing_error.has_value());
  EXPECT_LT(*rep.timing_error, 30e-12);
}

TEST_F(DriverModelTest, TheveninSimulatorMatchesCircuitDevice) {
  const auto v_fast = core::simulate_driver_on_thevenin(
      *model_, "01", 3e-9, [](double) { return 0.0; }, 50.0, 9e-9);
  auto load = [](ckt::Circuit& c, int pad) { c.add<ckt::Resistor>(pad, c.ground(), 50.0); };
  const auto v_mna = closed_loop(*tech_, model_, "01", 3e-9, 9e-9, load);
  EXPECT_LT(sig::max_error(v_mna, v_fast), 0.05);
}

TEST_F(DriverModelTest, SimulateOnVoltageMatchesRecordedCurrent) {
  const auto rec = dut_->switching_response("01", 2e-9, 50.0, 0.0, model_->ts, 8e-9);
  const auto i_model = core::simulate_driver_on_voltage(
      *model_, rec.v, static_cast<std::size_t>(2e-9 / model_->ts), true);
  double num = 0.0, den = 0.0;
  for (std::size_t k = 0; k < rec.i.size(); ++k) {
    num += std::pow(i_model[k] - rec.i[k], 2);
    den += std::pow(rec.i[k], 2);
  }
  // The current-domain error is dominated by the brief +-60 mA switching
  // spikes, so the relative bound is looser than the voltage-domain
  // validation (the paper's figure of merit), which stays below 10%.
  EXPECT_LT(std::sqrt(num / den), 0.30);
}

TEST_F(DriverModelTest, DeviceRequiresMatchingTimeStep) {
  ckt::Circuit c;
  const int pad = c.node();
  c.add<core::DriverDevice>(pad, *model_, "01", 2e-9);
  c.add<ckt::Resistor>(pad, c.ground(), 50.0);
  ckt::TransientOptions topt;
  topt.dt = 10e-12;  // != Ts
  topt.t_stop = 1e-9;
  EXPECT_THROW(ckt::run_transient(c, topt), std::runtime_error);
}

TEST_F(DriverModelTest, DeviceValidation) {
  EXPECT_THROW(core::DriverDevice(1, *model_, "", 1e-9), std::invalid_argument);
  EXPECT_THROW(core::DriverDevice(1, *model_, "01", 0.0), std::invalid_argument);
}

TEST_F(DriverModelTest, SimulatorInputValidation) {
  EXPECT_THROW(core::simulate_driver_on_voltage(*model_, sig::Waveform(), 0, true),
               std::invalid_argument);
  EXPECT_THROW(core::simulate_driver_on_thevenin(*model_, "", 1e-9,
                                                 [](double) { return 0.0; }, 50.0, 1e-9),
               std::invalid_argument);
  EXPECT_THROW(core::simulate_driver_on_thevenin(*model_, "01", 1e-9,
                                                 [](double) { return 0.0; }, -1.0, 1e-9),
               std::invalid_argument);
}

namespace {

/// The RBF submodels alone: what the OLS fits produce.
std::uint64_t submodel_hash(const core::PwRbfDriverModel& m) {
  Fnv1a f;
  f.add(m.f_high);
  f.add(m.f_low);
  return f.h;
}

/// Everything estimation produces: the submodels, then the up and down
/// weight sequences.
std::uint64_t model_hash(const core::PwRbfDriverModel& m) {
  Fnv1a f;
  f.add(m.f_high);
  f.add(m.f_low);
  f.add(m.up.wh);
  f.add(m.up.wl);
  f.add(m.down.wh);
  f.add(m.down.wl);
  return f.h;
}

}  // namespace

TEST(DriverEstimation, ModelsAreBitIdenticalOnAnyPool) {
  const std::pair<const char*, dev::DriverTech> techs[] = {
      {"MD1", dev::DriverTech::md1_lvc244()},
      {"MD2", dev::DriverTech::md2_ibm18()},
      {"MD3", dev::DriverTech::md3_ibm25()}};
  sweep::ThreadPool one(1), two(2), three(3);
  for (const auto& [name, tech] : techs) {
    const core::CircuitDriverDut dut(tech);
    const auto serial = core::estimate_driver_model(dut, {}, &one);
    for (sweep::ThreadPool* pool : {&two, &three}) {
      EXPECT_EQ(model_hash(serial), model_hash(core::estimate_driver_model(dut, {}, pool)))
          << name << " on " << pool->workers() << " workers";
    }
    const auto shared = core::estimate_driver_model(dut);  // the process-wide pool
    EXPECT_EQ(model_hash(serial), model_hash(shared)) << name;
    // MD3 drives every sweep bench, so a change in any fitted number shows
    // here. The submodels are pinned to the serial estimator that preceded
    // the pool; the whole model (weights included) to the Newton
    // steady-state solve that seeds the weight estimation's free runs.
    if (std::string(name) == "MD3") {
      EXPECT_EQ(submodel_hash(shared), 0xae84078a30ccdd5bull);
      EXPECT_EQ(model_hash(shared), 0xca636946627bf85dull);
    }
  }
}

namespace {

/// Thrown by SyntheticDut's switching records; not a std::runtime_error,
/// so a conversion on the way out would show.
struct SwitchingFault : std::logic_error {
  using std::logic_error::logic_error;
};

/// A DUT whose records cost nothing: flat zeros. Either every switching
/// record throws, or the state records are cut to 50 samples; either way
/// the estimate stops before its first fit.
class SyntheticDut final : public core::DriverDut {
 public:
  enum class Fault { kSwitchingThrows, kShortStateRecord };
  explicit SyntheticDut(Fault fault) : fault_(fault) {}

  double vdd() const override { return 1.8; }

  core::PortRecord forced_response(bool, const sig::Pwl&, double, double dt,
                                   double) const override {
    return flat(fault_ == Fault::kShortStateRecord ? 50 : 200, dt);
  }

  core::PortRecord switching_response(const std::string& bits, double, double, double,
                                      double dt, double) const override {
    if (fault_ == Fault::kSwitchingThrows) throw SwitchingFault("switching record " + bits);
    return flat(200, dt);
  }

 private:
  static core::PortRecord flat(std::size_t n, double dt) {
    return {sig::Waveform(0.0, dt, std::vector<double>(n, 0.0)),
            sig::Waveform(0.0, dt, std::vector<double>(n, 0.0))};
  }

  Fault fault_;
};

}  // namespace

TEST(DriverEstimation, RecordFailuresPropagateOnAnyPool) {
  sweep::ThreadPool one(1), four(4);
  for (sweep::ThreadPool* pool : {&one, &four}) {
    const SyntheticDut throwing(SyntheticDut::Fault::kSwitchingThrows);
    EXPECT_THROW(core::estimate_driver_model(throwing, {}, pool), SwitchingFault)
        << pool->workers() << " workers";

    const SyntheticDut short_record(SyntheticDut::Fault::kShortStateRecord);
    try {
      core::estimate_driver_model(short_record, {}, pool);
      ADD_FAILURE() << "a 50-sample state record was accepted on " << pool->workers()
                    << " workers";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("identification record too short"),
                std::string::npos)
          << e.what();
    }
  }
}
