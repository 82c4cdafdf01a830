#include <gtest/gtest.h>

#include <cmath>

#include "circuit/devices_linear.hpp"
#include "circuit/engine.hpp"
#include "circuit/netlist.hpp"
#include "core/circuit_dut.hpp"
#include "core/receiver_device.hpp"
#include "core/receiver_estimator.hpp"
#include "core/validation.hpp"
#include "signal/sources.hpp"
#include "test_model_hash.hpp"

using namespace emc;

class ReceiverModelTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    tech_ = new dev::ReceiverTech(dev::ReceiverTech::md4_ibm18());
    dut_ = new core::CircuitReceiverDut(*tech_);
    model_ = new core::ParametricReceiverModel(core::estimate_receiver_model(*dut_));
    cr_ = new core::CrReceiverModel(core::estimate_cr_model(*dut_));
  }
  static void TearDownTestSuite() {
    delete cr_;
    delete model_;
    delete dut_;
    delete tech_;
    cr_ = nullptr;
    model_ = nullptr;
    dut_ = nullptr;
    tech_ = nullptr;
  }

  /// Record the reference response to a trapezoid of given amplitude.
  static core::PortRecord trapezoid_record(double amp, double rs, double t_stop) {
    auto tz = sig::trapezoid(0.0, amp, 0.4e-9, 0.1e-9, 3e-9, 0.1e-9);
    return dut_->forced_response(tz, rs, 25e-12, t_stop);
  }

  static dev::ReceiverTech* tech_;
  static core::CircuitReceiverDut* dut_;
  static core::ParametricReceiverModel* model_;
  static core::CrReceiverModel* cr_;
};

dev::ReceiverTech* ReceiverModelTest::tech_ = nullptr;
core::CircuitReceiverDut* ReceiverModelTest::dut_ = nullptr;
core::ParametricReceiverModel* ReceiverModelTest::model_ = nullptr;
core::CrReceiverModel* ReceiverModelTest::cr_ = nullptr;

TEST_F(ReceiverModelTest, LinearRegionParametricBeatsCr) {
  // Paper Figure 5: inside the rails the parametric model tracks the
  // reference current closely; the C-R model is a rough approximation.
  const auto rec = trapezoid_record(1.0, 10.0, 5e-9);
  const auto i_par = core::simulate_receiver_on_voltage(*model_, rec.v);
  const auto i_cr = core::simulate_cr_on_voltage(*cr_, rec.v);

  const auto rep_par = core::validate_waveform("par", rec.i, i_par, 0.02);
  const auto rep_cr = core::validate_waveform("cr", rec.i, i_cr, 0.02);
  EXPECT_LT(rep_par.rel_rms, 0.10);
  EXPECT_GT(rep_cr.rel_rms, 1.5 * rep_par.rel_rms);
}

TEST_F(ReceiverModelTest, NonlinearRegionParametricStaysAccurate) {
  // Amplitudes beyond VDD engage the protection clamps (paper Figure 6).
  for (double amp : {2.5, 3.3}) {
    const auto rec = trapezoid_record(amp, 50.0, 6e-9);
    const auto i_par = core::simulate_receiver_on_voltage(*model_, rec.v);
    const auto rep = core::validate_waveform("par", rec.i, i_par, 0.02);
    EXPECT_LT(rep.rel_rms, 0.10) << "amp = " << amp;
  }
}

TEST_F(ReceiverModelTest, EstimatedModelIsBitIdenticalToPin) {
  // MD4's linear ARX part and both clamp fits, pinned to the receiver
  // estimator's clamp fit as a held-out sigma search over OLS paths: a
  // change in any fitted number shows here.
  Fnv1a f;
  f.add(model_->lin);
  f.add(model_->up);
  f.add(model_->dn);
  EXPECT_EQ(f.h, 0x67890ddd2f04fc4dull);
}

TEST_F(ReceiverModelTest, LinearSubmodelIsNearlyLossless) {
  // A receiver inside the rails is capacitive: near-zero DC gain.
  EXPECT_NEAR(model_->lin.dc_gain(), 0.0, 1e-4);
}

TEST_F(ReceiverModelTest, StaticCurrentClampShape) {
  // Tiny leakage inside the rails, strong conduction beyond them.
  EXPECT_NEAR(model_->static_current(0.9), 0.0, 2e-3);
  EXPECT_GT(model_->static_current(tech_->vdd + 1.0), 5e-3);
  EXPECT_LT(model_->static_current(-1.0), -5e-3);
}

TEST_F(ReceiverModelTest, CrModelCapacitanceMatchesTechnology) {
  const double c_expected = tech_->c_pad + tech_->c_esd;
  EXPECT_NEAR(cr_->c, c_expected, 0.25 * c_expected);
}

TEST_F(ReceiverModelTest, CrTableIsMonotone) {
  for (std::size_t k = 1; k < cr_->iv.size(); ++k)
    EXPECT_GE(cr_->iv[k].second, cr_->iv[k - 1].second - 1e-6);
}

TEST_F(ReceiverModelTest, DeviceClosedLoopMatchesReferencePinVoltage) {
  // Replace the reference receiver by the macromodel at the end of a
  // resistive divider and compare the resulting pin voltages.
  auto run = [&](bool use_model) {
    ckt::Circuit c;
    const int src = c.node();
    const int pin = c.node();
    auto tz = sig::trapezoid(0.0, 2.5, 0.4e-9, 0.1e-9, 2e-9, 0.1e-9);
    c.add<ckt::VSource>(src, c.ground(), [tz](double t) { return tz(t); });
    c.add<ckt::Resistor>(src, pin, 50.0);
    if (use_model) {
      c.add<core::ReceiverDevice>(pin, *model_);
    } else {
      auto inst = dev::build_reference_receiver(c, *tech_);
      c.add<ckt::Resistor>(inst.pin, pin, 1e-3);
    }
    ckt::TransientOptions topt;
    topt.dt = 25e-12;
    topt.t_stop = 5e-9;
    auto res = ckt::run_transient(c, topt);
    return res.waveform(pin);
  };
  const auto v_ref = run(false);
  const auto v_mod = run(true);
  const auto rep = core::validate_waveform("pin", v_ref, v_mod, 1.25, 0.2e-9);
  EXPECT_LT(rep.rel_rms, 0.05);
  ASSERT_TRUE(rep.timing_error.has_value());
  EXPECT_LT(*rep.timing_error, 20e-12);
}

TEST_F(ReceiverModelTest, CrDeviceBuildsAndClamps) {
  ckt::Circuit c;
  const int src = c.node();
  const int pin = c.node();
  auto tz = sig::trapezoid(0.0, 3.3, 0.4e-9, 0.1e-9, 2e-9, 0.1e-9);
  c.add<ckt::VSource>(src, c.ground(), [tz](double t) { return tz(t); });
  c.add<ckt::Resistor>(src, pin, 50.0);
  core::add_cr_receiver(c, pin, *cr_);
  ckt::TransientOptions topt;
  topt.dt = 25e-12;
  topt.t_stop = 5e-9;
  auto res = ckt::run_transient(c, topt);
  const auto v = res.waveform(pin);
  // The static clamp must keep the pin well below the source amplitude.
  EXPECT_LT(v.max_value(), 3.1);
}

TEST_F(ReceiverModelTest, CrDeviceValidation) {
  ckt::Circuit c;
  core::CrReceiverModel empty;
  EXPECT_THROW(core::add_cr_receiver(c, 1, empty), std::invalid_argument);
}

TEST_F(ReceiverModelTest, DeviceRequiresMatchingTimeStep) {
  ckt::Circuit c;
  const int pin = c.node();
  c.add<ckt::Resistor>(pin, c.ground(), 50.0);
  c.add<core::ReceiverDevice>(pin, *model_);
  ckt::TransientOptions topt;
  topt.dt = 10e-12;
  topt.t_stop = 1e-9;
  EXPECT_THROW(ckt::run_transient(c, topt), std::runtime_error);
}

TEST_F(ReceiverModelTest, SimulateValidation) {
  EXPECT_THROW(core::simulate_receiver_on_voltage(*model_, sig::Waveform()),
               std::invalid_argument);
  EXPECT_THROW(core::simulate_cr_on_voltage(*cr_, sig::Waveform()), std::invalid_argument);
}
