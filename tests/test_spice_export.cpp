#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/spice_export.hpp"
#include "ident/arx.hpp"
#include "ident/rbf.hpp"
#include "test_temp_path.hpp"

using namespace emc;

namespace {

/// A tiny synthetic driver model (no estimation needed for export tests).
core::PwRbfDriverModel tiny_driver_model() {
  core::PwRbfDriverModel m;
  m.orders = ident::NarxOrders{2, 2};
  m.ts = 25e-12;
  m.vdd = 3.3;
  m.name = "tiny";

  ident::Scaler sc({0.0, 0.0, 0.0, 0.0, 0.0}, {1.0, 1.0, 1.0, 1.0, 1.0});
  linalg::Matrix centers(2, 5);
  centers(0, 0) = 1.0;
  centers(1, 0) = -1.0;
  m.f_high = ident::RbfModel(sc, centers, {0.5, -0.5}, 0.1, 1.5);
  m.f_low = ident::RbfModel(sc, centers, {-0.25, 0.25}, -0.1, 1.5);
  m.up.wh = {0.0, 0.5, 1.0};
  m.up.wl = {1.0, 0.5, 0.0};
  m.down.wh = {1.0, 0.5, 0.0};
  m.down.wl = {0.0, 0.5, 1.0};
  return m;
}

core::ParametricReceiverModel tiny_receiver_model() {
  core::ParametricReceiverModel m;
  m.ts = 25e-12;
  m.vdd = 1.8;
  m.nl_taps = 2;
  m.lin.b = {0.4, -0.4};
  m.lin.a = {0.1};
  ident::Scaler sc({0.0, 0.0}, {1.0, 1.0});
  linalg::Matrix centers(1, 2);
  centers(0, 0) = 2.0;
  m.up = ident::RbfModel(sc, centers, {0.01}, 0.0, 1.0);
  m.dn = ident::RbfModel(sc, centers, {-0.01}, 0.0, 1.0);
  return m;
}

int count_occurrences(const std::string& s, const std::string& needle) {
  int n = 0;
  std::size_t pos = 0;
  while ((pos = s.find(needle, pos)) != std::string::npos) {
    ++n;
    pos += needle.size();
  }
  return n;
}

}  // namespace

TEST(SpiceExportDriver, HasSubcktStructure) {
  const auto text = core::export_driver_spice(tiny_driver_model(), "pwrbf_md1");
  EXPECT_NE(text.find(".subckt pwrbf_md1 out wh wl"), std::string::npos);
  EXPECT_NE(text.find(".ends pwrbf_md1"), std::string::npos);
}

TEST(SpiceExportDriver, EmitsDelayTapPerVoltageOrder) {
  const auto m = tiny_driver_model();
  const auto text = core::export_driver_spice(m, "d");
  // nv = 2 voltage taps realized as T elements, plus ni = 2 per submodel.
  EXPECT_EQ(count_occurrences(text, "TD=2.5e-11"), m.orders.nv + 2 * m.orders.ni);
}

TEST(SpiceExportDriver, EmitsGaussianTermsPerBasis) {
  const auto m = tiny_driver_model();
  const auto text = core::export_driver_spice(m, "d");
  // Two submodels x two basis functions each.
  EXPECT_EQ(count_occurrences(text, "exp(-("), 4);
}

TEST(SpiceExportDriver, DocumentsWeightSequences) {
  const auto text = core::export_driver_spice(tiny_driver_model(), "d");
  EXPECT_NE(text.find("up-transition weight samples"), std::string::npos);
  EXPECT_NE(text.find("down-transition weight samples"), std::string::npos);
}

TEST(SpiceExportReceiver, HasSubcktStructure) {
  const auto text = core::export_receiver_spice(tiny_receiver_model(), "rx_md4");
  EXPECT_NE(text.find(".subckt rx_md4 in"), std::string::npos);
  EXPECT_NE(text.find(".ends rx_md4"), std::string::npos);
  // ARX coefficients present.
  EXPECT_NE(text.find("0.4*v(in)"), std::string::npos);
  // Clamp B-sources present.
  EXPECT_NE(text.find("Bup"), std::string::npos);
  EXPECT_NE(text.find("Bdn"), std::string::npos);
}

TEST(SpiceExportCr, EmitsPwlTable) {
  core::CrReceiverModel cr;
  cr.c = 6e-12;
  cr.iv = {{-1.0, -0.1}, {0.0, 0.0}, {1.0, 0.0}, {2.0, 0.1}};
  const auto text = core::export_cr_spice(cr, "cr_md4");
  EXPECT_NE(text.find(".subckt cr_md4 in"), std::string::npos);
  EXPECT_NE(text.find("Cin in 0 6e-12"), std::string::npos);
  EXPECT_NE(text.find("pwl(v(in)"), std::string::npos);
  EXPECT_EQ(count_occurrences(text, ", "), 8);  // 4 table points = 8 values
}

TEST(SpiceExportFile, WritesToDisk) {
  const auto path = test_temp_path("spice_test.sp");
  core::write_spice_file(path, "* test netlist\n.end\n");
  std::ifstream is(path);
  ASSERT_TRUE(is.good());
  std::stringstream ss;
  ss << is.rdbuf();
  EXPECT_NE(ss.str().find(".end"), std::string::npos);
  std::remove(path.c_str());
}
