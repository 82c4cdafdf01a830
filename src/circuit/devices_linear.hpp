// Linear circuit primitives: R, C, L, independent sources, controlled
// sources, and a piecewise-linear table current (used by IBIS models).
#pragma once

#include <functional>
#include <utility>
#include <vector>

#include "circuit/device.hpp"

namespace emc::ckt {

class Resistor : public Device {
 public:
  Resistor(int a, int b, double ohms);
  unsigned phases() const override { return 0; }
  void stamp(Stamper& s, const SimState& st) const override;
  void stamp_rhs(Stamper&, const SimState&) const override {}

 private:
  int a_, b_;
  double g_;
};

/// Capacitor with trapezoidal companion model. Open in DC.
class Capacitor : public Device {
 public:
  Capacitor(int a, int b, double farads);
  void start_step(const SimState& st) override;
  void stamp(Stamper& s, const SimState& st) const override;
  void stamp_rhs(Stamper& s, const SimState& st) const override;
  void commit(const SimState& st) override;
  void post_dc(const SimState& st) override;
  void reset() override;

 private:
  int a_, b_;
  double c_;
  double i_prev_ = 0.0;
  double geq_ = 0.0;
  double ieq_ = 0.0;
};

/// Inductor with a branch-current extra unknown. Short in DC.
class Inductor : public Device {
 public:
  Inductor(int a, int b, double henries);
  int num_extra() const override { return 1; }
  unsigned phases() const override { return kRhs; }
  void stamp(Stamper& s, const SimState& st) const override;
  void stamp_rhs(Stamper& s, const SimState& st) const override;

  /// Terminal id of the branch-current unknown (valid after finalize()).
  int current_id() const { return extra_base_; }

 private:
  int a_, b_;
  double l_;
};

/// Independent voltage source v(p)-v(m) = f(t) with a branch-current
/// unknown. The unknown follows the SPICE sign convention: it is the
/// current flowing from p through the source to m, so a source delivering
/// power has a negative branch current.
class VSource : public Device {
 public:
  VSource(int p, int m, std::function<double(double)> value);
  /// Convenience: DC source.
  VSource(int p, int m, double dc_value);

  int num_extra() const override { return 1; }
  unsigned phases() const override { return kRhs; }
  void stamp(Stamper& s, const SimState& st) const override;
  void stamp_rhs(Stamper& s, const SimState& st) const override;

  int current_id() const { return extra_base_; }
  double value_at(double t) const { return value_(t); }

 private:
  int p_, m_;
  std::function<double(double)> value_;
};

/// Independent current source f(t) flowing from a to b.
class ISource : public Device {
 public:
  ISource(int a, int b, std::function<double(double)> value);
  unsigned phases() const override { return kRhs; }
  void stamp(Stamper& s, const SimState& st) const override;

 private:
  int a_, b_;
  std::function<double(double)> value_;
};

/// Voltage-controlled current source: current k*(v(ca)-v(cb)) from a to b.
class Vccs : public Device {
 public:
  Vccs(int a, int b, int ca, int cb, double gm);
  unsigned phases() const override { return 0; }
  void stamp(Stamper& s, const SimState& st) const override;
  void stamp_rhs(Stamper&, const SimState&) const override {}

 private:
  int a_, b_, ca_, cb_;
  double gm_;
};

/// Voltage-controlled voltage source: v(p)-v(m) = k*(v(ca)-v(cb)).
class Vcvs : public Device {
 public:
  Vcvs(int p, int m, int ca, int cb, double k);
  int num_extra() const override { return 1; }
  unsigned phases() const override { return 0; }
  void stamp(Stamper& s, const SimState& st) const override;
  void stamp_rhs(Stamper&, const SimState&) const override {}

 private:
  int p_, m_, ca_, cb_;
  double k_;
};

/// Piecewise-linear static I(V) branch (current from a to b as a function
/// of v(a)-v(b)), with linear end-segment extrapolation and an optional
/// externally controlled multiplier (IBIS switching coefficient).
class TableCurrent : public Device {
 public:
  /// `iv` must be sorted by voltage and contain at least two points.
  TableCurrent(int a, int b, std::vector<std::pair<double, double>> iv);

  bool nonlinear() const override { return true; }
  void stamp(Stamper& s, const SimState& st) const override;

  /// Scale factor applied to the whole table (default 1). The owner may
  /// update it every step (time-dependent switching coefficients).
  void set_scale(double k) { scale_ = k; }
  double scale() const { return scale_; }

  /// Table lookup: current and slope at voltage v (unscaled).
  std::pair<double, double> eval(double v) const;

 private:
  int a_, b_;
  std::vector<std::pair<double, double>> iv_;
  double scale_ = 1.0;
};

}  // namespace emc::ckt
