// The paper's primary contribution, eq. (1): the Piece-Wise RBF driver
// macromodel
//
//   i(k) = w_H(k) * i_H(k) + w_L(k) * i_L(k)
//
// i_H / i_L are RBF NARX submodels describing the port in the fixed High
// and Low logic states; each one free-runs on the port voltage and its own
// past outputs. w_H / w_L are switching weight sequences (one pair per
// transition direction) obtained by linear inversion of (1) on two
// identification loads.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "ident/rbf.hpp"
#include "signal/waveform.hpp"

namespace emc::core {

/// Switching weights sampled at the model rate, starting at the logic edge.
struct WeightSequence {
  std::vector<double> wh;
  std::vector<double> wl;

  std::size_t size() const { return wh.size(); }
  bool empty() const { return wh.empty(); }
};

/// Complete two-piece driver macromodel.
class PwRbfDriverModel {
 public:
  ident::RbfModel f_high;     ///< submodel i_H
  ident::RbfModel f_low;      ///< submodel i_L
  ident::NarxOrders orders;   ///< shared dynamic order (paper: r = 2..3)
  WeightSequence up;          ///< weights for the Low->High transition
  WeightSequence down;        ///< weights for the High->Low transition
  double ts = 25e-12;         ///< sampling time [s]
  double vdd = 3.3;           ///< High-state supply [V]
  std::string name;           ///< device tag (reports / exports)

  /// Submodel output given explicit histories (newest first):
  /// v_hist = [v(k), v(k-1), ...], i_hist = [i(k-1), ...] of *that*
  /// submodel. Optionally returns d i / d v(k).
  double submodel_current(bool high, std::span<const double> v_hist,
                          std::span<const double> i_hist, double* d_dv = nullptr) const;

  /// Steady-state submodel current at a constant port voltage v: the fixed
  /// point i = f(v..v, i..i) of the NARX recursion, i.e. the static I-V
  /// characteristic the model presents at DC. Newton on
  /// g(i) = f(v..v, i..i) - i from i = 0, with df/di (the gradient summed
  /// over the current taps) from one eval_with_input_grad per iterate. It
  /// stops when a step is at most 1e-13 A + 1e-12 |i|, the rounding floor
  /// of the driver models' residual (~1e-13 A): about 6 evaluations, at
  /// most 20 over MD1-MD3's identified ranges. With `di_dv` set it also
  /// returns the exact static conductance at the returned point,
  ///   dI/dv = (df/dv) / (1 - df/di),
  /// with df/dv summed over the voltage taps.
  ///
  /// Fallback: when an iterate has df/di >= 1 (there the damped recursion
  /// i <- (i + f) / 2 is not locally stable), a step is not finite, or 30
  /// steps do not converge, 200 steps of that damped recursion run from
  /// i = 0 and Newton restarts from their end; if it fails again, the
  /// damped end is returned and the slope is taken there. This costs ~200
  /// evaluations and runs on MD3's i_L above 4.85 V (outside its
  /// identified range, -2.2 to 4.7 V), MD1's i_L above 4.46 V and MD2's
  /// i_H at 2.91-3.39 V, where its static curve folds. Allocates nothing.
  double steady_current(bool high, double v, double* di_dv = nullptr) const;

  /// Weights at `steps_since_edge` samples after a logic edge
  /// (`rising` selects the up sequence). Past the stored sequence the
  /// weights are the exact steady pair.
  std::pair<double, double> weights_at(bool rising, std::size_t steps_since_edge) const;

  /// Steady weights for a settled logic state.
  static std::pair<double, double> steady_weights(bool high) {
    return high ? std::pair{1.0, 0.0} : std::pair{0.0, 1.0};
  }
};

/// Free-running state of one submodel: keeps the voltage/current histories
/// and advances one sample at a time. Shared by the stand-alone simulators
/// and the MNA-coupled driver device.
class SubmodelState {
 public:
  /// Histories start at the submodel's fixed point for constant v0.
  SubmodelState(const PwRbfDriverModel& m, bool high, double v0);

  /// Evaluate i(k) for a *candidate* head voltage without committing
  /// (used inside Newton loops). Optionally returns d i / d v.
  double peek(double v, double* d_dv = nullptr) const;

  /// Commit the sample: push v(k), evaluate and push i(k). Returns i(k).
  double step(double v, double* d_dv = nullptr);

  /// Re-seed both histories at a new constant operating point.
  void reseed(double v0);

 private:
  static void push_front(std::vector<double>& h, double value);

  const PwRbfDriverModel* m_;
  bool high_;
  std::vector<double> v_hist_;
  std::vector<double> i_hist_;
};

/// Free-run both submodels over a recorded port voltage and combine them
/// with the scheduled weights; used by validation and the weight
/// estimation itself. `edge_step` is the sample index of the logic edge,
/// `rising` its direction, and the initial state is the opposite of
/// `rising`. Returns the model port current.
sig::Waveform simulate_driver_on_voltage(const PwRbfDriverModel& m, const sig::Waveform& v,
                                         std::size_t edge_step, bool rising);

/// Stand-alone transient of the macromodel on a Thevenin load
/// (v_oc(t) behind r_th): solves the scalar nonlinear port equation
///   i_model(v) = (v_oc - v)/r_th
/// at every sample with Newton. `bits` + `bit_time` give the logic input.
/// This is the fast discrete-time path (no MNA), used by the quickstart
/// and the efficiency benchmarks.
sig::Waveform simulate_driver_on_thevenin(const PwRbfDriverModel& m, const std::string& bits,
                                          double bit_time,
                                          const std::function<double(double)>& v_oc,
                                          double r_th, double t_stop);

}  // namespace emc::core
