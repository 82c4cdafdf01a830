// Estimation of the PW-RBF driver macromodel (paper Section 2):
//
//  1. Submodels i_H / i_L: the driver is held in each logic state and the
//     port is excited with a multilevel identification signal spanning
//     slightly beyond the supply rails; the RBF NARX submodels are fitted
//     with Orthogonal Least Squares.
//  2. Switching weights w_H / w_L: the driver performs Up and Down
//     transitions on two different identification loads; for every sample
//     the 2x2 system given by eq. (1) on both loads is inverted (with a
//     Tikhonov fallback near collinearity).
#pragma once

#include <cstdint>

#include "core/driver_model.hpp"
#include "core/dut.hpp"

namespace emc::sweep {
class ThreadPool;
}

namespace emc::core {

struct DriverEstimationOptions {
  int order = 2;              ///< NARX dynamic order r (paper: 2..3)
  int max_basis_high = 26;    ///< basis budget of i_H (selection may use fewer)
  int max_basis_low = 26;     ///< basis budget of i_L
  double ts = 25e-12;         ///< sampling time (paper: 25 ps)
  double v_margin = 2.2;      ///< identification range beyond the rails [V]
                              ///< (unterminated reflective loads ring far
                              ///< past the rails; the submodels must not
                              ///< extrapolate there)
  double rs = 2.0;            ///< source resistance of the forced records [ohm]
                              ///< (low: the source must hold the port even
                              ///< against the full driver drive current)
  int n_steps = 140;          ///< multilevel steps per state record
  int n_levels = 9;           ///< distinct levels of the multilevel signal
  double t_hold = 1.2e-9;     ///< hold time per level
  double t_edge = 0.15e-9;    ///< transition time between levels
  double load1_r = 50.0;      ///< identification load 1: r to ground
  double load2_r = 50.0;      ///< identification load 2: r to vdd
  double w_window = 4e-9;     ///< weight-estimation record length; the
                              ///< stored sequence is then trimmed at its
                              ///< measured settling point so it completes
                              ///< (landing exactly on the steady weights)
                              ///< before a following bit edge preempts it
  double w_settle_tol = 0.04; ///< settling detection band on the weights
  double w_ridge = 1e-4;      ///< relative Tikhonov factor of the 2x2 solves
  std::uint64_t seed = 2026;  ///< multilevel signal seed
  ident::RbfFitOptions rbf;   ///< kernel/OLS settings (sigma is auto-tuned)
};

/// Run the full estimation flow against a DUT. Throws std::runtime_error
/// if an identification record is degenerate.
///
/// The records and the submodel fits run on a process-wide estimation
/// pool, created on first use with ThreadPool::default_workers() workers;
/// its threads sleep between estimates. A caller that finds the pool in use
/// by another estimate runs inline instead of waiting. The model is
/// bit-identical at any worker count.
PwRbfDriverModel estimate_driver_model(const DriverDut& dut,
                                       const DriverEstimationOptions& opt = {});

/// The same flow on `pool` (nullptr: inline): the eight transistor-level
/// identification records run concurrently, one per task, then the
/// submodel fits. A record that throws is rethrown with its type, the
/// first in record order. A pooled estimate ends by returning the free
/// pages of every malloc arena to the system (glibc malloc_trim).
PwRbfDriverModel estimate_driver_model(const DriverDut& dut, const DriverEstimationOptions& opt,
                                       sweep::ThreadPool* pool);

/// Quality of a submodel fit on its own identification record (free-run
/// relative RMS error); returned by validate helpers and used in tests.
struct SubmodelFitReport {
  double rel_rms_high = 0.0;
  double rel_rms_low = 0.0;
};

/// Re-run both submodels on fresh forced records and report free-run
/// accuracy (uses a different excitation seed than the estimation).
SubmodelFitReport validate_submodels(const DriverDut& dut, const PwRbfDriverModel& model,
                                     const DriverEstimationOptions& opt = {});

}  // namespace emc::core
