// Transmission lines.
//
// * IdealLine: single lossless line via the method of characteristics
//   (Branin). Exact for any load, requires delay >= one time step.
// * ModalLineSegment: N-conductor lossless coupled segment. The RLGC
//   system is diagonalized once (Cholesky of C + Jacobi eigensolver of
//   S L S^T), giving N independent modal lines, each handled with the
//   method of characteristics.
// * add_coupled_lossy_line(): W-element-style lossy multiconductor line,
//   realized as a cascade of lossless modal segments with the series
//   resistance (dc + optional skin-effect R-L ladder) and the shunt
//   dielectric conductance lumped at the section boundaries.
#pragma once

#include <vector>

#include "circuit/device.hpp"
#include "circuit/netlist.hpp"
#include "linalg/matrix.hpp"

namespace emc::ckt {

/// Committed samples of one travelling wave at the fixed engine step,
/// indexed from the first sample ever pushed. A query never reaches back
/// further than the line's longest delay, so once more than twice the
/// `window` the owner passes are stored, the front is trimmed in place;
/// `dropped_` keeps indices absolute, so a read is bit-identical to one
/// from the untrimmed history and the storage stays bounded by the delay,
/// not by the record length.
class WaveHistory {
 public:
  /// Replace the history with one sample (the DC pre-history).
  void seed(double w);
  /// Append a sample; keep at least the newest `window` samples.
  void push(double w, std::size_t window);
  void clear();
  bool empty() const { return s_.empty(); }
  /// Samples currently stored.
  std::size_t stored() const { return s_.size(); }
  /// Value at fractional sample index u: linear interpolation, clamped to
  /// the first and the last sample (0 while empty). Throws
  /// std::logic_error when u lies in the trimmed part.
  double at(double u) const;

 private:
  std::vector<double> s_;
  std::size_t dropped_ = 0;
};

/// Lossless single line between port (ap, am) and port (bp, bm).
/// At DC it behaves as a (near-ideal) short between the corresponding
/// terminals so the operating point is well defined.
class IdealLine : public Device {
 public:
  /// Throws std::invalid_argument if z0 or td is non-positive.
  IdealLine(int ap, int am, int bp, int bm, double z0, double td);

  void start_step(const SimState& st) override;
  void stamp(Stamper& s, const SimState& st) const override;
  void stamp_rhs(Stamper& s, const SimState& st) const override;
  void commit(const SimState& st) override;
  void post_dc(const SimState& st) override;
  void reset() override;

  double z0() const { return z0_; }
  double td() const { return td_; }
  /// Samples held by the larger of the two wave histories.
  std::size_t history_samples() const;

 private:
  double wave_at(const WaveHistory& hist, double t) const;

  int ap_, am_, bp_, bm_;
  double z0_, td_;
  double g_;  // 1/z0

  // Committed history of the backward/forward waves w = v + z0*i at each
  // end, sampled at the fixed engine step.
  double hist_t0_ = 0.0;
  double hist_dt_ = 0.0;
  std::size_t window_ = 0;  // samples each history keeps readable at this dt
  WaveHistory wave_a_, wave_b_;
  double ea_ = 0.0, eb_ = 0.0;  // incident terms for the step being solved
};

/// Per-conductor loss description of a coupled line (per meter).
struct LineLoss {
  double rdc = 0.0;       ///< series dc resistance [ohm/m]
  double rskin = 0.0;     ///< skin coefficient: R(f) ~ rdc + rskin*sqrt(f) [ohm/(m*sqrt(Hz))]
  double tan_delta = 0.0; ///< dielectric loss factor
  double f_ref = 1e9;     ///< frequency where the shunt G is evaluated [Hz]
};

/// Parameters of a uniform multiconductor line (Maxwellian matrices:
/// C off-diagonals are negative, L off-diagonals positive).
struct CoupledLineParams {
  linalg::Matrix l;  ///< inductance matrix [H/m], symmetric positive definite
  linalg::Matrix c;  ///< capacitance matrix [F/m], symmetric positive definite
  double length = 0.0;  ///< [m]
  LineLoss loss;
};

/// Lossless N-conductor coupled segment (reference conductor = ground).
class ModalLineSegment : public Device {
 public:
  /// nodes_a / nodes_b: the N terminal nodes at each end.
  /// Throws std::invalid_argument on inconsistent sizes or non-SPD L/C.
  ModalLineSegment(std::vector<int> nodes_a, std::vector<int> nodes_b,
                   const linalg::Matrix& l_per_m, const linalg::Matrix& c_per_m,
                   double length);

  void start_step(const SimState& st) override;
  void stamp(Stamper& s, const SimState& st) const override;
  void stamp_rhs(Stamper& s, const SimState& st) const override;
  void commit(const SimState& st) override;
  void post_dc(const SimState& st) override;
  void reset() override;

  std::size_t modes() const { return z0m_.size(); }
  /// Modal impedance in the *scaled* modal coordinates (units absorb the
  /// voltage/current transforms); use char_admittance() for physical ohms.
  double modal_z0(std::size_t m) const { return z0m_[m]; }
  double modal_td(std::size_t m) const { return tdm_[m]; }
  /// Physical characteristic admittance matrix Y_c [S].
  const linalg::Matrix& char_admittance() const { return y_; }
  /// Samples held by the largest of the modal wave histories.
  std::size_t history_samples() const;

 private:
  double wave_at(const WaveHistory& hist, double t) const;
  /// vm = tv_inv * v(nodes), written into `vm`.
  void modal_voltages(const SimState& st, const std::vector<int>& nodes,
                      std::vector<double>& vm);

  std::vector<int> na_, nb_;
  std::size_t n_;
  linalg::Matrix tv_inv_;  // modal voltage transform: vm = tv_inv * v
  linalg::Matrix ti_;      // physical currents: i = ti * im
  linalg::Matrix y_;       // port admittance ti * diag(1/z0m) * tv_inv
  std::vector<double> z0m_, tdm_;

  double hist_t0_ = 0.0;
  double hist_dt_ = 0.0;
  std::size_t window_ = 0;  // samples each history keeps readable at this dt
  std::vector<WaveHistory> wave_a_, wave_b_;  // per mode
  std::vector<double> ja_, jb_;               // companion current sources
  std::vector<double> ea_, eb_;               // modal incident terms
  // Per-step scratch, sized once at construction.
  std::vector<double> tmp_, vma_, vmb_;
};

/// Handle to a lossy coupled line built into a circuit.
struct CoupledLineHandle {
  std::vector<int> nodes_a;  ///< near-end terminals (as passed in)
  std::vector<int> nodes_b;  ///< far-end terminals
  int sections = 0;
  std::vector<ModalLineSegment*> segments;
};

/// Build a lossy coupled multiconductor line between nodes_a and nodes_b as
/// a cascade of `sections` lossless modal segments with lumped losses.
/// `dt_hint` is the transient step the line will run at; the constructor
/// checks every modal section delay is >= dt_hint (throws otherwise).
/// Pass sections = 0 to auto-select the largest valid count (capped at 16).
CoupledLineHandle add_coupled_lossy_line(Circuit& ckt, const std::vector<int>& nodes_a,
                                         const std::vector<int>& nodes_b,
                                         const CoupledLineParams& params, double dt_hint,
                                         int sections = 0);

/// Fitted skin-effect ladder values (exposed for unit testing): series
/// branches (r_k, l_k) such that R0 + sum of engaged branches approximates
/// rdc*len + rskin*len*sqrt(f) between f_lo and f_hi.
struct SkinLadder {
  std::vector<double> r;  // [ohm]
  std::vector<double> l;  // [H]
};
SkinLadder fit_skin_ladder(double rskin_times_len, double f_lo, double f_hi, int branches);

}  // namespace emc::ckt
