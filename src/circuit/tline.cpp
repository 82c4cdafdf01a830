#include "circuit/tline.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "circuit/devices_linear.hpp"
#include "linalg/decomp.hpp"
#include "linalg/eigen.hpp"

namespace emc::ckt {

namespace {
constexpr double kDcShortConductance = 1e3;  // DC companion of a lossless line

/// Samples a line must keep readable at step dt: a query at step n reads
/// index floor(n - td/dt) or later, and the margin covers the rounding of
/// the sample times.
std::size_t wave_window(double td_max, double dt) {
  return static_cast<std::size_t>(std::floor(td_max / dt)) + 3;
}
}  // namespace

void WaveHistory::seed(double w) {
  s_.assign(1, w);
  dropped_ = 0;
}

void WaveHistory::push(double w, std::size_t window) {
  s_.push_back(w);
  if (s_.size() > 2 * window) {
    const std::size_t drop = s_.size() - window;
    s_.erase(s_.begin(), s_.begin() + static_cast<std::ptrdiff_t>(drop));
    dropped_ += drop;
  }
}

void WaveHistory::clear() {
  s_.clear();
  dropped_ = 0;
}

double WaveHistory::at(double u) const {
  if (s_.empty()) return 0.0;
  if (u <= 0.0 && dropped_ == 0) return s_.front();
  const auto last = static_cast<double>(dropped_ + s_.size() - 1);
  if (u >= last) return s_.back();
  if (u < static_cast<double>(dropped_))
    throw std::logic_error("WaveHistory: sample already trimmed");
  const auto k = static_cast<std::size_t>(u);
  const double frac = u - static_cast<double>(k);
  const double* p = s_.data() + (k - dropped_);
  return p[0] * (1.0 - frac) + p[1] * frac;
}

IdealLine::IdealLine(int ap, int am, int bp, int bm, double z0, double td)
    : ap_(ap), am_(am), bp_(bp), bm_(bm), z0_(z0), td_(td), g_(1.0 / z0) {
  if (z0 <= 0.0) throw std::invalid_argument("IdealLine: z0 must be positive");
  if (td <= 0.0) throw std::invalid_argument("IdealLine: td must be positive");
}

double IdealLine::wave_at(const WaveHistory& hist, double t) const {
  return hist.at((t - hist_t0_) / hist_dt_);
}

std::size_t IdealLine::history_samples() const {
  return std::max(wave_a_.stored(), wave_b_.stored());
}

void IdealLine::start_step(const SimState& st) {
  if (st.dt > 0.0 && td_ < st.dt)
    throw std::runtime_error("IdealLine: delay shorter than the time step");
  hist_dt_ = st.dt;
  window_ = wave_window(td_, st.dt);
  // Incident wave at each end = wave launched from the far end td ago.
  ea_ = wave_at(wave_b_, st.t - td_);
  eb_ = wave_at(wave_a_, st.t - td_);
}

void IdealLine::stamp(Stamper& s, const SimState& st) const {
  if (st.dc) {
    s.conductance(ap_, bp_, kDcShortConductance);
    if (am_ != bm_) s.conductance(am_, bm_, kDcShortConductance);
    return;
  }
  // i_a = (v_a - E_a)/z0 into the line at each end.
  s.conductance(ap_, am_, g_);
  s.conductance(bp_, bm_, g_);
  stamp_rhs(s, st);
}

void IdealLine::stamp_rhs(Stamper& s, const SimState& st) const {
  if (st.dc) return;
  s.current_source(am_, ap_, g_ * ea_);
  s.current_source(bm_, bp_, g_ * eb_);
}

void IdealLine::commit(const SimState& st) {
  if (st.dc) return;
  const double va = st.v(ap_) - st.v(am_);
  const double vb = st.v(bp_) - st.v(bm_);
  const double ia = g_ * (va - ea_);
  const double ib = g_ * (vb - eb_);
  if (wave_a_.empty()) hist_t0_ = st.t;
  wave_a_.push(va + z0_ * ia, window_);
  wave_b_.push(vb + z0_ * ib, window_);
}

void IdealLine::post_dc(const SimState& st) {
  // Seed a steady pre-history consistent with the operating point: at DC
  // i_a = -i_b = i through the line, both waves constant.
  const double va = st.v(ap_) - st.v(am_);
  const double vb = st.v(bp_) - st.v(bm_);
  const double ia = kDcShortConductance * (va - vb);
  wave_a_.seed(va + z0_ * ia);
  wave_b_.seed(vb - z0_ * ia);
  hist_t0_ = st.t;
  hist_dt_ = 1.0;  // single constant sample; interpolation clamps anyway
}

void IdealLine::reset() {
  wave_a_.clear();
  wave_b_.clear();
  ea_ = eb_ = 0.0;
}

ModalLineSegment::ModalLineSegment(std::vector<int> nodes_a, std::vector<int> nodes_b,
                                   const linalg::Matrix& l_per_m,
                                   const linalg::Matrix& c_per_m, double length)
    : na_(std::move(nodes_a)), nb_(std::move(nodes_b)), n_(na_.size()) {
  if (n_ == 0 || nb_.size() != n_)
    throw std::invalid_argument("ModalLineSegment: inconsistent terminal lists");
  if (l_per_m.rows() != n_ || l_per_m.cols() != n_ || c_per_m.rows() != n_ ||
      c_per_m.cols() != n_)
    throw std::invalid_argument("ModalLineSegment: matrix size mismatch");
  if (length <= 0.0) throw std::invalid_argument("ModalLineSegment: length must be positive");

  // Diagonalize LC: with C = Lc Lc^T (Cholesky), S = Lc^T, the matrix
  // S L S^T is symmetric; its eigenvalues are the squared modal slownesses
  // and, because the modal capacitance is exactly the identity in this
  // basis, the modal impedances are sqrt(lambda).
  const linalg::Cholesky chol(c_per_m);
  const linalg::Matrix lc = chol.factor();  // lower triangular
  const linalg::Matrix s_up = lc.transposed();

  linalg::Matrix m_sym = s_up * l_per_m * lc;
  const auto eig = linalg::eigen_symmetric(m_sym);

  z0m_.resize(n_);
  tdm_.resize(n_);
  for (std::size_t m = 0; m < n_; ++m) {
    if (eig.values[m] <= 0.0)
      throw std::invalid_argument("ModalLineSegment: LC product not positive definite");
    z0m_[m] = std::sqrt(eig.values[m]);
    tdm_[m] = length * std::sqrt(eig.values[m]);
  }

  // tv_inv = Q^T S;  ti = S^T Q = Lc Q.
  tv_inv_ = eig.vectors.transposed() * s_up;
  ti_ = lc * eig.vectors;

  // Port admittance Y = ti * diag(1/z0m) * tv_inv.
  linalg::Matrix mid(n_, n_);
  for (std::size_t m = 0; m < n_; ++m) mid(m, m) = 1.0 / z0m_[m];
  y_ = ti_ * mid * tv_inv_;

  wave_a_.resize(n_);
  wave_b_.resize(n_);
  for (auto* v : {&ea_, &eb_, &ja_, &jb_, &tmp_, &vma_, &vmb_}) v->resize(n_);
}

double ModalLineSegment::wave_at(const WaveHistory& hist, double t) const {
  return hist.at((t - hist_t0_) / hist_dt_);
}

std::size_t ModalLineSegment::history_samples() const {
  std::size_t most = 0;
  for (std::size_t m = 0; m < n_; ++m)
    most = std::max({most, wave_a_[m].stored(), wave_b_[m].stored()});
  return most;
}

void ModalLineSegment::modal_voltages(const SimState& st, const std::vector<int>& nodes,
                                      std::vector<double>& vm) {
  for (std::size_t k = 0; k < n_; ++k) tmp_[k] = st.v(nodes[k]);
  tv_inv_.apply(tmp_, vm);
}

void ModalLineSegment::start_step(const SimState& st) {
  hist_dt_ = st.dt;
  window_ = wave_window(*std::max_element(tdm_.begin(), tdm_.end()), st.dt);
  for (std::size_t m = 0; m < n_; ++m) {
    if (st.dt > 0.0 && tdm_[m] < st.dt)
      throw std::runtime_error("ModalLineSegment: modal delay shorter than the time step");
    ea_[m] = wave_at(wave_b_[m], st.t - tdm_[m]);
    eb_[m] = wave_at(wave_a_[m], st.t - tdm_[m]);
  }
  // Physical companion current sources J = ti * diag(1/z0m) * E.
  for (std::size_t m = 0; m < n_; ++m) tmp_[m] = ea_[m] / z0m_[m];
  ti_.apply(tmp_, ja_);
  for (std::size_t m = 0; m < n_; ++m) tmp_[m] = eb_[m] / z0m_[m];
  ti_.apply(tmp_, jb_);
}

void ModalLineSegment::stamp(Stamper& s, const SimState& st) const {
  if (st.dc) {
    for (std::size_t k = 0; k < n_; ++k)
      s.conductance(na_[k], nb_[k], kDcShortConductance);
    return;
  }
  // i_a = Y v_a - J_a (into the line), same at end b.
  for (std::size_t k = 0; k < n_; ++k) {
    for (std::size_t l = 0; l < n_; ++l) {
      s.g(na_[k], na_[l], y_(k, l));
      s.g(nb_[k], nb_[l], y_(k, l));
    }
  }
  stamp_rhs(s, st);
}

void ModalLineSegment::stamp_rhs(Stamper& s, const SimState& st) const {
  if (st.dc) return;
  for (std::size_t k = 0; k < n_; ++k) {
    s.current_source(0, na_[k], ja_[k]);
    s.current_source(0, nb_[k], jb_[k]);
  }
}

void ModalLineSegment::commit(const SimState& st) {
  if (st.dc) return;
  modal_voltages(st, na_, vma_);
  modal_voltages(st, nb_, vmb_);
  const bool first = wave_a_[0].empty();
  if (first) hist_t0_ = st.t;
  for (std::size_t m = 0; m < n_; ++m) {
    const double ima = (vma_[m] - ea_[m]) / z0m_[m];
    const double imb = (vmb_[m] - eb_[m]) / z0m_[m];
    wave_a_[m].push(vma_[m] + z0m_[m] * ima, window_);
    wave_b_[m].push(vmb_[m] + z0m_[m] * imb, window_);
  }
}

void ModalLineSegment::post_dc(const SimState& st) {
  modal_voltages(st, na_, vma_);
  modal_voltages(st, nb_, vmb_);
  // Physical DC currents through the companion shorts.
  std::vector<double> idc(n_);
  for (std::size_t k = 0; k < n_; ++k)
    idc[k] = kDcShortConductance * (st.v(na_[k]) - st.v(nb_[k]));
  // Modal currents: im = ti^{-1} i. ti = Lc Q is cheap to invert via the
  // admittance relation; here we solve the small dense system directly.
  const auto im = linalg::solve_dense(ti_, idc);
  hist_t0_ = st.t;
  hist_dt_ = 1.0;
  for (std::size_t m = 0; m < n_; ++m) {
    wave_a_[m].seed(vma_[m] + z0m_[m] * im[m]);
    wave_b_[m].seed(vmb_[m] - z0m_[m] * im[m]);
  }
}

void ModalLineSegment::reset() {
  for (auto& h : wave_a_) h.clear();
  for (auto& h : wave_b_) h.clear();
}

SkinLadder fit_skin_ladder(double rskin_times_len, double f_lo, double f_hi, int branches) {
  if (branches < 1) throw std::invalid_argument("fit_skin_ladder: need >= 1 branch");
  if (f_lo <= 0.0 || f_hi <= f_lo) throw std::invalid_argument("fit_skin_ladder: bad band");
  SkinLadder lad;
  double prev_cum = 0.0;
  for (int k = 0; k < branches; ++k) {
    // Corner frequencies log-spaced across the band; the cumulative
    // engaged resistance at f_k matches rskin*sqrt(f_k).
    const double frac = (branches == 1) ? 0.5
                                        : static_cast<double>(k) /
                                              static_cast<double>(branches - 1);
    const double fk = f_lo * std::pow(f_hi / f_lo, frac);
    const double cum = rskin_times_len * std::sqrt(fk);
    const double rk = cum - prev_cum;
    prev_cum = cum;
    lad.r.push_back(rk);
    lad.l.push_back(rk / (2.0 * M_PI * fk));
  }
  return lad;
}

CoupledLineHandle add_coupled_lossy_line(Circuit& ckt, const std::vector<int>& nodes_a,
                                         const std::vector<int>& nodes_b,
                                         const CoupledLineParams& params, double dt_hint,
                                         int sections) {
  const std::size_t n = nodes_a.size();
  if (n == 0 || nodes_b.size() != n)
    throw std::invalid_argument("add_coupled_lossy_line: inconsistent terminal lists");
  if (params.length <= 0.0)
    throw std::invalid_argument("add_coupled_lossy_line: length must be positive");

  // Fastest mode bounds the usable section count: every modal section
  // delay must be at least one time step. Build a scratch segment across
  // the full L/C to read the true modal delays.
  std::vector<int> dummy(n, 0);
  ModalLineSegment full(dummy, dummy, params.l, params.c, params.length);
  double td_min = full.modal_td(0);
  for (std::size_t m = 1; m < full.modes(); ++m) td_min = std::min(td_min, full.modal_td(m));

  int max_sections = (dt_hint > 0.0) ? static_cast<int>(std::floor(td_min / dt_hint)) : 16;
  max_sections = std::max(1, std::min(max_sections, 16));
  int m_sections = (sections > 0) ? sections : max_sections;
  if (dt_hint > 0.0 && td_min / m_sections < dt_hint)
    throw std::invalid_argument(
        "add_coupled_lossy_line: section modal delay below the time step; "
        "reduce `sections` or the time step");

  const double sec_len = params.length / m_sections;
  const bool has_skin = params.loss.rskin > 0.0;

  CoupledLineHandle handle;
  handle.nodes_a = nodes_a;
  handle.nodes_b = nodes_b;
  handle.sections = m_sections;

  // Shunt dielectric conductance per section, split between the two
  // boundary node sets: G = omega_ref * tan_delta * C * sec_len.
  linalg::Matrix gshunt(n, n);
  if (params.loss.tan_delta > 0.0) {
    const double w0 = 2.0 * M_PI * params.loss.f_ref;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        gshunt(i, j) = w0 * params.loss.tan_delta * params.c(i, j) * sec_len;
  }

  auto add_shunt_half = [&](const std::vector<int>& nodes, double factor) {
    if (params.loss.tan_delta <= 0.0) return;
    for (std::size_t i = 0; i < n; ++i) {
      // Maxwellian form: diagonal entries to ground include the (negative)
      // mutual terms; realize as node-to-node + node-to-ground resistors.
      double g_to_ground = 0.0;
      for (std::size_t j = 0; j < n; ++j) g_to_ground += gshunt(i, j);
      if (g_to_ground * factor > 1e-18)
        ckt.add<Resistor>(nodes[i], ckt.ground(), 1.0 / (g_to_ground * factor));
      for (std::size_t j = i + 1; j < n; ++j) {
        const double gmut = -gshunt(i, j);  // off-diagonals are negative
        if (gmut * factor > 1e-18)
          ckt.add<Resistor>(nodes[i], nodes[j], 1.0 / (gmut * factor));
      }
    }
  };

  std::vector<int> left = nodes_a;
  for (int s = 0; s < m_sections; ++s) {
    add_shunt_half(left, s == 0 ? 0.5 : 1.0);

    // Series loss elements on each conductor, then the lossless segment.
    std::vector<int> after_loss(n);
    for (std::size_t k = 0; k < n; ++k) {
      int cur = left[k];
      const double rsec = params.loss.rdc * sec_len;
      if (rsec > 0.0) {
        const int nxt = ckt.node();
        ckt.add<Resistor>(cur, nxt, rsec);
        cur = nxt;
      }
      if (has_skin) {
        const SkinLadder lad = fit_skin_ladder(params.loss.rskin * sec_len, 1e7, 1e10, 3);
        for (std::size_t b = 0; b < lad.r.size(); ++b) {
          const int nxt = ckt.node();
          ckt.add<Resistor>(cur, nxt, lad.r[b]);
          ckt.add<Inductor>(cur, nxt, lad.l[b]);
          cur = nxt;
        }
      }
      after_loss[k] = cur;
    }

    std::vector<int> right(n);
    const bool last = (s == m_sections - 1);
    for (std::size_t k = 0; k < n; ++k) right[k] = last ? nodes_b[k] : ckt.node();

    auto& seg = ckt.add<ModalLineSegment>(after_loss, right, params.l, params.c, sec_len);
    handle.segments.push_back(&seg);
    left = right;
  }
  add_shunt_half(left, 0.5);

  return handle;
}

}  // namespace emc::ckt
