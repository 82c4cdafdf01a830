#include "circuit/devices_linear.hpp"

#include <algorithm>
#include <stdexcept>

namespace emc::ckt {

Resistor::Resistor(int a, int b, double ohms) : a_(a), b_(b), g_(1.0 / ohms) {
  if (ohms <= 0.0) throw std::invalid_argument("Resistor: resistance must be positive");
}

void Resistor::stamp(Stamper& s, const SimState&) const { s.conductance(a_, b_, g_); }

Capacitor::Capacitor(int a, int b, double farads) : a_(a), b_(b), c_(farads) {
  if (farads <= 0.0) throw std::invalid_argument("Capacitor: capacitance must be positive");
}

void Capacitor::start_step(const SimState& st) {
  geq_ = 2.0 * c_ / st.dt;
  const double v_prev = st.v_prev(a_) - st.v_prev(b_);
  ieq_ = geq_ * v_prev + i_prev_;
}

void Capacitor::stamp(Stamper& s, const SimState& st) const {
  if (st.dc) return;  // open circuit at DC
  s.conductance(a_, b_, geq_);
  stamp_rhs(s, st);
}

void Capacitor::stamp_rhs(Stamper& s, const SimState& st) const {
  if (st.dc) return;
  s.current_source(b_, a_, ieq_);  // i = geq*v - ieq flowing a->b
}

void Capacitor::commit(const SimState& st) {
  if (st.dc) return;
  const double v = st.v(a_) - st.v(b_);
  i_prev_ = geq_ * v - ieq_;
}

void Capacitor::post_dc(const SimState&) { i_prev_ = 0.0; }

void Capacitor::reset() {
  i_prev_ = 0.0;
  geq_ = ieq_ = 0.0;
}

Inductor::Inductor(int a, int b, double henries) : a_(a), b_(b), l_(henries) {
  if (henries <= 0.0) throw std::invalid_argument("Inductor: inductance must be positive");
}

void Inductor::stamp(Stamper& s, const SimState& st) const {
  const int j = extra_base_;
  // Branch current leaves a and enters b.
  s.g(a_, j, 1.0);
  s.g(b_, j, -1.0);
  if (st.dc) {
    // Short at DC: v(a) - v(b) = 0.
    s.g(j, a_, 1.0);
    s.g(j, b_, -1.0);
    return;
  }
  // Trapezoidal: v_n + v_prev = (2L/dt)(i_n - i_prev)
  const double req = 2.0 * l_ / st.dt;
  s.g(j, a_, 1.0);
  s.g(j, b_, -1.0);
  s.g(j, j, -req);
  stamp_rhs(s, st);
}

void Inductor::stamp_rhs(Stamper& s, const SimState& st) const {
  if (st.dc) return;
  const int j = extra_base_;
  const double req = 2.0 * l_ / st.dt;
  const double v_prev = st.v_prev(a_) - st.v_prev(b_);
  const double i_prev = st.v_prev(j);
  s.rhs(j, -req * i_prev - v_prev);
}

VSource::VSource(int p, int m, std::function<double(double)> value)
    : p_(p), m_(m), value_(std::move(value)) {}

VSource::VSource(int p, int m, double dc_value)
    : p_(p), m_(m), value_([dc_value](double) { return dc_value; }) {}

void VSource::stamp(Stamper& s, const SimState& st) const {
  const int j = extra_base_;
  s.g(p_, j, 1.0);
  s.g(m_, j, -1.0);
  s.g(j, p_, 1.0);
  s.g(j, m_, -1.0);
  stamp_rhs(s, st);
}

void VSource::stamp_rhs(Stamper& s, const SimState& st) const {
  s.rhs(extra_base_, st.src_scale * value_(st.t));
}

ISource::ISource(int a, int b, std::function<double(double)> value)
    : a_(a), b_(b), value_(std::move(value)) {}

void ISource::stamp(Stamper& s, const SimState& st) const {
  s.current_source(a_, b_, st.src_scale * value_(st.t));
}

Vccs::Vccs(int a, int b, int ca, int cb, double gm)
    : a_(a), b_(b), ca_(ca), cb_(cb), gm_(gm) {}

void Vccs::stamp(Stamper& s, const SimState&) const {
  s.g(a_, ca_, gm_);
  s.g(a_, cb_, -gm_);
  s.g(b_, ca_, -gm_);
  s.g(b_, cb_, gm_);
}

Vcvs::Vcvs(int p, int m, int ca, int cb, double k)
    : p_(p), m_(m), ca_(ca), cb_(cb), k_(k) {}

void Vcvs::stamp(Stamper& s, const SimState&) const {
  const int j = extra_base_;
  s.g(p_, j, 1.0);
  s.g(m_, j, -1.0);
  s.g(j, p_, 1.0);
  s.g(j, m_, -1.0);
  s.g(j, ca_, -k_);
  s.g(j, cb_, k_);
}

TableCurrent::TableCurrent(int a, int b, std::vector<std::pair<double, double>> iv)
    : a_(a), b_(b), iv_(std::move(iv)) {
  if (iv_.size() < 2) throw std::invalid_argument("TableCurrent: need >= 2 points");
  if (!std::is_sorted(iv_.begin(), iv_.end(),
                      [](const auto& x, const auto& y) { return x.first < y.first; }))
    throw std::invalid_argument("TableCurrent: table must be sorted by voltage");
}

std::pair<double, double> TableCurrent::eval(double v) const {
  // Find segment; linear extrapolation with end slopes outside the table.
  std::size_t hi = 1;
  if (v >= iv_.back().first) {
    hi = iv_.size() - 1;
  } else if (v > iv_.front().first) {
    hi = static_cast<std::size_t>(
        std::upper_bound(iv_.begin(), iv_.end(), v,
                         [](double vv, const auto& p) { return vv < p.first; }) -
        iv_.begin());
  }
  const auto& p0 = iv_[hi - 1];
  const auto& p1 = iv_[hi];
  const double slope = (p1.second - p0.second) / (p1.first - p0.first);
  return {p0.second + slope * (v - p0.first), slope};
}

void TableCurrent::stamp(Stamper& s, const SimState& st) const {
  const double v = st.v(a_) - st.v(b_);
  const auto [i, g] = eval(v);
  s.nonlinear_current(a_, b_, scale_ * i, scale_ * g, v);
}

}  // namespace emc::ckt
