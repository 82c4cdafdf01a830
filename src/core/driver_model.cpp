#include "core/driver_model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace emc::core {

double PwRbfDriverModel::submodel_current(bool high, std::span<const double> v_hist,
                                          std::span<const double> i_hist,
                                          double* d_dv) const {
  const ident::RbfModel& f = high ? f_high : f_low;
  const auto size = static_cast<std::size_t>(orders.regressor_size());
  if (size > ident::RbfModel::kMaxInputDim)
    throw std::invalid_argument("PwRbfDriverModel: regressor longer than the RBF input cap");
  double buf[ident::RbfModel::kMaxInputDim];
  const std::span<double> reg(buf, size);
  ident::fill_narx_regressor(v_hist, i_hist, orders, reg);
  return d_dv ? f.eval_with_grad(reg, 0, d_dv) : f.eval(reg);
}

double PwRbfDriverModel::steady_current(bool high, double v, double* di_dv) const {
  const ident::RbfModel& f = high ? f_high : f_low;
  const auto size = static_cast<std::size_t>(orders.regressor_size());
  if (size > ident::RbfModel::kMaxInputDim)
    throw std::invalid_argument("PwRbfDriverModel: regressor longer than the RBF input cap");
  const auto nv = static_cast<std::ptrdiff_t>(orders.nv) + 1;
  double reg_buf[ident::RbfModel::kMaxInputDim];
  double grad_buf[ident::RbfModel::kMaxInputDim];
  const std::span<double> reg(reg_buf, size), grad(grad_buf, size);
  std::fill(reg.begin(), reg.begin() + nv, v);

  // f(v..v, i..i), leaving its tap-summed slopes in df_dv and df_di.
  double df_dv = 0.0, df_di = 0.0;
  auto eval_at = [&](double i) {
    std::fill(reg.begin() + nv, reg.end(), i);
    const double y = f.eval_with_input_grad(reg, grad);
    df_dv = std::accumulate(grad.begin(), grad.begin() + nv, 0.0);
    df_di = std::accumulate(grad.begin() + nv, grad.end(), 0.0);
    return y;
  };
  // Newton from i; false on an iterate with df/di >= 1, a non-finite step
  // or no convergence in 30 steps.
  auto newton = [&](double& i) {
    for (int it = 0; it < 30; ++it) {
      const double g = eval_at(i) - i;
      if (!(df_di < 1.0)) return false;
      const double step = g / (1.0 - df_di);
      if (!std::isfinite(step)) return false;
      i += step;
      if (std::abs(step) <= 1e-13 + 1e-12 * std::abs(i)) return true;
    }
    return false;
  };

  double i = 0.0;
  if (!newton(i)) {
    // Damped fixed-point iteration (NARX feedback can be stiff), then
    // Newton again from its end; if that fails too, the damped end stands.
    i = 0.0;
    for (int it = 0; it < 200; ++it) i = 0.5 * i + 0.5 * eval_at(i);
    double polished = i;
    if (newton(polished))
      i = polished;
    else
      eval_at(i);
  }
  if (di_dv) *di_dv = df_dv / (1.0 - df_di);
  return i;
}

std::pair<double, double> PwRbfDriverModel::weights_at(bool rising,
                                                       std::size_t steps_since_edge) const {
  const WeightSequence& seq = rising ? up : down;
  if (steps_since_edge < seq.size())
    return {seq.wh[steps_since_edge], seq.wl[steps_since_edge]};
  return steady_weights(rising);
}

SubmodelState::SubmodelState(const PwRbfDriverModel& m, bool high, double v0)
    : m_(&m),
      high_(high),
      v_hist_(static_cast<std::size_t>(m.orders.nv) + 1, v0),
      i_hist_(static_cast<std::size_t>(m.orders.ni), m.steady_current(high, v0)) {}

void SubmodelState::push_front(std::vector<double>& h, double value) {
  for (std::size_t j = h.size(); j-- > 1;) h[j] = h[j - 1];
  if (!h.empty()) h[0] = value;
}

double SubmodelState::peek(double v, double* d_dv) const {
  // v_hist_ holds nv + 1 <= regressor_size() samples, which
  // submodel_current caps at the RBF input limit.
  double buf[ident::RbfModel::kMaxInputDim];
  const std::span<double> vh(buf, std::min(v_hist_.size(), ident::RbfModel::kMaxInputDim));
  vh[0] = v;
  for (std::size_t j = 1; j < vh.size(); ++j) vh[j] = v_hist_[j - 1];
  return m_->submodel_current(high_, vh, i_hist_, d_dv);
}

double SubmodelState::step(double v, double* d_dv) {
  push_front(v_hist_, v);
  const double i = m_->submodel_current(high_, v_hist_, i_hist_, d_dv);
  push_front(i_hist_, i);
  return i;
}

void SubmodelState::reseed(double v0) {
  for (auto& h : v_hist_) h = v0;
  const double i0 = m_->steady_current(high_, v0);
  for (auto& h : i_hist_) h = i0;
}

sig::Waveform simulate_driver_on_voltage(const PwRbfDriverModel& m, const sig::Waveform& v,
                                         std::size_t edge_step, bool rising) {
  if (v.empty()) throw std::invalid_argument("simulate_driver_on_voltage: empty input");
  SubmodelState run_h(m, true, v[0]);
  SubmodelState run_l(m, false, v[0]);

  std::vector<double> i(v.size());
  for (std::size_t k = 0; k < v.size(); ++k) {
    const double ih = run_h.step(v[k]);
    const double il = run_l.step(v[k]);
    const auto [wh, wl] = (k < edge_step)
                              ? PwRbfDriverModel::steady_weights(!rising)
                              : m.weights_at(rising, k - edge_step);
    i[k] = wh * ih + wl * il;
  }
  return sig::Waveform(v.t0(), v.dt(), std::move(i));
}

sig::Waveform simulate_driver_on_thevenin(const PwRbfDriverModel& m, const std::string& bits,
                                          double bit_time,
                                          const std::function<double(double)>& v_oc,
                                          double r_th, double t_stop) {
  if (bits.empty()) throw std::invalid_argument("simulate_driver_on_thevenin: empty bits");
  if (r_th <= 0.0) throw std::invalid_argument("simulate_driver_on_thevenin: r_th <= 0");

  const double dt = m.ts;
  const auto n = static_cast<std::size_t>(std::llround(t_stop / dt));

  // Initial DC point: solve i_state(v) = (voc - v)/rth for the first bit.
  const bool init_high = bits[0] == '1';
  const double voc0 = v_oc(0.0);
  double v = voc0;
  for (int it = 0; it < 60; ++it) {
    double di_dv = 0.0;
    const double f = m.steady_current(init_high, v, &di_dv) - (voc0 - v) / r_th;
    const double df = di_dv + 1.0 / r_th;
    if (std::abs(df) < 1e-12) break;
    const double step = f / df;
    v -= std::clamp(step, -0.5, 0.5);
    if (std::abs(step) < 1e-9) break;
  }

  SubmodelState run_h(m, true, v);
  SubmodelState run_l(m, false, v);

  // Logic edge schedule from the bit pattern.
  auto bit_at = [&](double t) {
    auto idx = static_cast<std::size_t>(t / bit_time);
    if (idx >= bits.size()) idx = bits.size() - 1;
    return bits[idx] == '1';
  };

  std::vector<double> out(n + 1);
  out[0] = v;
  bool state = init_high;
  bool rising = init_high;
  std::size_t steps_since_edge = std::numeric_limits<std::size_t>::max() / 2;

  for (std::size_t k = 1; k <= n; ++k) {
    const double t = dt * static_cast<double>(k);
    const bool b = bit_at(t);
    if (b != state) {
      rising = b;
      state = b;
      steps_since_edge = 0;
    } else if (steps_since_edge < std::numeric_limits<std::size_t>::max() / 2) {
      ++steps_since_edge;
    }
    const auto [wh, wl] = (steps_since_edge < std::numeric_limits<std::size_t>::max() / 2)
                              ? m.weights_at(rising, steps_since_edge)
                              : PwRbfDriverModel::steady_weights(state);

    // Newton on the port voltage: g(v) = wh*iH(v) + wl*iL(v) - (voc-v)/rth.
    // Submodel histories are advanced once per accepted sample, so the
    // Newton loop re-evaluates currents from frozen histories.
    const double voc = v_oc(t);
    double v_k = v;  // warm start from the previous sample
    double ih = 0.0, il = 0.0;
    for (int it = 0; it < 50; ++it) {
      double dh = 0.0, dl = 0.0;
      // Evaluate with candidate voltage at the head of a scratch history.
      ih = run_h.peek(v_k, &dh);
      il = run_l.peek(v_k, &dl);
      const double g = wh * ih + wl * il - (voc - v_k) / r_th;
      const double dg = wh * dh + wl * dl + 1.0 / r_th;
      const double step = g / dg;
      v_k -= std::clamp(step, -0.3, 0.3);
      if (std::abs(step) < 1e-9) break;
    }
    run_h.step(v_k);
    run_l.step(v_k);
    v = v_k;
    out[k] = v;
  }
  return sig::Waveform(0.0, dt, std::move(out));
}

}  // namespace emc::core
