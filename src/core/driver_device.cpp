#include "core/driver_device.hpp"

#include <cmath>
#include <stdexcept>

namespace emc::core {

DriverDevice::DriverDevice(int pad, const PwRbfDriverModel& model, std::string bits,
                           double bit_time)
    : pad_(pad),
      model_(&model),
      bits_(std::move(bits)),
      bit_time_(bit_time),
      run_h_(model, true, bits_.empty() ? 0.0 : 0.0),
      run_l_(model, false, 0.0) {
  if (bits_.empty()) throw std::invalid_argument("DriverDevice: empty bit pattern");
  if (bit_time <= 0.0) throw std::invalid_argument("DriverDevice: bit_time must be positive");
  state_ = bits_[0] == '1';
}

bool DriverDevice::bit_at(double t) const {
  auto idx = static_cast<std::size_t>(t / bit_time_);
  if (idx >= bits_.size()) idx = bits_.size() - 1;
  return bits_[idx] == '1';
}

void DriverDevice::start_step(const ckt::SimState& st) {
  if (std::abs(st.dt - model_->ts) > 1e-3 * model_->ts)
    throw std::runtime_error(
        "DriverDevice: the engine step must equal the model sampling time Ts");

  const bool b = bit_at(st.t);
  if (b != state_) {
    state_ = b;
    rising_ = b;
    in_transition_ = true;
    steps_since_edge_ = 0;
  } else if (in_transition_) {
    ++steps_since_edge_;
  }

  if (in_transition_) {
    const auto w = model_->weights_at(rising_, steps_since_edge_);
    wh_ = w.first;
    wl_ = w.second;
    const auto& seq = rising_ ? model_->up : model_->down;
    if (steps_since_edge_ >= seq.size()) in_transition_ = false;
  } else {
    const auto w = PwRbfDriverModel::steady_weights(state_);
    wh_ = w.first;
    wl_ = w.second;
  }
}

void DriverDevice::stamp(ckt::Stamper& s, const ckt::SimState& st) const {
  const double v = st.v(pad_);
  if (st.dc) {
    // Operating point: steady model current of the initial logic state
    // and its exact static slope.
    double g = 0.0;
    const double i0 = model_->steady_current(state_, v, &g);
    s.nonlinear_current(pad_, 0, i0, std::max(g, 1e-9), v);
    return;
  }
  // A submodel with weight exactly 0 contributes nothing: the steady
  // weights are (1, 0) and (0, 1). commit() still steps both.
  double ih = 0.0, il = 0.0, dh = 0.0, dl = 0.0;
  if (wh_ != 0.0) ih = run_h_.peek(v, &dh);
  if (wl_ != 0.0) il = run_l_.peek(v, &dl);
  const double i = wh_ * ih + wl_ * il;
  const double g = wh_ * dh + wl_ * dl;
  // A tiny conductance floor keeps the pad node well defined even when
  // the RBF gradient locally vanishes.
  s.nonlinear_current(pad_, 0, i, g, v);
  s.conductance(pad_, 0, 1e-9);
}

void DriverDevice::commit(const ckt::SimState& st) {
  if (st.dc) return;
  const double v = st.v(pad_);
  run_h_.step(v);
  run_l_.step(v);
}

void DriverDevice::post_dc(const ckt::SimState& st) {
  const double v = st.v(pad_);
  run_h_.reseed(v);
  run_l_.reseed(v);
}

void DriverDevice::reset() {
  state_ = bits_[0] == '1';
  in_transition_ = false;
  steps_since_edge_ = 0;
  run_h_.reseed(0.0);
  run_l_.reseed(0.0);
}

}  // namespace emc::core
