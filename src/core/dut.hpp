// Device-under-test abstraction: the estimators only need port waveform
// records of identification experiments, not the device internals. The
// circuit-backed implementation (circuit_dut.hpp) wraps the reference
// transistor-level models; tests can plug in synthetic DUTs.
//
// Sign convention used throughout: the port current i is the current
// flowing *into* the device pin.
//
// The record methods are const and may be called concurrently from
// several threads on one DUT: the driver estimator runs its eight
// identification records at once on the estimation pool. An
// implementation keeps no mutable state between calls, or guards it.
#pragma once

#include <string>

#include "signal/sources.hpp"
#include "signal/waveform.hpp"

namespace emc::core {

/// Aligned voltage/current record at a device port.
struct PortRecord {
  sig::Waveform v;
  sig::Waveform i;
};

/// An output port (driver) that identification experiments can be run on.
class DriverDut {
 public:
  virtual ~DriverDut() = default;

  virtual double vdd() const = 0;

  /// Hold the driver in the given logic state and force the port with the
  /// source waveform `vsrc` behind resistance `rs`; record (v, i) at the
  /// pin with sample time dt.
  virtual PortRecord forced_response(bool high, const sig::Pwl& vsrc, double rs, double dt,
                                     double t_stop) const = 0;

  /// Drive the logic input with `bits` (bit period `bit_time`) into a
  /// Thevenin load (r_th to v_load); record (v, i) at the pin.
  virtual PortRecord switching_response(const std::string& bits, double bit_time,
                                        double r_th, double v_load, double dt,
                                        double t_stop) const = 0;
};

/// An input port (receiver).
class ReceiverDut {
 public:
  virtual ~ReceiverDut() = default;

  virtual double vdd() const = 0;

  /// Force the pin with `vsrc` behind `rs`; record (v, i) at the pin.
  virtual PortRecord forced_response(const sig::Pwl& vsrc, double rs, double dt,
                                     double t_stop) const = 0;
};

}  // namespace emc::core
