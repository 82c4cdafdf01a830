#include "core/circuit_dut.hpp"

#include <span>

#include "circuit/devices_linear.hpp"
#include "circuit/engine.hpp"
#include "circuit/netlist.hpp"
#include "signal/sample_sink.hpp"

namespace emc::core {

namespace {

/// Run `ckt` from 0 to t_stop at step dt and record only the unknowns in
/// `probes` (channel c holds probes[c]). A transistor-level driver has
/// about 18 unknowns; a port record needs one or two of them, and these
/// records run concurrently during estimation.
sig::RecordingSink record_probes(ckt::Circuit& ckt, std::span<const int> probes, double dt,
                                 double t_stop) {
  ckt::TransientOptions opt;
  opt.dt = dt;
  opt.t_stop = t_stop;
  ckt::NewtonWorkspace ws;
  sig::RecordingSink rec;
  ckt::run_transient_streamed(ckt, opt, ws, probes, rec);
  return rec;
}

/// (v, i) at `pin` forced from node `src` through `rs`: the current into
/// the pin is sensed from the two node waveforms, (v_src - v_pin) / rs.
PortRecord forced_record(ckt::Circuit& ckt, int pin, int src, double rs, double dt,
                         double t_stop) {
  const int probes[] = {pin, src};
  const auto rec = record_probes(ckt, probes, dt, t_stop);
  std::vector<double> i(rec.frames());
  for (std::size_t k = 0; k < i.size(); ++k) i[k] = (rec.value(k, 1) - rec.value(k, 0)) / rs;
  auto v = rec.waveform(0);
  sig::Waveform iw(v.t0(), v.dt(), std::move(i));
  return {std::move(v), std::move(iw)};
}

}  // namespace

PortRecord CircuitDriverDut::forced_response(bool high, const sig::Pwl& vsrc, double rs,
                                             double dt, double t_stop) const {
  ckt::Circuit ckt;
  const double logic = high ? tech_.vdd : 0.0;
  auto inst = dev::build_reference_driver(ckt, tech_, [logic](double) { return logic; });
  const int src = ckt.node();
  ckt.add<ckt::VSource>(src, ckt.ground(), [vsrc](double t) { return vsrc(t); });
  ckt.add<ckt::Resistor>(src, inst.pad, rs);
  return forced_record(ckt, inst.pad, src, rs, dt, t_stop);
}

PortRecord CircuitDriverDut::switching_response(const std::string& bits, double bit_time,
                                                double r_th, double v_load, double dt,
                                                double t_stop) const {
  ckt::Circuit ckt;
  auto pattern = sig::bit_stream(bits, bit_time, 0.1e-9, 0.0, tech_.vdd);
  auto inst = dev::build_reference_driver(ckt, tech_, [pattern](double t) { return pattern(t); });
  int far = ckt.ground();
  if (v_load != 0.0) {
    far = ckt.node();
    ckt.add<ckt::VSource>(far, ckt.ground(), v_load);
  }
  ckt.add<ckt::Resistor>(inst.pad, far == ckt.ground() ? ckt.ground() : far, r_th);

  const int probes[] = {inst.pad};
  auto v_pad = record_probes(ckt, probes, dt, t_stop).waveform(0);

  // Port current into the pad: the load draws (v_pad - v_load)/r_th out of
  // the pad, so i_into_pad = -(v_pad - v_load)/r_th.
  std::vector<double> i(v_pad.size());
  for (std::size_t k = 0; k < v_pad.size(); ++k) i[k] = -(v_pad[k] - v_load) / r_th;
  sig::Waveform iw(v_pad.t0(), v_pad.dt(), std::move(i));
  return {std::move(v_pad), std::move(iw)};
}

PortRecord CircuitReceiverDut::forced_response(const sig::Pwl& vsrc, double rs, double dt,
                                               double t_stop) const {
  ckt::Circuit ckt;
  auto inst = dev::build_reference_receiver(ckt, tech_);
  const int src = ckt.node();
  ckt.add<ckt::VSource>(src, ckt.ground(), [vsrc](double t) { return vsrc(t); });
  ckt.add<ckt::Resistor>(src, inst.pin, rs);
  return forced_record(ckt, inst.pin, src, rs, dt, t_stop);
}

}  // namespace emc::core
