#include "core/receiver_estimator.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>

namespace emc::core {

namespace {

PortRecord record_range(const ReceiverDut& dut, double v_min, double v_max,
                        const ReceiverEstimationOptions& opt, std::uint64_t seed) {
  const auto sig = sig::multilevel_signal(v_min, v_max, opt.n_levels, opt.n_steps,
                                          opt.t_hold, opt.t_edge, seed);
  const double t_stop = (opt.t_hold + opt.t_edge) * (opt.n_steps + 2);
  return dut.forced_response(sig, opt.rs, opt.ts, t_stop);
}

}  // namespace

ParametricReceiverModel estimate_receiver_model(const ReceiverDut& dut,
                                                const ReceiverEstimationOptions& opt) {
  ParametricReceiverModel m;
  m.ts = opt.ts;
  m.vdd = dut.vdd();
  m.nl_taps = opt.nl_taps;

  // --- linear submodel: small steps inside the rails ----------------------
  const auto rec_lin = record_range(dut, opt.lin_lo * dut.vdd(), opt.lin_hi * dut.vdd(),
                                    opt, opt.seed);
  m.lin = ident::fit_arx(rec_lin.v, rec_lin.i, opt.lin_order, opt.lin_order);

  // --- clamp submodels: residual fits beyond each rail --------------------
  auto fit_clamp = [&](double v_min, double v_max, std::uint64_t seed) {
    const auto rec = record_range(dut, v_min, v_max, opt, seed);
    const auto i_lin = ident::simulate_arx(m.lin, rec.v.samples());
    // Residual target: what the linear model cannot explain.
    std::vector<double> resid(rec.i.size());
    for (std::size_t k = 0; k < resid.size(); ++k) resid[k] = rec.i[k] - i_lin[k];

    // FIR regressors on the voltage taps only (static + short dynamics).
    const auto taps = static_cast<std::size_t>(opt.nl_taps);
    const std::size_t n_rows = rec.v.size() - taps;
    linalg::Matrix x(n_rows, taps);
    std::vector<double> y(n_rows);
    for (std::size_t r = 0; r < n_rows; ++r) {
      const std::size_t k = r + taps - 1;
      for (std::size_t j = 0; j < taps; ++j) x(r, j) = rec.v[k - j];
      y[r] = resid[k];
    }
    ident::RbfFitOptions o = opt.rbf;
    o.max_basis = opt.max_basis_clamp;

    // Kernel width: the best one-step squared error on the last quarter
    // of the record, held out along time from a fit on the first three
    // quarters. The winning width is then refit on every row.
    static constexpr double kSigmaGrid[] = {0.7, 1.0, 1.5, 2.2, 3.2};
    const int basis_grid[] = {o.max_basis};
    const std::size_t n_train = std::max<std::size_t>(n_rows * 3 / 4, 1);
    linalg::Matrix x_train(n_train, taps);
    std::copy_n(x.data(), n_train * taps, x_train.data());
    const auto held_out_error = [&](const ident::RbfModel& fit) {
      double err = 0.0;
      for (std::size_t r = n_train; r < n_rows; ++r) {
        const double e = fit.eval(x.row(r)) - y[r];
        err += e * e;
      }
      return err;
    };
    o.sigma = ident::fit_rbf_best(x_train, std::span(y).first(n_train), o, kSigmaGrid,
                                  basis_grid, held_out_error)
                  .sigma();
    return ident::OlsPath(x, y, o).model(static_cast<std::size_t>(o.max_basis));
  };

  m.up = fit_clamp(dut.vdd() - 0.15, dut.vdd() + opt.v_beyond, opt.seed + 11);
  m.dn = fit_clamp(-opt.v_beyond, 0.15, opt.seed + 22);
  return m;
}

CrReceiverModel estimate_cr_model(const ReceiverDut& dut,
                                  const ReceiverEstimationOptions& opt) {
  CrReceiverModel m;

  // Capacitance: least squares of i ~ C dv/dt on the linear-range record.
  const auto rec = record_range(dut, opt.lin_lo * dut.vdd(), opt.lin_hi * dut.vdd(), opt,
                                opt.seed + 33);
  double num = 0.0, den = 0.0;
  for (std::size_t k = 1; k < rec.v.size(); ++k) {
    const double dv = (rec.v[k] - rec.v[k - 1]) / rec.v.dt();
    num += rec.i[k] * dv;
    den += dv * dv;
  }
  if (den <= 0.0) throw std::runtime_error("estimate_cr_model: degenerate linear record");
  m.c = std::max(num / den, 1e-15);

  // Static resistor: DC sweep (settled short transients at forced levels).
  const double v_lo = -opt.v_beyond;
  const double v_hi = dut.vdd() + opt.v_beyond;
  const int n_pts = 33;
  for (int p = 0; p < n_pts; ++p) {
    const double v = v_lo + (v_hi - v_lo) * static_cast<double>(p) / (n_pts - 1);
    sig::Pwl dc({{0.0, v}, {1e-9, v}});
    const auto r = dut.forced_response(dc, opt.rs, opt.ts, 4e-9);
    m.iv.emplace_back(r.v[r.v.size() - 1], r.i[r.i.size() - 1]);
  }
  std::sort(m.iv.begin(), m.iv.end());
  // Deduplicate voltages that collapsed onto the same settled point.
  m.iv.erase(std::unique(m.iv.begin(), m.iv.end(),
                         [](const auto& a, const auto& b) {
                           return std::abs(a.first - b.first) < 1e-9;
                         }),
             m.iv.end());
  if (m.iv.size() < 2) throw std::runtime_error("estimate_cr_model: degenerate DC sweep");
  return m;
}

}  // namespace emc::core
