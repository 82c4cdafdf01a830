#include "core/driver_estimator.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <exception>
#include <functional>
#include <iterator>
#include <mutex>
#include <stdexcept>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "sweep/thread_pool.hpp"

namespace emc::core {

namespace {

/// Identification record of one logic state.
PortRecord record_state(const DriverDut& dut, bool high, const DriverEstimationOptions& opt,
                        std::uint64_t seed) {
  const double v_min = -opt.v_margin;
  const double v_max = dut.vdd() + opt.v_margin;
  const auto sig = sig::multilevel_signal(v_min, v_max, opt.n_levels, opt.n_steps,
                                          opt.t_hold, opt.t_edge, seed);
  const double t_stop = (opt.t_hold + opt.t_edge) * (opt.n_steps + 2);
  return dut.forced_response(high, sig, opt.rs, opt.ts, t_stop);
}


/// Free-run relative RMS error of a candidate submodel on a record.
double free_run_error(const ident::RbfModel& m, ident::NarxOrders ord,
                      const PortRecord& rec) {
  std::vector<double> i_init(static_cast<std::size_t>(ord.history()));
  for (std::size_t k = 0; k < i_init.size(); ++k) i_init[k] = rec.i[k];
  const auto sim = ident::simulate_narx(m, ord, rec.v.samples(), i_init);
  double num = 0.0, den = 0.0;
  for (std::size_t k = 20; k < sim.size(); ++k) {
    num += (sim[k] - rec.i[k]) * (sim[k] - rec.i[k]);
    den += rec.i[k] * rec.i[k];
  }
  return den > 0 ? std::sqrt(num / den) : std::sqrt(num);
}

/// Fit one state submodel: OLS paths over a (sigma, basis) grid, scored by
/// free-run error on a held-out validation record. The paper's free-run
/// usage makes one-step scoring misleading: slightly overfitted feedback
/// terms destabilize the recursion, so the selection must run the model.
/// (A static-anchoring staircase record was tried here and rejected: it
/// pulls the fit toward the extreme-current statics and consistently
/// degrades the transition dynamics of the faster devices; the residual
/// static zero-crossing offset is documented in EXPERIMENTS.md.)
ident::RbfModel fit_submodel(const PortRecord& train, const PortRecord& val, int order,
                             int max_basis, const ident::RbfFitOptions& base,
                             sweep::ThreadPool* pool, ident::OlsWorkspace* ws) {
  ident::NarxOrders ord{order, order};
  const auto ds = ident::build_narx_dataset(train.v, train.i, ord);
  ident::RbfFitOptions o = base;

  const double sigma_grid[] = {1.0, 1.5, 2.2, 3.2};
  std::vector<int> basis_grid;
  for (int nb = 6; nb <= max_basis; nb += 4) basis_grid.push_back(nb);
  if (basis_grid.empty() || basis_grid.back() != max_basis)
    basis_grid.push_back(max_basis);

  return ident::fit_rbf_best(ds.x, ds.y, o, sigma_grid, basis_grid,
                             [&](const ident::RbfModel& m) {
                               // Must free-run on both records: stability on
                               // the training record is part of the score.
                               return free_run_error(m, ord, val) +
                                      free_run_error(m, ord, train);
                             },
                             pool, ws);
}

/// Free-run a submodel over a recorded voltage, seeding its histories at
/// the record's initial operating point.
std::vector<double> free_run(const PwRbfDriverModel& m, bool high, const sig::Waveform& v) {
  SubmodelState st(m, high, v[0]);
  std::vector<double> i(v.size());
  for (std::size_t k = 0; k < v.size(); ++k) i[k] = st.step(v[k]);
  return i;
}

double rel_rms(std::span<const double> ref, std::span<const double> test,
               std::size_t skip) {
  double num = 0.0, den = 0.0;
  for (std::size_t k = skip; k < ref.size(); ++k) {
    num += (ref[k] - test[k]) * (ref[k] - test[k]);
    den += ref[k] * ref[k];
  }
  return den > 0 ? std::sqrt(num / den) : std::sqrt(num / static_cast<double>(ref.size()));
}

/// Per-sample 2x2 inversion of eq. (1) on two loads, with Tikhonov
/// regularization scaled to the current magnitudes, end-point blending to
/// the exact steady weights, and light smoothing.
WeightSequence solve_weights(const std::vector<double>& ih1, const std::vector<double>& il1,
                             const std::vector<double>& i1, const std::vector<double>& ih2,
                             const std::vector<double>& il2, const std::vector<double>& i2,
                             std::size_t k0, std::size_t n_keep, bool rising,
                             double ridge_rel) {
  WeightSequence seq;
  seq.wh.resize(n_keep);
  seq.wl.resize(n_keep);

  auto [wh_prev, wl_prev] = PwRbfDriverModel::steady_weights(!rising);
  for (std::size_t j = 0; j < n_keep; ++j) {
    const std::size_t k = k0 + j;
    // A w = b with A = [[ih1, il1], [ih2, il2]], b = [i1, i2].
    const double a11 = ih1[k], a12 = il1[k], a21 = ih2[k], a22 = il2[k];
    const double scale = a11 * a11 + a12 * a12 + a21 * a21 + a22 * a22;
    const double lam = ridge_rel * scale + 1e-30;
    // Tikhonov toward the previous sample: the weight trajectories are
    // smooth by construction (they encode one switching event), and the
    // prior takes over exactly where the two load records become
    // collinear and the plain inversion is ill posed.
    const double m11 = a11 * a11 + a21 * a21 + lam;
    const double m12 = a11 * a12 + a21 * a22;
    const double m22 = a12 * a12 + a22 * a22 + lam;
    const double r1 = a11 * i1[k] + a21 * i2[k] + lam * wh_prev;
    const double r2 = a12 * i1[k] + a22 * i2[k] + lam * wl_prev;
    const double det = m11 * m22 - m12 * m12;
    double wh = wh_prev, wl = wl_prev;
    if (std::abs(det) > 1e-30) {
      wh = (r1 * m22 - r2 * m12) / det;
      wl = (m11 * r2 - m12 * r1) / det;
    }
    // Keep the weights physical: they describe a convex-ish mix.
    wh = std::clamp(wh, -0.25, 1.25);
    wl = std::clamp(wl, -0.25, 1.25);
    seq.wh[j] = wh;
    seq.wl[j] = wl;
    wh_prev = wh;
    wl_prev = wl;
  }

  // 3-point moving average (kills isolated near-singular spikes).
  auto smooth = [](std::vector<double>& w) {
    if (w.size() < 3) return;
    std::vector<double> s(w);
    for (std::size_t j = 1; j + 1 < w.size(); ++j)
      s[j] = (w[j - 1] + w[j] + w[j + 1]) / 3.0;
    w.swap(s);
  };
  smooth(seq.wh);
  smooth(seq.wl);

  // Pin the head to the exact initial steady weights.
  if (!seq.wh.empty()) {
    const auto [wh0, wl0] = PwRbfDriverModel::steady_weights(!rising);
    seq.wh.front() = wh0;
    seq.wl.front() = wl0;
  }
  return seq;
}

/// Trim the sequence at its measured settling point and blend the kept
/// tail into the exact steady weights. Each device thus carries a
/// transition of its natural duration, which completes before a following
/// bit edge preempts it (fast ASIC drivers settle well under 1 ns; a
/// 4 ns untrimmed sequence would be restarted mid-flight on every bit).
void trim_to_settling(WeightSequence& seq, bool rising, double tol) {
  if (seq.empty()) return;
  const auto [wh_inf, wl_inf] = PwRbfDriverModel::steady_weights(rising);
  // Last sample violating the settling band.
  std::size_t last_active = 0;
  for (std::size_t j = 0; j < seq.size(); ++j) {
    if (std::abs(seq.wh[j] - wh_inf) > tol || std::abs(seq.wl[j] - wl_inf) > tol)
      last_active = j;
  }
  const std::size_t keep =
      std::min(seq.size(), last_active + std::max<std::size_t>(seq.size() / 10, 8));
  seq.wh.resize(keep);
  seq.wl.resize(keep);

  const std::size_t blend_start = keep - std::min<std::size_t>(keep / 4 + 1, keep);
  for (std::size_t j = blend_start; j < keep; ++j) {
    const double a = static_cast<double>(j - blend_start + 1) /
                     static_cast<double>(keep - blend_start);
    seq.wh[j] = (1.0 - a) * seq.wh[j] + a * wh_inf;
    seq.wl[j] = (1.0 - a) * seq.wl[j] + a * wl_inf;
  }
}

/// The process-wide estimation pool and the lock that gives it to one
/// estimate at a time. Persistent rather than per estimate: each
/// short-lived thread would get a fresh glibc arena, and every arena keeps
/// about 1.5 MiB after its thread exits.
struct EstimationPool {
  std::mutex busy;
  sweep::ThreadPool pool{sweep::ThreadPool::default_workers()};
};

EstimationPool& estimation_pool() {
  static EstimationPool shared;
  return shared;
}

}  // namespace

PwRbfDriverModel estimate_driver_model(const DriverDut& dut,
                                       const DriverEstimationOptions& opt) {
  EstimationPool& shared = estimation_pool();
  const std::unique_lock<std::mutex> lk(shared.busy, std::try_to_lock);
  return estimate_driver_model(dut, opt, lk.owns_lock() ? &shared.pool : nullptr);
}

PwRbfDriverModel estimate_driver_model(const DriverDut& dut, const DriverEstimationOptions& opt,
                                       sweep::ThreadPool* pool) {
  PwRbfDriverModel model;
  model.ts = opt.ts;
  model.vdd = dut.vdd();
  model.orders = ident::NarxOrders{opt.order, opt.order};

  // --- 0. Identification records ------------------------------------------
  // Eight independent transistor-level transients, longest first: the two
  // state records, two short held-out records (different excitation) for
  // model-order scoring, and the Up and Down edges on both loads, each
  // with one bit of pre-roll so the DC point is settled. Each runs on one
  // thread into its own slot; a throw is held there and the first one in
  // slot order is rethrown, as the serial loop would.
  DriverEstimationOptions vopt = opt;
  vopt.n_steps = std::max(30, opt.n_steps / 4);
  const double pre = 2e-9;
  const double t_stop = pre + opt.w_window + 2e-9;
  const auto switching = [&](bool rising, double r_th, double v_load) {
    return dut.switching_response(rising ? "01" : "10", pre, r_th, v_load, opt.ts, t_stop);
  };
  const std::function<PortRecord()> record[] = {
      [&] { return record_state(dut, true, opt, opt.seed); },
      [&] { return record_state(dut, false, opt, opt.seed + 1); },
      [&] { return record_state(dut, true, vopt, opt.seed + 53); },
      [&] { return record_state(dut, false, vopt, opt.seed + 54); },
      [&] { return switching(true, opt.load1_r, 0.0); },
      [&] { return switching(true, opt.load2_r, dut.vdd()); },
      [&] { return switching(false, opt.load1_r, 0.0); },
      [&] { return switching(false, opt.load2_r, dut.vdd()); }};
  constexpr std::size_t kRecords = std::size(record);
  std::array<PortRecord, kRecords> recs;
  std::array<std::exception_ptr, kRecords> errs;
  const auto run = [&](std::size_t k, std::size_t) {
    try {
      recs[k] = record[k]();
    } catch (...) {
      errs[k] = std::current_exception();
    }
  };
  if (pool != nullptr)
    pool->parallel_for(kRecords, run);
  else
    for (std::size_t k = 0; k < kRecords; ++k) run(k, 0);
  for (const auto& e : errs)
    if (e) std::rethrow_exception(e);

  const auto& [rec_h, rec_l, val_h, val_l, up1, up2, down1, down2] = recs;
  if (rec_h.v.size() < 100 || rec_l.v.size() < 100)
    throw std::runtime_error("estimate_driver_model: identification record too short");

  // --- 1. State submodels -------------------------------------------------
  {
    // One candidate workspace for all eight sigma paths.
    ident::OlsWorkspace ws;
    model.f_high =
        fit_submodel(rec_h, val_h, opt.order, opt.max_basis_high, opt.rbf, pool, &ws);
    model.f_low = fit_submodel(rec_l, val_l, opt.order, opt.max_basis_low, opt.rbf, pool, &ws);
  }

  // --- 2. Switching weights ----------------------------------------------
  const auto n_keep = static_cast<std::size_t>(std::llround(opt.w_window / opt.ts));
  for (bool rising : {true, false}) {
    const PortRecord& r1 = rising ? up1 : down1;
    const PortRecord& r2 = rising ? up2 : down2;

    const auto ih1 = free_run(model, true, r1.v);
    const auto il1 = free_run(model, false, r1.v);
    const auto ih2 = free_run(model, true, r2.v);
    const auto il2 = free_run(model, false, r2.v);

    // The logic edge fires at t = pre (input starts ramping there).
    const auto k0 = static_cast<std::size_t>(std::llround(pre / opt.ts));
    if (k0 + n_keep > r1.v.size())
      throw std::runtime_error("estimate_driver_model: switching record too short");

    auto seq = solve_weights(ih1, il1, r1.i.samples(), ih2, il2, r2.i.samples(), k0,
                             n_keep, rising, opt.w_ridge);
    trim_to_settling(seq, rising, opt.w_settle_tol);
    if (rising)
      model.up = seq;
    else
      model.down = seq;
  }

  // The pool's threads allocated the records and their solver scratch in
  // their own glibc arenas, which keep freed pages resident. Free the
  // records, then hand every arena's free pages back once, here, rather
  // than hold them through the caller's sweep.
  recs = {};
#ifdef __GLIBC__
  if (pool != nullptr) malloc_trim(0);
#endif
  return model;
}

SubmodelFitReport validate_submodels(const DriverDut& dut, const PwRbfDriverModel& model,
                                     const DriverEstimationOptions& opt) {
  SubmodelFitReport rep;
  DriverEstimationOptions vopt = opt;
  vopt.n_steps = std::max(30, opt.n_steps / 3);
  const auto rec_h = record_state(dut, true, vopt, opt.seed + 101);
  const auto rec_l = record_state(dut, false, vopt, opt.seed + 202);

  const auto sim_h = free_run(model, true, rec_h.v);
  const auto sim_l = free_run(model, false, rec_l.v);
  const std::size_t skip = 20;  // settle the seeded histories
  rep.rel_rms_high = rel_rms(rec_h.i.samples(), sim_h, skip);
  rep.rel_rms_low = rel_rms(rec_l.i.samples(), sim_l, skip);
  return rep;
}

}  // namespace emc::core
