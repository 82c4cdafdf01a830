#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>

#include "ident/rbf.hpp"
#include "linalg/decomp.hpp"
#include "signal/sources.hpp"
#include "sweep/thread_pool.hpp"

using namespace emc::ident;
namespace la = emc::linalg;

namespace {

/// Static nonlinear test function on [-2, 2].
double bump(double v) { return std::tanh(2.0 * v) + 0.3 * v; }

la::Matrix column(const std::vector<double>& v) {
  la::Matrix m(v.size(), 1);
  for (std::size_t r = 0; r < v.size(); ++r) m(r, 0) = v[r];
  return m;
}

/// Seeded synthetic NARX dataset shaped like a driver record: a saturating
/// second-order system under a multilevel staircase with short ramps,
/// orders (nv, ni) = (2, 2), so 5 regressors per row. Without dither the
/// system settles on every level, so each hold repeats nearly the same
/// row; a uniform input dither of the given amplitude keeps rows apart.
Dataset synthetic_narx(std::uint64_t seed, std::size_t len, double dither) {
  emc::sig::Lcg rng(seed);
  std::vector<double> v(len), i(len, 0.0);
  double level = 0.0, target = 0.0;
  for (std::size_t k = 0; k < len; ++k) {
    if (k % 30 == 0) target = 4.0 * rng.uniform() - 2.0;
    level += std::clamp(target - level, -0.5, 0.5);
    v[k] = level + dither * (rng.uniform() - 0.5);
    if (k >= 2)
      i[k] = 0.6 * i[k - 1] - 0.1 * i[k - 2] + 0.4 * std::tanh(2.0 * v[k]) -
             0.15 * v[k - 1] + 0.05 * v[k] * i[k - 1];
  }
  return build_narx_dataset(emc::sig::Waveform(0.0, 1.0, v), emc::sig::Waveform(0.0, 1.0, i),
                            NarxOrders{2, 2});
}

/// Gaussian kernel column of one center over the scaled rows, spelled as
/// OlsPath spells it.
std::vector<double> kernel_column(const la::Matrix& z, std::span<const double> center,
                                  double sigma) {
  const double inv2s2 = 1.0 / (2.0 * sigma * sigma);
  std::vector<double> col(z.rows());
  for (std::size_t r = 0; r < z.rows(); ++r) {
    double dist2 = 0.0;
    for (std::size_t k = 0; k < z.cols(); ++k) {
      const double d = z(r, k) - center[k];
      dist2 += d * d;
    }
    col[r] = std::exp(-dist2 * inv2s2);
  }
  return col;
}

/// One pick of the reference selection, with how well it was decided.
struct RefPick {
  std::size_t row;  ///< selected training row
  double rel;       ///< deflated energy of the pick / its initial energy
  double gap;       ///< (err - runner-up err) / err
};

/// Reference OLS selection with explicit deflation: after each pick every
/// remaining candidate and the target are deflated by it, and each step
/// recomputes p.p and p.y for every candidate.
std::vector<RefPick> reference_picks(const la::Matrix& x, std::span<const double> y,
                                     const RbfFitOptions& opt) {
  const std::size_t n = x.rows();
  const la::Matrix z = Scaler::fit(x).transform(x);

  std::vector<std::size_t> cand;
  if (n <= static_cast<std::size_t>(opt.max_candidates)) {
    cand.resize(n);
    std::iota(cand.begin(), cand.end(), 0);
  } else {
    emc::sig::Lcg rng(opt.seed);
    const double stride = static_cast<double>(n) / opt.max_candidates;
    for (int j = 0; j < opt.max_candidates; ++j) {
      const double base = stride * static_cast<double>(j);
      const auto idx = static_cast<std::size_t>(base + rng.uniform() * stride);
      cand.push_back(std::min(idx, n - 1));
    }
  }
  const std::size_t nc = cand.size();

  std::vector<std::vector<double>> p(nc);
  std::vector<double> pp0(nc);
  for (std::size_t c = 0; c < nc; ++c) {
    p[c] = kernel_column(z, z.row(cand[c]), opt.sigma);
    const double m = std::accumulate(p[c].begin(), p[c].end(), 0.0) / static_cast<double>(n);
    for (auto& v : p[c]) v -= m;
    pp0[c] = la::dot(p[c], p[c]);
  }
  std::vector<double> yres(y.begin(), y.end());
  const double ymean = std::accumulate(yres.begin(), yres.end(), 0.0) / static_cast<double>(n);
  for (auto& v : yres) v -= ymean;
  const double y_energy = std::max(la::dot(yres, yres), 1e-30);

  std::vector<RefPick> picks;
  std::vector<bool> used(nc, false);
  for (int step = 0; step < std::min<int>(opt.max_basis, static_cast<int>(nc)); ++step) {
    double best_err = 0.0, second_err = 0.0;
    std::size_t best_c = nc;
    for (std::size_t c = 0; c < nc; ++c) {
      if (used[c]) continue;
      const double pp = la::dot(p[c], p[c]);
      if (pp < 1e-20) continue;
      const double py = la::dot(p[c], yres);
      const double err = py * py / (pp * y_energy);
      if (err > best_err) {
        second_err = best_err;
        best_err = err;
        best_c = c;
      } else {
        second_err = std::max(second_err, err);
      }
    }
    if (best_c == nc || best_err < opt.min_err_reduction) break;
    used[best_c] = true;
    picks.push_back({cand[best_c], la::dot(p[best_c], p[best_c]) / pp0[best_c],
                     (best_err - second_err) / best_err});

    const std::vector<double> q = p[best_c];
    const double qq = la::dot(q, q);
    la::axpy(-la::dot(q, yres) / qq, q, yres);
    for (std::size_t c = 0; c < nc; ++c)
      if (!used[c]) la::axpy(-la::dot(q, p[c]) / qq, q, p[c]);
  }
  return picks;
}

}  // namespace

TEST(Scaler, StandardizesColumns) {
  la::Matrix x(4, 2);
  for (std::size_t r = 0; r < 4; ++r) {
    x(r, 0) = static_cast<double>(r);  // mean 1.5
    x(r, 1) = 10.0;                    // constant
  }
  const Scaler s = Scaler::fit(x);
  EXPECT_NEAR(s.mean()[0], 1.5, 1e-12);
  EXPECT_NEAR(s.mean()[1], 10.0, 1e-12);
  EXPECT_NEAR(s.scale()[1], 1.0, 1e-12);  // constant column passes through

  const la::Matrix z = s.transform(x);
  double m0 = 0.0, v0 = 0.0;
  for (std::size_t r = 0; r < 4; ++r) m0 += z(r, 0);
  EXPECT_NEAR(m0, 0.0, 1e-12);
  for (std::size_t r = 0; r < 4; ++r) v0 += z(r, 0) * z(r, 0);
  EXPECT_NEAR(std::sqrt(v0 / 4.0), 1.0, 1e-12);
}

TEST(NarxDataset, LayoutMatchesDefinition) {
  // v = [0,1,2,3,4], i = [10,11,12,13,14], orders nv=1, ni=2.
  emc::sig::Waveform v(0.0, 1.0, {0, 1, 2, 3, 4});
  emc::sig::Waveform i(0.0, 1.0, {10, 11, 12, 13, 14});
  NarxOrders ord{1, 2};
  const auto ds = build_narx_dataset(v, i, ord);
  ASSERT_EQ(ds.x.rows(), 3u);  // k = 2, 3, 4
  ASSERT_EQ(ds.x.cols(), 4u);  // v(k), v(k-1), i(k-1), i(k-2)
  // First row: k = 2 -> [2, 1, 11, 10], y = 12.
  EXPECT_DOUBLE_EQ(ds.x(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(ds.x(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(ds.x(0, 2), 11.0);
  EXPECT_DOUBLE_EQ(ds.x(0, 3), 10.0);
  EXPECT_DOUBLE_EQ(ds.y[0], 12.0);
}

TEST(NarxDataset, Validation) {
  emc::sig::Waveform v(0.0, 1.0, {0, 1});
  emc::sig::Waveform i(0.0, 1.0, {0, 1, 2});
  EXPECT_THROW(build_narx_dataset(v, i, NarxOrders{}), std::invalid_argument);
  emc::sig::Waveform i2(0.0, 1.0, {0, 1});
  EXPECT_THROW(build_narx_dataset(v, i2, NarxOrders{2, 2}), std::invalid_argument);
}

TEST(NarxRegressor, FillMatchesDataset) {
  std::vector<double> v_hist{5.0, 4.0, 3.0};  // v(k), v(k-1), v(k-2)
  std::vector<double> i_hist{2.0, 1.0};       // i(k-1), i(k-2)
  NarxOrders ord{2, 2};
  std::vector<double> reg(5);
  fill_narx_regressor(v_hist, i_hist, ord, reg);
  EXPECT_DOUBLE_EQ(reg[0], 5.0);
  EXPECT_DOUBLE_EQ(reg[2], 3.0);
  EXPECT_DOUBLE_EQ(reg[3], 2.0);
  EXPECT_DOUBLE_EQ(reg[4], 1.0);
}

TEST(RbfFit, RecoversStaticNonlinearity) {
  // Dense 1-D samples of a smooth function: an RBF net with a handful of
  // centers must fit it to sub-percent accuracy.
  std::vector<double> xs, ys;
  for (int k = 0; k <= 200; ++k) {
    const double v = -2.0 + 4.0 * k / 200.0;
    xs.push_back(v);
    ys.push_back(bump(v));
  }
  RbfFitOptions opt;
  opt.max_basis = 12;
  opt.sigma = 0.5;
  const RbfModel m = OlsPath(column(xs), ys, opt).model(12);
  EXPECT_LE(m.num_basis(), 12u);
  double worst = 0.0;
  for (std::size_t k = 0; k < xs.size(); ++k) {
    const double e = std::abs(m.eval(std::vector<double>{xs[k]}) - ys[k]);
    worst = std::max(worst, e);
  }
  EXPECT_LT(worst, 0.02);
}

TEST(RbfFit, ConstantDataGivesConstantModel) {
  std::vector<double> xs(50), ys(50, 3.25);
  for (std::size_t k = 0; k < xs.size(); ++k) xs[k] = static_cast<double>(k);
  RbfFitOptions opt;
  const RbfModel m = OlsPath(column(xs), ys, opt).model(12);
  EXPECT_NEAR(m.eval(std::vector<double>{25.0}), 3.25, 1e-9);
}

TEST(RbfFit, GradientMatchesFiniteDifference) {
  std::vector<double> xs, ys;
  for (int k = 0; k <= 100; ++k) {
    const double v = -1.0 + 0.02 * k;
    xs.push_back(v);
    ys.push_back(std::sin(3.0 * v));
  }
  RbfFitOptions opt;
  opt.max_basis = 15;
  const RbfModel m = OlsPath(column(xs), ys, opt).model(15);

  for (double v : {-0.8, -0.3, 0.0, 0.4, 0.9}) {
    double grad = 0.0;
    m.eval_with_grad(std::vector<double>{v}, 0, &grad);
    const double h = 1e-6;
    const double fd = (m.eval(std::vector<double>{v + h}) - m.eval(std::vector<double>{v - h})) /
                      (2.0 * h);
    EXPECT_NEAR(grad, fd, 1e-4 * std::max(1.0, std::abs(fd))) << "v = " << v;
  }
  // A gradient index past the input would read past the scaled regressor
  // and the scaler; it is rejected before any work. Without a gradient
  // the index is unused.
  double grad = 0.0;
  EXPECT_THROW(m.eval_with_grad(std::vector<double>{0.1}, 1, &grad), std::invalid_argument);
  EXPECT_EQ(m.eval_with_grad(std::vector<double>{0.1}, 1, nullptr),
            m.eval(std::vector<double>{0.1}));
}

TEST(RbfModel, InputGradientMatchesEachPartial) {
  // Three inputs on different scales, so the chain rule through the
  // scaler differs per input.
  const RbfModel m(Scaler({0.5, -1.0, 0.02}, {2.0, 0.5, 0.1}),
                   la::Matrix{{0.1, -0.4, 1.2}, {-0.7, 0.3, 0.0}, {0.9, 0.8, -1.1}},
                   {0.8, -1.3, 0.45}, 0.2, 1.3);
  const std::vector<double> x{0.9, -1.2, 0.07};
  std::vector<double> grad(3, 0.0);
  // The value is eval's, to the bit; each entry is eval_with_grad's partial.
  EXPECT_EQ(m.eval_with_input_grad(x, grad), m.eval(x));
  for (std::size_t k = 0; k < 3; ++k) {
    double partial = 0.0;
    m.eval_with_grad(x, k, &partial);
    EXPECT_NEAR(grad[k], partial, 1e-14 * std::max(1.0, std::abs(partial))) << "input " << k;
  }
  std::vector<double> short_grad(2, 0.0);
  EXPECT_THROW(m.eval_with_input_grad(x, short_grad), std::invalid_argument);
}

TEST(RbfFit, AutoSigmaNotWorseThanFixed) {
  std::vector<double> xs, ys;
  for (int k = 0; k <= 300; ++k) {
    const double v = -2.0 + 4.0 * k / 300.0;
    xs.push_back(v);
    ys.push_back(bump(v) + 0.2 * std::sin(6.0 * v));
  }
  RbfFitOptions opt;
  opt.max_basis = 14;
  const la::Matrix x = column(xs);
  const RbfModel fixed = OlsPath(x, ys, opt).model(14);

  // Kernel width by one-step error on the last quarter, held out from a
  // fit on the first three quarters; the winner is refit on every row.
  const std::size_t n_train = xs.size() * 3 / 4;
  const la::Matrix x_train = column(std::vector<double>(xs.begin(), xs.begin() + n_train));
  const auto held_out_error = [&](const RbfModel& m) {
    double err = 0.0;
    for (std::size_t r = n_train; r < xs.size(); ++r) err += std::pow(m.eval(x.row(r)) - ys[r], 2);
    return err;
  };
  const double sigmas[] = {0.7, 1.0, 1.5, 2.2, 3.2};
  const int basis[] = {14};
  RbfFitOptions tuned = opt;
  tuned.sigma = fit_rbf_best(x_train, std::span(ys).first(n_train), opt, sigmas, basis,
                             held_out_error)
                    .sigma();
  const RbfModel autom = OlsPath(x, ys, tuned).model(14);

  double err_fixed = 0.0, err_auto = 0.0;
  for (std::size_t k = 0; k < xs.size(); ++k) {
    err_fixed += std::pow(fixed.eval(std::vector<double>{xs[k]}) - ys[k], 2);
    err_auto += std::pow(autom.eval(std::vector<double>{xs[k]}) - ys[k], 2);
  }
  EXPECT_LE(err_auto, err_fixed * 1.5);
}

TEST(RbfFit, DynamicNarxSystemFreeRun) {
  // Nonlinear first-order system: i(k) = 0.8 i(k-1) + tanh(v(k)).
  // Identify from a multilevel excitation, then free-run on fresh input.
  emc::sig::Lcg rng(3);
  std::vector<double> v(1200), i(1200, 0.0);
  double level = 0.0;
  for (std::size_t k = 0; k < v.size(); ++k) {
    if (k % 25 == 0) level = 4.0 * rng.uniform() - 2.0;
    v[k] = level;
    if (k > 0) i[k] = 0.8 * i[k - 1] + std::tanh(v[k]);
  }

  NarxOrders ord{0, 1};  // v(k), i(k-1)
  emc::sig::Waveform vw(0.0, 1.0, v), iw(0.0, 1.0, i);
  const auto ds = build_narx_dataset(vw, iw, ord);
  RbfFitOptions opt;
  opt.max_basis = 16;
  opt.sigma = 1.0;
  const RbfModel m = OlsPath(ds.x, ds.y, opt).model(16);

  // Fresh validation sequence.
  std::vector<double> v2(400), i2(400, 0.0);
  level = 0.0;
  for (std::size_t k = 0; k < v2.size(); ++k) {
    if (k % 40 == 0) level = 4.0 * rng.uniform() - 2.0;
    v2[k] = level;
    if (k > 0) i2[k] = 0.8 * i2[k - 1] + std::tanh(v2[k]);
  }
  const auto sim = simulate_narx(m, ord, v2, std::vector<double>{0.0});
  double rms = 0.0, ref = 0.0;
  for (std::size_t k = 10; k < v2.size(); ++k) {
    rms += std::pow(sim[k] - i2[k], 2);
    ref += i2[k] * i2[k];
  }
  EXPECT_LT(std::sqrt(rms / ref), 0.05);  // < 5% relative free-run error
}

TEST(RbfFit, InputValidation) {
  la::Matrix x(0, 1);
  std::vector<double> y;
  EXPECT_THROW(OlsPath(x, y, RbfFitOptions{}).model(12), std::invalid_argument);

  la::Matrix x2(3, 1);
  std::vector<double> y2(2);
  EXPECT_THROW(OlsPath(x2, y2, RbfFitOptions{}).model(12), std::invalid_argument);

  RbfFitOptions bad;
  bad.max_basis = 0;
  std::vector<double> y3(3);
  EXPECT_THROW(OlsPath(x2, y3, bad).model(12), std::invalid_argument);

  // Bad options are rejected up front, not turned into a constant model.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (int mc : {0, -1, -400}) {
    RbfFitOptions o;
    o.max_candidates = mc;
    EXPECT_THROW(OlsPath(x2, y3, o).model(12), std::invalid_argument) << "max_candidates " << mc;
  }
  for (double s : {0.0, -1.5, nan, inf}) {
    RbfFitOptions o;
    o.sigma = s;
    EXPECT_THROW(OlsPath(x2, y3, o), std::invalid_argument) << "sigma " << s;
  }
  for (double r : {-1e-8, nan, inf}) {
    RbfFitOptions o;
    o.ridge = r;
    EXPECT_THROW(OlsPath(x2, y3, o).model(12), std::invalid_argument) << "ridge " << r;
  }
  RbfFitOptions zero_ridge;
  zero_ridge.ridge = 0.0;
  EXPECT_NO_THROW(OlsPath(x2, y3, zero_ridge).model(12));

  // fit_rbf_best checks both grids whole before its first path: a bad
  // entry anywhere throws without a model being scored.
  const Dataset ds = synthetic_narx(5, 200, 0.2);
  int scored = 0;
  const auto score = [&](const RbfModel&) { return static_cast<double>(++scored); };
  const double good_sigma[] = {1.5};
  const int good_basis[] = {4};
  const std::vector<std::vector<int>> bad_basis = {{}, {0}, {-3}, {4, 0}, {4, 8, -1}};
  for (const auto& b : bad_basis)
    EXPECT_THROW(fit_rbf_best(ds.x, ds.y, RbfFitOptions{}, good_sigma, b, score),
                 std::invalid_argument)
        << "basis entries " << b.size();
  const std::vector<std::vector<double>> bad_sigma = {
      {}, {0.0}, {-1.5}, {nan}, {1.0, inf}, {1.0, 2.2, -nan}};
  for (const auto& sg : bad_sigma)
    EXPECT_THROW(fit_rbf_best(ds.x, ds.y, RbfFitOptions{}, sg, good_basis, score),
                 std::invalid_argument)
        << "sigma entries " << sg.size();
  EXPECT_EQ(scored, 0);
}

TEST(OlsPath, SelectionMatchesExplicitDeflationReference) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const Dataset ds = synthetic_narx(seed, 1500, 0.2);
    for (double sigma : {1.0, 1.5, 2.2, 3.2}) {
      RbfFitOptions opt;
      opt.max_basis = 20;
      opt.max_candidates = 150;
      opt.sigma = sigma;
      opt.seed = seed;
      const OlsPath path(ds.x, ds.y, opt);
      std::vector<std::size_t> ref;
      for (const RefPick& pk : reference_picks(ds.x, ds.y, opt)) ref.push_back(pk.row);
      EXPECT_EQ(ref.size(), 20u);
      EXPECT_EQ(path.order(), ref) << "seed " << seed << " sigma " << sigma;
    }
  }
}

TEST(OlsPath, SelectionMatchesReferenceUntilItIsUndecidable) {
  // Settling holds repeat nearly the same row, so the reference ends up
  // choosing between near-duplicate candidates. Both selections must agree
  // until the reference picks a candidate below the 1e-12 collinearity
  // floor (rounding noise for the incremental downdate) or one within
  // 1e-6 of its runner-up.
  std::size_t agreed = 0, total = 0;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const Dataset ds = synthetic_narx(seed, 1500, 0.0);
    for (double sigma : {1.0, 1.5, 2.2, 3.2}) {
      RbfFitOptions opt;
      opt.max_basis = 20;
      opt.max_candidates = 150;
      opt.sigma = sigma;
      opt.seed = seed;
      const OlsPath path(ds.x, ds.y, opt);
      const auto ref = reference_picks(ds.x, ds.y, opt);
      for (std::size_t k = 0; k < ref.size(); ++k) {
        if (ref[k].rel < 1e-12 || ref[k].gap < 1e-6) break;
        ASSERT_LT(k, path.selected());
        EXPECT_EQ(path.order()[k], ref[k].row) << "seed " << seed << " sigma " << sigma;
        ++agreed;
      }
      total += ref.size();
    }
  }
  // Not vacuous: a good share of the picks is decidable and compared.
  EXPECT_GT(agreed, total / 3);
}

TEST(OlsPath, EveryPrefixIsBitIdenticalToDirectRidgeSolve) {
  const Dataset ds = synthetic_narx(4, 1200, 0.2);
  RbfFitOptions opt;
  opt.max_basis = 14;
  opt.max_candidates = 150;
  opt.sigma = 1.5;
  const OlsPath path(ds.x, ds.y, opt);
  ASSERT_EQ(path.selected(), 14u);

  const std::size_t n = ds.x.rows();
  const la::Matrix z = Scaler::fit(ds.x).transform(ds.x);
  for (std::size_t k = 0; k <= path.selected(); ++k) {
    la::Matrix a(n, k + 1);
    for (std::size_t r = 0; r < n; ++r) a(r, 0) = 1.0;
    for (std::size_t j = 0; j < k; ++j) {
      const auto col = kernel_column(z, z.row(path.order()[j]), opt.sigma);
      for (std::size_t r = 0; r < n; ++r) a(r, j + 1) = col[r];
    }
    const auto w = la::solve_ridge(a, ds.y, opt.ridge);
    const RbfModel m = path.model(k);
    ASSERT_EQ(m.num_basis(), k);
    if (k == 0) {
      // No centers: the model is the target mean.
      EXPECT_EQ(m.bias(), std::accumulate(ds.y.begin(), ds.y.end(), 0.0) /
                              static_cast<double>(n));
      continue;
    }
    EXPECT_EQ(m.bias(), w[0]) << "prefix " << k;
    for (std::size_t j = 0; j < k; ++j) {
      EXPECT_EQ(m.weights()[j], w[j + 1]) << "prefix " << k << " weight " << j;
      const auto c = m.centers().row(j);
      const auto zr = z.row(path.order()[j]);
      EXPECT_TRUE(std::equal(c.begin(), c.end(), zr.begin())) << "prefix " << k;
    }
  }
  // Asking for more centers than were selected clips to the full path.
  EXPECT_EQ(path.model(100).num_basis(), path.selected());
}

TEST(OlsPath, DuplicatedCandidatesAreSkippedAsCollinear) {
  // Every row appears three times and every row is a candidate. Once a
  // row is picked, its copies deflate to rounding noise: the relative
  // collinearity test must skip them rather than pick a duplicate. The
  // path runs until no candidate is left above the floor (no error
  // reduction stop), so the copies are offered at every step.
  const Dataset base = synthetic_narx(9, 120, 0.0);
  const std::size_t nb = base.x.rows();
  la::Matrix x(3 * nb, base.x.cols());
  std::vector<double> y(3 * nb);
  for (std::size_t r = 0; r < 3 * nb; ++r) {
    for (std::size_t c = 0; c < x.cols(); ++c) x(r, c) = base.x(r % nb, c);
    y[r] = base.y[r % nb];
  }
  for (double sigma : {1.0, 3.2}) {
    RbfFitOptions opt;
    opt.max_basis = 150;
    opt.min_err_reduction = 0.0;
    opt.max_candidates = 400;
    opt.sigma = sigma;
    const OlsPath path(x, y, opt);
    ASSERT_GE(path.selected(), 5u);
    for (std::size_t a = 0; a < path.selected(); ++a)
      for (std::size_t b = a + 1; b < path.selected(); ++b) {
        const auto ra = x.row(path.order()[a]);
        const auto rb = x.row(path.order()[b]);
        EXPECT_FALSE(std::equal(ra.begin(), ra.end(), rb.begin()))
            << "sigma " << sigma << ": picks " << a << " and " << b << " are one row";
      }
    const RbfModel m = path.model(path.selected());
    EXPECT_TRUE(std::isfinite(m.bias()));
    for (double w : m.weights()) EXPECT_TRUE(std::isfinite(w)) << "sigma " << sigma;
  }
}

TEST(RbfModel, ConstructorValidation) {
  EXPECT_THROW(RbfModel(Scaler({0.0}, {1.0}), la::Matrix(2, 1), {1.0}, 0.0, 1.0),
               std::invalid_argument);
  EXPECT_THROW(RbfModel(Scaler({0.0}, {1.0}), la::Matrix(1, 1), {1.0}, 0.0, -1.0),
               std::invalid_argument);
}

namespace {

/// The seeded NARX datasets of the identity tests, with their candidate
/// counts: 150 is no multiple of the 16-candidate pool block, 400 is the
/// driver estimators' count.
struct IdentityCase {
  std::uint64_t seed;
  std::size_t len;
  int max_candidates;
};
constexpr IdentityCase kIdentityCases[] = {{1, 1500, 150}, {2, 1500, 400}, {3, 900, 150}};

/// Bit-level equality of two models: sigma, bias, scaler, centres and
/// weights compared byte for byte.
void expect_bit_identical(const RbfModel& a, const RbfModel& b, const std::string& what) {
  const auto same = [](const void* p, const void* q, std::size_t bytes) {
    return std::memcmp(p, q, bytes) == 0;
  };
  const double sa[] = {a.sigma(), a.bias()};
  const double sb[] = {b.sigma(), b.bias()};
  EXPECT_TRUE(same(sa, sb, sizeof(sa))) << what << ": sigma or bias";
  ASSERT_EQ(a.num_basis(), b.num_basis()) << what;
  ASSERT_EQ(a.input_dim(), b.input_dim()) << what;
  const std::size_t d = a.input_dim();
  EXPECT_TRUE(same(a.scaler().mean().data(), b.scaler().mean().data(), d * sizeof(double)))
      << what << ": scaler mean";
  EXPECT_TRUE(same(a.scaler().scale().data(), b.scaler().scale().data(), d * sizeof(double)))
      << what << ": scaler scale";
  EXPECT_TRUE(same(a.centers().data(), b.centers().data(),
                   a.num_basis() * d * sizeof(double)))
      << what << ": centres";
  EXPECT_TRUE(same(a.weights().data(), b.weights().data(), a.num_basis() * sizeof(double)))
      << what << ": weights";
}

/// Thread-safe score: one-step squared error over the whole dataset.
double one_step_error(const RbfModel& m, const Dataset& ds) {
  double e = 0.0;
  for (std::size_t r = 0; r < ds.x.rows(); ++r) {
    const double d = m.eval(ds.x.row(r)) - ds.y[r];
    e += d * d;
  }
  return e;
}

}  // namespace

TEST(OlsPath, BitIdenticalOnAnyPool) {
  for (const IdentityCase& ic : kIdentityCases) {
    const Dataset ds = synthetic_narx(ic.seed, ic.len, 0.2);
    RbfFitOptions opt;
    opt.max_basis = 20;
    opt.max_candidates = ic.max_candidates;
    opt.sigma = 1.5;
    opt.seed = ic.seed;
    const OlsPath inline_path(ds.x, ds.y, opt);
    ASSERT_EQ(inline_path.selected(), 20u);
    for (std::size_t workers : {1u, 2u, 3u, 4u}) {
      emc::sweep::ThreadPool pool(workers);
      const OlsPath path(ds.x, ds.y, opt, &pool);
      const std::string what = "seed " + std::to_string(ic.seed) + " candidates " +
                               std::to_string(ic.max_candidates) + " workers " +
                               std::to_string(workers);
      EXPECT_EQ(path.order(), inline_path.order()) << what;
      for (std::size_t nb : {1u, 7u, 20u})
        expect_bit_identical(path.model(nb), inline_path.model(nb),
                             what + " basis " + std::to_string(nb));
    }
  }
}

TEST(OlsPath, ReusedWorkspaceIsBitIdentical) {
  const Dataset ds = synthetic_narx(1, 1500, 0.2);
  RbfFitOptions opt;
  opt.max_basis = 20;
  opt.max_candidates = 150;
  opt.sigma = 1.5;
  const OlsPath fresh(ds.x, ds.y, opt);
  ASSERT_EQ(fresh.selected(), 20u);

  // Each dirt leaves the workspace with other values: another sigma on the
  // same rows, more rows and candidates (columns longer than the reuse
  // needs, and spare ones), and fewer rows (columns the reuse must grow).
  struct Dirt {
    const char* what;
    Dataset data;
    int max_candidates;
  };
  const Dirt dirts[] = {{"other sigma", synthetic_narx(1, 1500, 0.2), 150},
                        {"more rows", synthetic_narx(2, 2400, 0.2), 400},
                        {"fewer rows", synthetic_narx(3, 900, 0.2), 150}};
  for (std::size_t workers : {0u, 1u, 2u, 3u, 4u}) {
    std::unique_ptr<emc::sweep::ThreadPool> pool;
    if (workers > 0) pool = std::make_unique<emc::sweep::ThreadPool>(workers);
    for (const Dirt& dirt : dirts) {
      OlsWorkspace ws;
      RbfFitOptions o = opt;
      o.sigma = 2.2;
      o.max_candidates = dirt.max_candidates;
      (void)OlsPath(dirt.data.x, dirt.data.y, o, pool.get(), &ws);
      const OlsPath reused(ds.x, ds.y, opt, pool.get(), &ws);
      const std::string what = std::string(dirt.what) + " workers " + std::to_string(workers);
      EXPECT_EQ(reused.order(), fresh.order()) << what;
      for (std::size_t nb : {1u, 7u, 20u})
        expect_bit_identical(reused.model(nb), fresh.model(nb),
                             what + " basis " + std::to_string(nb));
    }
  }
}

TEST(RbfFit, BestIsBitIdenticalOnAnyPool) {
  const double sigma_grid[] = {1.0, 1.5, 2.2, 3.2};
  const int basis_grid[] = {6, 10, 14};
  for (const IdentityCase& ic : kIdentityCases) {
    const Dataset ds = synthetic_narx(ic.seed, ic.len, 0.2);
    RbfFitOptions opt;
    opt.max_candidates = ic.max_candidates;
    opt.seed = ic.seed;
    const auto score = [&](const RbfModel& m) { return one_step_error(m, ds); };
    const RbfModel ref = fit_rbf_best(ds.x, ds.y, opt, sigma_grid, basis_grid, score);
    for (std::size_t workers : {1u, 2u, 3u, 4u}) {
      emc::sweep::ThreadPool pool(workers);
      expect_bit_identical(
          fit_rbf_best(ds.x, ds.y, opt, sigma_grid, basis_grid, score, &pool), ref,
          "seed " + std::to_string(ic.seed) + " workers " + std::to_string(workers));
    }
  }
}

TEST(RbfFit, BestPropagatesTheFirstScoreExceptionAndThePoolStaysUsable) {
  const Dataset ds = synthetic_narx(6, 800, 0.2);
  const double sigma_grid[] = {1.0, 2.2};
  const int basis_grid[] = {4, 8, 12};
  RbfFitOptions opt;
  opt.max_candidates = 100;
  emc::sweep::ThreadPool pool(4);

  // Every model throws, on several workers at once: the caller still sees
  // the first model's exception in grid order, with its type.
  std::atomic<int> calls{0};
  const auto throwing = [&](const RbfModel& m) -> double {
    ++calls;
    throw std::domain_error("sigma " + std::to_string(m.sigma()) + " basis " +
                            std::to_string(m.num_basis()));
  };
  try {
    (void)fit_rbf_best(ds.x, ds.y, opt, sigma_grid, basis_grid, throwing, &pool);
    ADD_FAILURE() << "no exception";
  } catch (const std::domain_error& e) {
    EXPECT_EQ(std::string(e.what()), "sigma " + std::to_string(1.0) + " basis 4");
  }
  EXPECT_EQ(calls.load(), 6);

  // One model throws: that exception, not a best-of-the-rest model.
  const auto one_bad = [&](const RbfModel& m) {
    if (m.sigma() == 2.2 && m.num_basis() == 8) throw std::out_of_range("bad model");
    return one_step_error(m, ds);
  };
  EXPECT_THROW(fit_rbf_best(ds.x, ds.y, opt, sigma_grid, basis_grid, one_bad, &pool),
               std::out_of_range);

  // The pool is reusable, and gives the inline result.
  const auto score = [&](const RbfModel& m) { return one_step_error(m, ds); };
  expect_bit_identical(fit_rbf_best(ds.x, ds.y, opt, sigma_grid, basis_grid, score, &pool),
                       fit_rbf_best(ds.x, ds.y, opt, sigma_grid, basis_grid, score),
                       "after throws");
}
