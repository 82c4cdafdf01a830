#include "ident/rbf.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "linalg/decomp.hpp"
#include "signal/sources.hpp"
#include "sweep/thread_pool.hpp"

namespace emc::ident {

RbfModel::RbfModel(Scaler scaler, linalg::Matrix centers, std::vector<double> weights,
                   double bias, double sigma)
    : scaler_(std::move(scaler)),
      centers_(std::move(centers)),
      weights_(std::move(weights)),
      bias_(bias),
      sigma_(sigma) {
  if (centers_.rows() != weights_.size())
    throw std::invalid_argument("RbfModel: centers/weights mismatch");
  if (sigma_ <= 0.0) throw std::invalid_argument("RbfModel: sigma must be positive");
}

double RbfModel::eval(std::span<const double> x) const {
  return eval_with_grad(x, 0, nullptr);
}

double RbfModel::eval_with_grad(std::span<const double> x, std::size_t idx,
                                double* grad) const {
  const std::size_t d = scaler_.dim();
  if (x.size() != d) throw std::invalid_argument("RbfModel::eval: input size mismatch");
  if (grad && idx >= d)
    throw std::invalid_argument("RbfModel::eval_with_grad: gradient index out of range");

  double zbuf[kMaxInputDim];
  if (d > kMaxInputDim) throw std::invalid_argument("RbfModel::eval: input dimension > 64");
  std::span<double> z(zbuf, d);
  scaler_.transform_row(x, z);

  const double inv2s2 = 1.0 / (2.0 * sigma_ * sigma_);
  double y = bias_;
  double dy = 0.0;
  for (std::size_t j = 0; j < weights_.size(); ++j) {
    const auto c = centers_.row(j);
    double dist2 = 0.0;
    for (std::size_t k = 0; k < d; ++k) {
      const double dlt = z[k] - c[k];
      dist2 += dlt * dlt;
    }
    const double phi = std::exp(-dist2 * inv2s2);
    y += weights_[j] * phi;
    if (grad) dy += weights_[j] * phi * (-(z[idx] - c[idx]) / (sigma_ * sigma_));
  }
  if (grad) *grad = dy / scaler_.scale()[idx];  // chain rule through standardization
  return y;
}

double RbfModel::eval_with_input_grad(std::span<const double> x, std::span<double> grad) const {
  const std::size_t d = scaler_.dim();
  if (x.size() != d) throw std::invalid_argument("RbfModel::eval: input size mismatch");
  if (grad.size() != d)
    throw std::invalid_argument("RbfModel::eval_with_input_grad: gradient size mismatch");

  double zbuf[kMaxInputDim];
  if (d > kMaxInputDim) throw std::invalid_argument("RbfModel::eval: input dimension > 64");
  std::span<double> z(zbuf, d);
  scaler_.transform_row(x, z);

  const double inv2s2 = 1.0 / (2.0 * sigma_ * sigma_);
  const double inv_s2 = 1.0 / (sigma_ * sigma_);
  std::fill(grad.begin(), grad.end(), 0.0);
  double y = bias_;
  for (std::size_t j = 0; j < weights_.size(); ++j) {
    const auto c = centers_.row(j);
    double dist2 = 0.0;
    for (std::size_t k = 0; k < d; ++k) {
      const double dlt = z[k] - c[k];
      dist2 += dlt * dlt;
    }
    const double wphi = weights_[j] * std::exp(-dist2 * inv2s2);
    y += wphi;
    for (std::size_t k = 0; k < d; ++k) grad[k] -= wphi * (z[k] - c[k]) * inv_s2;
  }
  for (std::size_t k = 0; k < d; ++k) grad[k] /= scaler_.scale()[k];
  return y;
}

namespace {

/// Gaussian kernel value between a scaled row and a scaled center.
double kernel(std::span<const double> z, std::span<const double> c, double inv2s2) {
  double dist2 = 0.0;
  for (std::size_t k = 0; k < z.size(); ++k) {
    const double d = z[k] - c[k];
    dist2 += d * d;
  }
  return std::exp(-dist2 * inv2s2);
}

/// out[k] = q . p[rows[k]]. Each sum runs in linalg::dot's order, so
/// it is bit-identical to linalg::dot; four rows share one pass over q so
/// four independent add chains overlap instead of one waiting on its own
/// latency.
void dot_rows(std::span<const double> q, const std::vector<std::vector<double>>& p,
              std::span<const std::size_t> rows, std::span<double> out) {
  std::size_t k = 0;
  for (; k + 4 <= rows.size(); k += 4) {
    const double* p0 = p[rows[k]].data();
    const double* p1 = p[rows[k + 1]].data();
    const double* p2 = p[rows[k + 2]].data();
    const double* p3 = p[rows[k + 3]].data();
    double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
    for (std::size_t r = 0; r < q.size(); ++r) {
      a0 += q[r] * p0[r];
      a1 += q[r] * p1[r];
      a2 += q[r] * p2[r];
      a3 += q[r] * p3[r];
    }
    out[k] = a0;
    out[k + 1] = a1;
    out[k + 2] = a2;
    out[k + 3] = a3;
  }
  for (; k < rows.size(); ++k) out[k] = linalg::dot(q, p[rows[k]]);
}

/// Candidates per pool task: a block of kernel columns or of dots over a
/// driver record (7668 rows) costs far more than claiming it, and 400
/// candidates still split evenly over a few workers.
constexpr std::size_t kCandidateBlock = 16;

/// fn(lo, hi) over [0, n) in blocks of `block` indices, on `pool` or
/// inline. Blocks are disjoint, so fn may write per-index outputs without
/// locking; which thread runs a block changes no result.
void for_blocks(sweep::ThreadPool* pool, std::size_t n, std::size_t block,
                const std::function<void(std::size_t, std::size_t)>& fn) {
  if (pool == nullptr || pool->workers() == 1 || n <= block) {
    fn(0, n);
    return;
  }
  pool->parallel_for((n + block - 1) / block, [&](std::size_t b, std::size_t) {
    fn(b * block, std::min(n, (b + 1) * block));
  });
}

/// A candidate whose deflated energy has fallen below this fraction of its
/// initial energy is collinear with the picks. Relative, because the
/// incremental downdate pp -= d^2/qq cancels to rounding noise on the
/// candidate's own scale (about picks x eps) rather than to zero.
constexpr double kCollinearRel = 1e-12;

}  // namespace

OlsPath::OlsPath(const linalg::Matrix& x, std::span<const double> y,
                 const RbfFitOptions& opt, sweep::ThreadPool* pool, OlsWorkspace* ws)
    : sigma_(opt.sigma), ridge_(opt.ridge) {
  const std::size_t n = x.rows();
  if (n == 0 || y.size() != n) throw std::invalid_argument("OlsPath: bad dataset");
  if (opt.max_basis < 1) throw std::invalid_argument("OlsPath: max_basis must be >= 1");
  if (opt.max_candidates < 1)
    throw std::invalid_argument("OlsPath: max_candidates must be >= 1");
  if (!std::isfinite(opt.sigma) || opt.sigma <= 0.0)
    throw std::invalid_argument("OlsPath: sigma must be finite and positive");
  if (!std::isfinite(opt.ridge) || opt.ridge < 0.0)
    throw std::invalid_argument("OlsPath: ridge must be finite and non-negative");

  scaler_ = Scaler::fit(x);
  const linalg::Matrix z = scaler_.transform(x);
  const std::size_t d = z.cols();
  const double inv2s2 = 1.0 / (2.0 * sigma_ * sigma_);

  // Candidate centers: subsample training rows deterministically.
  std::vector<std::size_t> cand;
  if (n <= static_cast<std::size_t>(opt.max_candidates)) {
    cand.resize(n);
    std::iota(cand.begin(), cand.end(), 0);
  } else {
    sig::Lcg rng(opt.seed);
    const double stride = static_cast<double>(n) / opt.max_candidates;
    for (int j = 0; j < opt.max_candidates; ++j) {
      const double base = stride * static_cast<double>(j);
      const auto idx = static_cast<std::size_t>(base + rng.uniform() * stride);
      cand.push_back(std::min(idx, n - 1));
    }
  }
  const std::size_t nc = cand.size();

  // Target with its mean deflated (the bias regressor is always in the model).
  std::vector<double> y0(y.begin(), y.end());
  ymean_ = std::accumulate(y0.begin(), y0.end(), 0.0) / static_cast<double>(n);
  for (auto& v : y0) v -= ymean_;
  const double y_energy = std::max(linalg::dot(y0, y0), 1e-30);

  // OLS with incremental bookkeeping (Chen, Cowan & Grant 1991). p[c] is
  // candidate column phi_c with its mean deflated; it is never deflated by
  // the picks. pp[c] and py[c] track the energy of the deflated column and
  // its projection on the target, and the error reduction ratio of a
  // candidate is py^2 / (pp * y.y). A pick q is orthogonal to every
  // earlier pick, so one dot d = q.phi_c per remaining candidate downdates
  // both.
  // One allocation per candidate, not one nc x n block: freeing a block
  // that size (24.5 MB on a driver record) raises glibc's dynamic mmap
  // threshold, later sweep buffers then stay on the heap, and the peak RSS
  // of a scan-heavy sweep grows by a fifth. The columns are sized here, on
  // the calling thread, and only filled by the pool, so the pool's threads
  // never own a slice of the heap this large. A reused workspace already
  // holds them, and every entry is written below before it is read.
  OlsWorkspace local;
  std::vector<std::vector<double>>& p = (ws != nullptr ? *ws : local).columns;
  if (p.size() < nc) p.resize(nc);
  for (std::size_t c = 0; c < nc; ++c) p[c].resize(n);
  std::vector<double> pp(nc), pp0(nc), py(nc);
  for_blocks(pool, nc, kCandidateBlock, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t c = lo; c < hi; ++c) {
      auto& pc = p[c];
      const auto center = z.row(cand[c]);
      for (std::size_t r = 0; r < n; ++r) pc[r] = kernel(z.row(r), center, inv2s2);
      const double m = std::accumulate(pc.begin(), pc.end(), 0.0) / static_cast<double>(n);
      for (auto& v : pc) v -= m;
      pp[c] = pp0[c] = linalg::dot(pc, pc);
      py[c] = linalg::dot(pc, y0);
    }
  });

  std::vector<std::size_t> rest(nc);  // unpicked candidates, ascending
  std::iota(rest.begin(), rest.end(), 0);
  std::vector<double> dots(nc);
  std::vector<std::size_t> picks;  // slots of the orthogonalised picks
  std::vector<double> picks_qq;    // their energies
  const int n_select = std::min<int>(opt.max_basis, static_cast<int>(nc));
  for (int step = 0; step < n_select; ++step) {
    double best_err = 0.0;
    std::size_t best_c = nc;
    for (const std::size_t c : rest) {
      if (pp[c] <= kCollinearRel * pp0[c]) continue;
      const double err = py[c] * py[c] / (pp[c] * y_energy);
      if (err > best_err) {
        best_err = err;
        best_c = c;
      }
    }
    if (best_c == nc || best_err < opt.min_err_reduction) break;

    rest.erase(std::find(rest.begin(), rest.end(), best_c));
    order_.push_back(cand[best_c]);

    // Orthogonalise the pick against the earlier ones, in the slot its
    // raw column no longer needs: modified Gram-Schmidt, run twice,
    // because one pass loses orthogonality on a near-collinear pick and
    // every later downdate inherits the loss. Each axpy shares its pass
    // over q with the dot that follows it (the next projection, or q.q and
    // q.y after the last one). Every element gets the update and every sum
    // the terms of separate linalg::axpy and linalg::dot calls, in their
    // order, so the bits are theirs.
    const std::span<double> q = p[best_c];
    double qq = 0.0, qy = 0.0;
    if (picks.empty()) {
      qq = linalg::dot(q, q);
      qy = linalg::dot(q, y0);
    } else {
      const std::size_t n_proj = 2 * picks.size();
      double proj = linalg::dot(p[picks[0]], q);
      for (std::size_t s = 0; s < n_proj; ++s) {
        const std::size_t k = s % picks.size();
        const double alpha = -proj / picks_qq[k];
        const double* qk = p[picks[k]].data();
        if (s + 1 < n_proj) {
          const double* next = p[picks[(s + 1) % picks.size()]].data();
          proj = 0.0;
          for (std::size_t r = 0; r < n; ++r) {
            q[r] += alpha * qk[r];
            proj += next[r] * q[r];
          }
        } else {
          for (std::size_t r = 0; r < n; ++r) {
            q[r] += alpha * qk[r];
            qq += q[r] * q[r];
            qy += q[r] * y0[r];
          }
        }
      }
    }
    picks.push_back(best_c);
    picks_qq.push_back(qq);

    for_blocks(pool, rest.size(), kCandidateBlock, [&](std::size_t lo, std::size_t hi) {
      dot_rows(q, p, std::span(rest).subspan(lo, hi - lo), std::span(dots).subspan(lo));
      for (std::size_t k = lo; k < hi; ++k) {
        pp[rest[k]] -= dots[k] * dots[k] / qq;
        py[rest[k]] -= dots[k] * qy / qq;
      }
    });
  }

  // Normal equations of the whole path, once: A = [1, selected raw
  // columns]. The picks' slots hold their orthogonalised q, which nothing
  // reads any more, so each raw column is rebuilt in its pick's own slot.
  // Every entry accumulates over the samples in the order
  // linalg::solve_ridge uses, so each prefix solve in model() is
  // bit-identical to solve_ridge on that prefix. The ones column needs no
  // storage: 1.0 * v == v exactly, so its entries are plain in-order sums,
  // the bits of linalg::dot against a row of ones (n itself at (0, 0)).
  const std::size_t m = picks.size();
  centers_ = linalg::Matrix(m, d);
  for_blocks(pool, m, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t j = lo; j < hi; ++j) {
      const auto center = z.row(order_[j]);
      std::copy(center.begin(), center.end(), centers_.row(j).begin());
      auto& aj = p[picks[j]];
      for (std::size_t r = 0; r < n; ++r) aj[r] = kernel(z.row(r), center, inv2s2);
    }
  });
  gram_ = linalg::Matrix(m + 1, m + 1);
  aty_.resize(m + 1);
  gram_(0, 0) = static_cast<double>(n);
  aty_[0] = std::accumulate(y.begin(), y.end(), 0.0);
  for_blocks(pool, m, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo + 1; i <= hi; ++i) {
      const auto& ai = p[picks[i - 1]];
      gram_(i, 0) = gram_(0, i) = std::accumulate(ai.begin(), ai.end(), 0.0);
      for (std::size_t j = 1; j <= i; ++j)
        gram_(i, j) = gram_(j, i) = linalg::dot(ai, p[picks[j - 1]]);
      aty_[i] = linalg::dot(ai, y);
    }
  });
}

RbfModel OlsPath::model(std::size_t n_basis) const {
  const std::size_t d = scaler_.dim();
  const std::size_t m = std::min(n_basis, order_.size());
  if (m == 0) return RbfModel(scaler_, linalg::Matrix(0, d), {}, ymean_, sigma_);

  // Ridge weights on [1, first m columns]: the leading block of the Gram
  // matrix plus the ridge.
  linalg::Matrix ata(m + 1, m + 1);
  for (std::size_t i = 0; i <= m; ++i) {
    for (std::size_t j = 0; j <= m; ++j) ata(i, j) = gram_(i, j);
    ata(i, i) += ridge_;
  }
  const auto w = linalg::Cholesky(ata).solve(std::span(aty_).first(m + 1));

  linalg::Matrix centers(m, d);
  std::copy_n(centers_.data(), m * d, centers.data());
  return RbfModel(scaler_, std::move(centers),
                  std::vector<double>(w.begin() + 1, w.end()), w[0], sigma_);
}

RbfModel fit_rbf_best(const linalg::Matrix& x, std::span<const double> y,
                      const RbfFitOptions& base, std::span<const double> sigma_grid,
                      std::span<const int> basis_grid,
                      const std::function<double(const RbfModel&)>& score,
                      sweep::ThreadPool* pool, OlsWorkspace* ws) {
  if (sigma_grid.empty() || basis_grid.empty())
    throw std::invalid_argument("fit_rbf_best: empty grids");
  for (int nb : basis_grid)
    if (nb < 1) throw std::invalid_argument("fit_rbf_best: basis entries must be >= 1");
  for (double s : sigma_grid)
    if (!std::isfinite(s) || s <= 0.0)
      throw std::invalid_argument("fit_rbf_best: sigma entries must be finite and positive");

  // Every (sigma, basis) model, in grid order. The paths run one at a time
  // on one workspace, so only one candidate matrix is ever alive.
  OlsWorkspace local;
  if (ws == nullptr) ws = &local;
  std::vector<RbfModel> models;
  models.reserve(sigma_grid.size() * basis_grid.size());
  for (double s : sigma_grid) {
    RbfFitOptions opt = base;
    opt.sigma = s;
    opt.max_basis = *std::max_element(basis_grid.begin(), basis_grid.end());
    const OlsPath path(x, y, opt, pool, ws);
    for (int nb : basis_grid) models.push_back(path.model(static_cast<std::size_t>(nb)));
  }

  // Score concurrently, each model into its own slot; an exception is kept
  // in the slot so the serial pass below meets it where a serial run would.
  std::vector<double> scores(models.size());
  std::vector<std::exception_ptr> errors(models.size());
  for_blocks(pool, models.size(), 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t k = lo; k < hi; ++k) {
      try {
        scores[k] = score(models[k]);
      } catch (...) {
        errors[k] = std::current_exception();
      }
    }
  });

  std::size_t best = models.size();
  double best_score = std::numeric_limits<double>::infinity();
  for (std::size_t k = 0; k < models.size(); ++k) {
    if (errors[k]) std::rethrow_exception(errors[k]);
    if (std::isfinite(scores[k]) && scores[k] < best_score) {
      best_score = scores[k];
      best = k;
    }
  }
  if (best == models.size())
    throw std::runtime_error("fit_rbf_best: every candidate model scored non-finite");
  return std::move(models[best]);
}

std::vector<double> simulate_narx(const RbfModel& model, NarxOrders ord,
                                  std::span<const double> v, std::span<const double> i_init) {
  const auto h = static_cast<std::size_t>(ord.history());
  if (i_init.size() < h) throw std::invalid_argument("simulate_narx: i_init too short");
  if (v.size() < h) throw std::invalid_argument("simulate_narx: input too short");

  std::vector<double> i(v.size());
  for (std::size_t k = 0; k < h; ++k) i[k] = i_init[k];

  std::vector<double> reg(static_cast<std::size_t>(ord.regressor_size()));
  std::vector<double> v_hist(static_cast<std::size_t>(ord.nv) + 1);
  std::vector<double> i_hist(static_cast<std::size_t>(ord.ni));
  for (std::size_t k = h; k < v.size(); ++k) {
    for (int j = 0; j <= ord.nv; ++j) v_hist[static_cast<std::size_t>(j)] = v[k - static_cast<std::size_t>(j)];
    for (int j = 1; j <= ord.ni; ++j) i_hist[static_cast<std::size_t>(j - 1)] = i[k - static_cast<std::size_t>(j)];
    fill_narx_regressor(v_hist, i_hist, ord, reg);
    i[k] = model.eval(reg);
  }
  return i;
}

}  // namespace emc::ident
