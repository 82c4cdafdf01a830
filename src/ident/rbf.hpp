// Gaussian Radial Basis Function network with Orthogonal Least Squares
// center selection (Chen, Cowan, Grant 1991) — the estimator behind the
// paper's driver submodels i_H / i_L and the receiver clamp submodels.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "ident/dataset.hpp"
#include "linalg/matrix.hpp"

namespace emc::sweep {
class ThreadPool;
}

namespace emc::ident {

/// y(x) = w0 + sum_j w_j * exp(-||z - c_j||^2 / (2 sigma^2)),
/// where z is the standardized input (see Scaler).
class RbfModel {
 public:
  RbfModel() = default;
  RbfModel(Scaler scaler, linalg::Matrix centers, std::vector<double> weights, double bias,
           double sigma);

  /// Model output for a raw (unscaled) input vector.
  double eval(std::span<const double> x) const;

  /// Output and the partial derivative d y / d x[idx] (raw input space);
  /// needed by the circuit coupling, where Newton requires d i / d v(k).
  /// Throws std::invalid_argument when grad is set and idx >= input_dim().
  double eval_with_grad(std::span<const double> x, std::size_t idx, double* grad) const;

  /// Output and the full input gradient: grad[k] = d y / d x[k] (raw input
  /// space) for every k < input_dim(), at the cost of one evaluation.
  /// Throws std::invalid_argument when grad.size() != input_dim().
  double eval_with_input_grad(std::span<const double> x, std::span<double> grad) const;

  /// Largest input dimension eval() accepts; callers may size stack
  /// buffers for a regressor by it.
  static constexpr std::size_t kMaxInputDim = 64;

  std::size_t num_basis() const { return weights_.size(); }
  std::size_t input_dim() const { return scaler_.dim(); }
  bool empty() const { return weights_.empty() && bias_ == 0.0; }

  const Scaler& scaler() const { return scaler_; }
  const linalg::Matrix& centers() const { return centers_; }  ///< scaled space
  const std::vector<double>& weights() const { return weights_; }
  double bias() const { return bias_; }
  double sigma() const { return sigma_; }

 private:
  Scaler scaler_;
  linalg::Matrix centers_;       // rows are centers in scaled space
  std::vector<double> weights_;  // one per center
  double bias_ = 0.0;
  double sigma_ = 1.0;
};

struct RbfFitOptions {
  int max_basis = 12;        ///< basis functions to select (paper: 6..15)
  double sigma = 1.5;        ///< kernel width in standardized space
  int max_candidates = 400;  ///< candidate centers (subsampled training rows)
  double ridge = 1e-8;       ///< Tikhonov term of the final weight solve
  double min_err_reduction = 1e-7;  ///< OLS stop threshold (relative)
  std::uint64_t seed = 1;    ///< candidate subsampling seed
};

/// Candidate kernel columns of an OLS path, one heap block per candidate,
/// reusable by later paths. A path resizes the columns it needs and
/// overwrites every entry before reading it, so a workspace left by
/// another sigma, dataset or candidate count gives the same bits. Own one
/// per estimate rather than one per process: its columns hold the whole
/// candidate matrix (24.5 MB on a driver record) for as long as it lives.
struct OlsWorkspace {
  std::vector<std::vector<double>> columns;
};

/// The OLS greedy selection is nested: the first j selected centers of a
/// larger fit are exactly the j-basis fit. OlsPath captures one selection
/// run so models of several sizes can be re-solved cheaply: the Gram
/// matrix of [1, selected columns] is built once, and each prefix model is
/// a small ridge solve on its leading block — used for free-run-scored
/// model-order selection by the macromodel estimators.
///
/// With a `pool`, the kernel columns and each step's candidate dots run on
/// it in fixed candidate blocks, and the Gram matrix one row per task.
/// Every candidate and every row is still computed by one thread in the
/// serial order, and picks stay serial, so the path is bit-identical at
/// any worker count; nullptr runs inline. The candidate
/// columns go into `ws`, or into a workspace local to the path when it is
/// nullptr; the result is the same either way.
class OlsPath {
 public:
  /// Throws std::invalid_argument on an empty or mismatched dataset, and
  /// on max_basis < 1, max_candidates < 1, a non-finite or non-positive
  /// sigma, or a negative or non-finite ridge — before any kernel work.
  OlsPath(const linalg::Matrix& x, std::span<const double> y, const RbfFitOptions& opt,
          sweep::ThreadPool* pool = nullptr, OlsWorkspace* ws = nullptr);

  /// Model using the first `n_basis` selected centers (clipped to the
  /// number actually selected). Bit-identical to linalg::solve_ridge on
  /// the n x (n_basis + 1) design matrix [1, phi_1 .. phi_n_basis].
  RbfModel model(std::size_t n_basis) const;

  std::size_t selected() const { return order_.size(); }
  /// Selected training-row indices, in pick order.
  const std::vector<std::size_t>& order() const { return order_; }
  double sigma() const { return sigma_; }

 private:
  Scaler scaler_;
  linalg::Matrix centers_;          // selected centers (scaled), in pick order
  std::vector<std::size_t> order_;  // selected row indices, in pick order
  linalg::Matrix gram_;             // A^T A of A = [1, selected raw columns]
  std::vector<double> aty_;         // A^T y
  double ymean_ = 0.0;
  double sigma_;
  double ridge_;
};

/// Grid search over (sigma, basis count), scoring each candidate model
/// with `score` (lower is better, e.g. free-run validation error). Ties
/// keep the earlier model in (sigma, basis) grid order.
///
/// Throws std::invalid_argument, before any kernel work, on an empty grid,
/// a basis entry < 1, or a non-finite or non-positive sigma. With a
/// `pool`, each OlsPath runs on it and the models are scored concurrently
/// on it, so `score` must then be safe to call from several threads at
/// once. The result is bit-identical at any worker count; if `score`
/// throws, the exception of the first throwing model in grid order
/// propagates, as in a serial run. All sigma paths share `ws`, or one
/// workspace local to the call when it is nullptr.
RbfModel fit_rbf_best(const linalg::Matrix& x, std::span<const double> y,
                      const RbfFitOptions& base, std::span<const double> sigma_grid,
                      std::span<const int> basis_grid,
                      const std::function<double(const RbfModel&)>& score,
                      sweep::ThreadPool* pool = nullptr, OlsWorkspace* ws = nullptr);

/// Free-run (simulation-mode) NARX response: feeds model predictions back
/// into the current taps. `v` is the full input sequence, `i_init` holds
/// ord.history() initial current samples (i[0..h-1]); the returned vector
/// has the same length as v with i_init copied in front.
std::vector<double> simulate_narx(const RbfModel& model, NarxOrders ord,
                                  std::span<const double> v, std::span<const double> i_init);

}  // namespace emc::ident
