// Concrete stamping targets behind the abstract ckt::Stamper interface.
//
// * DenseStamper: the classic dense MNA assembly (pre-sparse behavior,
//   bit-identical to the old concrete Stamper).
// * PatternStamper: value-free discovery pass recording every stamped
//   (row, col) position; SparsePattern::build() turns the list into CSR.
// * SparseStamper: assembly into a SparseMatrix. Out-of-pattern stamps
//   are collected instead of applied, so the engine can grow the pattern
//   and retry the assembly.
#pragma once

#include <span>
#include <vector>

#include "circuit/device.hpp"
#include "linalg/sparse.hpp"

namespace emc::ckt {

/// Dense MNA assembly: G(row-1, col-1) += val into a linalg::Matrix.
class DenseStamper final : public Stamper {
 public:
  DenseStamper(linalg::Matrix& g, std::span<double> rhs) : g_(g), rhs_(rhs) {}

  void g(int row_id, int col_id, double val) override {
    if (row_id == 0 || col_id == 0) return;
    g_(static_cast<std::size_t>(row_id) - 1, static_cast<std::size_t>(col_id) - 1) += val;
  }

  void rhs(int row_id, double val) override {
    if (row_id == 0) return;
    rhs_[static_cast<std::size_t>(row_id) - 1] += val;
  }

 private:
  linalg::Matrix& g_;
  std::span<double> rhs_;
};

/// Structure-discovery pass: records stamped matrix positions (0-based,
/// ground dropped), ignores all values and the right-hand side.
class PatternStamper final : public Stamper {
 public:
  void g(int row_id, int col_id, double val) override {
    (void)val;
    if (row_id == 0 || col_id == 0) return;
    coords_.push_back({row_id - 1, col_id - 1});
  }

  void rhs(int row_id, double val) override {
    (void)row_id;
    (void)val;
  }

  const std::vector<linalg::SparseCoord>& coords() const { return coords_; }
  std::vector<linalg::SparseCoord> take_coords() && { return std::move(coords_); }

 private:
  std::vector<linalg::SparseCoord> coords_;
};

/// Sparse assembly into `a`. Stamps landing outside the pattern are
/// recorded in missed() — the caller appends them to its coordinate list,
/// rebuilds the pattern and re-runs the assembly.
class SparseStamper final : public Stamper {
 public:
  SparseStamper(linalg::SparseMatrix& a, std::span<double> rhs) : a_(a), rhs_(rhs) {}

  void g(int row_id, int col_id, double val) override {
    if (row_id == 0 || col_id == 0) return;
    if (!a_.add(row_id - 1, col_id - 1, val)) missed_.push_back({row_id - 1, col_id - 1});
  }

  void rhs(int row_id, double val) override {
    if (row_id == 0) return;
    rhs_[static_cast<std::size_t>(row_id) - 1] += val;
  }

  const std::vector<linalg::SparseCoord>& missed() const { return missed_; }

 private:
  linalg::SparseMatrix& a_;
  std::span<double> rhs_;
  std::vector<linalg::SparseCoord> missed_;
};

}  // namespace emc::ckt
