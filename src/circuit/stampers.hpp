// Concrete stamping targets behind the abstract ckt::Stamper interface.
//
// * DenseStamper: the classic dense MNA assembly (pre-sparse behavior,
//   bit-identical to the old concrete Stamper).
// * PatternStamper: value-free discovery pass recording every stamped
//   (row, col) position; SparsePattern::build() turns the list into CSR.
// * SparseStamper: assembly into a SparseMatrix. Out-of-pattern stamps
//   are collected instead of applied, so the engine can grow the pattern
//   and retry the assembly.
// * RhsStamper, BorderedStamper, PortStamper: the three passes of the
//   port-reduced solve (ckt::PortSystem) — right-hand side only, the
//   linear matrix split around the ports, and the nonlinear k x k stamp.
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

/// Right-hand side only: matrix entries are discarded (the per-step
/// restamp of devices whose matrix is already factored; devices that
/// override Device::stamp_rhs send it no matrix entry at all).
class RhsStamper final : public Stamper {
 public:
  explicit RhsStamper(std::span<double> rhs) : rhs_(rhs) {}

  void g(int row_id, int col_id, double val) override {
    (void)row_id;
    (void)col_id;
    (void)val;
  }

  void rhs(int row_id, double val) override {
    if (row_id == 0) return;
    rhs_[static_cast<std::size_t>(row_id) - 1] += val;
  }

 private:
  std::span<double> rhs_;
};

/// Matrix split around the ports (`slot[i]` = port index of unknown i, or
/// -1): port rows go to the dense `border` (k x n), interior rows at port
/// columns to `aip_t` (A_IP transposed, k x n), and the interior block to
/// `interior`. The right-hand side is dropped.
class BorderedStamper final : public Stamper {
 public:
  BorderedStamper(std::span<const int> slot, Stamper& interior, linalg::Matrix& border,
                  linalg::Matrix& aip_t)
      : slot_(slot), interior_(interior), border_(border), aip_t_(aip_t) {}

  void g(int row_id, int col_id, double val) override {
    if (row_id == 0 || col_id == 0) return;
    const auto r = static_cast<std::size_t>(row_id) - 1;
    const auto c = static_cast<std::size_t>(col_id) - 1;
    if (slot_[r] >= 0)
      border_(static_cast<std::size_t>(slot_[r]), c) += val;
    else if (slot_[c] >= 0)
      aip_t_(static_cast<std::size_t>(slot_[c]), r) += val;
    else
      interior_.g(row_id, col_id, val);
  }

  void rhs(int row_id, double val) override {
    (void)row_id;
    (void)val;
  }

 private:
  std::span<const int> slot_;
  Stamper& interior_;
  linalg::Matrix& border_;
  linalg::Matrix& aip_t_;
};

/// Nonlinear stamp onto the ports: G(slot r, slot c) += val into `g`
/// (k x k) and rhs into `r` (k). An entry on an interior unknown is not
/// applied; its unknowns are recorded in missed() (0-based) so the engine
/// can grow the port set and retry.
class PortStamper final : public Stamper {
 public:
  PortStamper(std::span<const int> slot, linalg::Matrix& g, std::span<double> r)
      : slot_(slot), g_(g), r_(r) {}

  void g(int row_id, int col_id, double val) override {
    if (row_id == 0 || col_id == 0) return;
    const int sr = slot_[static_cast<std::size_t>(row_id) - 1];
    const int sc = slot_[static_cast<std::size_t>(col_id) - 1];
    if (sr >= 0 && sc >= 0) {
      g_(static_cast<std::size_t>(sr), static_cast<std::size_t>(sc)) += val;
      return;
    }
    if (sr < 0) missed_.push_back(row_id - 1);
    if (sc < 0) missed_.push_back(col_id - 1);
  }

  void rhs(int row_id, double val) override {
    if (row_id == 0) return;
    const int sr = slot_[static_cast<std::size_t>(row_id) - 1];
    if (sr >= 0)
      r_[static_cast<std::size_t>(sr)] += val;
    else
      missed_.push_back(row_id - 1);
  }

  const std::vector<int>& missed() const { return missed_; }

 private:
  std::span<const int> slot_;
  linalg::Matrix& g_;
  std::span<double> r_;
  std::vector<int> missed_;
};

}  // namespace emc::ckt
