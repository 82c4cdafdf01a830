// Sparse MNA substrate: CSR pattern with a coordinate-stamping builder,
// a value container over it, and a static-pivot sparse LU whose
// symbolic phase (fill-reducing ordering + fill pattern) is computed once
// and reused across numeric refactorizations — the PR 1 cached-LU trick
// generalized to nonlinear circuits, where the *values* change every
// Newton iteration but the *structure* never does.
//
// Determinism contract: the elimination order is a pure function of the
// pattern (structure only, never of the values), so a factorization's
// rounding is identical no matter which corner previously used a reused
// workspace. Numeric robustness is recovered by a health check at
// refactor time (pivot magnitude / multiplier growth); a factorization
// that fails it falls back to dense partial-pivoting LU for that factor
// call only — a pure function of the values, so purity is preserved.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "linalg/decomp.hpp"
#include "linalg/matrix.hpp"

namespace emc::linalg {

/// One stamped position (0-based row/col in unknown space).
struct SparseCoord {
  int r = 0;
  int c = 0;
};

/// Immutable CSR sparsity pattern of an n x n system. Built from the
/// coordinate list a stamping pass produces (duplicates welcome); the full
/// diagonal is always included (the engine adds gmin there), but build()
/// remembers which diagonals were *structurally* stamped by a device —
/// the ordering uses that to defer numerically weak pivots (e.g. VSource
/// branch rows whose diagonal is only the gmin leakage).
class SparsePattern {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  SparsePattern() = default;

  /// Dedup + sort `coords` into CSR; throws std::invalid_argument on
  /// out-of-range coordinates.
  static SparsePattern build(std::size_t n, std::span<const SparseCoord> coords);

  std::size_t n() const { return n_; }
  std::size_t nnz() const { return col_.size(); }
  bool empty() const { return n_ == 0; }

  std::span<const std::size_t> row_ptr() const { return row_ptr_; }
  std::span<const int> col() const { return col_; }

  /// Slot of (r, r); every row has one.
  std::size_t diag_slot(std::size_t r) const { return diag_slot_[r]; }

  /// True when some device stamped (r, r) — i.e. the diagonal exists
  /// beyond the engine's gmin augmentation.
  bool structural_diag(std::size_t r) const { return structural_diag_[r] != 0; }

  /// Slot of (r, c), or npos when the position is not in the pattern.
  std::size_t find(int r, int c) const;

  /// FNV-1a over the full structure (n, rows, columns, structural-diagonal
  /// flags): equal hashes => identical patterns for all practical purposes,
  /// which is what lets one symbolic analysis be shared across corners.
  std::uint64_t hash() const { return hash_; }

 private:
  std::size_t n_ = 0;
  std::vector<std::size_t> row_ptr_;
  std::vector<int> col_;              ///< sorted within each row
  std::vector<std::size_t> diag_slot_;
  std::vector<char> structural_diag_;
  std::uint64_t hash_ = 0;
};

/// Values over a SparsePattern, one per pattern slot. The pattern is
/// referenced, not owned: it must outlive the matrix (both live side by
/// side in NewtonWorkspace).
class SparseMatrix {
 public:
  SparseMatrix() = default;

  /// Bind to `p`; values are zeroed.
  void set_pattern(const SparsePattern* p);

  const SparsePattern* pattern() const { return p_; }
  std::size_t n() const { return p_ ? p_->n() : 0; }

  void clear_values();

  /// value(r, c) += v; returns false (and does nothing) when the position
  /// is outside the pattern — callers collect misses and rebuild.
  bool add(int r, int c, double v);

  /// Add `v` to every diagonal entry (the gmin augmentation).
  void add_diag(double v);

  std::span<const double> values() const { return values_; }

  /// Materialize as a dense matrix (dense-fallback path, tests).
  Matrix to_dense() const;

 private:
  const SparsePattern* p_ = nullptr;
  std::vector<double> values_;  ///< nnz, slot order
};

/// Counters of what a SparseLu actually did — how often the symbolic
/// analysis was reused, how often the numeric health check bailed to
/// dense, and how many pattern entries the factor/solve kernels walked.
struct SparseLuStats {
  long analyses = 0;         ///< symbolic phases computed
  long symbolic_reuses = 0;  ///< numeric refactors that reused the symbolic
  long refactors = 0;        ///< numeric factorizations performed
  long dense_fallbacks = 0;  ///< factorizations that failed health and went dense
  long solves = 0;           ///< triangular-solve calls
  unsigned long long walk_entries = 0;
};

/// Sparse LU with a static pivot order.
///
/// factor(a) runs the symbolic analysis only when the pattern hash differs
/// from the one analyzed last (fill-reducing minimum-degree ordering on the
/// symmetrized pattern, with structurally weak diagonals deferred until an
/// eliminated neighbor strengthens them; then the exact fill pattern of L
/// and U). Every later factor() of the same structure is a cheap numeric
/// refactorization: scatter, eliminate along the precomputed pattern,
/// gather — no searching, no allocation.
///
/// A factorization whose numeric health fails (pivot < 1e-300 or
/// multiplier > 1e6 in magnitude) is redone densely with partial pivoting
/// for this call, so the solution remains a pure function of the values.
class SparseLu {
 public:
  SparseLu() = default;

  /// (Re)factorize; throws std::runtime_error when the system is singular
  /// beyond even the dense fallback.
  void factor(const SparseMatrix& a);

  bool valid() const { return valid_; }
  std::size_t size() const { return n_; }

  /// Solve A x = b in place.
  void solve_in_place(std::span<double> b) const;

  /// Drop numeric *and* symbolic state (topology changed for good).
  void invalidate();

  const SparseLuStats& stats() const { return stats_; }

 private:
  void analyze(const SparsePattern& p);

  std::size_t n_ = 0;
  bool analyzed_ = false;
  bool valid_ = false;
  std::uint64_t hash_ = 0;

  // Symbolic: elimination order and the static fill pattern (permuted
  // indices; L strictly lower with columns ascending, U strictly upper).
  std::vector<int> perm_;  ///< perm_[k] = original index eliminated at step k
  std::vector<int> pinv_;  ///< pinv_[original] = elimination step
  std::vector<std::size_t> l_ptr_;
  std::vector<int> l_col_;
  std::vector<std::size_t> u_ptr_;
  std::vector<int> u_col_;
  // Scatter map: for permuted row i, A slots a_slot_[k] land at permuted
  // column a_pcol_[k], k in [a_ptr_[i], a_ptr_[i+1]).
  std::vector<std::size_t> a_ptr_;
  std::vector<std::size_t> a_slot_;
  std::vector<int> a_pcol_;
  unsigned long long factor_walk_ = 0;  ///< pattern entries one factor walks
  unsigned long long solve_walk_ = 0;   ///< pattern entries one solve walks

  // Numeric factorization over the fill pattern.
  std::vector<double> l_val_;
  std::vector<double> u_val_;
  std::vector<double> inv_diag_;
  std::vector<double> w_;  ///< scatter workspace, n

  // Dense fallback of the current factorization (used when dense_active_).
  bool dense_active_ = false;
  LuFactor dense_;
  mutable std::vector<double> pb_;  ///< permuted rhs scratch for solves

  mutable SparseLuStats stats_;
};

}  // namespace emc::linalg
