#include "linalg/sparse.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace emc::linalg {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  // Mix each byte so permuted column lists cannot collide trivially.
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xffu;
    h *= kFnvPrime;
  }
  return h;
}

/// Numeric-health bounds of the static-pivot refactorization: beyond
/// these the structure-chosen pivot order is not trustworthy and the
/// factorization is redone densely with partial pivoting.
constexpr double kMinPivot = 1e-300;
constexpr double kMaxMultiplier = 1e6;

}  // namespace

SparsePattern SparsePattern::build(std::size_t n, std::span<const SparseCoord> coords) {
  SparsePattern p;
  p.n_ = n;
  p.row_ptr_.assign(n + 1, 0);
  p.diag_slot_.assign(n, npos);
  p.structural_diag_.assign(n, 0);
  if (n == 0) {
    p.hash_ = fnv_mix(kFnvOffset, 0);
    return p;
  }

  std::vector<SparseCoord> cs(coords.begin(), coords.end());
  for (const SparseCoord& co : cs)
    if (co.r < 0 || co.c < 0 || static_cast<std::size_t>(co.r) >= n ||
        static_cast<std::size_t>(co.c) >= n)
      throw std::invalid_argument("SparsePattern::build: coordinate out of range");
  for (const SparseCoord& co : cs)
    if (co.r == co.c) p.structural_diag_[static_cast<std::size_t>(co.r)] = 1;
  // The gmin augmentation needs every diagonal present even when no device
  // stamps it.
  cs.reserve(cs.size() + n);
  for (std::size_t i = 0; i < n; ++i)
    cs.push_back({static_cast<int>(i), static_cast<int>(i)});

  std::sort(cs.begin(), cs.end(), [](const SparseCoord& a, const SparseCoord& b) {
    return a.r != b.r ? a.r < b.r : a.c < b.c;
  });
  cs.erase(std::unique(cs.begin(), cs.end(),
                       [](const SparseCoord& a, const SparseCoord& b) {
                         return a.r == b.r && a.c == b.c;
                       }),
           cs.end());

  p.col_.reserve(cs.size());
  for (const SparseCoord& co : cs) {
    ++p.row_ptr_[static_cast<std::size_t>(co.r) + 1];
    if (co.r == co.c) p.diag_slot_[static_cast<std::size_t>(co.r)] = p.col_.size();
    p.col_.push_back(co.c);
  }
  for (std::size_t i = 0; i < n; ++i) p.row_ptr_[i + 1] += p.row_ptr_[i];

  std::uint64_t h = fnv_mix(kFnvOffset, n);
  for (std::size_t r = 0; r < n; ++r) {
    h = fnv_mix(h, p.row_ptr_[r + 1] - p.row_ptr_[r]);
    for (std::size_t s = p.row_ptr_[r]; s < p.row_ptr_[r + 1]; ++s)
      h = fnv_mix(h, static_cast<std::uint64_t>(p.col_[s]));
    h = fnv_mix(h, static_cast<std::uint64_t>(p.structural_diag_[r]));
  }
  p.hash_ = h;
  return p;
}

std::size_t SparsePattern::find(int r, int c) const {
  if (r < 0 || c < 0 || static_cast<std::size_t>(r) >= n_ ||
      static_cast<std::size_t>(c) >= n_)
    return npos;
  const auto lo = col_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[static_cast<std::size_t>(r)]);
  const auto hi = col_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[static_cast<std::size_t>(r) + 1]);
  const auto it = std::lower_bound(lo, hi, c);
  if (it == hi || *it != c) return npos;
  return static_cast<std::size_t>(it - col_.begin());
}

void SparseMatrix::set_pattern(const SparsePattern* p) {
  if (!p) throw std::invalid_argument("SparseMatrix::set_pattern: null pattern");
  p_ = p;
  values_.assign(p->nnz(), 0.0);
}

void SparseMatrix::clear_values() { std::fill(values_.begin(), values_.end(), 0.0); }

bool SparseMatrix::add(int r, int c, double v) {
  const std::size_t slot = p_->find(r, c);
  if (slot == SparsePattern::npos) return false;
  values_[slot] += v;
  return true;
}

void SparseMatrix::add_diag(double v) {
  for (std::size_t i = 0; i < p_->n(); ++i) values_[p_->diag_slot(i)] += v;
}

Matrix SparseMatrix::to_dense() const {
  const std::size_t n = this->n();
  Matrix m(n, n);
  const auto rp = p_->row_ptr();
  const auto col = p_->col();
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t s = rp[r]; s < rp[r + 1]; ++s)
      m(r, static_cast<std::size_t>(col[s])) = values_[s];
  return m;
}

void SparseLu::invalidate() {
  analyzed_ = false;
  valid_ = false;
  hash_ = 0;
}

void SparseLu::analyze(const SparsePattern& p) {
  const std::size_t n = p.n();
  n_ = n;

  // Symmetrized adjacency A + A^T (off-diagonal structure only): the
  // ordering must not depend on which of (i,j)/(j,i) a device stamped.
  std::vector<std::set<int>> adj(n);
  {
    const auto rp = p.row_ptr();
    const auto col = p.col();
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t s = rp[r]; s < rp[r + 1]; ++s) {
        const int c = col[s];
        if (static_cast<std::size_t>(c) == r) continue;
        adj[r].insert(c);
        adj[static_cast<std::size_t>(c)].insert(static_cast<int>(r));
      }
  }

  // Minimum-degree elimination with weak-diagonal deferral. A node whose
  // diagonal is only the gmin leakage (VSource/Vcvs branch rows) would be
  // a catastrophic static pivot; defer it until the elimination of a
  // neighbor has deposited a Schur-complement contribution on its
  // diagonal (l_ik * u_kj fill with i == j). Ties break on the lowest
  // index, keeping the order fully deterministic.
  std::vector<char> weak(n), gone(n, 0);
  for (std::size_t i = 0; i < n; ++i) weak[i] = p.structural_diag(i) ? 0 : 1;
  perm_.assign(n, 0);
  pinv_.assign(n, 0);
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t best = n;
    bool best_weak = true;
    std::size_t best_deg = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (gone[i]) continue;
      const bool w = weak[i] != 0;
      const std::size_t d = adj[i].size();
      if (best == n || (w ? best_weak && d < best_deg : best_weak || d < best_deg)) {
        best = i;
        best_weak = w;
        best_deg = d;
      }
    }
    gone[best] = 1;
    perm_[k] = static_cast<int>(best);
    pinv_[best] = static_cast<int>(k);
    // Clique-connect the uneliminated neighbors (fill), and strengthen
    // their diagonals: eliminating `best` updates them via l * u terms.
    std::vector<int> nbrs(adj[best].begin(), adj[best].end());
    for (int u : nbrs) {
      adj[static_cast<std::size_t>(u)].erase(static_cast<int>(best));
      weak[static_cast<std::size_t>(u)] = 0;
    }
    for (std::size_t a = 0; a < nbrs.size(); ++a)
      for (std::size_t b = a + 1; b < nbrs.size(); ++b) {
        adj[static_cast<std::size_t>(nbrs[a])].insert(nbrs[b]);
        adj[static_cast<std::size_t>(nbrs[b])].insert(nbrs[a]);
      }
    adj[best].clear();
  }

  // Permuted A rows (scatter map) grouped by elimination step.
  a_ptr_.assign(n + 1, 0);
  {
    const auto rp = p.row_ptr();
    for (std::size_t r = 0; r < n; ++r)
      a_ptr_[static_cast<std::size_t>(pinv_[r]) + 1] += rp[r + 1] - rp[r];
    for (std::size_t i = 0; i < n; ++i) a_ptr_[i + 1] += a_ptr_[i];
    a_slot_.assign(p.nnz(), 0);
    a_pcol_.assign(p.nnz(), 0);
    std::vector<std::size_t> next(a_ptr_.begin(), a_ptr_.end() - 1);
    const auto col = p.col();
    for (std::size_t r = 0; r < n; ++r) {
      const auto i = static_cast<std::size_t>(pinv_[r]);
      for (std::size_t s = rp[r]; s < rp[r + 1]; ++s) {
        a_slot_[next[i]] = s;
        a_pcol_[next[i]] = pinv_[static_cast<std::size_t>(col[s])];
        ++next[i];
      }
    }
  }

  // Up-looking symbolic factorization: the fill pattern of permuted row i
  // is its A pattern merged with the U rows of every j < i it touches
  // (processed in ascending j — std::set iteration is insertion-safe).
  l_ptr_.assign(n + 1, 0);
  u_ptr_.assign(n + 1, 0);
  l_col_.clear();
  u_col_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    std::set<int> cols;
    for (std::size_t k = a_ptr_[i]; k < a_ptr_[i + 1]; ++k) cols.insert(a_pcol_[k]);
    cols.insert(static_cast<int>(i));
    for (auto it = cols.begin(); it != cols.end() && *it < static_cast<int>(i); ++it) {
      const auto j = static_cast<std::size_t>(*it);
      for (std::size_t us = u_ptr_[j]; us < u_ptr_[j + 1]; ++us) cols.insert(u_col_[us]);
    }
    for (int c : cols) {
      if (c < static_cast<int>(i))
        l_col_.push_back(c);
      else if (c > static_cast<int>(i))
        u_col_.push_back(c);
    }
    l_ptr_[i + 1] = l_col_.size();
    u_ptr_[i + 1] = u_col_.size();
  }

  factor_walk_ = 0;
  for (std::size_t i = 0; i < n; ++i) {
    factor_walk_ += (a_ptr_[i + 1] - a_ptr_[i]);                   // scatter
    factor_walk_ += 2 * (l_ptr_[i + 1] - l_ptr_[i]);               // eliminate + gather L
    factor_walk_ += 2 * (u_ptr_[i + 1] - u_ptr_[i]) + 1;           // gather U + pivot
    for (std::size_t ls = l_ptr_[i]; ls < l_ptr_[i + 1]; ++ls) {
      const auto j = static_cast<std::size_t>(l_col_[ls]);
      factor_walk_ += u_ptr_[j + 1] - u_ptr_[j];                   // updates
    }
  }
  solve_walk_ = l_col_.size() + u_col_.size() + n;

  hash_ = p.hash();
  analyzed_ = true;
  valid_ = false;
  ++stats_.analyses;
  static const obs::Counter c_analyses("linalg.sparselu.analyses");
  c_analyses.add();
}

void SparseLu::factor(const SparseMatrix& a) {
  const SparsePattern* p = a.pattern();
  if (!p) throw std::invalid_argument("SparseLu::factor: matrix has no pattern");
  static const obs::Counter c_reuses("linalg.sparselu.symbolic_reuses");
  if (!analyzed_ || hash_ != p->hash()) {
    analyze(*p);
  } else {
    ++stats_.symbolic_reuses;
    c_reuses.add();
  }

  const std::size_t n = n_;
  valid_ = false;
  dense_active_ = false;
  l_val_.assign(l_col_.size(), 0.0);
  u_val_.assign(u_col_.size(), 0.0);
  inv_diag_.assign(n, 0.0);
  w_.assign(n, 0.0);
  bool healthy = true;

  const std::span<const double> av = a.values();
  for (std::size_t i = 0; i < n; ++i) {
    // Zero the workspace over this row's fill pattern, scatter A into it.
    for (std::size_t ls = l_ptr_[i]; ls < l_ptr_[i + 1]; ++ls)
      w_[static_cast<std::size_t>(l_col_[ls])] = 0.0;
    w_[i] = 0.0;
    for (std::size_t us = u_ptr_[i]; us < u_ptr_[i + 1]; ++us)
      w_[static_cast<std::size_t>(u_col_[us])] = 0.0;
    for (std::size_t k = a_ptr_[i]; k < a_ptr_[i + 1]; ++k)
      w_[static_cast<std::size_t>(a_pcol_[k])] = av[a_slot_[k]];
    // Eliminate along the precomputed L pattern (columns ascending).
    for (std::size_t ls = l_ptr_[i]; ls < l_ptr_[i + 1]; ++ls) {
      const auto j = static_cast<std::size_t>(l_col_[ls]);
      const double m = w_[j] * inv_diag_[j];
      l_val_[ls] = m;
      if (!(std::abs(m) <= kMaxMultiplier)) healthy = false;
      for (std::size_t us = u_ptr_[j]; us < u_ptr_[j + 1]; ++us)
        w_[static_cast<std::size_t>(u_col_[us])] -= m * u_val_[us];
    }
    // Pivot + gather the U row.
    const double d = w_[i];
    if (!(std::abs(d) >= kMinPivot)) healthy = false;
    inv_diag_[i] = 1.0 / d;
    for (std::size_t us = u_ptr_[i]; us < u_ptr_[i + 1]; ++us)
      u_val_[us] = w_[static_cast<std::size_t>(u_col_[us])];
  }

  ++stats_.refactors;
  stats_.walk_entries += factor_walk_;
  static const obs::Counter c_refactors("linalg.sparselu.refactors");
  static const obs::Counter c_walk("linalg.sparselu.walk_entries");
  c_refactors.add();
  c_walk.add(factor_walk_);

  // Static pivots that went bad are redone densely (partial pivoting) for
  // this call only; a genuinely singular system throws, same as the dense
  // engine path.
  if (!healthy) {
    ++stats_.dense_fallbacks;
    static const obs::Counter c_fallback("linalg.sparselu.dense_fallbacks");
    c_fallback.add();
    dense_.factor(a.to_dense());
    dense_active_ = true;
  }
  valid_ = true;
}

void SparseLu::solve_in_place(std::span<double> b) const {
  const std::size_t n = n_;
  if (!valid_) throw std::runtime_error("SparseLu::solve: no valid factorization");
  if (b.size() != n) throw std::invalid_argument("SparseLu::solve: size mismatch");
  ++stats_.solves;
  stats_.walk_entries += solve_walk_;
  static const obs::Counter c_solves("linalg.sparselu.solves");
  static const obs::Counter c_walk("linalg.sparselu.walk_entries");
  c_solves.add();
  c_walk.add(solve_walk_);

  if (dense_active_) {
    dense_.solve_in_place(b);
    return;
  }

  // Permute into elimination order, forward substitution (unit lower
  // triangle), backward with the reciprocal diagonal, permute back.
  pb_.resize(n);
  for (std::size_t k = 0; k < n; ++k) pb_[k] = b[static_cast<std::size_t>(perm_[k])];
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t ls = l_ptr_[i]; ls < l_ptr_[i + 1]; ++ls)
      pb_[i] -= l_val_[ls] * pb_[static_cast<std::size_t>(l_col_[ls])];
  for (std::size_t ii = n; ii-- > 0;) {
    for (std::size_t us = u_ptr_[ii]; us < u_ptr_[ii + 1]; ++us)
      pb_[ii] -= u_val_[us] * pb_[static_cast<std::size_t>(u_col_[us])];
    pb_[ii] *= inv_diag_[ii];
  }
  for (std::size_t k = 0; k < n; ++k) b[static_cast<std::size_t>(perm_[k])] = pb_[k];
}

}  // namespace emc::linalg
