// Sparse MNA substrate: CSR pattern building, value storage, and the
// static-pivot SparseLu — symbolic reuse across refactors, the
// weak-diagonal deferral that keeps VSource-style rows factorable without
// value-dependent pivoting, the dense fallback when the numeric health
// check fails, and the pattern-walk counters.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "linalg/decomp.hpp"
#include "linalg/sparse.hpp"

namespace linalg = emc::linalg;

namespace {

/// Deterministic values in [-1, 1): tests must not depend on libc rand.
class Lcg {
 public:
  explicit Lcg(std::uint64_t seed) : s_(seed) {}
  double next() {
    s_ = s_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(s_ >> 11) / 4503599627370496.0 - 1.0;
  }

 private:
  std::uint64_t s_;
};

/// Random banded pattern + diagonally dominant values: well conditioned,
/// so the static-pivot factorization should never need the dense fallback.
void fill_banded(std::size_t n, std::uint64_t seed,
                 std::vector<linalg::SparseCoord>& coords, linalg::Matrix& dense) {
  Lcg rng(seed);
  dense = linalg::Matrix(n, n);
  coords.clear();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const auto d = i > j ? i - j : j - i;
      if (d > 3 && !(i % 7 == 0 && j + 1 == n)) continue;  // band + a few spikes
      const double v = i == j ? 8.0 + rng.next() : rng.next();
      coords.push_back({static_cast<int>(i), static_cast<int>(j)});
      dense(i, j) = v;
    }
  }
}

void load_matrix(linalg::SparseMatrix& a, const linalg::Matrix& dense) {
  a.clear_values();
  const std::size_t n = dense.rows();
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (dense(i, j) != 0.0) {
        ASSERT_TRUE(a.add(static_cast<int>(i), static_cast<int>(j), dense(i, j)));
      }
}

}  // namespace

TEST(SparsePattern, BuildDedupsSortsAndCompletesDiagonal) {
  const linalg::SparseCoord coords[] = {{0, 1}, {1, 0}, {0, 1}, {0, 0}, {2, 1}};
  const auto p = linalg::SparsePattern::build(3, coords);

  EXPECT_EQ(p.n(), 3u);
  // Dedup of the double (0,1) stamp, plus the implicit (1,1) and (2,2).
  EXPECT_EQ(p.nnz(), 6u);
  EXPECT_NE(p.find(0, 0), linalg::SparsePattern::npos);
  EXPECT_NE(p.find(1, 1), linalg::SparsePattern::npos);
  EXPECT_NE(p.find(2, 2), linalg::SparsePattern::npos);
  EXPECT_EQ(p.find(2, 0), linalg::SparsePattern::npos);
  EXPECT_EQ(p.diag_slot(1), p.find(1, 1));

  // Only (0,0) was stamped by a "device"; (1,1) and (2,2) are engine-added.
  EXPECT_TRUE(p.structural_diag(0));
  EXPECT_FALSE(p.structural_diag(1));
  EXPECT_FALSE(p.structural_diag(2));

  // Columns sorted within each row.
  for (std::size_t r = 0; r < p.n(); ++r)
    for (std::size_t s = p.row_ptr()[r] + 1; s < p.row_ptr()[r + 1]; ++s)
      EXPECT_LT(p.col()[s - 1], p.col()[s]);
}

TEST(SparsePattern, HashDistinguishesStructure) {
  const linalg::SparseCoord a[] = {{0, 1}, {1, 0}};
  const linalg::SparseCoord a_dup[] = {{1, 0}, {0, 1}, {0, 1}};
  const linalg::SparseCoord b[] = {{0, 1}, {1, 0}, {0, 2}};
  const linalg::SparseCoord c[] = {{0, 1}, {1, 0}, {0, 0}};  // diag now structural

  EXPECT_EQ(linalg::SparsePattern::build(3, a).hash(),
            linalg::SparsePattern::build(3, a_dup).hash());
  EXPECT_NE(linalg::SparsePattern::build(3, a).hash(),
            linalg::SparsePattern::build(3, b).hash());
  EXPECT_NE(linalg::SparsePattern::build(3, a).hash(),
            linalg::SparsePattern::build(3, c).hash());
  EXPECT_NE(linalg::SparsePattern::build(3, a).hash(),
            linalg::SparsePattern::build(4, a).hash());
}

TEST(SparsePattern, OutOfRangeCoordinateThrows) {
  const linalg::SparseCoord bad[] = {{0, 3}};
  EXPECT_THROW(linalg::SparsePattern::build(3, bad), std::invalid_argument);
  const linalg::SparseCoord neg[] = {{-1, 0}};
  EXPECT_THROW(linalg::SparsePattern::build(3, neg), std::invalid_argument);
}

TEST(SparseMatrix, AddMissesOutsidePattern) {
  const linalg::SparseCoord coords[] = {{0, 1}, {1, 0}};
  const auto p = linalg::SparsePattern::build(2, coords);
  linalg::SparseMatrix a;
  a.set_pattern(&p);

  EXPECT_TRUE(a.add(0, 1, 2.0));
  EXPECT_TRUE(a.add(0, 1, 0.5));   // accumulates
  EXPECT_TRUE(a.add(0, 0, 3.0));   // diagonal always present
  EXPECT_TRUE(a.add(1, 1, 1.0));   // diagonal of row 1 too
  EXPECT_FALSE(a.add(0, 5, 1.0));  // out of range -> miss, not crash

  const auto d = a.to_dense();
  EXPECT_EQ(d(0, 1), 2.5);
  EXPECT_EQ(d(0, 0), 3.0);
  EXPECT_EQ(d(1, 0), 0.0);
}

TEST(SparseLu, MatchesDenseOnRandomBandedSystem) {
  const std::size_t n = 30;
  std::vector<linalg::SparseCoord> coords;
  linalg::Matrix dense;
  fill_banded(n, 42, coords, dense);

  const auto p = linalg::SparsePattern::build(n, coords);
  linalg::SparseMatrix a;
  a.set_pattern(&p);
  load_matrix(a, dense);

  linalg::SparseLu lu;
  lu.factor(a);
  EXPECT_EQ(lu.stats().dense_fallbacks, 0);

  Lcg rng(7);
  std::vector<double> b(n);
  for (double& v : b) v = rng.next();
  auto x = b;
  lu.solve_in_place(x);

  linalg::LuFactor ref;
  ref.factor(dense);
  const auto xr = ref.solve(b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], xr[i], 1e-10);
}

TEST(SparseLu, WeakDiagonalDeferralHandlesVSourceRows) {
  // The MNA shape that breaks naive static ordering: a branch-current row
  // whose diagonal is only the engine's gmin leakage. Eliminating it first
  // would pivot on ~1e-12; the ordering must defer it until the voltage
  // row's elimination has strengthened it.
  const linalg::SparseCoord coords[] = {{0, 0}, {0, 1}, {1, 0}};
  const auto p = linalg::SparsePattern::build(2, coords);
  ASSERT_FALSE(p.structural_diag(1));

  linalg::SparseMatrix a;
  a.set_pattern(&p);
  a.add(0, 0, 2.0);
  a.add(0, 1, 1.0);
  a.add(1, 0, 1.0);
  a.add_diag(1e-12);  // gmin augmentation

  linalg::SparseLu lu;
  lu.factor(a);
  EXPECT_EQ(lu.stats().dense_fallbacks, 0);

  std::vector<double> x = {3.0, 1.0};
  lu.solve_in_place(x);
  linalg::LuFactor ref;
  ref.factor(a.to_dense());
  const auto xr = ref.solve(std::vector<double>{3.0, 1.0});
  EXPECT_NEAR(x[0], xr[0], 1e-9);
  EXPECT_NEAR(x[1], xr[1], 1e-9);
}

TEST(SparseLu, SymbolicReusedAcrossRefactors) {
  const std::size_t n = 20;
  std::vector<linalg::SparseCoord> coords;
  linalg::Matrix dense;
  fill_banded(n, 3, coords, dense);
  const auto p = linalg::SparsePattern::build(n, coords);
  linalg::SparseMatrix a;
  a.set_pattern(&p);

  linalg::SparseLu lu;
  for (int round = 0; round < 3; ++round) {
    linalg::Matrix d2;
    std::vector<linalg::SparseCoord> unused;
    fill_banded(n, 100 + static_cast<std::uint64_t>(round), unused, d2);
    load_matrix(a, d2);
    lu.factor(a);

    std::vector<double> b(n, 1.0);
    auto x = b;
    lu.solve_in_place(x);
    linalg::LuFactor ref;
    ref.factor(d2);
    const auto xr = ref.solve(b);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], xr[i], 1e-9);
  }
  EXPECT_EQ(lu.stats().analyses, 1);
  EXPECT_EQ(lu.stats().refactors, 3);
  EXPECT_EQ(lu.stats().symbolic_reuses, 2);

  lu.invalidate();
  load_matrix(a, dense);
  lu.factor(a);
  EXPECT_EQ(lu.stats().analyses, 2);
}

TEST(SparseLu, DenseFallbackOnHealthFailureStaysCorrect) {
  // Static order eliminates index 0 first; the 1e-30 pivot then produces a
  // 1e30 multiplier, failing the health check. The solver must
  // transparently re-factor densely (with partial pivoting) and still
  // solve correctly.
  const linalg::SparseCoord coords[] = {{0, 0}, {0, 1}, {1, 0}, {1, 1}};
  const auto p = linalg::SparsePattern::build(2, coords);
  linalg::SparseMatrix a;
  a.set_pattern(&p);
  a.add(0, 0, 1e-30);
  a.add(0, 1, 1.0);
  a.add(1, 0, 1.0);
  a.add(1, 1, 1.0);

  linalg::SparseLu lu;
  lu.factor(a);
  EXPECT_GT(lu.stats().dense_fallbacks, 0);

  // Exact solution of [[1e-30, 1], [1, 1]] x = [1, 2] is x ~ [1, 1].
  std::vector<double> x = {1.0, 2.0};
  lu.solve_in_place(x);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 1.0, 1e-12);
}

TEST(SparseLu, SingularBeyondFallbackThrows) {
  const linalg::SparseCoord coords[] = {{0, 1}, {1, 0}};
  const auto p = linalg::SparsePattern::build(2, coords);
  linalg::SparseMatrix a;
  a.set_pattern(&p);  // all-zero values: singular however you pivot
  linalg::SparseLu lu;
  EXPECT_THROW(lu.factor(a), std::runtime_error);
  EXPECT_FALSE(lu.valid());
}

TEST(SparseLu, WalkCountersCountPatternEntriesOncePerCall) {
  const std::size_t n = 16;
  std::vector<linalg::SparseCoord> coords;
  linalg::Matrix dense;
  fill_banded(n, 5, coords, dense);
  const auto p = linalg::SparsePattern::build(n, coords);

  linalg::SparseMatrix a;
  a.set_pattern(&p);
  load_matrix(a, dense);

  // Each call adds its structure's walk once: a refactor of the same
  // structure walks exactly as much as the first factorization, and
  // every solve of it walks the same amount.
  linalg::SparseLu lu;
  const auto walked = [&] { return lu.stats().walk_entries; };
  lu.factor(a);
  const unsigned long long factor_walk = walked();
  ASSERT_GT(factor_walk, 0u);

  std::vector<double> x(n, 1.0);
  lu.solve_in_place(x);
  const unsigned long long solve_walk = walked() - factor_walk;
  ASSERT_GT(solve_walk, 0u);
  lu.solve_in_place(x);
  EXPECT_EQ(walked(), factor_walk + 2 * solve_walk);

  lu.factor(a);
  EXPECT_EQ(walked(), 2 * factor_walk + 2 * solve_walk);
}
