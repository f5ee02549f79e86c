// Tests for sparse linear algebra: CSC construction and kernels, orderings,
// and the sparse LDL^T factorization (including quasi-definite KKT systems,
// the exact shape the ADMM solver factors).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "dspp/window_program.hpp"
#include "linalg/dense_factor.hpp"
#include "linalg/ordering.hpp"
#include "linalg/sparse_ldlt.hpp"
#include "linalg/sparse_matrix.hpp"
#include "scenario/policy.hpp"
#include "scenario/registry.hpp"
#include "scenario/spec.hpp"

namespace gp::linalg {
namespace {

SparseMatrix random_sparse(std::int32_t rows, std::int32_t cols, double density, Rng& rng) {
  std::vector<Triplet> triplets;
  for (std::int32_t r = 0; r < rows; ++r)
    for (std::int32_t c = 0; c < cols; ++c)
      if (rng.uniform() < density) triplets.push_back({r, c, rng.uniform(-1.0, 1.0)});
  return SparseMatrix::from_triplets(rows, cols, triplets);
}

/// Builds a random symmetric quasi-definite KKT matrix
/// [[P + I, A^T], [A, -I]] and returns its upper triangle.
SparseMatrix random_kkt_upper(std::int32_t n, std::int32_t m, Rng& rng, double density = 0.3) {
  std::vector<Triplet> triplets;
  for (std::int32_t i = 0; i < n; ++i) triplets.push_back({i, i, 1.0 + rng.uniform()});
  for (std::int32_t i = 0; i < m; ++i) triplets.push_back({n + i, n + i, -1.0 - rng.uniform()});
  for (std::int32_t r = 0; r < m; ++r)
    for (std::int32_t c = 0; c < n; ++c)
      if (rng.uniform() < density) triplets.push_back({c, n + r, rng.uniform(-1.0, 1.0)});
  return SparseMatrix::from_triplets(n + m, n + m, triplets);
}

/// The original greedy minimum degree, kept verbatim as the oracle for the
/// heap-driven one: at every step it scans ALL live vertices for the
/// smallest exact elimination-graph degree (ties to the smallest index), so
/// it is O(n^2) — fine at test sizes, and obviously correct.
Permutation scan_minimum_degree_oracle(const SparseMatrix& a) {
  const std::int32_t n = a.rows();
  std::vector<std::vector<std::int32_t>> adj(static_cast<std::size_t>(n));
  const auto col_ptr = a.col_ptr();
  const auto row_idx = a.row_idx();
  for (std::int32_t c = 0; c < n; ++c) {
    for (std::int32_t p = col_ptr[c]; p < col_ptr[c + 1]; ++p) {
      const std::int32_t r = row_idx[p];
      if (r == c) continue;
      adj[static_cast<std::size_t>(r)].push_back(c);
      adj[static_cast<std::size_t>(c)].push_back(r);
    }
  }
  for (auto& neighbours : adj) {
    std::sort(neighbours.begin(), neighbours.end());
    neighbours.erase(std::unique(neighbours.begin(), neighbours.end()), neighbours.end());
  }
  std::vector<bool> eliminated(static_cast<std::size_t>(n), false);
  Permutation perm;
  std::vector<std::int32_t> degree(static_cast<std::size_t>(n));
  for (std::int32_t v = 0; v < n; ++v) {
    degree[static_cast<std::size_t>(v)] =
        static_cast<std::int32_t>(adj[static_cast<std::size_t>(v)].size());
  }
  auto prune = [&](std::vector<std::int32_t>& neighbours) {
    neighbours.erase(std::remove_if(neighbours.begin(), neighbours.end(),
                                    [&](std::int32_t v) {
                                      return eliminated[static_cast<std::size_t>(v)];
                                    }),
                     neighbours.end());
  };
  for (std::int32_t step = 0; step < n; ++step) {
    std::int32_t best = -1;
    std::int32_t best_degree = n + 1;
    for (std::int32_t v = 0; v < n; ++v) {
      if (eliminated[static_cast<std::size_t>(v)]) continue;
      if (degree[static_cast<std::size_t>(v)] < best_degree) {
        best = v;
        best_degree = degree[static_cast<std::size_t>(v)];
      }
    }
    auto& neighbours = adj[static_cast<std::size_t>(best)];
    prune(neighbours);
    eliminated[static_cast<std::size_t>(best)] = true;
    perm.push_back(best);
    for (std::int32_t u : neighbours) {
      auto& list = adj[static_cast<std::size_t>(u)];
      prune(list);
      std::vector<std::int32_t> merged;
      std::merge(list.begin(), list.end(), neighbours.begin(), neighbours.end(),
                 std::back_inserter(merged));
      merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
      merged.erase(std::remove(merged.begin(), merged.end(), u), merged.end());
      list = std::move(merged);
      degree[static_cast<std::size_t>(u)] = static_cast<std::int32_t>(list.size());
    }
    neighbours.clear();
  }
  return perm;
}

/// Upper triangle of the ADMM KKT [[P + I, A^T], [A, -I]] for a QP (the
/// solver's layout; the values are placeholders, only the pattern matters
/// to the ordering).
SparseMatrix qp_kkt_upper(const SparseMatrix& p, const SparseMatrix& a) {
  const std::int32_t n = p.rows();
  const std::int32_t m = a.rows();
  std::vector<Triplet> triplets;
  for (std::int32_t c = 0; c < n; ++c) {
    triplets.push_back({c, c, 1.0});
    for (std::int32_t idx = p.col_ptr()[c]; idx < p.col_ptr()[c + 1]; ++idx) {
      if (p.row_idx()[idx] <= c) triplets.push_back({p.row_idx()[idx], c, p.values()[idx]});
    }
    for (std::int32_t idx = a.col_ptr()[c]; idx < a.col_ptr()[c + 1]; ++idx) {
      triplets.push_back({c, n + a.row_idx()[idx], a.values()[idx]});
    }
  }
  for (std::int32_t i = 0; i < m; ++i) triplets.push_back({n + i, n + i, -1.0});
  return SparseMatrix::from_triplets(n + m, n + m, triplets);
}

/// Upper triangle of a 2-D grid Laplacian-like SPD matrix (rows x cols
/// vertices, 4-neighbour stencil): every interior vertex ties at degree 4.
SparseMatrix grid_upper(std::int32_t rows, std::int32_t cols) {
  std::vector<Triplet> triplets;
  for (std::int32_t r = 0; r < rows; ++r) {
    for (std::int32_t c = 0; c < cols; ++c) {
      const std::int32_t v = r * cols + c;
      triplets.push_back({v, v, 4.0});
      if (c + 1 < cols) triplets.push_back({v, v + 1, -1.0});
      if (r + 1 < rows) triplets.push_back({v, v + cols, -1.0});
    }
  }
  return SparseMatrix::from_triplets(rows * cols, rows * cols, triplets);
}

/// Bitwise (0 ULP) equality of two vectors.
bool bits_equal(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Expands an upper triangle to the full symmetric dense matrix.
DenseMatrix full_from_upper(const SparseMatrix& upper) {
  DenseMatrix d = upper.to_dense();
  for (std::size_t r = 0; r < d.rows(); ++r)
    for (std::size_t c = r + 1; c < d.cols(); ++c) d(c, r) = d(r, c);
  return d;
}

TEST(SparseMatrix, FromTripletsSumsDuplicates) {
  const std::vector<Triplet> triplets{{0, 0, 1.0}, {0, 0, 2.0}, {1, 1, 5.0}};
  const auto a = SparseMatrix::from_triplets(2, 2, triplets);
  EXPECT_EQ(a.nnz(), 2);
  EXPECT_DOUBLE_EQ(a.coefficient(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(a.coefficient(1, 1), 5.0);
  EXPECT_DOUBLE_EQ(a.coefficient(0, 1), 0.0);
}

TEST(SparseMatrix, FromTripletsRejectsOutOfRange) {
  const std::vector<Triplet> bad{{2, 0, 1.0}};
  EXPECT_THROW(SparseMatrix::from_triplets(2, 2, bad), PreconditionError);
}

TEST(SparseMatrix, EmptyColumnsHaveValidPointers) {
  const std::vector<Triplet> triplets{{0, 3, 1.0}};
  const auto a = SparseMatrix::from_triplets(2, 5, triplets);
  EXPECT_EQ(a.nnz(), 1);
  const auto ptr = a.col_ptr();
  for (std::size_t c = 1; c < ptr.size(); ++c) EXPECT_GE(ptr[c], ptr[c - 1]);
  EXPECT_DOUBLE_EQ(a.coefficient(0, 3), 1.0);
}

TEST(SparseMatrix, MultiplyMatchesDense) {
  Rng rng(3);
  const auto a = random_sparse(6, 9, 0.4, rng);
  Vector x(9);
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  const Vector sparse_y = a.multiply(x);
  const Vector dense_y = a.to_dense().multiply(x);
  for (std::size_t i = 0; i < sparse_y.size(); ++i) EXPECT_NEAR(sparse_y[i], dense_y[i], 1e-14);
}

TEST(SparseMatrix, TransposedMultiplyMatchesDense) {
  Rng rng(4);
  const auto a = random_sparse(6, 9, 0.4, rng);
  Vector x(6);
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  const Vector sparse_y = a.multiply_transposed(x);
  const Vector dense_y = a.to_dense().multiply_transposed(x);
  for (std::size_t i = 0; i < sparse_y.size(); ++i) EXPECT_NEAR(sparse_y[i], dense_y[i], 1e-14);
}

TEST(SparseMatrix, TransposeRoundTrip) {
  Rng rng(5);
  const auto a = random_sparse(7, 5, 0.3, rng);
  const auto att = a.transposed().transposed();
  EXPECT_EQ(att.nnz(), a.nnz());
  for (std::int32_t r = 0; r < 7; ++r)
    for (std::int32_t c = 0; c < 5; ++c)
      EXPECT_DOUBLE_EQ(a.coefficient(r, c), att.coefficient(r, c));
}

TEST(SparseMatrix, ProductMatchesDense) {
  Rng rng(6);
  const auto a = random_sparse(4, 6, 0.5, rng);
  const auto b = random_sparse(6, 3, 0.5, rng);
  const auto ab = a.multiply(b);
  const DenseMatrix dense_ab = a.to_dense() * b.to_dense();
  for (std::int32_t r = 0; r < 4; ++r)
    for (std::int32_t c = 0; c < 3; ++c)
      EXPECT_NEAR(ab.coefficient(r, c), dense_ab(static_cast<std::size_t>(r),
                                                 static_cast<std::size_t>(c)),
                  1e-14);
}

TEST(SparseMatrix, UpperTriangleKeepsDiagonal) {
  Rng rng(7);
  auto a = random_sparse(5, 5, 0.6, rng);
  const auto upper = a.upper_triangle();
  for (std::int32_t r = 0; r < 5; ++r)
    for (std::int32_t c = 0; c < 5; ++c) {
      if (r <= c) {
        EXPECT_DOUBLE_EQ(upper.coefficient(r, c), a.coefficient(r, c));
      } else {
        EXPECT_DOUBLE_EQ(upper.coefficient(r, c), 0.0);
      }
    }
}

TEST(SparseMatrix, ScaleRowsCols) {
  const std::vector<Triplet> triplets{{0, 0, 2.0}, {1, 1, 3.0}, {0, 1, 1.0}};
  auto a = SparseMatrix::from_triplets(2, 2, triplets);
  const Vector row_scale{2.0, 4.0};
  const Vector col_scale{10.0, 100.0};
  a.scale_rows_cols(row_scale, col_scale);
  EXPECT_DOUBLE_EQ(a.coefficient(0, 0), 40.0);
  EXPECT_DOUBLE_EQ(a.coefficient(0, 1), 200.0);
  EXPECT_DOUBLE_EQ(a.coefficient(1, 1), 1200.0);
}

TEST(SparseMatrix, InfNorms) {
  const std::vector<Triplet> triplets{{0, 0, -2.0}, {1, 0, 1.0}, {1, 2, 5.0}};
  const auto a = SparseMatrix::from_triplets(2, 3, triplets);
  const Vector col_norms = a.column_inf_norms();
  EXPECT_DOUBLE_EQ(col_norms[0], 2.0);
  EXPECT_DOUBLE_EQ(col_norms[1], 0.0);
  EXPECT_DOUBLE_EQ(col_norms[2], 5.0);
  const Vector row_norms = a.row_inf_norms();
  EXPECT_DOUBLE_EQ(row_norms[0], 2.0);
  EXPECT_DOUBLE_EQ(row_norms[1], 5.0);
}

TEST(Ordering, IdentityAndInverseRoundTrip) {
  const auto id = identity_permutation(5);
  for (std::int32_t i = 0; i < 5; ++i) EXPECT_EQ(id[static_cast<std::size_t>(i)], i);
  Permutation perm{3, 1, 4, 0, 2};
  const auto inv = invert_permutation(perm);
  for (std::size_t i = 0; i < perm.size(); ++i) {
    EXPECT_EQ(inv[static_cast<std::size_t>(perm[i])], static_cast<std::int32_t>(i));
  }
}

TEST(Ordering, MinimumDegreeIsAPermutation) {
  Rng rng(8);
  const auto upper = random_kkt_upper(10, 6, rng);
  const auto perm = minimum_degree_ordering(upper);
  ASSERT_EQ(perm.size(), 16u);
  std::vector<bool> seen(16, false);
  for (std::int32_t p : perm) {
    ASSERT_GE(p, 0);
    ASSERT_LT(p, 16);
    EXPECT_FALSE(seen[static_cast<std::size_t>(p)]);
    seen[static_cast<std::size_t>(p)] = true;
  }
}

TEST(Ordering, ArrowheadMatrixOrdersHubLast) {
  // Arrowhead: dense first row/column. Min-degree must defer the hub (0),
  // which keeps L fill-free; eliminating the hub first fills everything.
  const std::int32_t n = 12;
  std::vector<Triplet> triplets;
  for (std::int32_t i = 0; i < n; ++i) triplets.push_back({i, i, 4.0});
  for (std::int32_t i = 1; i < n; ++i) triplets.push_back({0, i, 1.0});
  const auto upper = SparseMatrix::from_triplets(n, n, triplets);
  const auto perm = minimum_degree_ordering(upper);
  // The hub must be eliminated once only degree-1 vertices remain (it can
  // tie with the final leaf, so allow the last two slots).
  EXPECT_TRUE(perm.back() == 0 || perm[perm.size() - 2] == 0);
  SparseLdlt ldlt;
  ASSERT_EQ(ldlt.factor(upper, perm), SparseLdlt::Status::kOk);
  // Fill-free: L has exactly the n-1 off-diagonal entries of the arrow.
  EXPECT_EQ(ldlt.l_nnz(), n - 1);
}

TEST(Ordering, MinimumDegreeMatchesScanOracleOnRandomKkt) {
  const std::pair<int, int> shapes[] = {{1, 1}, {5, 3}, {10, 6}, {40, 25}, {80, 60}, {150, 100}};
  for (std::uint64_t seed : {1u, 7u, 42u}) {
    for (const auto& [n, m] : shapes) {
      for (double density : {0.02, 0.1, 0.3}) {
        Rng rng(seed * 1000 + static_cast<std::uint64_t>(n));
        const auto upper = random_kkt_upper(n, m, rng, density);
        EXPECT_EQ(minimum_degree_ordering(upper), scan_minimum_degree_oracle(upper))
            << "seed " << seed << " n " << n << " m " << m << " density " << density;
      }
    }
  }
}

TEST(Ordering, MinimumDegreeMatchesScanOracleOnTieHeavyGraphs) {
  // Arrowhead (hub 0 and n-1 degree-1 leaves), a path and grids: most
  // steps are degree ties, so these pin the smallest-index tie-break.
  for (std::int32_t n : {2, 3, 12, 200}) {
    std::vector<Triplet> arrow;
    std::vector<Triplet> path;
    for (std::int32_t i = 0; i < n; ++i) {
      arrow.push_back({i, i, 4.0});
      path.push_back({i, i, 2.0});
      if (i > 0) arrow.push_back({0, i, 1.0});
      if (i + 1 < n) path.push_back({i, i + 1, -1.0});
    }
    const auto arrow_upper = SparseMatrix::from_triplets(n, n, arrow);
    const auto path_upper = SparseMatrix::from_triplets(n, n, path);
    EXPECT_EQ(minimum_degree_ordering(arrow_upper), scan_minimum_degree_oracle(arrow_upper))
        << "arrowhead n " << n;
    EXPECT_EQ(minimum_degree_ordering(path_upper), scan_minimum_degree_oracle(path_upper))
        << "path n " << n;
  }
  for (const auto& [rows, cols] : {std::pair{1, 1}, std::pair{3, 3}, std::pair{7, 5},
                                   std::pair{20, 20}}) {
    const auto upper = grid_upper(rows, cols);
    EXPECT_EQ(minimum_degree_ordering(upper), scan_minimum_degree_oracle(upper))
        << "grid " << rows << "x" << cols;
  }
  EXPECT_TRUE(
      minimum_degree_ordering(SparseMatrix::from_triplets(0, 0, std::vector<Triplet>{})).empty());
}

TEST(Ordering, MinimumDegreeMatchesScanOracleOnPaperWindowKkt) {
  // The window QP the MPC controller factors on the Section VII setup
  // (4 DCs x 24 cities, W = 5).
  const auto spec = scenario::preset("paper_full");
  const auto bundle = scenario::build(spec);
  const dspp::PairIndex pairs(bundle.model);
  const std::size_t horizon = 5;
  const auto demand = scenario::mean_demand_trace(bundle, spec);
  const auto price = scenario::price_trace(bundle, spec);
  dspp::WindowInputs inputs;
  inputs.initial_state.assign(pairs.num_pairs(), 0.0);
  inputs.demand.assign(demand.begin(), demand.begin() + horizon);
  inputs.price.assign(price.begin(), price.begin() + horizon);
  const dspp::WindowProgram program(bundle.model, pairs, std::move(inputs));
  const auto upper = qp_kkt_upper(program.problem().p, program.problem().a);
  ASSERT_GT(upper.rows(), 500);
  EXPECT_EQ(minimum_degree_ordering(upper), scan_minimum_degree_oracle(upper));
}

TEST(Ordering, SymmetricPermuteUpperEntryMapLocatesEveryEntry) {
  Rng rng(19);
  const auto upper = random_kkt_upper(20, 12, rng);
  const Permutation perm = minimum_degree_ordering(upper);
  std::vector<std::int32_t> map;
  const auto permuted = symmetric_permute_upper(upper, perm, &map);
  ASSERT_EQ(map.size(), static_cast<std::size_t>(upper.nnz()));
  ASSERT_EQ(permuted.nnz(), upper.nnz());
  const auto inv = invert_permutation(perm);
  std::vector<bool> hit(map.size(), false);
  for (std::int32_t c = 0; c < upper.cols(); ++c) {
    for (std::int32_t p = upper.col_ptr()[c]; p < upper.col_ptr()[c + 1]; ++p) {
      const auto slot = static_cast<std::size_t>(map[static_cast<std::size_t>(p)]);
      ASSERT_LT(slot, map.size());
      EXPECT_FALSE(hit[slot]);
      hit[slot] = true;
      EXPECT_EQ(permuted.values()[slot], upper.values()[p]);
      const std::int32_t r = upper.row_idx()[p];
      EXPECT_EQ(permuted.row_idx()[slot],
                std::min(inv[static_cast<std::size_t>(r)], inv[static_cast<std::size_t>(c)]));
    }
  }
}

TEST(SparseMatrix, FromCscRejectsMalformedArrays) {
  EXPECT_EQ(SparseMatrix::from_csc(2, 2, {0, 1, 2}, {0, 1}, {1.0, 2.0}).nnz(), 2);
  // Unsorted rows within a column.
  EXPECT_THROW(SparseMatrix::from_csc(2, 1, {0, 2}, {1, 0}, {1.0, 2.0}), PreconditionError);
  // Row out of range, nnz disagreement, short col_ptr.
  EXPECT_THROW(SparseMatrix::from_csc(2, 1, {0, 1}, {2}, {1.0}), PreconditionError);
  EXPECT_THROW(SparseMatrix::from_csc(2, 1, {0, 2}, {0}, {1.0}), PreconditionError);
  EXPECT_THROW(SparseMatrix::from_csc(2, 2, {0, 1}, {0}, {1.0}), PreconditionError);
}

TEST(Ordering, SymmetricPermuteUpperPreservesMatrix) {
  Rng rng(9);
  const auto upper = random_kkt_upper(6, 4, rng);
  const Permutation perm = minimum_degree_ordering(upper);
  const auto permuted = symmetric_permute_upper(upper, perm);
  const DenseMatrix full = full_from_upper(upper);
  const DenseMatrix permuted_full = full_from_upper(permuted);
  const auto inv = invert_permutation(perm);
  for (std::size_t r = 0; r < full.rows(); ++r)
    for (std::size_t c = 0; c < full.cols(); ++c) {
      EXPECT_NEAR(permuted_full(static_cast<std::size_t>(inv[r]),
                                static_cast<std::size_t>(inv[c])),
                  full(r, c), 1e-15);
    }
}

TEST(Ordering, PermuteVectorsRoundTrip) {
  const Permutation perm{2, 0, 1};
  const Vector x{10.0, 20.0, 30.0};
  const Vector forward = permute(x, perm);
  EXPECT_DOUBLE_EQ(forward[0], 30.0);
  const Vector back = permute_inverse(forward, perm);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(back[i], x[i]);
}

class SparseLdltSizeTest : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(SparseLdltSizeTest, SolvesRandomQuasiDefiniteKkt) {
  const auto [n, m] = GetParam();
  Rng rng(200 + static_cast<std::uint64_t>(n * 31 + m));
  const auto upper = random_kkt_upper(n, m, rng);
  SparseLdlt ldlt;
  ASSERT_EQ(ldlt.factor(upper), SparseLdlt::Status::kOk);
  Vector b(static_cast<std::size_t>(n + m));
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  const Vector x = ldlt.solve(b);
  const DenseMatrix full = full_from_upper(upper);
  const Vector ax = full.multiply(x);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_NEAR(ax[i], b[i], 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Shapes, SparseLdltSizeTest,
                         ::testing::Values(std::pair{1, 1}, std::pair{5, 3}, std::pair{10, 10},
                                           std::pair{40, 25}, std::pair{80, 60},
                                           std::pair{150, 100}));

TEST(SparseLdlt, InertiaMatchesQuasiDefiniteBlocks) {
  Rng rng(10);
  const std::int32_t n = 12, m = 8;
  const auto upper = random_kkt_upper(n, m, rng);
  SparseLdlt ldlt;
  ASSERT_EQ(ldlt.factor(upper), SparseLdlt::Status::kOk);
  int positives = 0, negatives = 0;
  for (double d : ldlt.d()) (d > 0 ? positives : negatives)++;
  EXPECT_EQ(positives, n);
  EXPECT_EQ(negatives, m);
}

TEST(SparseLdlt, RefactorWithSamePatternMatchesFreshFactor) {
  Rng rng(11);
  auto upper = random_kkt_upper(10, 6, rng);
  SparseLdlt ldlt;
  ASSERT_EQ(ldlt.factor(upper), SparseLdlt::Status::kOk);
  // Change values, keep the pattern.
  for (double& v : upper.mutable_values()) v *= 1.5;
  ASSERT_EQ(ldlt.refactor(upper), SparseLdlt::Status::kOk);
  Vector b(16);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  const Vector x = ldlt.solve(b);
  const Vector ax = full_from_upper(upper).multiply(x);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_NEAR(ax[i], b[i], 1e-8);
}

TEST(SparseLdlt, RefactorIsBitwiseEqualToFreshFactor) {
  for (std::uint64_t seed : {21u, 22u, 23u}) {
    Rng rng(seed);
    auto upper = random_kkt_upper(40, 25, rng, 0.1);
    const Permutation perm = minimum_degree_ordering(upper);
    SparseLdlt reused;
    ASSERT_EQ(reused.factor(upper, perm), SparseLdlt::Status::kOk);
    for (double& v : upper.mutable_values()) v *= rng.uniform(0.5, 2.0);
    ASSERT_EQ(reused.refactor(upper), SparseLdlt::Status::kOk);
    SparseLdlt fresh;
    ASSERT_EQ(fresh.factor(upper, perm), SparseLdlt::Status::kOk);
    EXPECT_EQ(reused.l_nnz(), fresh.l_nnz());
    EXPECT_TRUE(bits_equal(reused.d(), fresh.d())) << "seed " << seed;
    Vector b(65);
    for (auto& v : b) v = rng.uniform(-1.0, 1.0);
    EXPECT_TRUE(bits_equal(reused.solve(b), fresh.solve(b))) << "seed " << seed;
  }
}

TEST(SparseLdlt, RefactorRejectsChangedPatternAndKeepsOldFactor) {
  Rng rng(24);
  const auto upper = random_kkt_upper(12, 8, rng);
  SparseLdlt ldlt;
  ASSERT_EQ(ldlt.factor(upper), SparseLdlt::Status::kOk);
  Vector b(20);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  const Vector before = ldlt.solve(b);

  // Same size, one extra off-diagonal entry (0, 19) that was structurally
  // zero: the numeric pass must not run on it.
  ASSERT_EQ(upper.coefficient(0, 19), 0.0);
  std::vector<Triplet> triplets;
  for (std::int32_t c = 0; c < upper.cols(); ++c) {
    for (std::int32_t p = upper.col_ptr()[c]; p < upper.col_ptr()[c + 1]; ++p) {
      triplets.push_back({upper.row_idx()[p], c, 2.0 * upper.values()[p]});
    }
  }
  triplets.push_back({0, 19, 0.5});
  const auto changed = SparseMatrix::from_triplets(20, 20, triplets);
  EXPECT_EQ(ldlt.refactor(changed), SparseLdlt::Status::kPatternMismatch);
  ASSERT_EQ(ldlt.status(), SparseLdlt::Status::kOk);
  EXPECT_TRUE(bits_equal(ldlt.solve(b), before));
}

TEST(SparseLdlt, DetectsZeroPivot) {
  // Symmetric singular matrix: [[1, 1], [1, 1]].
  const std::vector<Triplet> triplets{{0, 0, 1.0}, {0, 1, 1.0}, {1, 1, 1.0}};
  const auto upper = SparseMatrix::from_triplets(2, 2, triplets);
  SparseLdlt ldlt;
  EXPECT_EQ(ldlt.factor(upper, identity_permutation(2)), SparseLdlt::Status::kZeroPivot);
}

TEST(SparseLdlt, SolveBeforeFactorThrows) {
  SparseLdlt ldlt;
  Vector b{1.0};
  EXPECT_THROW(ldlt.solve_in_place(b), PreconditionError);
}

TEST(SparseLdlt, AgreesWithDenseLdltOnDiagonal) {
  // Tridiagonal SPD matrix solved both sparse and dense.
  const std::int32_t n = 30;
  std::vector<Triplet> triplets;
  for (std::int32_t i = 0; i < n; ++i) {
    triplets.push_back({i, i, 4.0});
    if (i + 1 < n) triplets.push_back({i, i + 1, -1.0});
  }
  const auto upper = SparseMatrix::from_triplets(n, n, triplets);
  SparseLdlt sparse;
  ASSERT_EQ(sparse.factor(upper), SparseLdlt::Status::kOk);
  Ldlt dense;
  ASSERT_EQ(dense.factor(full_from_upper(upper)), FactorStatus::kOk);
  Rng rng(12);
  Vector b(static_cast<std::size_t>(n));
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  const Vector xs = sparse.solve(b);
  const Vector xd = dense.solve(b);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_NEAR(xs[i], xd[i], 1e-10);
}

}  // namespace
}  // namespace gp::linalg
