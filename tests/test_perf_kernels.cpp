// Tests for the allocation-free ADMM hot loop and its kernels: bitwise
// equivalence of the fused/multi-lane vector_ops kernels against naive
// scalar transcriptions, the zero-heap-allocation contract of the warm
// iteration loop, and the cross-tier SIMD contract — every production
// kernel bit-identical on every available tier (scalar/avx2/avx512), with
// the tail sweep n = 0..17 covering every vector-remainder shape, both SELL
// SpMV orientations bit-identical to the CSC reference products on every
// tier, and dot_reassoc (the one reassociated kernel) inside its documented
// tolerance.
//
// This binary installs counting operator new / operator delete so the
// solver's SolveInfo::hot_loop_allocations field reports real measurements
// (the library never installs the hooks itself — see common/alloc_probe.hpp).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "common/alloc_probe.hpp"
#include "common/rng.hpp"
#include "linalg/simd_dispatch.hpp"
#include "linalg/sparse_ldlt.hpp"
#include "linalg/sparse_matrix.hpp"
#include "linalg/sparse_simd.hpp"
#include "linalg/vector_ops.hpp"
#include "qp/admm_solver.hpp"
#include "qp/ipm_solver.hpp"

// gcc tracks pointers from the replaced (malloc-backed) operator new into
// the replaced (free-backed) operator delete when it inlines gtest's factory
// cleanup paths and misreads the intended malloc/free pairing as mismatched;
// the runtime pairing is consistent, so the warning is a false positive here.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  gp::alloc_probe_bump();
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  gp::alloc_probe_bump();
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace gp {
namespace {

using linalg::SparseMatrix;
using linalg::Triplet;
using linalg::Vector;
using qp::kInfinity;

SparseMatrix random_sparse(std::int32_t rows, std::int32_t cols, double density, Rng& rng) {
  std::vector<Triplet> triplets;
  for (std::int32_t r = 0; r < rows; ++r)
    for (std::int32_t c = 0; c < cols; ++c)
      if (rng.uniform() < density) triplets.push_back({r, c, rng.uniform(-1.0, 1.0)});
  return SparseMatrix::from_triplets(rows, cols, triplets);
}

/// Random vector with a meaningful fraction of EXACT zeros, so the products'
/// zero-term skip path is exercised, not just the dense path.
Vector random_with_zeros(std::size_t size, Rng& rng) {
  Vector v(size);
  for (auto& x : v) x = rng.uniform() < 0.35 ? 0.0 : rng.uniform(-2.0, 2.0);
  return v;
}

/// Bitwise (0 ULP) equality — operator== on doubles would conflate +0.0 with
/// -0.0 and is therefore too weak for the determinism contract.
void expect_bits_equal(const Vector& a, const Vector& b) {
  ASSERT_EQ(a.size(), b.size());
  // memcmp's pointers must be valid even for a zero length; an empty
  // vector's data() may be null, and two empty vectors are trivially equal.
  if (a.size() > 0) {
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0);
  }
}

void expect_bits_equal(double a, double b) {
  std::uint64_t ba, bb;
  std::memcpy(&ba, &a, sizeof(a));
  std::memcpy(&bb, &b, sizeof(b));
  EXPECT_EQ(ba, bb);
}

/// Strictly convex QP with equality, inequality, and unbounded rows, built
/// around a feasible point so the ADMM solve converges.
qp::QpProblem random_feasible_qp(std::size_t n, std::size_t m, Rng& rng) {
  qp::QpProblem problem;
  std::vector<Triplet> p_triplets;
  for (std::size_t i = 0; i < n; ++i) {
    p_triplets.push_back(
        {static_cast<std::int32_t>(i), static_cast<std::int32_t>(i), 2.0 + rng.uniform()});
  }
  problem.p = SparseMatrix::from_triplets(static_cast<std::int32_t>(n),
                                          static_cast<std::int32_t>(n), p_triplets);
  problem.q.assign(n, 0.0);
  for (auto& v : problem.q) v = rng.uniform(-1.0, 1.0);
  std::vector<Triplet> a_triplets;
  for (std::size_t r = 0; r < m; ++r)
    for (std::size_t c = 0; c < n; ++c)
      if (rng.uniform() < 0.4) {
        a_triplets.push_back({static_cast<std::int32_t>(r), static_cast<std::int32_t>(c),
                              rng.uniform(-1.0, 1.0)});
      }
  problem.a = SparseMatrix::from_triplets(static_cast<std::int32_t>(m),
                                          static_cast<std::int32_t>(n), a_triplets);
  Vector x0(n);
  for (auto& v : x0) v = rng.uniform(-1.0, 1.0);
  const Vector ax0 = problem.a.multiply(x0);
  problem.lower.assign(m, 0.0);
  problem.upper.assign(m, 0.0);
  for (std::size_t r = 0; r < m; ++r) {
    problem.lower[r] = ax0[r] - rng.uniform(0.1, 1.0);
    problem.upper[r] = ax0[r] + rng.uniform(0.1, 1.0);
  }
  return problem;
}

// -------------------------------------- multi-lane kernels vs scalar loops

TEST(NormKernels, MultiLaneMatchesScalarReference) {
  for (std::uint64_t seed = 41; seed <= 44; ++seed) {
    Rng rng(seed);
    // Sizes straddling the 4-lane unroll boundary, including the tail cases.
    const auto size = static_cast<std::size_t>(rng.uniform_int(0, 37));
    const Vector a = random_with_zeros(size, rng);
    const Vector b = random_with_zeros(size, rng);
    const Vector c = random_with_zeros(size, rng);
    Vector scale(size);
    for (auto& v : scale) v = rng.uniform(0.25, 4.0);
    const double post = rng.uniform(0.25, 4.0);

    double ref = 0.0;
    for (std::size_t i = 0; i < size; ++i) ref = std::max(ref, std::abs(a[i]));
    expect_bits_equal(ref, linalg::norm_inf(a));

    ref = 0.0;
    for (std::size_t i = 0; i < size; ++i) ref = std::max(ref, std::abs(a[i]) * scale[i]);
    expect_bits_equal(ref, linalg::inf_norm_scaled(a, scale));

    ref = 0.0;
    for (std::size_t i = 0; i < size; ++i) {
      ref = std::max(ref, std::abs(a[i] - b[i]) * scale[i]);
    }
    expect_bits_equal(ref, linalg::inf_norm_scaled_diff(a, b, scale));

    ref = 0.0;
    for (std::size_t i = 0; i < size; ++i) {
      ref = std::max(ref, std::abs(a[i] + b[i] + c[i]) * scale[i] * post);
    }
    expect_bits_equal(ref, linalg::inf_norm_scaled_sum3(a, b, c, scale, post));

    Vector out(size, -1.0), out_ref(size, -1.0);
    ref = 0.0;
    for (std::size_t i = 0; i < size; ++i) {
      out_ref[i] = a[i] - b[i];
      ref = std::max(ref, std::abs(out_ref[i]));
    }
    expect_bits_equal(ref, linalg::diff_norm_inf(a, b, out));
    expect_bits_equal(out_ref, out);
  }
}

TEST(NormKernels, ResidualPairsMatchSeparateReductions) {
  for (std::uint64_t seed = 51; seed <= 54; ++seed) {
    Rng rng(seed);
    const auto size = static_cast<std::size_t>(rng.uniform_int(0, 33));
    const Vector a = random_with_zeros(size, rng);
    const Vector b = random_with_zeros(size, rng);
    const Vector c = random_with_zeros(size, rng);
    Vector scale(size);
    for (auto& v : scale) v = rng.uniform(0.25, 4.0);
    const double post = rng.uniform(0.25, 4.0);

    double res = 0.0, norm = 0.0;
    linalg::inf_norm_scaled_residual(a, b, scale, res, norm);
    expect_bits_equal(linalg::inf_norm_scaled_diff(a, b, scale), res);
    expect_bits_equal(std::max(linalg::inf_norm_scaled(a, scale),
                               linalg::inf_norm_scaled(b, scale)),
                      norm);

    linalg::inf_norm_scaled_residual3(a, b, c, scale, post, res, norm);
    expect_bits_equal(linalg::inf_norm_scaled_sum3(a, b, c, scale, post), res);
    expect_bits_equal(std::max({linalg::inf_norm_scaled(a, scale),
                                linalg::inf_norm_scaled(b, scale),
                                linalg::inf_norm_scaled(c, scale)}) *
                          post,
                      norm);
  }
}

TEST(UpdateKernels, DeltaVariantsMatchPlainKernelPlusExplicitDiff) {
  for (std::uint64_t seed = 61; seed <= 64; ++seed) {
    Rng rng(seed);
    const auto size = static_cast<std::size_t>(rng.uniform_int(1, 35));
    const Vector src = random_with_zeros(size, rng);
    const Vector zc = random_with_zeros(size, rng);
    const Vector zn = random_with_zeros(size, rng);
    Vector rho(size);
    for (auto& v : rho) v = rng.uniform(0.01, 100.0);
    const double alpha = 1.6;

    Vector x_plain = random_with_zeros(size, rng);
    Vector x_fused = x_plain;
    const Vector x_before = x_plain;
    linalg::axpby(alpha, src, 1.0 - alpha, x_plain);
    Vector delta_ref(size), delta(size);
    double ref_norm = 0.0;
    for (std::size_t i = 0; i < size; ++i) {
      delta_ref[i] = x_plain[i] - x_before[i];
      ref_norm = std::max(ref_norm, std::abs(delta_ref[i]));
    }
    const double fused_norm = linalg::axpby_delta(alpha, src, 1.0 - alpha, x_fused, delta);
    expect_bits_equal(x_plain, x_fused);
    expect_bits_equal(delta_ref, delta);
    expect_bits_equal(ref_norm, fused_norm);

    Vector y_plain = random_with_zeros(size, rng);
    Vector y_fused = y_plain;
    const Vector y_before = y_plain;
    linalg::admm_dual_update(rho, zc, zn, y_plain);
    ref_norm = 0.0;
    for (std::size_t i = 0; i < size; ++i) {
      delta_ref[i] = y_plain[i] - y_before[i];
      ref_norm = std::max(ref_norm, std::abs(delta_ref[i]));
    }
    const double y_norm = linalg::admm_dual_update_delta(rho, zc, zn, y_fused, delta);
    expect_bits_equal(y_plain, y_fused);
    expect_bits_equal(delta_ref, delta);
    expect_bits_equal(ref_norm, y_norm);
  }
}

TEST(UpdateKernels, CachedZCandidateMatchesUncached) {
  Rng rng(71);
  const std::size_t size = 29;
  const Vector z_tilde = random_with_zeros(size, rng);
  const Vector z = random_with_zeros(size, rng);
  const Vector y = random_with_zeros(size, rng);
  Vector rho(size);
  for (auto& v : rho) v = rng.uniform(0.01, 100.0);
  Vector y_over_rho(size);
  for (std::size_t i = 0; i < size; ++i) y_over_rho[i] = y[i] / rho[i];

  Vector plain(size), cached(size);
  linalg::admm_z_candidate(1.6, z_tilde, z, y, rho, plain);
  linalg::admm_z_candidate_cached(1.6, z_tilde, z, y_over_rho, cached);
  expect_bits_equal(plain, cached);
}

// ------------------------------------------------ allocation-free hot loop

TEST(AdmmHotLoop, WarmResolveMakesZeroHeapAllocations) {
  Rng rng(81);
  const qp::QpProblem problem = random_feasible_qp(60, 45, rng);
  qp::AdmmSolver solver;

  const auto cold = solver.solve(problem);
  ASSERT_EQ(cold.status, qp::SolveStatus::kOptimal);
  // The hooks in this binary must actually be live, or the contract below
  // would pass vacuously.
  ASSERT_GT(alloc_probe_count(), 0);

  const auto warm = solver.solve(problem);
  ASSERT_EQ(warm.status, qp::SolveStatus::kOptimal);
  EXPECT_TRUE(warm.info.factorization_skipped);
  EXPECT_EQ(warm.info.hot_loop_allocations, 0)
      << "ADMM iteration loop allocated on a warm workspace";
}

TEST(AdmmHotLoop, PolishedWarmResolveMakesZeroHeapAllocations) {
  // Polish rewrites the cached KKT values in place, refactors, solves, and
  // restores and refactors again: a warm re-solve stays allocation-free
  // across loop AND polish, runs no fresh factorization, and leaves the
  // factor bit-identical (so the next solve still skips factorization and
  // reproduces the same answer).
  Rng rng(83);
  const qp::QpProblem problem = random_feasible_qp(60, 45, rng);
  qp::AdmmSettings settings;
  settings.eps_abs = 1e-4;
  settings.eps_rel = 1e-4;
  settings.polish = true;
  qp::AdmmSolver solver(settings);

  const auto cold = solver.solve(problem);
  ASSERT_EQ(cold.status, qp::SolveStatus::kOptimal);
  ASSERT_GT(alloc_probe_count(), 0);
  const long long full_factorizations = solver.cache_stats().full_factorizations;

  const auto warm = solver.solve(problem);
  ASSERT_EQ(warm.status, qp::SolveStatus::kOptimal);
  EXPECT_TRUE(warm.info.factorization_skipped);
  EXPECT_GE(warm.info.factorizations, 2) << "polish did not run";
  EXPECT_EQ(warm.info.hot_loop_allocations, 0)
      << "ADMM loop or polish allocated on a warm workspace";
  EXPECT_EQ(solver.cache_stats().full_factorizations, full_factorizations);
  EXPECT_LE(problem.constraint_violation(warm.x), 1e-9) << "polish was not accepted";
  expect_bits_equal(cold.x, warm.x);
  expect_bits_equal(cold.y, warm.y);

  const auto again = solver.solve(problem);
  EXPECT_TRUE(again.info.factorization_skipped);
  expect_bits_equal(warm.x, again.x);
}

TEST(AdmmHotLoop, WorkspaceReuseAcrossShrinkingProblemsStaysAllocationFree) {
  // A larger solve sizes the workspace; a smaller one must fit inside the
  // existing capacity (vector::assign reuses storage), so even its FIRST
  // iteration loop runs allocation-free after the sizing solve.
  Rng rng(91);
  const qp::QpProblem big = random_feasible_qp(60, 45, rng);
  const qp::QpProblem small = random_feasible_qp(30, 20, rng);
  qp::AdmmSolver solver;
  ASSERT_EQ(solver.solve(big).status, qp::SolveStatus::kOptimal);
  const auto result = solver.solve(small);
  ASSERT_EQ(result.status, qp::SolveStatus::kOptimal);
  EXPECT_EQ(result.info.hot_loop_allocations, 0);
}

TEST(AdmmHotLoop, AdaptiveRhoRefactorIsAllocationFree) {
  // A hair-trigger rho tolerance and tight tolerances make every adaptive
  // check rewrite rho and refactor the KKT inside the iteration loop; the
  // refactor reuses the factor's permutation map and scratch, so the loop
  // still makes zero heap allocations (nothing is excluded for it).
  Rng rng(97);
  qp::QpProblem problem = random_feasible_qp(60, 45, rng);
  qp::AdmmSettings settings;
  settings.adaptive_rho_interval = 25;
  settings.adaptive_rho_tolerance = 1.0 + 1e-9;
  settings.eps_abs = 1e-9;
  settings.eps_rel = 1e-9;
  settings.max_iterations = 400;
  qp::AdmmSolver solver(settings);
  ASSERT_NE(solver.solve(problem).status, qp::SolveStatus::kNumericalError);
  ASSERT_GT(alloc_probe_count(), 0);

  for (double& v : problem.q) v += 0.25;
  const auto adapted = solver.solve(problem);
  ASSERT_NE(adapted.status, qp::SolveStatus::kNumericalError);
  EXPECT_GE(adapted.info.factorizations, 2) << "no in-loop rho refactor happened";
  EXPECT_EQ(adapted.info.hot_loop_allocations, 0)
      << "adaptive-rho refactorization allocated inside the ADMM loop";
}

TEST(AdmmHotLoop, SparseLdltRefactorMakesZeroHeapAllocations) {
  Rng rng(98);
  const qp::QpProblem problem = random_feasible_qp(60, 45, rng);
  std::vector<Triplet> triplets;
  for (std::int32_t c = 0; c < 60; ++c) {
    triplets.push_back({c, c, problem.p.coefficient(c, c)});
    for (std::int32_t p = problem.a.col_ptr()[c]; p < problem.a.col_ptr()[c + 1]; ++p) {
      triplets.push_back({c, 60 + problem.a.row_idx()[p], problem.a.values()[p]});
    }
  }
  for (std::int32_t i = 0; i < 45; ++i) triplets.push_back({60 + i, 60 + i, -10.0});
  SparseMatrix upper = SparseMatrix::from_triplets(105, 105, triplets);
  linalg::SparseLdlt ldlt;
  ASSERT_EQ(ldlt.factor(upper), linalg::SparseLdlt::Status::kOk);
  for (double& v : upper.mutable_values()) v *= 1.5;
  const long long before = alloc_probe_count();
  ASSERT_EQ(ldlt.refactor(upper), linalg::SparseLdlt::Status::kOk);
  EXPECT_EQ(alloc_probe_count() - before, 0);
}

// ------------------------------------------------- cross-tier SIMD contract

namespace simd = linalg::simd;

/// Restores the dispatch tier active at construction (the tests below pin
/// tiers; a failure mid-test must not leak a forced tier into later tests).
struct TierGuard {
  simd::Tier saved = simd::active_tier();
  ~TierGuard() { simd::set_active_tier(saved); }
};

std::vector<simd::Tier> available_tiers() {
  std::vector<simd::Tier> tiers;
  for (simd::Tier t : {simd::Tier::kScalar, simd::Tier::kAvx2, simd::Tier::kAvx512}) {
    if (simd::tier_available(t)) tiers.push_back(t);
  }
  return tiers;
}

/// Everything the production kernels produce for one input set; computed
/// per tier and compared bitwise against the scalar tier.
struct KernelOutputs {
  double norm = 0.0, scaled = 0.0, diff = 0.0, sum3 = 0.0, diff_norm = 0.0;
  double res = 0.0, res_norm = 0.0, res3 = 0.0, res3_norm = 0.0;
  double axpby_norm = 0.0, dual_norm = 0.0;
  Vector diff_out, z_tilde, z_cand, boxed, x, delta_x, y, delta_y;
};

KernelOutputs run_kernel_suite(const Vector& a, const Vector& b, const Vector& c,
                               const Vector& scale, const Vector& rho,
                               const Vector& lower, const Vector& upper, double post) {
  const std::size_t size = a.size();
  KernelOutputs out;
  out.norm = linalg::norm_inf(a);
  out.scaled = linalg::inf_norm_scaled(a, scale);
  out.diff = linalg::inf_norm_scaled_diff(a, b, scale);
  out.sum3 = linalg::inf_norm_scaled_sum3(a, b, c, scale, post);
  out.diff_out.assign(size, -1.0);
  out.diff_norm = linalg::diff_norm_inf(a, b, out.diff_out);
  linalg::inf_norm_scaled_residual(a, b, scale, out.res, out.res_norm);
  linalg::inf_norm_scaled_residual3(a, b, c, scale, post, out.res3, out.res3_norm);
  out.z_tilde.assign(size, -1.0);
  linalg::admm_z_tilde(a, b, c, rho, out.z_tilde);
  Vector y_over_rho(size);
  for (std::size_t i = 0; i < size; ++i) y_over_rho[i] = c[i] / rho[i];
  out.z_cand.assign(size, -1.0);
  linalg::admm_z_candidate_cached(1.6, out.z_tilde, a, y_over_rho, out.z_cand);
  out.boxed.assign(size, -1.0);
  linalg::project_box_into(out.z_cand, lower, upper, out.boxed);
  out.x = a;
  out.delta_x.assign(size, -1.0);
  out.axpby_norm = linalg::axpby_delta(1.6, b, -0.6, out.x, out.delta_x);
  out.y = c;
  out.delta_y.assign(size, -1.0);
  out.dual_norm = linalg::admm_dual_update_delta(rho, out.z_cand, out.boxed, out.y,
                                                 out.delta_y);
  return out;
}

void expect_outputs_bits_equal(const KernelOutputs& ref, const KernelOutputs& got) {
  expect_bits_equal(ref.norm, got.norm);
  expect_bits_equal(ref.scaled, got.scaled);
  expect_bits_equal(ref.diff, got.diff);
  expect_bits_equal(ref.sum3, got.sum3);
  expect_bits_equal(ref.diff_norm, got.diff_norm);
  expect_bits_equal(ref.res, got.res);
  expect_bits_equal(ref.res_norm, got.res_norm);
  expect_bits_equal(ref.res3, got.res3);
  expect_bits_equal(ref.res3_norm, got.res3_norm);
  expect_bits_equal(ref.axpby_norm, got.axpby_norm);
  expect_bits_equal(ref.dual_norm, got.dual_norm);
  expect_bits_equal(ref.diff_out, got.diff_out);
  expect_bits_equal(ref.z_tilde, got.z_tilde);
  expect_bits_equal(ref.z_cand, got.z_cand);
  expect_bits_equal(ref.boxed, got.boxed);
  expect_bits_equal(ref.x, got.x);
  expect_bits_equal(ref.delta_x, got.delta_x);
  expect_bits_equal(ref.y, got.y);
  expect_bits_equal(ref.delta_y, got.delta_y);
}

TEST(SimdTiers, KernelSuiteBitIdenticalAcrossTiersWithTailSweep) {
  TierGuard guard;
  const auto tiers = available_tiers();
  // n = 0 .. 2 * (widest vector) + 1 hits every remainder shape for both the
  // 4-lane and 8-lane kernels (full vectors, partial tails, empty input),
  // plus a few larger sizes for the steady state.
  std::vector<std::size_t> sizes;
  for (std::size_t n = 0; n <= 17; ++n) sizes.push_back(n);
  sizes.insert(sizes.end(), {64, 131});
  for (std::size_t size : sizes) {
    Rng rng(1000 + size);
    const Vector a = random_with_zeros(size, rng);
    const Vector b = random_with_zeros(size, rng);
    const Vector c = random_with_zeros(size, rng);
    Vector scale(size), rho(size), lower(size), upper(size);
    for (auto& v : scale) v = rng.uniform(0.25, 4.0);
    for (auto& v : rho) v = rng.uniform(0.01, 100.0);
    for (std::size_t i = 0; i < size; ++i) {
      lower[i] = rng.uniform() < 0.2 ? -kInfinity : rng.uniform(-1.0, 0.0);
      upper[i] = rng.uniform() < 0.2 ? kInfinity : rng.uniform(0.0, 1.0);
    }
    const double post = rng.uniform(0.25, 4.0);

    ASSERT_EQ(simd::set_active_tier(simd::Tier::kScalar), simd::Tier::kScalar);
    const KernelOutputs ref = run_kernel_suite(a, b, c, scale, rho, lower, upper, post);
    for (simd::Tier t : tiers) {
      ASSERT_EQ(simd::set_active_tier(t), t);
      SCOPED_TRACE(std::string("tier=") + simd::tier_name(t) +
                   " n=" + std::to_string(size));
      expect_outputs_bits_equal(ref,
                                run_kernel_suite(a, b, c, scale, rho, lower, upper, post));
    }
  }
}

TEST(SimdTiers, DotReassocWithinDocumentedTolerance) {
  TierGuard guard;
  for (std::size_t size : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                           std::size_t{17}, std::size_t{1000}}) {
    Rng rng(2000 + size);
    const Vector a = random_with_zeros(size, rng);
    const Vector b = random_with_zeros(size, rng);
    const double exact = linalg::dot(a, b);
    double abs_sum = 0.0;
    for (std::size_t i = 0; i < size; ++i) abs_sum += std::abs(a[i] * b[i]);
    // The documented bound from vector_ops.hpp: |err| <= n * eps * sum|a_i b_i|.
    const double tol = static_cast<double>(size) *
                       std::numeric_limits<double>::epsilon() * abs_sum;
    for (simd::Tier t : available_tiers()) {
      ASSERT_EQ(simd::set_active_tier(t), t);
      SCOPED_TRACE(std::string("tier=") + simd::tier_name(t) +
                   " n=" + std::to_string(size));
      EXPECT_LE(std::abs(linalg::dot_reassoc(a, b) - exact), tol);
    }
  }
}

TEST(SimdTiers, SellMirrorBothOrientationsMatchCscBitwise) {
  TierGuard guard;
  const auto tiers = available_tiers();
  // Shapes straddling the 8-row SELL chunk (partial last chunk, exactly one
  // chunk, many chunks) at densities that leave some rows entirely empty.
  const std::int32_t shapes[][2] = {{1, 1}, {7, 5}, {8, 8}, {9, 3}, {16, 24}, {40, 33}};
  for (const auto& shape : shapes) {
    Rng rng(3000 + static_cast<std::uint64_t>(shape[0]));
    const SparseMatrix a = random_sparse(shape[0], shape[1], 0.2, rng);
    linalg::SellMirror sell, sell_t;
    sell.build(a);
    sell_t.build_transposed(a);
    const Vector x = random_with_zeros(static_cast<std::size_t>(a.cols()), rng);
    const Vector y = random_with_zeros(static_cast<std::size_t>(a.rows()), rng);
    const double alpha = rng.uniform(-2.0, 2.0);

    // The CSC products accumulated from zero: the reference every tier's
    // SELL overwrite must reproduce bit for bit.
    Vector ref_ax(static_cast<std::size_t>(a.rows()), 0.0);
    a.multiply_accumulate(alpha, x, ref_ax);
    Vector ref_aty(static_cast<std::size_t>(a.cols()), 0.0);
    a.multiply_transposed_accumulate(alpha, y, ref_aty);

    for (simd::Tier t : tiers) {
      ASSERT_EQ(simd::set_active_tier(t), t);
      SCOPED_TRACE(std::string("tier=") + simd::tier_name(t) + " shape=" +
                   std::to_string(shape[0]) + "x" + std::to_string(shape[1]));
      Vector ax(static_cast<std::size_t>(a.rows()), -1.0);
      sell.multiply_into(alpha, x, ax);
      expect_bits_equal(ref_ax, ax);
      Vector aty(static_cast<std::size_t>(a.cols()), -1.0);
      sell_t.multiply_into(alpha, y, aty);
      expect_bits_equal(ref_aty, aty);
    }
  }
}

TEST(SimdTiers, SellMirrorUpdateValuesMatchesRebuild) {
  Rng rng(3100);
  const SparseMatrix a = random_sparse(20, 15, 0.3, rng);
  linalg::SellMirror sell;
  sell.build(a);

  SparseMatrix scaled = a;
  Vector row_scale(20), col_scale(15);
  for (auto& v : row_scale) v = rng.uniform(0.5, 2.0);
  for (auto& v : col_scale) v = rng.uniform(0.5, 2.0);
  scaled.scale_rows_cols(row_scale, col_scale);

  ASSERT_TRUE(sell.pattern_matches(scaled));
  sell.update_values(scaled);
  linalg::SellMirror rebuilt;
  rebuilt.build(scaled);
  const Vector x = random_with_zeros(15, rng);
  Vector updated(20, -1.0), fresh(20, -2.0);
  sell.multiply_into(1.0, x, updated);
  rebuilt.multiply_into(1.0, x, fresh);
  expect_bits_equal(fresh, updated);
  // A different shape (or orientation) must NOT pattern-match.
  const SparseMatrix other = random_sparse(15, 20, 0.3, rng);
  EXPECT_FALSE(sell.pattern_matches(other));
}

TEST(SimdTiers, SellMirrorDegenerateShapes) {
  TierGuard guard;
  // All-zero matrix (every row empty -> zero-width chunks) and an empty
  // pattern: products must still produce exact zeros on every tier.
  const SparseMatrix zero = SparseMatrix::from_triplets(11, 4, {});
  linalg::SellMirror sell, sell_t;
  sell.build(zero);
  sell_t.build_transposed(zero);
  const Vector x(4, 3.0), y(11, 2.0);
  for (simd::Tier t : available_tiers()) {
    ASSERT_EQ(simd::set_active_tier(t), t);
    Vector ax(11, -1.0), aty(4, -1.0);
    sell.multiply_into(2.0, x, ax);
    sell_t.multiply_into(2.0, y, aty);
    for (double v : ax) expect_bits_equal(0.0, v);
    for (double v : aty) expect_bits_equal(0.0, v);
  }
}

TEST(SimdTiers, FullAdmmSolveBitIdenticalAcrossTiers) {
  TierGuard guard;
  Rng rng(3200);
  const qp::QpProblem problem = random_feasible_qp(40, 30, rng);
  ASSERT_EQ(simd::set_active_tier(simd::Tier::kScalar), simd::Tier::kScalar);
  qp::AdmmSolver scalar_solver;
  const auto ref = scalar_solver.solve(problem);
  ASSERT_EQ(ref.status, qp::SolveStatus::kOptimal);
  for (simd::Tier t : available_tiers()) {
    ASSERT_EQ(simd::set_active_tier(t), t);
    SCOPED_TRACE(simd::tier_name(t));
    qp::AdmmSolver solver;  // fresh: no cross-tier cache reuse in the test
    const auto got = solver.solve(problem);
    ASSERT_EQ(got.status, qp::SolveStatus::kOptimal);
    EXPECT_EQ(got.iterations, ref.iterations);
    expect_bits_equal(ref.x, got.x);
    expect_bits_equal(ref.y, got.y);
  }
}

TEST(SimdDispatch, TierNamesRoundTripAndActivationClamps) {
  TierGuard guard;
  for (simd::Tier t : {simd::Tier::kScalar, simd::Tier::kAvx2, simd::Tier::kAvx512}) {
    EXPECT_EQ(simd::tier_from_name(simd::tier_name(t)), t);
  }
  EXPECT_THROW((void)simd::tier_from_name("sse42"), std::exception);
  EXPECT_THROW((void)simd::tier_from_name(""), std::exception);
  // Scalar is always available; a request above the hardware clamps DOWN to
  // an available tier and reports what it actually activated.
  EXPECT_EQ(simd::set_active_tier(simd::Tier::kScalar), simd::Tier::kScalar);
  const simd::Tier got = simd::set_active_tier(simd::Tier::kAvx512);
  EXPECT_TRUE(simd::tier_available(got));
  EXPECT_LE(static_cast<int>(got), static_cast<int>(simd::Tier::kAvx512));
  EXPECT_EQ(got, simd::active_tier());
  EXPECT_TRUE(simd::tier_available(simd::Tier::kScalar));
  EXPECT_LE(static_cast<int>(simd::detected_tier()),
            static_cast<int>(simd::Tier::kAvx512));
}

// ------------------------------------------------------- IPM structure cache

TEST(IpmCache, CachedResolveBitIdenticalToFreshSolver) {
  Rng rng(101);
  const qp::QpProblem problem = random_feasible_qp(25, 18, rng);

  qp::IpmSolver caching;
  const auto first = caching.solve(problem);
  ASSERT_EQ(first.status, qp::SolveStatus::kOptimal);
  const auto cached = caching.solve(problem);  // structure-cache hit
  ASSERT_EQ(cached.status, qp::SolveStatus::kOptimal);

  qp::IpmSolver fresh;
  const auto reference = fresh.solve(problem);
  ASSERT_EQ(reference.status, qp::SolveStatus::kOptimal);
  expect_bits_equal(reference.x, cached.x);
  expect_bits_equal(reference.y, cached.y);
}

}  // namespace
}  // namespace gp
