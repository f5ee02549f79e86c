// Micro-benchmark of the ADMM solver and its sparse kernels
// (BENCH_admm.json).
//
// Three experiments on a fig06-scale window QP (the Section VII environment,
// 4 data centers x 24 cities, prediction horizon K = 20):
//
//  1. Full solver once per AVAILABLE SIMD tier (scalar / avx2 / avx512,
//     forced via simd::set_active_tier), each on a fresh AdmmSolver: a cold
//     solve (structure build) and a warm re-solve (structure +
//     factorization reuse) with ns/iteration and the alloc-probe count of
//     heap allocations inside the hot loop. This binary installs operator
//     new/delete hooks, so every warm count must be exactly zero. The tier
//     only picks the kernels, so iterations, x and y must be BIT-identical
//     across tiers; the entry tier's run is the headline solver.cold /
//     solver.warm. dot_reassoc, the one documented-tolerance kernel, gets a
//     cross-check lane against the exact single-chain dot instead.
//  2. SpMV bandwidth: cold CSC A^T y (allocating, column-gather) vs the SELL
//     mirrors the solver runs, A x and A^T y on each tier, in effective GB/s
//     with bytes = 12 * nnz + 8 * (rows + cols) per product, bitwise-checked
//     against the CSC products. On hardware with a vector tier, the best
//     vector SELL pair must beat the scalar SELL pair (what a scalar-tier
//     solve runs) by >= 1.25x (the floor travels as
//     spmv.vector_speedup_min, 0.0 — i.e. informational — when no vector
//     ISA is available).
//
// The `wall_ms` / `gb_s` keys in BENCH_admm.json are the ones
// tools/bench_check.py gates on in pair mode, and spmv.vector_speedup_min is
// the floor `bench_check.py --internal` enforces; other ratios and counters
// are informational.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <vector>

#include "common/alloc_probe.hpp"
#include "dspp/window_program.hpp"
#include "harness.hpp"
#include "linalg/simd_dispatch.hpp"
#include "linalg/sparse_simd.hpp"
#include "linalg/vector_ops.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "qp/admm_solver.hpp"
#include "scenario/registry.hpp"

// Route every heap allocation through the alloc probe so hot-loop allocation
// counts are real measurements, not estimates. The library never installs
// these hooks itself; opting in is this binary's job.
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

namespace {

using gp::bench::Clock;
using gp::bench::ms_since;
using gp::linalg::Vector;

/// The fig06-scale window program: full Section VII environment at the
/// longest horizon family of Fig. 6 (K = 20).
gp::dspp::WindowProgram build_window(std::size_t horizon) {
  static gp::scenario::ScenarioBundle scenario =
      gp::scenario::build(gp::scenario::section7_spec(4, 24));
  const gp::dspp::PairIndex pairs(scenario.model);
  gp::dspp::WindowInputs inputs;
  inputs.initial_state = Vector(pairs.num_pairs(), 0.0);
  for (std::size_t t = 0; t < horizon; ++t) {
    const double utc_hour = 0.5 * static_cast<double>(t) + 0.5;
    inputs.demand.push_back(scenario.demand.mean_rates(utc_hour));
    inputs.price.push_back(scenario.prices.server_prices(utc_hour));
  }
  return {scenario.model, pairs, std::move(inputs)};
}

/// Deterministic pseudo-random vector in [-0.5, 0.5). splitmix64-style.
Vector synth_vector(std::size_t size, std::uint64_t seed) {
  Vector out(size);
  std::uint64_t s = seed;
  for (double& v : out) {
    s += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = s;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    v = static_cast<double>((z ^ (z >> 31)) >> 11) * 0x1.0p-53 - 0.5;
  }
  return out;
}

/// Bitwise (0 ULP) equality; operator== would conflate +0.0 with -0.0.
bool same_bits(const Vector& a, const Vector& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Same iteration count and bitwise-equal x and y.
bool same_result(const gp::qp::QpResult& a, const gp::qp::QpResult& b) {
  return a.iterations == b.iterations && same_bits(a.x, b.x) && same_bits(a.y, b.y);
}

/// A cold solve on a fresh solver, then a timed warm re-solve of the same
/// problem (structure cache and factorization reuse).
struct SolverRun {
  gp::qp::QpResult cold, warm;
  double cold_ms = 0.0, warm_ms = 0.0;
  double warm_ns_per_iteration() const {
    return warm.iterations > 0 ? warm_ms * 1e6 / warm.iterations : 0.0;
  }
};

SolverRun cold_then_warm(gp::qp::AdmmSolver& solver, const gp::qp::QpProblem& problem) {
  SolverRun run;
  auto start = Clock::now();
  run.cold = solver.solve(problem);
  run.cold_ms = ms_since(start);
  start = Clock::now();
  run.warm = solver.solve(problem);
  run.warm_ms = ms_since(start);
  return run;
}

/// Effective bandwidth of one sparse product in GB/s: values (8 B) and
/// column/row indices (4 B) per nonzero, plus reading the input and writing
/// the output vector once each.
double gbps(const gp::linalg::SparseMatrix& a, double wall_ms, int reps) {
  const double bytes = 12.0 * static_cast<double>(a.nnz()) +
                       8.0 * static_cast<double>(a.rows() + a.cols());
  return bytes * static_cast<double>(reps) / (wall_ms * 1e-3) / 1e9;
}

}  // namespace

int main() {
  namespace simd = gp::linalg::simd;
  constexpr std::size_t kHorizon = 20;
  constexpr int kSpmvReps = 400;

  // The tier the dispatcher picked at startup (GEOPLACE_SIMD respected);
  // every forced-tier experiment below restores it when done.
  const simd::Tier entry_tier = simd::active_tier();
  std::vector<simd::Tier> tiers;
  for (simd::Tier t : {simd::Tier::kScalar, simd::Tier::kAvx2, simd::Tier::kAvx512}) {
    if (simd::tier_available(t)) tiers.push_back(t);
  }

  const gp::dspp::WindowProgram program = build_window(kHorizon);
  const gp::qp::QpProblem& problem = program.problem();
  const std::size_t n = problem.num_variables();
  const std::size_t m = problem.num_constraints();
  // The iteration loop alone, at 1e-6 and unpolished: a polish would fold
  // its refactors into every per-iteration figure below.
  const gp::qp::AdmmSettings settings{.eps_abs = 1e-6, .eps_rel = 1e-6, .polish = false};

  // --- 1. Full solver, once per tier on a fresh solver (no cross-tier
  //        cache reuse): a cold solve, then a warm structure-cache re-solve.
  //        The entry tier's run is the headline solver.cold / solver.warm.
  struct TierSolve {
    simd::Tier tier = simd::Tier::kScalar;
    SolverRun run;
  };
  std::vector<TierSolve> tier_solves;
  long long obs_allocs = 0;
  long long obs_spmv_ns = 0;
  double obs_spmv_gb_s = 0.0;
  for (simd::Tier t : tiers) {
    simd::set_active_tier(t);
    gp::qp::AdmmSolver solver(settings);
    tier_solves.push_back({t, cold_then_warm(solver, problem)});
    if (t != entry_tier) continue;
    // Instrumented re-solve: the obs counters the trace tooling watches.
    auto& registry = gp::obs::Registry::global();
    const bool registry_was_enabled = registry.enabled();
    registry.set_enabled(true);
    registry.reset_values();
    (void)solver.solve(problem);
    obs_allocs = registry.counter("admm.allocs").value();
    obs_spmv_ns = registry.counter("admm.spmv_ns").value();
    obs_spmv_gb_s = registry.gauge("admm.spmv_gb_s").value();
    registry.set_enabled(registry_was_enabled);
  }
  simd::set_active_tier(entry_tier);
  const SolverRun* entry_ptr = nullptr;
  bool tiers_identical = true;
  bool tier_allocs_zero = true;
  const SolverRun& ref = tier_solves.front().run;
  for (const TierSolve& ts : tier_solves) {
    if (ts.tier == entry_tier) entry_ptr = &ts.run;
    tiers_identical = tiers_identical && same_result(ts.run.cold, ref.cold) &&
                      same_result(ts.run.warm, ref.warm);
    tier_allocs_zero = tier_allocs_zero && ts.run.warm.info.hot_loop_allocations == 0;
  }
  const SolverRun& entry = *entry_ptr;  // the entry tier is always available
  const bool solves_ok = entry.cold.ok() && entry.warm.ok();

  // --- 1b. dot_reassoc cross-check lane: the one reassociated (documented-
  //         tolerance) kernel, checked on every tier against the exact
  //         single-chain dot with the bound |err| <= n * eps * sum|a_i b_i|.
  const Vector dot_a = synth_vector(n + m, 101);
  const Vector dot_b = synth_vector(n + m, 202);
  const double dot_exact = gp::linalg::dot(dot_a, dot_b);
  double dot_abs_sum = 0.0;
  for (std::size_t i = 0; i < dot_a.size(); ++i) {
    dot_abs_sum += std::abs(dot_a[i] * dot_b[i]);
  }
  const double dot_tolerance = static_cast<double>(dot_a.size()) *
                               std::numeric_limits<double>::epsilon() * dot_abs_sum;
  double dot_max_err = 0.0;
  for (simd::Tier t : tiers) {
    simd::set_active_tier(t);
    dot_max_err = std::max(dot_max_err,
                           std::abs(gp::linalg::dot_reassoc(dot_a, dot_b) - dot_exact));
  }
  simd::set_active_tier(entry_tier);
  const bool dot_ok = dot_max_err <= dot_tolerance;

  // --- 2. SpMV bandwidth: cold CSC A^T vs the SELL mirrors on every tier
  //        (both orientations, bitwise-checked against the CSC products). ---
  gp::linalg::SellMirror a_sell, at_sell;
  a_sell.build(problem.a);
  at_sell.build_transposed(problem.a);
  const Vector yv = synth_vector(m, 7);
  const Vector xv = synth_vector(n, 9);
  Vector ref_ax(m, 0.0), ref_aty(n, 0.0);
  problem.a.multiply_accumulate(1.0, xv, ref_ax);
  problem.a.multiply_transposed_accumulate(1.0, yv, ref_aty);
  Vector sell_n(n, 0.0), sell_m(m, 0.0);
  double guard = 0.0;

  auto t0 = Clock::now();
  for (int r = 0; r < kSpmvReps; ++r) {
    const Vector aty = problem.a.multiply_transposed(yv);
    guard += aty[static_cast<std::size_t>(r) % n];
  }
  const double csc_at_ms = ms_since(t0);

  // SELL per tier: the layout is tier-independent, only the kernel changes.
  struct TierSpmv {
    simd::Tier tier = simd::Tier::kScalar;
    double ax_ms = 0.0, at_ms = 0.0;
  };
  std::vector<TierSpmv> tier_spmv;
  bool sell_identical = true;
  for (simd::Tier t : tiers) {
    simd::set_active_tier(t);
    TierSpmv row;
    row.tier = t;
    a_sell.multiply_into(1.0, xv, sell_m);
    at_sell.multiply_into(1.0, yv, sell_n);
    sell_identical = sell_identical && same_bits(sell_m, ref_ax) && same_bits(sell_n, ref_aty);
    t0 = Clock::now();
    for (int r = 0; r < kSpmvReps; ++r) {
      a_sell.multiply_into(1.0, xv, sell_m);
      guard += sell_m[static_cast<std::size_t>(r) % m];
    }
    row.ax_ms = ms_since(t0);
    t0 = Clock::now();
    for (int r = 0; r < kSpmvReps; ++r) {
      at_sell.multiply_into(1.0, yv, sell_n);
      guard += sell_n[static_cast<std::size_t>(r) % n];
    }
    row.at_ms = ms_since(t0);
    tier_spmv.push_back(row);
  }
  simd::set_active_tier(entry_tier);

  // Machine-aware bandwidth gate: the best vector SELL pair against the
  // scalar SELL pair (one Ax + one A^T y — the per-check work the solver's
  // residual section does). 0.0 floor = informational only.
  double scalar_pair_ms = 0.0;
  double best_vector_pair_ms = 0.0;
  for (const TierSpmv& row : tier_spmv) {
    const double pair = row.ax_ms + row.at_ms;
    if (row.tier == simd::Tier::kScalar) {
      scalar_pair_ms = pair;
    } else if (best_vector_pair_ms == 0.0 || pair < best_vector_pair_ms) {
      best_vector_pair_ms = pair;
    }
  }
  const bool has_vector_tier = simd::tier_available(simd::Tier::kAvx2) ||
                               simd::tier_available(simd::Tier::kAvx512);
  const double vector_speedup =
      best_vector_pair_ms > 0.0 ? scalar_pair_ms / best_vector_pair_ms : 0.0;
  std::printf("# spmv guard %.3g\n", guard);  // keeps the timed products live

  gp::bench::Report report("BENCH_admm.json",
                           gp::obs::RunManifest::capture("micro_admm_kernels"));
  report.object("problem", {{"n", n}, {"m", m}, {"nnz_a", problem.a.nnz()},
                            {"nnz_p", problem.p.nnz()}, {"horizon", kHorizon}});
  report.object("simd", {{"detected", simd::tier_name(simd::detected_tier())},
                         {"active", simd::tier_name(entry_tier)}});
  report.object("kernels");
  report.object("dot_reassoc", {{"max_abs_err", dot_max_err},
                                {"tolerance", dot_tolerance},
                                {"within_tolerance", dot_ok}});
  report.end();
  report.object("solver");
  report.object("cold", {{"wall_ms", entry.cold_ms},
                         {"iterations", entry.cold.iterations},
                         {"hot_loop_allocations", entry.cold.info.hot_loop_allocations}});
  report.object("warm", {{"wall_ms", entry.warm_ms},
                         {"iterations", entry.warm.iterations},
                         {"hot_loop_allocations", entry.warm.info.hot_loop_allocations},
                         {"ns_per_iteration", entry.warm_ns_per_iteration()},
                         {"factorization_skipped", entry.warm.info.factorization_skipped}});
  report.object("obs", {{"admm_allocs", obs_allocs},
                        {"admm_spmv_ns", obs_spmv_ns},
                        {"admm_spmv_gb_s", obs_spmv_gb_s}});
  report.object("tiers");
  for (const TierSolve& ts : tier_solves) {
    report.object(simd::tier_name(ts.tier),
                  {{"wall_ms", ts.run.warm_ms},
                   {"ns_per_iteration", ts.run.warm_ns_per_iteration()},
                   {"hot_loop_allocations", ts.run.warm.info.hot_loop_allocations}});
  }
  report.end();
  report.record("bit_identical_across_tiers", tiers_identical);
  report.end();
  auto record_spmv = [&](const char* key, double wall_ms) {
    report.object(key, {{"wall_ms", wall_ms}, {"gb_s", gbps(problem.a, wall_ms, kSpmvReps)}});
  };
  report.object("spmv");
  report.record("reps", kSpmvReps);
  record_spmv("csc_at", csc_at_ms);
  report.object("sell");
  for (const TierSpmv& row : tier_spmv) {
    report.object(simd::tier_name(row.tier));
    record_spmv("ax", row.ax_ms);
    record_spmv("at", row.at_ms);
    report.end();
  }
  report.end();
  report.record("sell_bit_identical", sell_identical);
  report.floor("vector_speedup", vector_speedup, has_vector_tier ? 1.25 : 0.0);
  report.end();

  // Gate: cross-tier bit-identity (real solves and SELL products), the
  // vector SpMV floor above, the dot_reassoc tolerance lane, zero warm
  // hot-loop allocations on every tier, and the entry tier's solves
  // reaching optimality.
  report.check("solver_bit_identical_across_tiers", tiers_identical);
  report.check("sell_bit_identical", sell_identical);
  report.check("dot_reassoc_within_tolerance", dot_ok);
  report.check("warm_hot_loop_allocs_zero", tier_allocs_zero);
  report.check("solves_ok", solves_ok);
  return report.finish();
}
