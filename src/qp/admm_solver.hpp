// Operator-splitting QP solver in the style of OSQP
// (Stellato et al., "OSQP: an operator splitting solver for quadratic
// programs"), built on this library's sparse LDL^T.
//
// Each iteration solves one quasi-definite KKT system
//
//   [[ P + sigma I , A^T        ]  [x~]   [ sigma x - q      ]
//    [ A           , -diag(1/rho)]] [nu] = [ z - diag(1/rho) y ]
//
// whose factorization is computed once and reused (and recomputed only when
// rho adapts). Equality rows receive a stiffer rho than inequality rows.
// The optional polish step re-solves the detected active set through the
// same factor, with the KKT values rewritten in place (see
// AdmmSettings::polish).
// The solver reports unscaled primal/dual solutions, residuals, and detects
// primal/dual infeasibility via the standard certificate conditions.
#pragma once

#include "linalg/sparse_ldlt.hpp"
#include "linalg/sparse_simd.hpp"
#include "qp/scaling.hpp"
#include "qp/solver.hpp"

namespace gp::qp {

/// Tuning knobs for AdmmSolver. The step-size, relaxation and adaptation
/// defaults follow OSQP's. The defaults stop at 1e-4 (OSQP: 1e-3) and
/// polish: the polished point is a near-exact KKT point, so the loose stop
/// keeps a tight solve's objective and duals at a fraction of the
/// iterations (tests/test_accuracy bounds the MPC's end-to-end cost gap
/// against a 1e-8 reference). Set polish = false for the raw first-order
/// iterate, with eps tightened to match.
struct AdmmSettings {
  double rho = 0.1;              ///< initial step size for inequality rows
  double rho_equality_scale = 1e3;  ///< equality rows use rho * this
  double sigma = 1e-6;           ///< primal regularization
  double alpha = 1.6;            ///< over-relaxation in (0, 2)
  double eps_abs = 1e-4;         ///< absolute tolerance
  double eps_rel = 1e-4;         ///< relative tolerance
  double eps_infeasible = 1e-7;  ///< certificate tolerance
  int max_iterations = 20000;
  int check_interval = 25;       ///< residual / certificate check cadence
  bool adaptive_rho = true;
  int adaptive_rho_interval = 100;
  double adaptive_rho_tolerance = 5.0;  ///< refactor when rho moves this much
  bool scale_problem = true;
  int scaling_iterations = 10;
  /// Reuse the previous solve's (x, y) as the starting iterate when the
  /// problem dimensions match. Receding-horizon callers (the MPC loop, the
  /// game's best responses) solve near-identical problems back to back;
  /// warm starts typically cut iterations severalfold there.
  bool auto_warm_start = false;
  /// After convergence, refine the solution by solving the equality-
  /// constrained QP on the detected active set (OSQP's "polish" step):
  /// turns the first-order iterate (eps-accurate) into a near-exact KKT
  /// point, which sharpens the capacity duals the competition game consumes
  /// and lets loose tolerances keep the tight solve's plan cost. The reduced
  /// system is solved in scaled space through the solver's own KKT factor:
  /// its values are rewritten in place (regularized active rows, decoupled
  /// inactive rows), refactored on the cached pattern, refined against the
  /// unregularized system, and then restored and refactored bit for bit —
  /// no new ordering, symbolic analysis or heap allocation. The active set
  /// is guessed from the iterate's duals, then corrected for up to nine more
  /// solves: rows the polished point violates join it (a loose iterate can
  /// hold x_i > 0 with a dual of exactly 0), rows held with a wrong-sign
  /// dual leave it. The polish is accepted only when the active set has
  /// settled and the KKT residuals actually drop. A rejected polish (a
  /// degenerate LP vertex, say) resumes the loop from its iterate at
  /// eps / 100 and returns that iterate instead of the loose one.
  bool polish = true;
  double polish_regularization = 1e-9;
  int polish_refinement_steps = 3;
  /// Cache the solver's structural work (Ruiz scaling, AMD ordering,
  /// symbolic analysis of the KKT matrix) across solve() calls on the SAME
  /// solver instance. When the next problem has the identical (P, A)
  /// sparsity pattern — the receding-horizon and best-response case, where
  /// only q/bounds (and possibly matrix values) change — setup reduces to a
  /// numeric refactorization; when the KKT values are also unchanged, the
  /// previous factorization is reused outright. A pattern change falls back
  /// to the full setup transparently.
  bool cache_structure = true;
};

/// Solver-owned scratch for the ADMM iteration: every per-iteration vector
/// lives here, sized once per problem shape and reused across solves (and
/// across WindowProgram::update re-solves). After the sizing solve, the
/// iteration loop and the polish (which borrows the idle vectors) perform
/// ZERO heap allocations — enforced by the alloc-probe test
/// (tests/test_perf_kernels) and reported per solve in
/// SolveInfo::hot_loop_allocations.
struct AdmmWorkspace {
  linalg::Vector x, z, y;              // scaled iterates
  linalg::Vector rhs;                  // KKT right-hand side, size n + m
  linalg::Vector z_tilde, z_candidate, z_next;
  linalg::Vector ax, px, aty;          // residual products
  linalg::Vector delta_x, delta_y;     // certificate deltas
  linalg::Vector at_dy, p_dx, a_dx;    // certificate products
  linalg::Vector rho;                  // per-row step sizes
  linalg::Vector y_over_rho;           // y / rho, computed once per iteration
  linalg::Vector inv_d, inv_e;         // reciprocal scalings for residuals
  /// (Re)sizes every buffer and zeroes the iterates. std::vector::assign
  /// reuses capacity, so this allocates only when the shape grows.
  void resize(std::size_t n, std::size_t m);
};

/// Counters describing how much setup work the structure cache avoided.
struct AdmmCacheStats {
  long long solves = 0;
  long long structure_hits = 0;        ///< solves that reused scaling + symbolic analysis
  long long full_factorizations = 0;   ///< fresh ordering + symbolic + numeric factors
  long long refactorizations = 0;      ///< numeric-only factors (incl. in-solve rho updates)
  long long factorizations_skipped = 0;///< solves that reused the cached factor unchanged
};

/// Sparse first-order QP solver (see file comment).
class AdmmSolver final : public QpSolver {
 public:
  AdmmSolver() = default;
  explicit AdmmSolver(AdmmSettings settings) : settings_(settings) {}

  QpResult solve(const QpProblem& problem) override;

  /// Provides an explicit starting point for the NEXT solve (unscaled
  /// primal x of size n and dual y of size m). Cleared after use.
  void warm_start(linalg::Vector x, linalg::Vector y);

  /// Drops any cached or pending warm-start state.
  void reset_warm_start();

  /// Drops the cached scaling/ordering/factorization; the next solve runs
  /// the full setup. (Also called internally when the pattern changes.)
  void invalidate_cache();

  const AdmmSettings& settings() const { return settings_; }

  /// Setup-reuse counters since construction (see AdmmCacheStats).
  const AdmmCacheStats& cache_stats() const { return cache_stats_; }

 private:
  QpResult solve_with(const QpProblem& original, bool use_cache);
  bool cache_matches(const QpProblem& problem) const;
  /// Polishes the converged scaled iterate in workspace_ (see
  /// AdmmSettings::polish). On acceptance returns true, leaves the polished
  /// scaled (x, y) in workspace_.delta_x / delta_y and its unscaled KKT
  /// residuals in `result`. Always leaves kkt_ and kkt_upper_ as it found them.
  bool polish(const QpProblem& original, const QpProblem& problem, const Scaling& scaling,
              QpResult& result);

  AdmmSettings settings_;
  linalg::Vector warm_x_;  // unscaled; empty = none
  linalg::Vector warm_y_;

  // --- Structure cache (see AdmmSettings::cache_structure). ---
  bool has_cache_ = false;
  // Sparsity patterns of the LAST problem solved (scaling preserves them).
  std::vector<std::int32_t> cached_p_col_ptr_, cached_p_row_idx_;
  std::vector<std::int32_t> cached_a_col_ptr_, cached_a_row_idx_;
  // Scaled matrix values backing kkt_'s current factorization, for the
  // values-unchanged fast path.
  linalg::Vector cached_p_values_, cached_a_values_;
  Scaling cached_scaling_;
  linalg::Vector cached_rho_;               // per-row rho kkt_ was factored with
  std::vector<std::uint8_t> cached_row_class_;  // 0 ineq / 1 equality / 2 unbounded
  linalg::SparseLdlt kkt_;                  // persistent across solves
  // KKT upper triangle backing kkt_'s current factorization. Kept so the
  // in-solve adaptive-rho refactorization can rewrite the -1/rho diagonal
  // in place (each -1/rho_i is the LAST entry of column n+i, because every
  // A^T-block row in that column is < n) instead of reassembling triplets.
  linalg::SparseMatrix kkt_upper_;
  // Position in kkt_upper_'s values of each scaled A entry (A^T block), so
  // polish can restore the rows it decoupled. Built with each fresh
  // factorization (new structure) when polish is on.
  std::vector<std::int32_t> a_kkt_position_;
  // SELL mirrors of the SCALED constraint matrix (A and A^T orientations):
  // every residual, certificate and warm-start product runs through them.
  // Pattern built once per structure, values refreshed allocation-free per
  // solve. The SIMD tier only picks the kernel; all tiers are bit-identical
  // (see sparse_simd.hpp), so tier choice never changes solver results.
  linalg::SellMirror a_sell_;
  linalg::SellMirror at_sell_;
  AdmmWorkspace workspace_;
  AdmmCacheStats cache_stats_;
};

}  // namespace gp::qp
