// Abstract QP solver interface plus the shared result type.
//
// Two implementations are provided: AdmmSolver (sparse, operator-splitting,
// the production path) and IpmSolver (dense Mehrotra predictor-corrector,
// used for cross-validation and small problems). Both report primal AND dual
// solutions; the duals of the data-center capacity rows are the lambda^{il}
// prices that drive the competition game's quota updates (Algorithm 2).
#pragma once

#include <string>

#include "qp/problem.hpp"

namespace gp::qp {

/// Outcome of a solve. Expected run-time results, not exceptions.
enum class SolveStatus {
  kOptimal,
  kMaxIterations,      // best iterate returned, tolerances not met
  kPrimalInfeasible,   // certificate of primal infeasibility found
  kDualInfeasible,     // certificate of dual infeasibility (unbounded below)
  kNumericalError,
};

/// Human-readable status name.
std::string to_string(SolveStatus status);

/// How much setup work ONE solve performed — the per-call companion of the
/// lifetime AdmmCacheStats, so structure-cache effectiveness is queryable
/// from any result without the obs registry. IpmSolver factors its KKT
/// system once per Mehrotra iteration and never caches.
struct SolveInfo {
  int factorizations = 0;      ///< numeric factorizations in this solve
                               ///< (full or symbolic-reusing, incl. in-solve
                               ///< rho-adaptation refactors)
  int cache_hits = 0;          ///< 1 when cached scaling + symbolic analysis
                               ///< were reused (AdmmSolver structure hit)
  bool factorization_skipped = false;  ///< cached factor reused outright
  long long hot_loop_allocations = 0;  ///< heap allocations observed inside the
                                       ///< ADMM iteration loop (alloc probe
                                       ///< delta minus excluded trace/recorder
                                       ///< segments; stays 0 unless the binary
                                       ///< installs the gp::alloc_probe hook)
  long long residual_spmv_ns = 0;      ///< wall ns spent in the residual /
                                       ///< certificate sparse products at the
                                       ///< check cadence (recorded only when
                                       ///< the metrics registry is enabled)
};

/// Primal/dual solution of a QpProblem.
struct QpResult {
  SolveStatus status = SolveStatus::kNumericalError;
  linalg::Vector x;           ///< primal solution, size n
  linalg::Vector y;           ///< constraint duals, size m (y>0 pushes on upper bound)
  double objective = 0.0;
  int iterations = 0;
  double primal_residual = 0.0;
  double dual_residual = 0.0;
  SolveInfo info;             ///< setup-work accounting for this solve

  bool ok() const { return status == SolveStatus::kOptimal; }
};

/// Interface shared by the ADMM and IPM solvers.
class QpSolver {
 public:
  virtual ~QpSolver() = default;

  /// Solves the given problem. Implementations must not retain references to
  /// `problem` past the call.
  virtual QpResult solve(const QpProblem& problem) = 0;
};

}  // namespace gp::qp
