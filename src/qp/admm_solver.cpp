#include "qp/admm_solver.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/alloc_probe.hpp"
#include "common/error.hpp"
#include "obs/audit.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"

namespace gp::qp {

namespace {

using linalg::SparseLdlt;
using linalg::SparseMatrix;
using linalg::Triplet;
using linalg::Vector;

/// Assembles the upper triangle of [[P + sigma I, A^T], [A, -diag(1/rho)]].
SparseMatrix build_kkt_upper(const SparseMatrix& p, const SparseMatrix& a, double sigma,
                             std::span<const double> rho) {
  const std::int32_t n = p.rows();
  const std::int32_t m = a.rows();
  std::vector<Triplet> triplets;
  triplets.reserve(static_cast<std::size_t>(p.nnz() + a.nnz()) + static_cast<std::size_t>(n + m));

  // Upper triangle of P.
  const auto p_col = p.col_ptr();
  const auto p_row = p.row_idx();
  const auto p_val = p.values();
  for (std::int32_t c = 0; c < n; ++c) {
    for (std::int32_t idx = p_col[c]; idx < p_col[c + 1]; ++idx) {
      if (p_row[idx] <= c) triplets.push_back({p_row[idx], c, p_val[idx]});
    }
  }
  // sigma I (summed with P's diagonal by from_triplets).
  for (std::int32_t i = 0; i < n; ++i) triplets.push_back({i, i, sigma});
  // A^T block sits at rows [0, n), columns [n, n+m).
  const auto a_col = a.col_ptr();
  const auto a_row = a.row_idx();
  const auto a_val = a.values();
  for (std::int32_t c = 0; c < a.cols(); ++c) {
    for (std::int32_t idx = a_col[c]; idx < a_col[c + 1]; ++idx) {
      triplets.push_back({c, n + a_row[idx], a_val[idx]});
    }
  }
  // -diag(1/rho).
  for (std::int32_t i = 0; i < m; ++i) {
    triplets.push_back({n + i, n + i, -1.0 / rho[static_cast<std::size_t>(i)]});
  }
  return SparseMatrix::from_triplets(n + m, n + m, triplets);
}

/// Reduced-system solves one polish may run: the first on the guessed
/// active set, the rest after correcting it (see AdmmSettings::polish).
constexpr int kPolishPasses = 10;

/// A rejected polish resumes the loop at eps times this (see
/// AdmmSettings::polish).
constexpr double kRejectedPolishTightening = 1e-2;

/// Unscaled max-norm bound violation of the scaled row activities `ax`:
/// the QpProblem::constraint_violation of the unscaled point.
double bound_violation(std::span<const double> ax, const QpProblem& scaled,
                       std::span<const double> inv_e) {
  double worst = 0.0;
  for (std::size_t i = 0; i < ax.size(); ++i) {
    worst = std::max(worst, (scaled.lower[i] - ax[i]) * inv_e[i]);
    worst = std::max(worst, (ax[i] - scaled.upper[i]) * inv_e[i]);
  }
  return worst;
}

}  // namespace

void AdmmWorkspace::resize(std::size_t n, std::size_t m) {
  x.assign(n, 0.0);
  z.assign(m, 0.0);
  y.assign(m, 0.0);
  rhs.assign(n + m, 0.0);
  z_tilde.assign(m, 0.0);
  z_candidate.assign(m, 0.0);
  z_next.assign(m, 0.0);
  ax.assign(m, 0.0);
  px.assign(n, 0.0);
  aty.assign(n, 0.0);
  delta_x.assign(n, 0.0);
  delta_y.assign(m, 0.0);
  at_dy.assign(n, 0.0);
  p_dx.assign(n, 0.0);
  a_dx.assign(m, 0.0);
  rho.assign(m, 0.0);
  y_over_rho.assign(m, 0.0);
  inv_d.assign(n, 0.0);
  inv_e.assign(m, 0.0);
}

QpResult AdmmSolver::solve(const QpProblem& original) {
  obs::Span span("admm.solve");
  ++cache_stats_.solves;
  QpResult result;
  bool solved = false;
  if (settings_.cache_structure && cache_matches(original)) {
    // Preserve the pending warm start so a (rare) numerical failure of the
    // cached setup can retry cold from the same starting point.
    const Vector pending_x = warm_x_;
    const Vector pending_y = warm_y_;
    result = solve_with(original, /*use_cache=*/true);
    if (result.status != SolveStatus::kNumericalError) {
      solved = true;
    } else {
      // The cached setup failed numerically (e.g. the refactorization hit a
      // zero pivot after a large parameter change): drop it and solve cold.
      invalidate_cache();
      warm_x_ = pending_x;
      warm_y_ = pending_y;
    }
  }
  if (!solved) result = solve_with(original, /*use_cache=*/false);

  if (obs::recording_enabled() && result.status != SolveStatus::kOptimal) {
    // Leave a terminal marker in the ring and append its tail to the
    // GEOPLACE_RECORD dump path (if one is set) — a failed solve inside a
    // sweep lane now carries its last check iterations with it.
    obs::ConvergenceRecorder::local().push("admm.unsolved", result.iterations,
                                           result.primal_residual, result.dual_residual,
                                           static_cast<double>(result.status));
    obs::ConvergenceRecorder::dump_failure("admm.unsolved");
  }
  if (obs::audit::enabled() && result.status == SolveStatus::kOptimal) {
    // Primal feasibility of the RETURNED (unscaled, possibly polished)
    // solution, against the OSQP-style tolerance the loop converged under.
    const double violation = original.constraint_violation(result.x);
    const linalg::Vector ax = original.a.multiply(result.x);
    const double tolerance =
        10.0 * (settings_.eps_abs + settings_.eps_rel * linalg::norm_inf(ax));
    obs::audit::check("qp_primal_feasibility", violation <= tolerance, violation, tolerance);
  }

  auto& registry = obs::Registry::global();
  if (registry.enabled()) {
    registry.counter("admm.solves").add(1);
    registry.counter("admm.iterations").add(result.iterations);
    registry.counter("admm.factorizations").add(result.info.factorizations);
    registry.counter("admm.structure_hits").add(result.info.cache_hits);
    if (result.info.factorization_skipped) {
      registry.counter("admm.factorizations_skipped").add(1);
    }
    registry.counter("admm.allocs").add(result.info.hot_loop_allocations);
    registry.counter("admm.spmv_ns").add(result.info.residual_spmv_ns);
    registry.histogram("admm.iterations_per_solve").record(result.iterations);
    registry.histogram("admm.solve_ms").record(span.elapsed_ms());
  }
  if (obs::TelemetryFrame* frame = obs::timeline_frame()) {
    // Solver-effort telemetry for the open simulation period: effort fields
    // accumulate (a period may run several solves), residuals keep the last
    // solve's values.
    frame->solver_iterations += result.iterations;
    frame->solver_primal_residual = result.primal_residual;
    frame->solver_dual_residual = result.dual_residual;
    frame->solver_factorizations += result.info.factorizations;
    frame->solver_cache_hits += result.info.cache_hits;
    if (result.info.factorization_skipped) frame->solver_factorization_skipped += 1.0;
  }
  return result;
}

bool AdmmSolver::cache_matches(const QpProblem& problem) const {
  if (!has_cache_) return false;
  if (problem.num_variables() != cached_scaling_.d.size() ||
      problem.num_constraints() != cached_scaling_.e.size()) {
    return false;
  }
  const auto same = [](std::span<const std::int32_t> a, const std::vector<std::int32_t>& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  };
  return same(problem.p.col_ptr(), cached_p_col_ptr_) &&
         same(problem.p.row_idx(), cached_p_row_idx_) &&
         same(problem.a.col_ptr(), cached_a_col_ptr_) &&
         same(problem.a.row_idx(), cached_a_row_idx_);
}

void AdmmSolver::invalidate_cache() {
  has_cache_ = false;
  cached_p_col_ptr_.clear();
  cached_p_row_idx_.clear();
  cached_a_col_ptr_.clear();
  cached_a_row_idx_.clear();
  cached_p_values_.clear();
  cached_a_values_.clear();
  cached_rho_.clear();
  cached_row_class_.clear();
}

QpResult AdmmSolver::solve_with(const QpProblem& original, bool use_cache) {
  original.validate();
  const std::size_t n = original.num_variables();
  const std::size_t m = original.num_constraints();

  QpProblem problem = original;  // scaled in place below
  Scaling scaling;
  if (use_cache) {
    // Structure hit: the cached equilibration stays a valid diagonal
    // scaling for the new data (solutions are unscaled exactly), so the
    // Ruiz sweeps are skipped.
    ++cache_stats_.structure_hits;
    scaling = cached_scaling_;
    if (settings_.scale_problem) apply_scaling(scaling, problem);
  } else if (settings_.scale_problem) {
    scaling = ruiz_equilibrate(problem, settings_.scaling_iterations);
    // Re-apply the FINAL scaling in one shot: the sweeps above scale
    // incrementally, which differs from apply_scaling() by rounding ulps.
    // Normalizing here makes the scaled data bitwise identical to what a
    // later cache hit computes, so the values-unchanged factorization skip
    // can fire on the very next solve.
    problem = original;
    apply_scaling(scaling, problem);
  } else {
    scaling = Scaling::identity(n, m);
  }

  // Size the solver-owned workspace (allocation-free when the shape is
  // unchanged — the receding-horizon case) and precompute the reciprocal
  // scalings the residual kernels consume.
  AdmmWorkspace& ws = workspace_;
  ws.resize(n, m);
  for (std::size_t j = 0; j < n; ++j) ws.inv_d[j] = 1.0 / scaling.d[j];
  for (std::size_t i = 0; i < m; ++i) ws.inv_e[i] = 1.0 / scaling.e[i];
  const double inv_c = 1.0 / scaling.cost_scale;

  // SELL mirrors of the scaled A and A^T: pattern built once per
  // structure, values refreshed in place on every later solve.
  if (a_sell_.pattern_matches(problem.a)) {
    a_sell_.update_values(problem.a);
  } else {
    a_sell_.build(problem.a);
  }
  if (at_sell_.pattern_matches(problem.a)) {
    at_sell_.update_values(problem.a);
  } else {
    at_sell_.build_transposed(problem.a);
  }

  // Per-row rho: stiffer on equality rows, zero-safe on free rows. When the
  // row classification is unchanged, a cache hit carries the previous
  // solve's (possibly adapted) rho forward so the factorization can be
  // reused or numerically refreshed without restarting the adaptation.
  std::vector<std::uint8_t> row_class(m);
  for (std::size_t i = 0; i < m; ++i) {
    const bool equality = problem.lower[i] == problem.upper[i];
    const bool unbounded = problem.lower[i] == -kInfinity && problem.upper[i] == kInfinity;
    row_class[i] = equality ? 1 : (unbounded ? 2 : 0);
  }
  Vector& rho = ws.rho;
  const bool reuse_rho = use_cache && row_class == cached_row_class_;
  if (reuse_rho) {
    rho = cached_rho_;
  } else {
    for (std::size_t i = 0; i < m; ++i) {
      if (row_class[i] == 1) {
        rho[i] = settings_.rho * settings_.rho_equality_scale;
      } else if (row_class[i] == 2) {
        rho[i] = settings_.rho * 1e-3;  // loose rows barely constrain
      } else {
        rho[i] = settings_.rho;
      }
    }
  }

  QpResult result;
  result.status = SolveStatus::kMaxIterations;
  result.info.cache_hits = use_cache ? 1 : 0;

  SparseLdlt& kkt = kkt_;
  const bool values_unchanged = reuse_rho && kkt.status() == SparseLdlt::Status::kOk &&
                                problem.p.values().size() == cached_p_values_.size() &&
                                std::equal(problem.p.values().begin(), problem.p.values().end(),
                                           cached_p_values_.begin()) &&
                                problem.a.values().size() == cached_a_values_.size() &&
                                std::equal(problem.a.values().begin(), problem.a.values().end(),
                                           cached_a_values_.begin());
  if (values_unchanged) {
    // Same scaled (P, A) and rho as the cached factorization: a pure
    // (q, lower, upper) parameter update. Reuse the factor outright.
    ++cache_stats_.factorizations_skipped;
    result.info.factorization_skipped = true;
  } else {
    obs::Span factor_span("admm.factor");
    // Kept as a member so the in-loop adaptive-rho refactorization can
    // rewrite the -1/rho diagonal in place instead of reassembling.
    kkt_upper_ = build_kkt_upper(problem.p, problem.a, settings_.sigma, rho);
    const SparseLdlt::Status status =
        use_cache ? kkt.refactor(kkt_upper_) : kkt.factor(kkt_upper_);
    if (use_cache) {
      ++cache_stats_.refactorizations;
    } else {
      ++cache_stats_.full_factorizations;
    }
    ++result.info.factorizations;
    if (status != SparseLdlt::Status::kOk) {
      result.status = SolveStatus::kNumericalError;
      return result;
    }
    if (!use_cache && settings_.polish) {
      // New structure: record where each A entry sits in the A^T block.
      // Column n+i holds row i's entries in ascending column order, then
      // the -1/rho diagonal, so walking A's columns in order fills it.
      const auto kkt_col_ptr = kkt_upper_.col_ptr();
      std::vector<std::int32_t> next(kkt_col_ptr.begin() + static_cast<std::ptrdiff_t>(n),
                                     kkt_col_ptr.end() - 1);
      const auto a_row = problem.a.row_idx();
      a_kkt_position_.resize(a_row.size());
      for (std::size_t e = 0; e < a_row.size(); ++e) {
        a_kkt_position_[e] = next[static_cast<std::size_t>(a_row[e])]++;
      }
    }
  }

  Vector& x = ws.x;  // zeroed by ws.resize above
  Vector& y = ws.y;
  // Warm start: scale the cached/pending unscaled iterate into the scaled
  // space of THIS problem (x_s = x / d, y_s = y * c / e) and set z = A x.
  if (warm_x_.size() == n && warm_y_.size() == m) {
    for (std::size_t j = 0; j < n; ++j) x[j] = warm_x_[j] / scaling.d[j];
    for (std::size_t i = 0; i < m; ++i) y[i] = warm_y_[i] * scaling.cost_scale / scaling.e[i];
    a_sell_.multiply_into(1.0, x, ws.z);
    linalg::project_box_into(ws.z, problem.lower, problem.upper, ws.z);
  }
  warm_x_.clear();
  warm_y_.clear();

  // --- Hot loop. Everything below reads/writes the workspace through the
  // fused kernels in linalg/vector_ops; after the sizing solve the loop
  // performs no heap allocation (tracked by the alloc probe, with the
  // trace/recorder segments excluded and reported separately).
  const std::span<double> rhs_x(ws.rhs.data(), n);
  const std::span<const double> rhs_nu(ws.rhs.data() + n, m);
  auto& registry = obs::Registry::global();
  const bool time_spmv = registry.enabled();
  long long excluded_allocs = 0;
  long long loop_allocs = 0;
  long long spmv_ns = 0;
  long long spmv_sections = 0;

  // The iteration loop, from the current iterate until eps_abs/eps_rel (or
  // a certificate, or max_iterations); run again from where it stopped when
  // a polish is rejected.
  int iteration = 0;
  const auto iterate = [&](double eps_abs, double eps_rel) {
    const long long allocs_at_loop_entry = gp::alloc_probe_count();
    const long long excluded_at_loop_entry = excluded_allocs;
    for (; iteration < settings_.max_iterations; ++iteration) {
      // Residual/certificate cadence, known up front: check iterations route
      // the x and y updates through the *_delta kernels, which produce the
      // certificate deltas as a by-product — so no previous-iterate copies
      // are ever made.
      const bool check = (iteration + 1) % settings_.check_interval == 0;

      // Build the KKT right-hand side.
      for (std::size_t j = 0; j < n; ++j) ws.rhs[j] = settings_.sigma * x[j] - problem.q[j];
      // The y / rho quotients feed both the rhs here and the z-candidate step
      // below; form them once (rho only changes between iterations).
      for (std::size_t i = 0; i < m; ++i) {
        const double yr = y[i] / rho[i];
        ws.y_over_rho[i] = yr;
        ws.rhs[n + i] = ws.z[i] - yr;
      }
      kkt.solve_in_place(ws.rhs);

      // x~ = rhs[0..n), nu = rhs[n..n+m); z~ = z + (nu - y) / rho.
      linalg::admm_z_tilde(ws.z, rhs_nu, y, rho, ws.z_tilde);

      // Over-relaxed updates (delta-producing variants on check iterations,
      // bit-identical to the plain kernels).
      const double alpha = settings_.alpha;
      double delta_x_norm = 0.0;
      if (check) {
        delta_x_norm = linalg::axpby_delta(alpha, rhs_x, 1.0 - alpha, x, ws.delta_x);
      } else {
        linalg::axpby(alpha, rhs_x, 1.0 - alpha, x);
      }
      linalg::admm_z_candidate_cached(alpha, ws.z_tilde, ws.z, ws.y_over_rho, ws.z_candidate);
      linalg::project_box_into(ws.z_candidate, problem.lower, problem.upper, ws.z_next);
      double delta_y_norm = 0.0;
      if (check) {
        delta_y_norm = linalg::admm_dual_update_delta(rho, ws.z_candidate, ws.z_next, y,
                                                      ws.delta_y);
      } else {
        linalg::admm_dual_update(rho, ws.z_candidate, ws.z_next, y);
      }
      std::swap(ws.z, ws.z_next);

      if (!check) continue;

      // --- Residuals in UNSCALED quantities, via the SELL mirrors. ---
      std::chrono::steady_clock::time_point spmv_start{};
      if (time_spmv) spmv_start = std::chrono::steady_clock::now();
      a_sell_.multiply_into(1.0, x, ws.ax);
      std::fill(ws.px.begin(), ws.px.end(), 0.0);
      problem.p.multiply_accumulate(1.0, x, ws.px);
      at_sell_.multiply_into(1.0, y, ws.aty);
      if (time_spmv) {
        spmv_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                       std::chrono::steady_clock::now() - spmv_start)
                       .count();
        ++spmv_sections;
      }

      // One pass over the rows and one over the columns; bitwise equal to the
      // separate per-array reductions (max is exact, scaling is monotone).
      double prim_res = 0.0, prim_norm = 0.0;
      linalg::inf_norm_scaled_residual(ws.ax, ws.z, ws.inv_e, prim_res, prim_norm);
      double dual_res = 0.0, dual_norm = 0.0;
      linalg::inf_norm_scaled_residual3(ws.px, problem.q, ws.aty, ws.inv_d, inv_c, dual_res,
                                        dual_norm);

      const double eps_prim = eps_abs + eps_rel * prim_norm;
      const double eps_dual = eps_abs + eps_rel * dual_norm;
      result.primal_residual = prim_res;
      result.dual_residual = dual_res;
      if (obs::tracing_enabled()) {
        // Residual trajectories, sampled at the check cadence (counter events
        // in the trace; concurrent best responses interleave by timestamp).
        // Trace emission allocates by design; keep it out of the hot-loop
        // allocation accounting.
        const long long trace_allocs_before = gp::alloc_probe_count();
        obs::Tracer::global().counter("admm.primal_residual", prim_res);
        obs::Tracer::global().counter("admm.dual_residual", dual_res);
        excluded_allocs += gp::alloc_probe_count() - trace_allocs_before;
      }
      if (obs::recording_enabled()) {
        // Flight-recorder sample at the check cadence. push() itself is
        // allocation-free; only the thread's FIRST recorded sample allocates
        // the ring (a recorder cost, not an iteration cost — excluded).
        const long long record_allocs_before = gp::alloc_probe_count();
        obs::ConvergenceRecorder::local().push("admm.residual", iteration + 1, prim_res,
                                               dual_res, rho.empty() ? 0.0 : rho[0]);
        excluded_allocs += gp::alloc_probe_count() - record_allocs_before;
      }

      if (prim_res <= eps_prim && dual_res <= eps_dual) {
        result.status = SolveStatus::kOptimal;
        ++iteration;
        break;
      }

      // --- Infeasibility certificates (on scaled deltas, normalized; the
      // deltas and their norms came out of the *_delta update kernels). ---
      if (delta_y_norm > settings_.eps_infeasible) {
        at_sell_.multiply_into(1.0, ws.delta_y, ws.at_dy);
        double support = 0.0;
        bool valid = true;
        for (std::size_t i = 0; i < m; ++i) {
          const double dy = ws.delta_y[i];
          if (dy > 0) {
            if (problem.upper[i] == kInfinity) { valid = false; break; }
            support += problem.upper[i] * dy;
          } else if (dy < 0) {
            if (problem.lower[i] == -kInfinity) { valid = false; break; }
            support += problem.lower[i] * dy;
          }
        }
        if (valid && linalg::norm_inf(ws.at_dy) <= settings_.eps_infeasible * delta_y_norm &&
            support <= -settings_.eps_infeasible * delta_y_norm) {
          result.status = SolveStatus::kPrimalInfeasible;
          ++iteration;
          break;
        }
      }
      if (delta_x_norm > settings_.eps_infeasible) {
        std::fill(ws.p_dx.begin(), ws.p_dx.end(), 0.0);
        problem.p.multiply_accumulate(1.0, ws.delta_x, ws.p_dx);
        a_sell_.multiply_into(1.0, ws.delta_x, ws.a_dx);
        const double q_dx = linalg::dot(problem.q, ws.delta_x);
        bool certificate = linalg::norm_inf(ws.p_dx) <= settings_.eps_infeasible * delta_x_norm &&
                           q_dx <= -settings_.eps_infeasible * delta_x_norm;
        if (certificate) {
          for (std::size_t i = 0; i < m && certificate; ++i) {
            const double v = ws.a_dx[i];
            if (problem.upper[i] != kInfinity && v > settings_.eps_infeasible * delta_x_norm) {
              certificate = false;
            }
            if (problem.lower[i] != -kInfinity && v < -settings_.eps_infeasible * delta_x_norm) {
              certificate = false;
            }
          }
          if (certificate) {
            result.status = SolveStatus::kDualInfeasible;
            ++iteration;
            break;
          }
        }
      }

      // --- Adaptive rho. ---
      if (settings_.adaptive_rho && (iteration + 1) % settings_.adaptive_rho_interval == 0) {
        const double prim_ratio = prim_res / std::max(prim_norm, 1e-10);
        const double dual_ratio = dual_res / std::max(dual_norm, 1e-10);
        const double factor = std::sqrt(prim_ratio / std::max(dual_ratio, 1e-10));
        if (factor > settings_.adaptive_rho_tolerance ||
            factor < 1.0 / settings_.adaptive_rho_tolerance) {
          const double rho_before = rho.empty() ? 0.0 : rho[0];
          for (std::size_t i = 0; i < m; ++i) {
            rho[i] = std::min(std::max(rho[i] * factor, 1e-6), 1e6);
          }
          if (obs::recording_enabled()) {
            const long long record_allocs_before = gp::alloc_probe_count();
            obs::ConvergenceRecorder::local().push("admm.rho", iteration + 1, rho_before,
                                                   rho.empty() ? 0.0 : rho[0], factor);
            excluded_allocs += gp::alloc_probe_count() - record_allocs_before;
          }
          // Rewrite the -1/rho diagonal of the cached KKT upper triangle in
          // place: the diagonal of column n+i is its LAST entry (all A^T-block
          // rows in that column are < n), so no triplet reassembly is needed.
          const auto kkt_col_ptr = kkt_upper_.col_ptr();
          const std::span<double> kkt_values = kkt_upper_.mutable_values();
          for (std::size_t i = 0; i < m; ++i) {
            kkt_values[static_cast<std::size_t>(kkt_col_ptr[n + i + 1]) - 1] = -1.0 / rho[i];
          }
          ++cache_stats_.refactorizations;
          ++result.info.factorizations;
          // Same pattern: the refactorization copies values through the
          // factor's permutation map into kept scratch, allocation-free.
          if (kkt.refactor(kkt_upper_) != SparseLdlt::Status::kOk) {
            result.status = SolveStatus::kNumericalError;
            break;
          }
        }
      }
    }

    loop_allocs += gp::alloc_probe_count() - allocs_at_loop_entry -
                   (excluded_allocs - excluded_at_loop_entry);
  };

  iterate(settings_.eps_abs, settings_.eps_rel);
  bool polished = false;
  if (settings_.polish && result.status == SolveStatus::kOptimal) {
    {
      obs::Span polish_span("admm.polish");
      const long long allocs_at_polish = gp::alloc_probe_count();
      polished = polish(original, problem, scaling, result);
      loop_allocs += gp::alloc_probe_count() - allocs_at_polish;
    }
    if (!polished && iteration < settings_.max_iterations) {
      // The loose iterate stands alone: carry it on to a tighter stop (the
      // restored factor is the loop's, bit for bit).
      result.status = SolveStatus::kMaxIterations;
      iterate(settings_.eps_abs * kRejectedPolishTightening,
              settings_.eps_rel * kRejectedPolishTightening);
    }
  }
  result.iterations = iteration;
  result.info.hot_loop_allocations = loop_allocs;
  result.info.residual_spmv_ns = spmv_ns;
  if (time_spmv && spmv_ns > 0 && spmv_sections > 0) {
    // Effective bandwidth of the residual-cadence SpMV section, using the
    // same per-product cost model as micro_admm_kernels' gbps() (12 bytes
    // per stored entry + 8 per input/output element, true nnz — SELL pads
    // are throughput, not work). bytes / ns == GB/s.
    const auto nnz_a = static_cast<double>(problem.a.nnz());
    const auto nnz_p = static_cast<double>(problem.p.nnz());
    const double dm = static_cast<double>(m);
    const double dn = static_cast<double>(n);
    const double bytes_per_section =
        2.0 * (12.0 * nnz_a + 8.0 * (dm + dn)) + 12.0 * nnz_p + 16.0 * dn;
    registry.gauge("admm.spmv_gb_s")
        .set(static_cast<double>(spmv_sections) * bytes_per_section /
             static_cast<double>(spmv_ns));
  }
  // Unscale the (polished or loop) solution: x = D x_s, y = E y_s / c.
  const Vector& x_out = polished ? ws.delta_x : x;
  const Vector& y_out = polished ? ws.delta_y : y;
  result.x.assign(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) result.x[j] = scaling.d[j] * x_out[j];
  result.y.assign(m, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    result.y[i] = scaling.e[i] * y_out[i] / scaling.cost_scale;
  }
  result.objective = original.objective(result.x);
  if (settings_.auto_warm_start &&
      (result.status == SolveStatus::kOptimal || result.status == SolveStatus::kMaxIterations)) {
    warm_x_ = result.x;
    warm_y_ = result.y;
  }

  // Refresh the structure cache: patterns of the (unscaled) input, the
  // scaled values backing kkt_'s current factorization, the equilibration,
  // and the final (possibly adapted) rho.
  if (settings_.cache_structure && kkt.status() == SparseLdlt::Status::kOk &&
      result.status != SolveStatus::kNumericalError) {
    has_cache_ = true;
    cached_p_col_ptr_.assign(original.p.col_ptr().begin(), original.p.col_ptr().end());
    cached_p_row_idx_.assign(original.p.row_idx().begin(), original.p.row_idx().end());
    cached_a_col_ptr_.assign(original.a.col_ptr().begin(), original.a.col_ptr().end());
    cached_a_row_idx_.assign(original.a.row_idx().begin(), original.a.row_idx().end());
    cached_p_values_.assign(problem.p.values().begin(), problem.p.values().end());
    cached_a_values_.assign(problem.a.values().begin(), problem.a.values().end());
    cached_scaling_ = std::move(scaling);
    cached_rho_.assign(rho.begin(), rho.end());  // rho aliases workspace_.rho
    cached_row_class_ = std::move(row_class);
  }
  return result;
}

bool AdmmSolver::polish(const QpProblem& original, const QpProblem& problem,
                        const Scaling& scaling, QpResult& result) {
  AdmmWorkspace& ws = workspace_;
  const std::size_t n = problem.num_variables();
  const std::size_t m = problem.num_constraints();
  const double inv_c = 1.0 / scaling.cost_scale;
  const double reg = settings_.polish_regularization;
  // The loop is done with these; polish borrows them.
  Vector& active = ws.a_dx;       // 1 on active rows, 0 on the rest
  Vector& target = ws.z_tilde;    // scaled bound an active row is held at
  Vector& x_diag = ws.at_dy;      // ADMM diagonal of the x block, P + sigma I
  Vector& xs = ws.delta_x;        // polished scaled primal
  Vector& nu = ws.delta_y;        // polished scaled dual

  // KKT residuals of the ADMM iterate, from the converged check's products.
  const double loop_residual =
      std::max(bound_violation(ws.ax, problem, ws.inv_e),
               linalg::inf_norm_scaled_sum3(ws.px, problem.q, ws.aty, ws.inv_d, inv_c));

  // Active set from the unscaled duals (y > 0 pushes on the upper bound),
  // confirmed by the unscaled row activity.
  for (std::size_t i = 0; i < m; ++i) {
    const double lower = original.lower[i];
    const double upper = original.upper[i];
    const double ax = ws.ax[i] * ws.inv_e[i];
    const double yi = scaling.e[i] * ws.y[i] * inv_c;
    const double span_tol = 1e-6 * (1.0 + std::max(std::abs(lower), std::abs(upper)));
    active[i] = 1.0;
    if (lower == upper ||
        (yi > 1e-10 && upper < kInfinity && ax > upper - 1e3 * span_tol)) {
      target[i] = problem.upper[i];
    } else if (yi < -1e-10 && lower > -kInfinity && ax < lower + 1e3 * span_tol) {
      target[i] = problem.lower[i];
    } else {
      active[i] = 0.0;
      target[i] = 0.0;
    }
  }

  // The reduced system [[P + reg I, A_act^T], [A_act, -reg I]] is written
  // into kkt_upper_'s values on the cached pattern: inactive rows keep only
  // a -1 diagonal, so their nu is 0. Every diagonal is the last entry of
  // its upper-triangle column.
  const auto col_ptr = kkt_upper_.col_ptr();
  const std::span<double> values = kkt_upper_.mutable_values();
  const auto diag = [&](std::size_t col) {
    return static_cast<std::size_t>(col_ptr[col + 1]) - 1;
  };
  const auto a_values = problem.a.values();
  const auto a_rows = problem.a.row_idx();
  for (std::size_t j = 0; j < n; ++j) x_diag[j] = values[diag(j)];

  bool factored = false;
  bool settled = false;  // the last pass left the active set unchanged
  for (int pass = 0; pass < kPolishPasses; ++pass) {
    for (std::size_t j = 0; j < n; ++j) values[diag(j)] = x_diag[j] - settings_.sigma + reg;
    for (std::size_t e = 0; e < a_values.size(); ++e) {
      values[static_cast<std::size_t>(a_kkt_position_[e])] =
          active[static_cast<std::size_t>(a_rows[e])] * a_values[e];
    }
    for (std::size_t i = 0; i < m; ++i) values[diag(n + i)] = active[i] != 0.0 ? -reg : -1.0;
    ++cache_stats_.refactorizations;
    ++result.info.factorizations;
    factored = kkt_.refactor(kkt_upper_) == SparseLdlt::Status::kOk;
    if (!factored) break;

    // One solve plus refinement against the UNregularized reduced system
    // (cancels the reg perturbation). Each pass recomputes the products of
    // the current point; the last pass's feed the checks below.
    Vector& rhs = ws.rhs;
    for (std::size_t j = 0; j < n; ++j) rhs[j] = -problem.q[j];
    for (std::size_t i = 0; i < m; ++i) rhs[n + i] = target[i];
    kkt_.solve_in_place(rhs);
    for (std::size_t j = 0; j < n; ++j) xs[j] = rhs[j];
    for (std::size_t i = 0; i < m; ++i) nu[i] = active[i] * rhs[n + i];
    for (int step = 0;; ++step) {
      std::fill(ws.px.begin(), ws.px.end(), 0.0);
      problem.p.multiply_accumulate(1.0, xs, ws.px);
      at_sell_.multiply_into(1.0, nu, ws.aty);
      a_sell_.multiply_into(1.0, xs, ws.ax);
      if (step == settings_.polish_refinement_steps) break;
      for (std::size_t j = 0; j < n; ++j) rhs[j] = -problem.q[j] - ws.px[j] - ws.aty[j];
      for (std::size_t i = 0; i < m; ++i) rhs[n + i] = active[i] * (target[i] - ws.ax[i]);
      kkt_.solve_in_place(rhs);
      for (std::size_t j = 0; j < n; ++j) xs[j] += rhs[j];
      for (std::size_t i = 0; i < m; ++i) nu[i] += active[i] * rhs[n + i];
    }

    // Primal-dual active-set correction: a row the guess left free but the
    // polished point violates joins the active set at that bound; an
    // inequality row held with a dual of the wrong sign is released.
    bool changed = false;
    for (std::size_t i = 0; i < m; ++i) {
      if (active[i] != 0.0) {
        if (problem.lower[i] == problem.upper[i]) continue;
        const double y_unscaled = scaling.e[i] * nu[i] * inv_c;
        const double wrong_sign = target[i] == problem.upper[i] ? -y_unscaled : y_unscaled;
        if (wrong_sign <= settings_.eps_abs) continue;
        active[i] = 0.0;
        target[i] = 0.0;
      } else if ((problem.lower[i] - ws.ax[i]) * ws.inv_e[i] > settings_.eps_abs) {
        active[i] = 1.0;
        target[i] = problem.lower[i];
      } else if ((ws.ax[i] - problem.upper[i]) * ws.inv_e[i] > settings_.eps_abs) {
        active[i] = 1.0;
        target[i] = problem.upper[i];
      } else {
        continue;
      }
      changed = true;
    }
    settled = !changed;
    if (settled) break;
  }

  bool accepted = false;
  if (factored && settled) {
    const double primal = bound_violation(ws.ax, problem, ws.inv_e);
    const double dual =
        linalg::inf_norm_scaled_sum3(ws.px, problem.q, ws.aty, ws.inv_d, inv_c);
    // Accept only a settled active set that yields a strictly better KKT
    // point.
    accepted = std::max(primal, dual) < loop_residual;
    if (accepted) {
      result.primal_residual = primal;
      result.dual_residual = dual;
    }
  }

  // Restore the ADMM values exactly as assembled (A from the scaled
  // problem, -1/rho from the current rho) and refactor: the factor is then
  // bit-identical to the loop's, so the structure cache and the
  // values-unchanged skip stay valid.
  for (std::size_t j = 0; j < n; ++j) values[diag(j)] = x_diag[j];
  for (std::size_t e = 0; e < a_values.size(); ++e) {
    values[static_cast<std::size_t>(a_kkt_position_[e])] = a_values[e];
  }
  for (std::size_t i = 0; i < m; ++i) values[diag(n + i)] = -1.0 / ws.rho[i];
  ++cache_stats_.refactorizations;
  ++result.info.factorizations;
  kkt_.refactor(kkt_upper_);
  return accepted;
}

void AdmmSolver::warm_start(Vector x, Vector y) {
  require(!x.empty(), "warm_start: empty primal");
  warm_x_ = std::move(x);
  warm_y_ = std::move(y);
}

void AdmmSolver::reset_warm_start() {
  warm_x_.clear();
  warm_y_.clear();
}

}  // namespace gp::qp
