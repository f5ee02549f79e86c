// Solver micro-benchmarks (BENCH_qp.json): how the ADMM and IPM paths scale
// with the DSPP window dimensions (L data centers x V access networks x W
// periods), plus the sparse LDL^T kernel on a window KKT system. Each shape
// reports the median wall time of kRepeats runs; one solver object serves
// all repeats of a shape, so the ADMM median is a warm (structure-cached)
// solve. Every solve and factorization must succeed.
//
// These justify the solver architecture: the sparse ADMM path is the
// production solver (near-linear in nonzeros per iteration after one
// factorization), the dense IPM is the small-problem cross-checker (cubic).
#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dspp/window_program.hpp"
#include "harness.hpp"
#include "linalg/sparse_ldlt.hpp"
#include "qp/admm_solver.hpp"
#include "qp/ipm_solver.hpp"
#include "scenario/registry.hpp"

namespace {

using namespace gp;

constexpr int kRepeats = 5;

/// Median wall time in ms of kRepeats calls of `run`.
template <typename Run>
double median_ms(Run&& run) {
  std::vector<double> walls;
  for (int r = 0; r < kRepeats; ++r) {
    const auto start = bench::Clock::now();
    run();
    walls.push_back(bench::ms_since(start));
  }
  std::nth_element(walls.begin(), walls.begin() + kRepeats / 2, walls.end());
  return walls[kRepeats / 2];
}

/// Builds a window program of the given dimensions on the paper scenario.
dspp::WindowProgram make_window(std::size_t num_dcs, std::size_t num_cities,
                                std::size_t horizon) {
  static std::vector<std::unique_ptr<scenario::ScenarioBundle>> keep_alive;  // owns models
  keep_alive.push_back(
      std::make_unique<scenario::ScenarioBundle>(scenario::build(scenario::section7_spec(num_dcs, num_cities, 1.5e-5))));
  auto& scenario = *keep_alive.back();
  // Loose SLA so every (l, v) pair is usable: maximizes the pair count for
  // a given (L, V), i.e. the hardest window program of those dimensions.
  scenario.model.sla.max_latency_ms = 60.0;
  const dspp::PairIndex pairs(scenario.model);
  dspp::WindowInputs inputs;
  inputs.initial_state.assign(pairs.num_pairs(), 1.0);
  for (std::size_t t = 0; t < horizon; ++t) {
    inputs.demand.push_back(scenario.demand.mean_rates(static_cast<double>(t)));
    inputs.price.push_back(scenario.prices.server_prices(static_cast<double>(t)));
  }
  return dspp::WindowProgram(scenario.model, pairs, std::move(inputs));
}

/// Times kRepeats solves of one L x V x W window shape with one Solver
/// object and writes its row; every solve must succeed.
template <typename Solver>
void bench_window(bench::Report& report, const char* family, std::size_t num_dcs,
                  std::size_t num_cities, std::size_t horizon) {
  const auto program = make_window(num_dcs, num_cities, horizon);
  Solver solver;
  bool ok = true;
  const double wall_ms = median_ms([&] { ok = program.solve(solver).ok() && ok; });
  const std::string shape = std::to_string(num_dcs) + "x" + std::to_string(num_cities) +
                            "x" + std::to_string(horizon);
  report.object(shape, {{"vars", program.problem().num_variables()},
                        {"rows", program.problem().num_constraints()},
                        {"wall_ms", wall_ms}});
  report.check(std::string(family) + "." + shape, ok);
}

/// Times repeated factorizations of the ADMM KKT matrix of a 4 x num_cities
/// x 8 window and writes its row; every factorization must succeed.
void bench_ldlt(bench::Report& report, std::size_t num_cities) {
  const auto program = make_window(4, num_cities, 8);
  // Assemble the ADMM KKT upper triangle the way the solver does.
  const auto& problem = program.problem();
  const auto n = static_cast<std::int32_t>(problem.num_variables());
  const auto m = static_cast<std::int32_t>(problem.num_constraints());
  std::vector<linalg::Triplet> triplets;
  for (std::int32_t i = 0; i < n; ++i) triplets.push_back({i, i, 1e-6});
  const auto pu = problem.p.upper_triangle();
  for (std::int32_t c = 0; c < pu.cols(); ++c) {
    for (std::int32_t e = pu.col_ptr()[c]; e < pu.col_ptr()[c + 1]; ++e) {
      triplets.push_back({pu.row_idx()[e], c, pu.values()[e]});
    }
  }
  const auto at = problem.a.transposed();
  for (std::int32_t c = 0; c < at.cols(); ++c) {
    for (std::int32_t e = at.col_ptr()[c]; e < at.col_ptr()[c + 1]; ++e) {
      triplets.push_back({at.row_idx()[e], n + c, at.values()[e]});
    }
  }
  for (std::int32_t i = 0; i < m; ++i) triplets.push_back({n + i, n + i, -10.0});
  const auto kkt = linalg::SparseMatrix::from_triplets(n + m, n + m, triplets);
  bool ok = true;
  const double wall_ms = median_ms([&] {
    linalg::SparseLdlt ldlt;
    ok = ldlt.factor(kkt) == linalg::SparseLdlt::Status::kOk && ok;
  });
  const std::string shape = "4x" + std::to_string(num_cities) + "x8";
  report.object(shape, {{"dim", n + m}, {"wall_ms", wall_ms}});
  report.check("ldlt." + shape, ok);
}

}  // namespace

int main() {
  bench::Report report("BENCH_qp.json", obs::RunManifest::capture("micro_qp_solver"));
  report.record("repeats", kRepeats);

  report.object("admm");
  bench_window<qp::AdmmSolver>(report, "admm", 1, 1, 5);
  bench_window<qp::AdmmSolver>(report, "admm", 2, 6, 5);
  bench_window<qp::AdmmSolver>(report, "admm", 4, 12, 5);
  bench_window<qp::AdmmSolver>(report, "admm", 4, 24, 5);
  bench_window<qp::AdmmSolver>(report, "admm", 4, 24, 10);
  report.end();
  report.object("ipm");
  bench_window<qp::IpmSolver>(report, "ipm", 1, 1, 5);
  bench_window<qp::IpmSolver>(report, "ipm", 2, 6, 5);
  bench_window<qp::IpmSolver>(report, "ipm", 4, 12, 5);
  report.end();
  report.object("ldlt");
  for (std::size_t cities : {6, 12, 24}) bench_ldlt(report, cities);
  report.end();
  return report.finish();
}
