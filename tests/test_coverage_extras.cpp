// Additional coverage for corners the module suites do not reach: solver
// scaling equivalence, the paper-faithful quota rule's invariants, RNG
// shuffle properties, sparse cancellation paths, and API guard rails.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "dspp/integer.hpp"
#include "dspp/window_program.hpp"
#include "control/predictor.hpp"
#include "game/competition.hpp"
#include "qp/admm_solver.hpp"

namespace gp {
namespace {

using linalg::SparseMatrix;
using linalg::Triplet;
using linalg::Vector;

TEST(Scaling, SolutionsMatchWithAndWithoutEquilibration) {
  // Ruiz equilibration changes the iterates, not the answer. Compares the
  // ADMM iterates themselves, so polish is off.
  qp::QpProblem problem;
  problem.p = SparseMatrix::diagonal(Vector{2e4, 2e-3});
  problem.q = {-1e4, 1e-3};
  problem.a = SparseMatrix::from_triplets(2, 2, {{0, 0, 1.0}, {0, 1, 1e3}, {1, 0, 1.0}});
  problem.lower = {-1e3, 0.0};
  problem.upper = {1e3, 5.0};
  qp::AdmmSettings scaled_settings;
  scaled_settings.scale_problem = true;
  scaled_settings.polish = false;
  qp::AdmmSettings raw_settings = scaled_settings;
  raw_settings.scale_problem = false;
  raw_settings.max_iterations = 100000;
  qp::AdmmSolver scaled(scaled_settings);
  qp::AdmmSolver raw(raw_settings);
  const auto a = scaled.solve(problem);
  const auto b = raw.solve(problem);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (std::size_t j = 0; j < 2; ++j) {
    EXPECT_NEAR(a.x[j], b.x[j], 1e-3 * (1.0 + std::abs(b.x[j])));
  }
}

TEST(Rng, ShuffleIsAPermutationAndMixes) {
  Rng rng(3);
  std::vector<int> items(50);
  for (int i = 0; i < 50; ++i) items[i] = i;
  const auto original = items;
  rng.shuffle(items);
  auto sorted = items;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, original);  // a permutation
  int moved = 0;
  for (int i = 0; i < 50; ++i) moved += items[i] != i;
  EXPECT_GT(moved, 30);  // and not the identity
}

TEST(SparseMatrix, CancellationInProductStillCorrect) {
  // B's column combines A columns so entries cancel exactly mid-way.
  const auto a = SparseMatrix::from_triplets(2, 2, {{0, 0, 1.0}, {0, 1, -1.0}, {1, 1, 1.0}});
  const auto b = SparseMatrix::from_triplets(2, 1, {{0, 0, 1.0}, {1, 0, 1.0}});
  const auto ab = a.multiply(b);
  EXPECT_DOUBLE_EQ(ab.coefficient(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(ab.coefficient(1, 0), 1.0);
}

TEST(WindowProgram, VariableIndexGuardRails) {
  dspp::DsppModel model;
  model.network = topology::NetworkModel({"dc0"}, {"an0"}, {{10.0}});
  model.sla.mu = 100.0;
  model.sla.max_latency_ms = 60.0;
  model.reconfig_cost = {0.1};
  model.capacity = {100.0};
  const dspp::PairIndex pairs(model);
  dspp::WindowInputs inputs;
  inputs.initial_state = {1.0};
  inputs.demand = {Vector{10.0}, Vector{20.0}};
  inputs.price = {Vector{0.05}, Vector{0.05}};
  const dspp::WindowProgram program(model, pairs, inputs);
  EXPECT_EQ(program.num_pairs(), 1u);
  EXPECT_LT(program.x_variable(1, 0), program.problem().num_variables());
  EXPECT_LT(program.u_variable(1, 0), program.problem().num_variables());
  EXPECT_NE(program.x_variable(0, 0), program.u_variable(0, 0));
  EXPECT_THROW(program.x_variable(2, 0), PreconditionError);
  EXPECT_THROW(program.u_variable(0, 1), PreconditionError);
}

TEST(CompetitionGame, PaperRuleKeepsQuotaPartition) {
  Rng rng(21);
  const topology::NetworkModel network({"dc0", "dc1"}, {"an0", "an1"},
                                       {{12.0, 25.0}, {28.0, 14.0}});
  game::RandomProviderParams params;
  params.horizon = 2;
  std::vector<game::ProviderConfig> providers;
  for (int i = 0; i < 3; ++i) providers.push_back(game::make_random_provider(network, params, rng));
  game::GameSettings settings;
  settings.update_rule = game::QuotaUpdateRule::kPaperFixedStep;
  settings.max_iterations = 50;
  const Vector capacity{80.0, 120.0};
  game::CompetitionGame game(std::move(providers), capacity, settings);
  const auto result = game.run();
  for (std::size_t l = 0; l < 2; ++l) {
    double total = 0.0;
    for (const auto& quota : result.quotas) total += quota[l];
    EXPECT_NEAR(total, capacity[l], 1e-6 * capacity[l] + 1e-6);
  }
}

TEST(CompetitionGame, WarmStartQuotasValidated) {
  Rng rng(23);
  const topology::NetworkModel network({"dc0", "dc1"}, {"an0", "an1"},
                                       {{12.0, 25.0}, {28.0, 14.0}});
  game::RandomProviderParams params;
  params.horizon = 2;
  std::vector<game::ProviderConfig> providers;
  for (int i = 0; i < 2; ++i) providers.push_back(game::make_random_provider(network, params, rng));
  game::CompetitionGame game(std::move(providers), Vector{100.0, 100.0});
  // Wrong provider count.
  EXPECT_THROW(game.run(std::vector<Vector>{Vector{50.0, 50.0}}), PreconditionError);
  // Wrong L.
  EXPECT_THROW(game.run(std::vector<Vector>{Vector{50.0}, Vector{50.0}}), PreconditionError);
  // Valid warm start runs.
  const auto result =
      game.run(std::vector<Vector>{Vector{30.0, 70.0}, Vector{70.0, 30.0}});
  EXPECT_GT(result.iterations, 0);
}

TEST(IntegerizeResult, GapIsRelative) {
  dspp::IntegerizeResult result;
  result.continuous_objective = 10.0;
  result.objective = 11.0;
  EXPECT_NEAR(result.gap(), 0.1, 1e-12);
  result.continuous_objective = 0.0;
  EXPECT_DOUBLE_EQ(result.gap(), 0.0);
}

TEST(OraclePredictor, ObserveDimensionMismatchThrows) {
  control::OraclePredictor oracle({{1.0, 2.0}});
  EXPECT_THROW(oracle.observe({1.0}), PreconditionError);
}

TEST(Admm, UnscaledModeStillDetectsInfeasibility) {
  qp::QpProblem problem;
  problem.p = SparseMatrix::identity(1, 1.0);
  problem.q = {0.0};
  problem.a = SparseMatrix::from_triplets(2, 1, {{0, 0, 1.0}, {1, 0, 1.0}});
  problem.lower = {1.0, -qp::kInfinity};
  problem.upper = {qp::kInfinity, -1.0};
  qp::AdmmSettings settings;
  settings.scale_problem = false;
  qp::AdmmSolver solver(settings);
  EXPECT_EQ(solver.solve(problem).status, qp::SolveStatus::kPrimalInfeasible);
}

TEST(NetworkModel, TransitStubEmbeddingDeterministicPerRngState) {
  topology::TransitStubParams params;
  Rng rng_a(5), rng_b(5);
  const auto topo_a = topology::generate_transit_stub(params, rng_a);
  const auto topo_b = topology::generate_transit_stub(params, rng_b);
  const auto net_a = topology::NetworkModel::from_transit_stub(topo_a, 3, 6, rng_a);
  const auto net_b = topology::NetworkModel::from_transit_stub(topo_b, 3, 6, rng_b);
  for (std::size_t l = 0; l < 3; ++l) {
    for (std::size_t v = 0; v < 6; ++v) {
      EXPECT_DOUBLE_EQ(net_a.latency_ms(l, v), net_b.latency_ms(l, v));
    }
  }
}

}  // namespace
}  // namespace gp
