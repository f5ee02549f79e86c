// Tests for the parallel solve layer: the deterministic thread pool, the
// symbolic-reusing LDL^T refactorization, the ADMM structure cache, the
// in-place WindowProgram parameter update, and — end to end — that the
// competition game is bit-identical at any thread count and that warm
// starting does not change the equilibrium it converges to.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <thread>
#include <stdexcept>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "dspp/window_program.hpp"
#include "game/competition.hpp"
#include "linalg/sparse_ldlt.hpp"
#include "qp/admm_solver.hpp"

namespace gp {
namespace {

// Widen the global pool before its first use: the CI box may expose a single
// hardware thread, and these tests specifically exercise multi-lane runs.
const bool kEnvReady = [] {
  setenv("GEOPLACE_THREADS", "8", /*overwrite=*/0);
  return true;
}();

using linalg::SparseLdlt;
using linalg::SparseMatrix;
using linalg::Triplet;
using linalg::Vector;

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPool, VisitsEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  std::vector<int> visits(1000, 0);
  pool.parallel_for(0, visits.size(), [&](std::size_t i) { ++visits[i]; });
  for (int count : visits) EXPECT_EQ(count, 1);
}

TEST(ThreadPool, HandlesEmptyAndTinyRanges) {
  ThreadPool pool(3);
  std::atomic<int> calls{0};
  pool.parallel_for(5, 5, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
  pool.parallel_for(7, 9, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 2);
}

TEST(ThreadPool, ResultsBitIdenticalAcrossLaneCounts) {
  ThreadPool pool(7);
  auto compute = [&](std::size_t lanes) {
    std::vector<double> out(513, 0.0);
    pool.parallel_for(
        0, out.size(),
        [&](std::size_t i) {
          double x = static_cast<double>(i) * 0.731 + 0.1;
          for (int k = 0; k < 50; ++k) x = std::sin(x) + std::sqrt(x + 1.0);
          out[i] = x;
        },
        lanes);
    return out;
  };
  const auto one = compute(1);
  for (std::size_t lanes : {2u, 3u, 8u}) {
    const auto many = compute(lanes);
    ASSERT_EQ(many.size(), one.size());
    for (std::size_t i = 0; i < one.size(); ++i) {
      EXPECT_EQ(many[i], one[i]) << "lanes=" << lanes << " i=" << i;  // bit-exact
    }
  }
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.parallel_for(0, 100,
                                 [](std::size_t i) {
                                   if (i == 57) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // The pool is still usable afterwards.
  std::atomic<int> calls{0};
  pool.parallel_for(0, 10, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 10);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> counts(16);
  pool.parallel_for(0, 4, [&](std::size_t outer) {
    pool.parallel_for(0, 4, [&](std::size_t inner) { ++counts[outer * 4 + inner]; });
  });
  for (auto& count : counts) EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, DefaultLanesHonorsEnvironment) {
  setenv("GEOPLACE_THREADS", "5", /*overwrite=*/1);
  EXPECT_EQ(ThreadPool::default_lanes(), 5u);
  setenv("GEOPLACE_THREADS", "not-a-number", /*overwrite=*/1);
  EXPECT_GE(ThreadPool::default_lanes(), 1u);
  setenv("GEOPLACE_THREADS", "8", /*overwrite=*/1);  // restore for later tests
}

TEST(ThreadPool, GlobalParallelForWorks) {
  std::vector<int> visits(100, 0);
  parallel_for(0, visits.size(), [&](std::size_t i) { ++visits[i]; });
  for (int count : visits) EXPECT_EQ(count, 1);
}

// ------------------------------------------------------ ThreadPool telemetry

// A queued chunk signals its parallel_for region complete from inside the
// task body, but the worker adds its counters AFTER the body returns — so
// the caller can observe the region done a beat before the last chunk's
// accounting lands (the header documents counters as utilization
// accounting, not a synchronization point). Tests quiesce on the expected
// task count before asserting exact totals.
void wait_for_tasks(const ThreadPool& pool, unsigned long long expected) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (pool.telemetry().tasks < expected &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
}

TEST(ThreadPoolTelemetry, DisarmedPoolCountsNothing) {
  ThreadPool pool(3);
  EXPECT_FALSE(pool.telemetry_enabled());
  pool.parallel_for(0, 100, [](std::size_t) {});
  const PoolTelemetry totals = pool.telemetry();
  EXPECT_EQ(totals.tasks, 0u);
  EXPECT_EQ(totals.busy_ns, 0u);
  EXPECT_EQ(totals.idle_ns, 0u);
  EXPECT_EQ(totals.queue_wait_ns, 0u);
  EXPECT_EQ(totals.queue_depth, 0u);
  const auto lanes = pool.lane_telemetry();
  ASSERT_EQ(lanes.size(), pool.num_workers() + 1);
  for (const auto& lane : lanes) {
    EXPECT_EQ(lane.tasks, 0u);
    EXPECT_EQ(lane.busy_ns, 0u);
  }
}

TEST(ThreadPoolTelemetry, ArmedParallelForAccountsTasksAndBusyTime) {
  ThreadPool pool(3);
  pool.set_telemetry_enabled(true);
  EXPECT_TRUE(pool.telemetry_enabled());
  pool.parallel_for(
      0, 4, [](std::size_t) { std::this_thread::sleep_for(std::chrono::milliseconds(2)); },
      /*max_threads=*/4);
  wait_for_tasks(pool, 4);
  const PoolTelemetry totals = pool.telemetry();
  // 4 indices across 4 lanes: exactly one chunk per lane, the caller's
  // chunk included.
  EXPECT_EQ(totals.tasks, 4u);
  // Each chunk slept 2ms, so the summed busy time has a hard floor.
  EXPECT_GE(totals.busy_ns, 4ull * 1'500'000ull);
  EXPECT_EQ(totals.queue_depth, 0u);

  const auto lanes = pool.lane_telemetry();
  ASSERT_EQ(lanes.size(), 4u);
  EXPECT_EQ(lanes[pool.external_lane()].lane, pool.external_lane());
  // The caller always executes chunk 0 itself, on the external lane.
  EXPECT_GE(lanes[pool.external_lane()].tasks, 1u);
  unsigned long long lane_tasks = 0, lane_busy = 0, lane_wait = 0;
  for (const auto& lane : lanes) {
    lane_tasks += lane.tasks;
    lane_busy += lane.busy_ns;
    lane_wait += lane.queue_wait_ns;
  }
  EXPECT_EQ(lane_tasks, totals.tasks);
  EXPECT_EQ(lane_busy, totals.busy_ns);
  EXPECT_EQ(lane_wait, totals.queue_wait_ns);
  pool.set_telemetry_enabled(false);
}

TEST(ThreadPoolTelemetry, ResetZeroesEveryCounter) {
  ThreadPool pool(2);
  pool.set_telemetry_enabled(true);
  pool.parallel_for(0, 8, [](std::size_t) { std::this_thread::sleep_for(std::chrono::milliseconds(1)); });
  wait_for_tasks(pool, 3);  // 8 indices over 3 lanes = 3 chunks
  ASSERT_GT(pool.telemetry().tasks, 0u);
  pool.reset_telemetry();
  const PoolTelemetry totals = pool.telemetry();
  EXPECT_EQ(totals.tasks, 0u);
  EXPECT_EQ(totals.busy_ns, 0u);
  EXPECT_EQ(totals.idle_ns, 0u);
  EXPECT_EQ(totals.queue_wait_ns, 0u);
}

TEST(ThreadPoolTelemetry, NestedParallelForKeepsBusyWithinWallClock) {
  ThreadPool pool(1);  // 2 lanes
  pool.set_telemetry_enabled(true);
  pool.reset_telemetry();
  const auto wall_start = std::chrono::steady_clock::now();
  pool.parallel_for(0, 2, [&](std::size_t) {
    pool.parallel_for(0, 2, [](std::size_t) {
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    });
  });
  // Quiesce BEFORE reading the wall clock: every busy interval's end-time
  // read happens-before its counter update, so a wall window closed after
  // the expected task count is visible brackets all accounted busy time.
  wait_for_tasks(pool, 6);
  const auto wall_ns = static_cast<unsigned long long>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - wall_start)
          .count());
  const PoolTelemetry totals = pool.telemetry();
  // 2 outer chunks + 2 inner chunks per outer body.
  EXPECT_EQ(totals.tasks, 6u);
  // Busy time is accounted only at the OUTERMOST chunk of each thread, so
  // the pool can never report more busy time than lanes * wall clock — the
  // invariant that keeps the engine's pool_util column inside [0, 1].
  EXPECT_LE(totals.busy_ns, 2 * wall_ns + wall_ns / 5);
  EXPECT_GT(totals.busy_ns, 0u);
}

TEST(ThreadPoolTelemetry, WorkersAccumulateIdleTimeWhileBlocked) {
  ThreadPool pool(2);
  pool.set_telemetry_enabled(true);
  // A worker's wait is timed only once it RE-enters the wait with telemetry
  // armed, and idle is recorded when a task wakes it — so cycle work with
  // gaps until some worker has banked a measurable blocked interval.
  for (int round = 0; round < 50 && pool.telemetry().idle_ns < 1'000'000ull; ++round) {
    pool.parallel_for(
        0, 3, [](std::size_t) { std::this_thread::sleep_for(std::chrono::milliseconds(2)); },
        /*max_threads=*/3);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(pool.telemetry().idle_ns, 1'000'000ull);
}

TEST(ThreadPoolTelemetry, AccountingNeverChangesResults) {
  ThreadPool pool(3);
  auto compute = [&] {
    std::vector<double> out(257, 0.0);
    pool.parallel_for(0, out.size(), [&](std::size_t i) {
      double acc = 0.0;
      for (int k = 1; k <= 40; ++k) acc += std::sin(static_cast<double>(i) / k);
      out[i] = acc;
    });
    return out;
  };
  const auto plain = compute();
  pool.set_telemetry_enabled(true);
  const auto armed = compute();
  pool.set_telemetry_enabled(false);
  ASSERT_EQ(plain.size(), armed.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i], armed[i]) << i;  // bit-identical, not just close
  }
}

// ------------------------------------------------------- SparseLdlt refactor

// Upper triangle of a small quasi-definite matrix (SPD block, negative
// block), the shape of the solver's KKT systems.
SparseMatrix quasi_definite_upper(double a, double b, double c) {
  return SparseMatrix::from_triplets(
      5, 5,
      {Triplet{0, 0, 4.0 + a}, Triplet{0, 2, 1.0}, Triplet{1, 1, 3.0 + b}, Triplet{1, 3, 2.0},
       Triplet{2, 2, 5.0}, Triplet{2, 4, c}, Triplet{3, 3, -2.0}, Triplet{4, 4, -3.0}});
}

TEST(SparseLdltRefactor, MatchesFreshFactorAfterValueChange) {
  SparseLdlt cached;
  ASSERT_EQ(cached.factor(quasi_definite_upper(0.0, 0.0, 0.5)), SparseLdlt::Status::kOk);

  const SparseMatrix perturbed = quasi_definite_upper(0.7, -0.3, 1.1);
  ASSERT_EQ(cached.refactor(perturbed), SparseLdlt::Status::kOk);

  SparseLdlt fresh;
  ASSERT_EQ(fresh.factor(perturbed), SparseLdlt::Status::kOk);

  const Vector rhs{1.0, -2.0, 3.0, 0.5, -1.5};
  const Vector via_refactor = cached.solve(rhs);
  const Vector via_fresh = fresh.solve(rhs);
  ASSERT_EQ(via_refactor.size(), via_fresh.size());
  for (std::size_t i = 0; i < via_fresh.size(); ++i) {
    EXPECT_NEAR(via_refactor[i], via_fresh[i], 1e-12);
  }
}

TEST(SparseLdltRefactor, RejectsChangedPattern) {
  SparseLdlt ldlt;
  const SparseMatrix original = quasi_definite_upper(0.0, 0.0, 0.5);
  ASSERT_EQ(ldlt.factor(original), SparseLdlt::Status::kOk);

  // Same size, one extra off-diagonal entry: a different sparsity pattern.
  const SparseMatrix other = SparseMatrix::from_triplets(
      5, 5,
      {Triplet{0, 0, 4.0}, Triplet{0, 1, 0.5}, Triplet{0, 2, 1.0}, Triplet{1, 1, 3.0},
       Triplet{1, 3, 2.0}, Triplet{2, 2, 5.0}, Triplet{2, 4, 0.5}, Triplet{3, 3, -2.0},
       Triplet{4, 4, -3.0}});
  EXPECT_EQ(ldlt.refactor(other), SparseLdlt::Status::kPatternMismatch);

  // The previous factorization must remain intact and correct.
  EXPECT_EQ(ldlt.status(), SparseLdlt::Status::kOk);
  const Vector rhs{1.0, 0.0, -1.0, 2.0, 0.5};
  const Vector x = ldlt.solve(rhs);
  Vector residual = rhs;
  // full symmetric product: r = b - M x with M from the upper triangle.
  for (std::int32_t col = 0; col < original.cols(); ++col) {
    for (std::int32_t k = original.col_ptr()[static_cast<std::size_t>(col)];
         k < original.col_ptr()[static_cast<std::size_t>(col) + 1]; ++k) {
      const std::int32_t row = original.row_idx()[static_cast<std::size_t>(k)];
      const double value = original.values()[static_cast<std::size_t>(k)];
      residual[static_cast<std::size_t>(row)] -= value * x[static_cast<std::size_t>(col)];
      if (row != col) {
        residual[static_cast<std::size_t>(col)] -= value * x[static_cast<std::size_t>(row)];
      }
    }
  }
  for (double r : residual) EXPECT_NEAR(r, 0.0, 1e-10);
}

TEST(SparseLdltRefactor, RequiresPriorFactor) {
  SparseLdlt ldlt;
  EXPECT_EQ(ldlt.refactor(quasi_definite_upper(0.0, 0.0, 0.5)),
            SparseLdlt::Status::kNotFactored);
}

// ---------------------------------------------------- game-level guarantees

topology::NetworkModel small_network() {
  return topology::NetworkModel({"dc0", "dc1"}, {"an0", "an1", "an2"},
                                {{10.0, 20.0, 30.0}, {25.0, 15.0, 10.0}});
}

std::vector<game::ProviderConfig> sample_providers(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  game::RandomProviderParams params;
  params.horizon = 3;
  std::vector<game::ProviderConfig> providers;
  const auto network = small_network();
  for (std::size_t i = 0; i < count; ++i) {
    providers.push_back(game::make_random_provider(network, params, rng));
  }
  return providers;
}

game::GameResult run_game(game::GameSettings settings, std::uint64_t seed = 11,
                          std::size_t providers = 4) {
  game::CompetitionGame game(sample_providers(providers, seed), Vector{150.0, 150.0},
                             settings);
  return game.run();
}

TEST(ParallelGame, BitIdenticalAcrossThreadCounts) {
  game::GameSettings settings;
  settings.epsilon = 0.01;
  settings.num_threads = 1;
  const game::GameResult serial = run_game(settings);

  for (std::size_t threads : {2u, 4u}) {
    settings.num_threads = threads;
    const game::GameResult parallel = run_game(settings);
    EXPECT_EQ(parallel.converged, serial.converged);
    EXPECT_EQ(parallel.iterations, serial.iterations);
    ASSERT_EQ(parallel.cost_history.size(), serial.cost_history.size());
    for (std::size_t k = 0; k < serial.cost_history.size(); ++k) {
      EXPECT_EQ(parallel.cost_history[k], serial.cost_history[k])
          << "threads=" << threads << " iteration=" << k;  // bit-exact
    }
    ASSERT_EQ(parallel.quotas.size(), serial.quotas.size());
    for (std::size_t i = 0; i < serial.quotas.size(); ++i) {
      ASSERT_EQ(parallel.quotas[i].size(), serial.quotas[i].size());
      for (std::size_t l = 0; l < serial.quotas[i].size(); ++l) {
        EXPECT_EQ(parallel.quotas[i][l], serial.quotas[i][l])
            << "threads=" << threads << " i=" << i << " l=" << l;  // bit-exact
      }
    }
  }
}

dspp::WindowInputs inputs_for(const game::ProviderConfig& provider) {
  dspp::WindowInputs inputs;
  inputs.initial_state = provider.initial_state;
  inputs.demand = provider.demand;
  inputs.price = provider.price;
  inputs.soft_demand_penalty = 5.0;
  return inputs;
}

TEST(WindowProgramUpdate, MatchesFreshConstruction) {
  const auto provider = sample_providers(1, 3).front();
  const dspp::PairIndex pairs(provider.model);

  dspp::WindowInputs first = inputs_for(provider);
  dspp::WindowProgram updated(provider.model, pairs, first);

  // New forecasts, initial state, and a quota: everything update() rewrites.
  dspp::WindowInputs second = inputs_for(provider);
  for (auto& d : second.demand) {
    for (double& value : d) value *= 1.3;
  }
  for (auto& p : second.price) {
    for (double& value : p) value += 0.25;
  }
  for (double& x : second.initial_state) x += 1.0;
  second.capacity_override = Vector{80.0, 90.0};
  updated.update(provider.model, pairs, second);

  const dspp::WindowProgram fresh(provider.model, pairs, second);
  const qp::QpProblem& a = updated.problem();
  const qp::QpProblem& b = fresh.problem();
  EXPECT_EQ(a.q, b.q);
  EXPECT_EQ(a.lower, b.lower);
  EXPECT_EQ(a.upper, b.upper);
  ASSERT_EQ(a.p.nnz(), b.p.nnz());
  ASSERT_EQ(a.a.nnz(), b.a.nnz());
  for (std::size_t k = 0; k < a.p.values().size(); ++k) {
    EXPECT_EQ(a.p.values()[k], b.p.values()[k]);
  }
  for (std::size_t k = 0; k < a.a.values().size(); ++k) {
    EXPECT_EQ(a.a.values()[k], b.a.values()[k]);
  }
}

TEST(WindowProgramUpdate, RejectsShapeChanges) {
  const auto provider = sample_providers(1, 5).front();
  const dspp::PairIndex pairs(provider.model);
  dspp::WindowProgram program(provider.model, pairs, inputs_for(provider));

  dspp::WindowInputs longer = inputs_for(provider);
  longer.demand.push_back(longer.demand.back());
  longer.price.push_back(longer.price.back());
  EXPECT_THROW(program.update(provider.model, pairs, longer), PreconditionError);

  dspp::WindowInputs hard = inputs_for(provider);
  hard.soft_demand_penalty = 0.0;
  EXPECT_THROW(program.update(provider.model, pairs, hard), PreconditionError);
}

TEST(AdmmCache, ParameterUpdatedSolvesMatchFreshSolver) {
  const auto provider = sample_providers(1, 7).front();
  const dspp::PairIndex pairs(provider.model);

  qp::AdmmSettings settings;
  settings.cache_structure = true;
  qp::AdmmSolver cached(settings);

  dspp::WindowInputs first = inputs_for(provider);
  dspp::WindowProgram program(provider.model, pairs, first);
  const qp::QpResult warmup = cached.solve(program.problem());
  ASSERT_TRUE(warmup.ok());

  dspp::WindowInputs second = inputs_for(provider);
  for (auto& d : second.demand) {
    for (double& value : d) value *= 1.2;
  }
  second.capacity_override = Vector{120.0, 140.0};
  program.update(provider.model, pairs, second);

  const qp::QpResult via_cache = cached.solve(program.problem());
  ASSERT_TRUE(via_cache.ok());

  qp::AdmmSettings cold_settings;
  cold_settings.cache_structure = false;
  qp::AdmmSolver cold(cold_settings);
  const qp::QpResult via_cold = cold.solve(program.problem());
  ASSERT_TRUE(via_cold.ok());

  EXPECT_NEAR(via_cache.objective, via_cold.objective,
              1e-5 * (1.0 + std::abs(via_cold.objective)));
  ASSERT_EQ(via_cache.x.size(), via_cold.x.size());
  for (std::size_t i = 0; i < via_cold.x.size(); ++i) {
    EXPECT_NEAR(via_cache.x[i], via_cold.x[i], 1e-4);
  }

  const qp::AdmmCacheStats& stats = cached.cache_stats();
  EXPECT_EQ(stats.solves, 2);
  EXPECT_EQ(stats.structure_hits, 1);
  EXPECT_GE(stats.full_factorizations, 1LL);

  // The per-solve SolveInfo mirrors the lifetime counters: cold setup on
  // the first solve; the second is a structure-cache hit, and since the
  // update touched only q/bounds the cached factorization is reused.
  EXPECT_EQ(warmup.info.cache_hits, 0);
  EXPECT_GE(warmup.info.factorizations, 1);
  EXPECT_FALSE(warmup.info.factorization_skipped);
  EXPECT_EQ(via_cache.info.cache_hits, 1);
  EXPECT_TRUE(via_cache.info.factorization_skipped);
}

TEST(AdmmCache, SkipsFactorizationWhenProblemUnchanged) {
  const auto provider = sample_providers(1, 9).front();
  const dspp::PairIndex pairs(provider.model);
  dspp::WindowProgram program(provider.model, pairs, inputs_for(provider));

  // cache_structure defaults to true. The raw 1e-6 iterate, unpolished: a
  // polish's refactor-and-restore pair would count in info.factorizations
  // (AdmmHotLoop.PolishedWarmResolveMakesZeroHeapAllocations covers it).
  qp::AdmmSolver solver(qp::AdmmSettings{.eps_abs = 1e-6, .eps_rel = 1e-6, .polish = false});
  const qp::QpResult first = solver.solve(program.problem());
  const qp::QpResult second = solver.solve(program.problem());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_NEAR(second.objective, first.objective, 1e-6 * (1.0 + std::abs(first.objective)));
  EXPECT_GE(solver.cache_stats().factorizations_skipped, 1LL);
  EXPECT_TRUE(second.info.factorization_skipped);
  EXPECT_EQ(second.info.factorizations, 0);
  EXPECT_EQ(second.info.cache_hits, 1);
}

TEST(AdmmCache, PatternChangeFallsBackToFullSetup) {
  const auto providers = sample_providers(2, 13);
  qp::AdmmSolver solver;

  const dspp::PairIndex pairs0(providers[0].model);
  dspp::WindowProgram soft(providers[0].model, pairs0, inputs_for(providers[0]));
  ASSERT_TRUE(solver.solve(soft.problem()).ok());

  // A hard-demand program drops the slack block: different dimensions and
  // pattern. The solver must transparently rerun the full setup.
  dspp::WindowInputs hard_inputs = inputs_for(providers[1]);
  hard_inputs.soft_demand_penalty = 0.0;
  const dspp::PairIndex pairs1(providers[1].model);
  dspp::WindowProgram hard(providers[1].model, pairs1, hard_inputs);
  const qp::QpResult result = solver.solve(hard.problem());
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(solver.cache_stats().structure_hits, 0);
  EXPECT_GE(solver.cache_stats().full_factorizations, 2LL);
}

TEST(AdmmWorkspace, ConcurrentWarmSolversAreRaceFreeAndBitIdentical) {
  // Each AdmmSolver owns its workspace; concurrent solvers sharing one
  // read-only QpProblem must not race (this is the configuration the
  // parallel best-response sweep runs, and the one the tsan preset checks).
  // Every lane re-solves twice so the second solve exercises the REUSED
  // warm workspace, and all lanes must produce bitwise-identical iterates.
  const auto provider = sample_providers(1, 23).front();
  const dspp::PairIndex pairs(provider.model);
  const dspp::WindowProgram program(provider.model, pairs, inputs_for(provider));
  const qp::QpProblem& problem = program.problem();

  constexpr std::size_t kLanes = 4;
  std::vector<qp::QpResult> warm_results(kLanes);
  ThreadPool pool(kLanes);
  pool.parallel_for(0, kLanes, [&](std::size_t lane) {
    qp::AdmmSolver solver;
    (void)solver.solve(problem);  // sizes the workspace
    warm_results[lane] = solver.solve(problem);
  });

  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    ASSERT_EQ(warm_results[lane].status, qp::SolveStatus::kOptimal) << "lane " << lane;
    EXPECT_EQ(warm_results[lane].info.hot_loop_allocations, 0) << "lane " << lane;
    EXPECT_EQ(warm_results[lane].x, warm_results[0].x) << "lane " << lane;
    EXPECT_EQ(warm_results[lane].y, warm_results[0].y) << "lane " << lane;
  }
}

TEST(ParallelGame, WarmStartMatchesColdStartEquilibrium) {
  // Regression for the warm-start cross-contamination bug: with one solver
  // PER PROVIDER, enabling auto_warm_start must converge to the same
  // equilibrium as cold starts (it only changes the starting iterate of
  // each provider's OWN previous problem).
  game::GameSettings cold;
  cold.epsilon = 0.01;
  cold.solver.auto_warm_start = false;
  game::GameSettings warm = cold;
  warm.solver.auto_warm_start = true;

  const game::GameResult cold_result = run_game(cold, 17);
  const game::GameResult warm_result = run_game(warm, 17);
  ASSERT_TRUE(cold_result.converged);
  ASSERT_TRUE(warm_result.converged);
  EXPECT_NEAR(warm_result.total_cost, cold_result.total_cost,
              0.02 * cold_result.total_cost);
  ASSERT_EQ(warm_result.quotas.size(), cold_result.quotas.size());
  for (std::size_t i = 0; i < cold_result.quotas.size(); ++i) {
    for (std::size_t l = 0; l < cold_result.quotas[i].size(); ++l) {
      EXPECT_NEAR(warm_result.quotas[i][l], cold_result.quotas[i][l], 10.0)
          << "i=" << i << " l=" << l;
    }
  }
}

}  // namespace
}  // namespace gp
