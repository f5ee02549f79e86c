// Performance study of the parallel solve layer (BENCH_parallel.json).
//
// Two experiments:
//  1. Game convergence: an 8-provider competition with a contested bottleneck
//     run at 1/2/4/8 best-response lanes. Reports wall time, speedup over the
//     single-lane run, Algorithm-2 iterations, and verifies the determinism
//     contract: cost history and final quotas are BIT-identical at every
//     thread count.
//  2. A 96-step MPC run (4 data centers x 24 cities, horizon 5) with and
//     without solver-state reuse. Reports wall time, total ADMM iterations,
//     and the solver's setup-reuse counters (structure hits, numeric-only
//     refactorizations, factorizations skipped outright).
//
// Wall-clock speedup is reported honestly: with a single usable lane
// (bench/harness.hpp) the lanes time-slice one core and the speedup hovers
// around 1.0; the determinism check and the caching/warm-start wins are the
// meaningful signal there. `cpus` in the JSON records what the machine
// offered.
#include <cstdlib>
#include <vector>

#include "common/stats.hpp"
#include "game/competition.hpp"
#include "harness.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "scenario/policy.hpp"
#include "scenario/registry.hpp"

namespace {

using gp::bench::Clock;
using gp::bench::ms_since;
using gp::linalg::Vector;

// 8 providers fighting over a cheap bottleneck site (the Fig. 7 setup).
std::vector<gp::game::ProviderConfig> game_providers() {
  const gp::topology::NetworkModel network({"dc-cheap", "dc-big"}, {"an0", "an1", "an2"},
                                           {{15.0, 25.0, 35.0}, {100.0, 20.0, 15.0}});
  gp::Rng rng(2024);
  gp::game::RandomProviderParams params;
  params.horizon = 4;
  params.max_latency_min_ms = 60.0;
  params.max_latency_max_ms = 120.0;
  params.demand_min = 150.0;
  params.demand_max = 500.0;
  std::vector<gp::game::ProviderConfig> providers;
  for (int i = 0; i < 8; ++i) {
    providers.push_back(gp::game::make_random_provider(network, params, rng));
    for (auto& price : providers.back().price) price[0] = 0.4 * price[1];
  }
  return providers;
}

struct GameRun {
  std::size_t threads = 0;
  double wall_ms = 0.0;
  int iterations = 0;
  gp::game::GameResult result;
};

GameRun run_game(std::size_t threads) {
  gp::game::GameSettings settings;
  settings.epsilon = 0.02;
  settings.num_threads = threads;
  gp::game::CompetitionGame game(game_providers(), Vector{200.0, 3000.0}, settings);
  GameRun run;
  run.threads = threads;
  const auto start = Clock::now();
  run.result = game.run();
  run.wall_ms = ms_since(start);
  run.iterations = run.result.iterations;
  return run;
}

bool identical(const gp::game::GameResult& a, const gp::game::GameResult& b) {
  if (a.cost_history != b.cost_history) return false;
  if (a.quotas.size() != b.quotas.size()) return false;
  for (std::size_t i = 0; i < a.quotas.size(); ++i) {
    if (a.quotas[i] != b.quotas[i]) return false;
  }
  return true;
}

struct MpcRun {
  double wall_ms = 0.0;
  long long admm_iterations = 0;
  int unsolved = 0;
  double total_cost = 0.0;
  gp::qp::AdmmCacheStats stats;
};

MpcRun run_mpc(bool reuse_solver_state) {
  const auto scenario = gp::scenario::build(gp::scenario::section7_spec(4, 24));
  gp::control::MpcSettings settings;
  settings.horizon = 5;
  settings.reuse_solver_state = reuse_solver_state;
  gp::control::MpcController controller(scenario.model, settings,
                                        gp::scenario::make_predictor("last"),
                                        gp::scenario::make_predictor("last"));

  constexpr std::size_t kSteps = 96;
  auto demand_at = [&](std::size_t k) {
    return scenario.demand.mean_rates(static_cast<double>(k) + 0.5);
  };
  auto price_at = [&](std::size_t k) {
    return scenario.prices.server_prices(static_cast<double>(k) + 0.5);
  };

  Vector state = controller.provision_for(demand_at(0), price_at(0));
  MpcRun run;
  const auto start = Clock::now();
  for (std::size_t k = 0; k < kSteps; ++k) {
    const auto step = controller.step(state, demand_at(k), price_at(k));
    run.admm_iterations += step.solver_iterations;
    if (!step.solved) ++run.unsolved;
    run.total_cost += step.window_objective;
    state = step.next_state;
  }
  run.wall_ms = ms_since(start);
  run.stats = controller.solver_cache_stats();
  return run;
}

}  // namespace

int main() {
  // Widen the global pool regardless of what the machine reports, so the
  // 2/4/8-lane runs genuinely exercise multi-threaded dispatch (the pool is
  // sized once, on first use).
  setenv("GEOPLACE_THREADS", "8", /*overwrite=*/0);
  // Wall-clock speedup is only a meaningful ratio when the lanes can
  // actually run concurrently. With a single usable lane the runs
  // time-slice one core and the ratio is scheduler noise, so the JSON flags
  // it invalid rather than pretending 1.0x is a measurement.
  const bool speedup_valid = gp::bench::usable_lanes() > 1;

  std::vector<GameRun> runs;
  for (std::size_t threads : {1u, 2u, 4u, 8u}) runs.push_back(run_game(threads));
  bool all_identical = true;
  for (const auto& run : runs) {
    all_identical = all_identical && identical(run.result, runs.front().result);
  }

  // Baseline runs with the metrics registry explicitly OFF: this is the
  // overhead-sensitive configuration (instrumented call sites reduce to one
  // relaxed atomic load), so `wall_ms` here is the number the 2% budget is
  // judged against.
  auto& registry = gp::obs::Registry::global();
  const bool registry_was_enabled = registry.enabled();
  registry.set_enabled(false);
  const long long counters_before = registry.counter("admm.solves").value();
  const MpcRun cold = run_mpc(false);
  const MpcRun cached = run_mpc(true);
  // Disabled means disabled: the baseline runs must not have touched the
  // registry at all.
  const bool disabled_is_silent =
      registry.counter("admm.solves").value() == counters_before;

  // Instrumented re-run of the cached variant: same work, registry ON, so
  // BENCH_parallel.json gains iteration/cache-hit-rate fields and a
  // measured metrics-overhead ratio.
  registry.set_enabled(true);
  registry.reset_values();
  const MpcRun instrumented = run_mpc(true);
  const long long obs_solves = registry.counter("admm.solves").value();
  const long long obs_hits = registry.counter("admm.structure_hits").value();
  const long long obs_skipped = registry.counter("admm.factorizations_skipped").value();
  const double cache_hit_rate =
      obs_solves > 0 ? static_cast<double>(obs_hits) / static_cast<double>(obs_solves) : 0.0;
  const double skip_rate =
      obs_solves > 0 ? static_cast<double>(obs_skipped) / static_cast<double>(obs_solves)
                     : 0.0;
  const auto iters_snapshot = registry.histogram("admm.iterations_per_solve").snapshot();
  const auto step_snapshot = registry.histogram("mpc.step_ms").snapshot();
  registry.set_enabled(registry_was_enabled);
  const double obs_overhead_ratio =
      cached.wall_ms > 0.0 ? instrumented.wall_ms / cached.wall_ms : 0.0;

  // Profiler-armed lane: the same cached MPC workload, plain vs with the
  // span-stack sampling profiler armed (obs/profiler.hpp), in kOverheadPairs
  // back-to-back pairs that alternate which side runs first, so drift in
  // clock or load hits both sides alike. The ratio of the two medians is
  // the overhead; the registry is off so it isolates the profiler's own
  // cost. Transparency means every run's artifacts are BIT-identical to the
  // cached run's (total cost, iteration counts) — sampling must observe the
  // solver, never steer it. Each armed run rewrites BENCH_parallel.folded
  // for gp_flame; the ≤5% overhead ceiling travels as overhead_ratio_max.
  registry.set_enabled(false);
  constexpr int kOverheadPairs = 5;
  auto& profiler = gp::obs::Profiler::global();
  std::vector<double> plain_ms, armed_ms;
  unsigned long long profiler_samples = 0;
  unsigned long long profiler_torn = 0;
  bool profiler_transparent = true;
  auto timed_run = [&](bool armed) {
    // 499 Hz: plenty of samples over an armed run, and on a single-core
    // host the watcher's timer wakeups (each one preempts the solver) stay
    // a small fraction of the 5% budget.
    if (armed) profiler.start("BENCH_parallel.folded", 499.0);
    const MpcRun run = run_mpc(true);
    if (armed) {
      profiler.stop();
      profiler_samples += profiler.total_samples();
      profiler_torn += profiler.torn_samples();
    }
    (armed ? armed_ms : plain_ms).push_back(run.wall_ms);
    profiler_transparent = profiler_transparent && run.total_cost == cached.total_cost &&
                           run.admm_iterations == cached.admm_iterations &&
                           run.unsolved == cached.unsolved;
  };
  for (int pair = 0; pair < kOverheadPairs; ++pair) {
    const bool armed_first = pair % 2 == 1;
    timed_run(armed_first);
    timed_run(!armed_first);
  }
  registry.set_enabled(registry_was_enabled);
  const double plain_median = gp::percentile(plain_ms, 50.0);
  const double profiler_overhead_ratio =
      plain_median > 0.0 ? gp::percentile(armed_ms, 50.0) / plain_median : 0.0;

  gp::bench::Report report("BENCH_parallel.json",
                           gp::obs::RunManifest::capture("perf_parallel"));
  report.record("cpus", gp::bench::cpus());
  report.object("game");
  report.record("providers", 8);
  report.record("bit_identical", all_identical);
  report.record("speedup_valid", speedup_valid);
  report.array("runs");
  for (const GameRun& run : runs) {
    report.object();
    report.record("threads", run.threads);
    report.record("wall_ms", run.wall_ms);
    // The per-run speedup key is omitted entirely when invalid so that
    // downstream tooling cannot average a meaningless ratio by accident.
    if (speedup_valid) report.record("speedup", runs.front().wall_ms / run.wall_ms);
    report.record("iterations", run.iterations);
    report.end();
  }
  report.end();
  report.end();
  report.object("mpc");
  report.record("steps", 96);
  report.object("cold", {{"wall_ms", cold.wall_ms},
                         {"admm_iterations", cold.admm_iterations},
                         {"unsolved", cold.unsolved}});
  report.object("cached", {{"wall_ms", cached.wall_ms},
                           {"admm_iterations", cached.admm_iterations},
                           {"unsolved", cached.unsolved},
                           {"structure_hits", cached.stats.structure_hits},
                           {"full_factorizations", cached.stats.full_factorizations},
                           {"refactorizations", cached.stats.refactorizations},
                           {"factorizations_skipped", cached.stats.factorizations_skipped}});
  report.object("obs", {{"cache_hit_rate", cache_hit_rate},
                        {"factorization_skip_rate", skip_rate},
                        {"iterations_per_solve_p50", iters_snapshot.p50},
                        {"iterations_per_solve_p95", iters_snapshot.p95},
                        {"step_ms_p50", step_snapshot.p50},
                        {"step_ms_p95", step_snapshot.p95},
                        {"step_ms_p99", step_snapshot.p99},
                        {"metrics_overhead_ratio", obs_overhead_ratio},
                        {"disabled_is_silent", disabled_is_silent}});
  report.object("profiler");
  // An armed profiler may cost at most 5% wall time on the MPC workload.
  report.ceiling("overhead_ratio", profiler_overhead_ratio, 1.05);
  report.record("samples", profiler_samples);
  report.record("torn", profiler_torn);
  report.record("transparent", profiler_transparent);
  report.end();
  report.record("iteration_ratio",
                cold.admm_iterations > 0 ? static_cast<double>(cached.admm_iterations) /
                                               static_cast<double>(cold.admm_iterations)
                                         : 0.0);
  report.record("wall_ratio", cold.wall_ms > 0.0 ? cached.wall_ms / cold.wall_ms : 0.0);
  report.end();

  // The run is healthy when determinism holds, solver-state reuse did not
  // cost iterations (it should cut them) nor break any step, the disabled
  // registry stayed untouched, and the instrumented and armed runs actually
  // recorded.
  report.check("bit_identical", all_identical);
  report.check("cached_unsolved_equal", cached.unsolved == cold.unsolved);
  report.check("cached_iterations_not_above_cold",
               cached.admm_iterations <= cold.admm_iterations);
  report.check("disabled_is_silent", disabled_is_silent);
  report.check("obs_recorded", obs_solves > 0);
  report.check("profiler_transparent", profiler_transparent);
  report.check("profiler_sampled", profiler_samples > 0);
  return report.finish();
}
