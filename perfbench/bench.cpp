// The repository benchmark: runs one workload for a fixed wall-clock
// budget and prints its metrics, then one JSON result line.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--source-id <text>]
//
// --trace 0 times the shipped code paths from outside and prints the
// end-to-end metrics; --trace 1 replays the same days through the
// decomposed, per-call-timed loop of replay.hpp and prints the per-layer
// metrics. Every workload is a closed loop in simulated time: a period is
// planned only after the previous one finished, and nothing paces the loop
// to the wall clock. perfbench/run.py builds this binary and sets the pool
// lane count (GEOPLACE_THREADS); NOTES.md lists what each metric predicts.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "obs/manifest.hpp"
#include "replay.hpp"
#include "scenario/registry.hpp"
#include "scenario/sweep.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

namespace scenario = gp::scenario;

/// A run never measures longer than this, whatever sample floor is unmet,
/// so that it ends within 180 s.
constexpr double kHardCapSeconds = 120.0;
/// Every reported tail percentile has at least this many samples beyond it.
constexpr std::size_t kMinBeyond = 10;

struct Workload {
  std::string name;
  DayConfig day;                 ///< spec.sim.seed is replaced per day
  std::size_t distinct_days = 1; ///< days cycle over this many seeds; a run
                                 ///< repeats at least one to check determinism
  double tail_percentile = 90.0; ///< reported as period_ms.tail
  bool sweep = false;
  std::size_t sweep_seeds = 0;   ///< seeds per policy in the sweep grid
};

scenario::PolicySpec exact_mpc() {
  scenario::PolicySpec policy;
  policy.name = "mpc_exact";
  return policy;
}

scenario::PolicySpec block_mpc() {
  scenario::PolicySpec policy;
  policy.name = "mpc_4blocks";
  policy.qp_blocks = 4;
  return policy;
}

Workload make_workload(const std::string& name) {
  Workload w;
  w.name = name;
  w.day.policy = exact_mpc();
  if (name == "paper_day") {
    // Section VII: 4 DCs x 24 cities (74 pairs), noisy NHPP demand, AR
    // demand forecasts, exact MPC at W = 5, requests fired at every period's
    // deployment.
    w.day.spec = scenario::preset("paper_full");
    w.day.spec.sim.periods = 24;
    w.day.policy.demand_predictor.kind = "ar";
    w.day.request_path = true;
    w.day.requests.duration_s = 30.0;
    w.distinct_days = 128;
    w.tail_percentile = 99.0;
  } else if (name == "continental_day") {
    // scale_smoke geography (20 DCs x 120 ANs, k = 6, 720 pairs), exact MPC,
    // no request path: the solver-bound case.
    w.day.spec = scenario::preset("scale_smoke");
    w.day.spec.sim.periods = 24;
    w.distinct_days = 8;
    w.tail_percentile = 95.0;
  } else if (name == "continental_blocks") {
    // The same geography and days under the 4-block consensus MPC: block
    // solves fan out over the pool lanes from one loop.
    w.day.spec = scenario::preset("scale_smoke");
    w.day.spec.sim.periods = 24;
    w.day.policy = block_mpc();
    w.distinct_days = 8;
    w.tail_percentile = 95.0;
  } else if (name == "continental_sweep") {
    // SweepRunner over scale_smoke x {mpc_exact, mpc_4blocks} x seeds.
    w.day.spec = scenario::preset("scale_smoke");
    w.sweep = true;
    w.sweep_seeds = 8;
    w.tail_percentile = 75.0;
  } else {
    throw std::invalid_argument(
        "unknown workload '" + name +
        "' (paper_day, continental_day, continental_blocks, continental_sweep)");
  }
  return w;
}

DayConfig day_config(const Workload& w, std::uint64_t seed, std::size_t day) {
  DayConfig config = w.day;
  config.spec.sim.seed = scenario::derive_run_seed(seed, day);
  config.requests.seed = config.spec.sim.seed;
  return config;
}

std::vector<scenario::PolicySpec> sweep_policies() { return {exact_mpc(), block_mpc()}; }

/// The sweep cell `index` as a DayConfig, seeded the way SweepRunner seeds it.
DayConfig sweep_cell(const Workload& w, std::uint64_t seed, std::size_t index) {
  DayConfig config = w.day;
  config.policy = sweep_policies()[index / w.sweep_seeds];
  config.spec.sim.seed = scenario::derive_run_seed(seed, index);
  return config;
}

scenario::SweepGrid sweep_grid(const Workload& w, std::uint64_t seed) {
  scenario::SweepGrid grid;
  grid.scenarios = {w.day.spec};
  grid.policies = sweep_policies();
  grid.num_seeds = w.sweep_seeds;
  grid.base_seed = seed;
  return grid;
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Peak resident set of this process image. VmHWM, not getrusage's
/// ru_maxrss: the latter survives exec and so reports the launcher's peak
/// when that was larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  const auto end = std::to_chars(buffer, buffer + sizeof(buffer), value).ptr;
  return std::string(buffer, end);
}

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

/// What one run reports.
struct Result {
  bool correct = true;
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::pair<std::string, std::string>> info;  ///< context, not metrics
  std::vector<std::string> errors;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void note(const std::string& key, const std::string& json_value) {
    info.push_back({key, json_value});
  }
  void error(const std::string& what) {
    correct = false;
    errors.push_back(what);
  }
  void count_day(const DayRecord& day, std::size_t periods, const std::string& label) {
    attempted += static_cast<long long>(periods);
    failed += day.unsolved_periods;
    for (const auto& what : day.errors) error(label + ": " + what);
  }
};

std::string tail_label(double p) { return "p" + number(p); }

// ------------------------------------------------------------ single loop

void run_day_loop(const Workload& w, std::uint64_t seed, double seconds, Result& result) {
  std::vector<std::optional<DayRecord>> first(w.distinct_days);
  std::vector<double> setup_ms, period_ms;
  double day_ms = 0.0;
  std::size_t days = 0;
  const std::size_t needed = samples_needed(w.tail_percentile, kMinBeyond);
  const Clock::time_point start = Clock::now();
  while (days <= w.distinct_days || seconds_since(start) < seconds ||
         period_ms.size() < needed) {
    if (seconds_since(start) > kHardCapSeconds) break;
    const std::size_t d = days % w.distinct_days;
    DayRecord record = run_engine_day(day_config(w, seed, d));
    const std::string label = "day " + std::to_string(days);
    result.count_day(record, w.day.spec.sim.periods, label);
    if (first[d]) {
      // A repeated day (same seed) must reproduce its first run.
      const std::string diff = compare_days(*first[d], record);
      if (!diff.empty()) result.error(label + " is not reproducible: " + diff);
    }
    setup_ms.push_back(record.setup_ms);
    period_ms.insert(period_ms.end(), record.period_ms.begin(), record.period_ms.end());
    day_ms += record.day_ms;
    ++days;
    if (!first[d]) first[d] = std::move(record);
  }
  if (days <= w.distinct_days || period_ms.size() < needed) {
    result.error("too few days or periods within the time cap");
  }
  double cost = 0.0, compliance = 0.0;
  for (const auto& day : first) {
    if (!day) continue;
    cost += day->total_cost;
    compliance += day->mean_compliance;
  }
  const double distinct = static_cast<double>(w.distinct_days);
  result.metric("setup_s", median(setup_ms) / 1000.0, "s");
  result.metric("period_ms.p50", median(period_ms), "ms");
  result.metric("period_ms.tail", percentile(period_ms, w.tail_percentile), "ms");
  result.metric("total_cost", cost / distinct, "USD");
  result.metric("sla_compliance", compliance / distinct, "share");
  result.note("days", std::to_string(days));
  result.note("days_per_s", number(static_cast<double>(days) / (day_ms / 1000.0)));
  result.note("setup_samples", std::to_string(setup_ms.size()));
  result.note("period_samples", std::to_string(period_ms.size()));
  result.note("tail", quoted(tail_label(w.tail_percentile)));
  result.note("beyond_tail", std::to_string(count_beyond(period_ms, w.tail_percentile)));
}

/// Pool telemetry delta over the traced phases. Utilization is lane-time
/// inside task bodies over lane-time available (lanes x wall): the pool
/// books a worker's idle time only when it wakes, so busy / (busy + idle)
/// misreads a mostly idle pool as fully used.
struct PoolDelta {
  double busy_ms = 0.0, wall_ms = 0.0, queue_wait_ms = 0.0;
  unsigned long long tasks = 0;

  template <typename Fn>
  void measure(Fn&& fn) {
    gp::ThreadPool& pool = gp::ThreadPool::global();
    pool.set_telemetry_enabled(true);
    const gp::PoolTelemetry before = pool.telemetry();
    const Clock::time_point start = Clock::now();
    fn();
    wall_ms += ms_between(start, Clock::now());
    const gp::PoolTelemetry after = pool.telemetry();
    pool.set_telemetry_enabled(false);
    busy_ms += static_cast<double>(after.busy_ns - before.busy_ns) / 1e6;
    queue_wait_ms += static_cast<double>(after.queue_wait_ns - before.queue_wait_ns) / 1e6;
    tasks += after.tasks - before.tasks;
  }

  void report(Result& result) const {
    const double lanes = static_cast<double>(gp::ThreadPool::global().max_lanes());
    result.metric("pool.util", wall_ms > 0.0 ? busy_ms / (lanes * wall_ms) : 0.0, "share");
    result.metric("pool.queue_wait_ms",
                  tasks == 0 ? 0.0 : queue_wait_ms / static_cast<double>(tasks), "ms");
    result.metric("pool.tasks", static_cast<double>(tasks), "count");
  }
};

/// What a traced run accumulates, whatever the workload. A "cell" is one
/// untraced reference day (one sweep cell on the sweep).
struct Trace {
  LayerTimes times;
  PoolDelta pool;
  std::vector<double> build_ms, policy_ms, cell_ms;
  double policy_sum_ms = 0.0;
  std::size_t cells = 0, requests = 0, violations = 0;

  void add_cell(double wall_ms, double policy_wall_ms) {
    cell_ms.push_back(wall_ms);
    policy_sum_ms += policy_wall_ms;
    ++cells;
  }
  void add_requests(const DayRecord& traced) {
    requests += traced.simulated_requests;
    violations += traced.request_violations;
  }
  /// Timed-call time over traced warm-period wall.
  double coverage() const { return times.layer_total_ms() / sum(times.period_ms); }

  /// Prints every per-layer metric; `overhead` is traced / untraced time.
  void report(double tail, double overhead, Result& result) const {
    const auto share = [](double part, double whole) { return whole > 0.0 ? part / whole : 0.0; };
    const LayerTimes& t = times;
    result.metric("scenario.build_ms", median(build_ms), "ms");
    result.metric("scenario.policy_ms", median(policy_ms), "ms");
    result.metric("qp.solve_ms.p50", median(t.qp_solve_ms), "ms");
    result.metric("qp.solve_ms.tail", percentile(t.qp_solve_ms, tail), "ms");
    result.metric("qp.iterations", mean(t.qp_iterations), "count");
    result.metric("qp.factorizations", mean(t.qp_factorizations), "count");
    result.metric("qp.factorization_skipped_share",
                  share(static_cast<double>(t.skipped_factorizations),
                        static_cast<double>(t.qp_solve_ms.size())),
                  "share");
    result.metric("qp.cold_solve_ms", median(t.cold_solve_ms), "ms");
    result.metric("control.predict_ms", median(t.predict_ms), "ms");
    result.metric("control.forecast_rel_err", mean(t.forecast_rel_err), "share");
    result.metric("dspp.window_update_ms", median(t.window_update_ms), "ms");
    result.metric("dspp.extract_ms", median(t.extract_ms), "ms");
    result.metric("dspp.assign_ms", median(t.assign_ms), "ms");
    result.metric("dspp.sla_ms", median(t.sla_ms), "ms");
    result.metric("dspp.block_solve_ms", median(t.block_solve_ms), "ms");
    result.metric("dspp.consensus_iterations", mean(t.consensus_iterations), "count");
    result.metric("sim.request_path_ms", median(t.request_ms), "ms");
    result.metric("sim.requests",
                  share(static_cast<double>(requests), static_cast<double>(cells)), "count");
    result.metric("sim.requests_per_s",
                  share(static_cast<double>(requests), sum(t.request_ms) / 1000.0), "1/s");
    result.metric("sim.req_violation_share",
                  share(static_cast<double>(violations), static_cast<double>(requests)), "share");
    pool.report(result);
    result.metric("sweep.cell_wall_ms.p50", median(cell_ms), "ms");
    result.metric("sweep.cell_wall_ms.max", percentile(cell_ms, 100.0), "ms");
    result.metric("sweep.cell_inflation", share(sum(cell_ms), policy_sum_ms), "ratio");
    result.metric("obs.coverage", coverage(), "share");
    result.metric("obs.trace_overhead", overhead, "ratio");
    result.note("cells", std::to_string(cells));
    result.note("traced_periods", std::to_string(t.period_ms.size()));
  }
};

void trace_day_loop(const Workload& w, std::uint64_t seed, double seconds, Result& result) {
  Trace trace;
  std::vector<double> untraced_period_ms;
  std::size_t days = 0;
  const std::size_t needed = samples_needed(w.tail_percentile, kMinBeyond);
  const Clock::time_point start = Clock::now();
  while (days < w.distinct_days || seconds_since(start) < seconds ||
         trace.times.period_ms.size() < needed) {
    if (seconds_since(start) > kHardCapSeconds) break;
    const DayConfig config = day_config(w, seed, days % w.distinct_days);
    const std::string label = "day " + std::to_string(days);
    const DayRecord reference = run_engine_day(config);
    result.count_day(reference, w.day.spec.sim.periods, label);
    trace.build_ms.push_back(reference.build_ms);
    trace.policy_ms.push_back(reference.make_policy_ms);
    trace.add_cell(reference.day_ms, reference.policy_ms);
    untraced_period_ms.insert(untraced_period_ms.end(), reference.period_ms.begin(),
                              reference.period_ms.end());

    const scenario::ScenarioBundle bundle = scenario::build(config.spec);
    DayRecord traced;
    trace.pool.measure([&] { traced = replay_day(config, bundle, trace.times); });
    for (const auto& what : traced.errors) result.error("traced " + label + ": " + what);
    const std::string diff = compare_days(reference, traced);
    if (!diff.empty()) result.error("traced " + label + " diverges from the engine: " + diff);
    trace.add_requests(traced);
    ++days;
  }
  if (trace.times.period_ms.size() < needed) {
    result.error("too few traced periods within the time cap");
  }
  if (trace.coverage() < 0.95) {
    result.error("traced layers cover " + number(trace.coverage()) + " < 0.95 of a period");
  }
  trace.report(w.tail_percentile,
               median(trace.times.period_ms) / median(untraced_period_ms), result);
  result.note("untraced_period_ms.p50", number(median(untraced_period_ms)));
  result.note("traced_period_ms.p50", number(median(trace.times.period_ms)));
}

// ------------------------------------------------------------------ sweep

/// Set-up probe: scenario build + policy construction + engine
/// construction + initial provisioning + one cold period.
double sweep_setup_ms(const Workload& w, std::uint64_t seed, std::size_t probe) {
  DayConfig config = sweep_cell(w, seed, (probe % 2) * w.sweep_seeds);
  config.spec.sim.periods = 1;
  const Clock::time_point t0 = Clock::now();
  const scenario::ScenarioBundle bundle = scenario::build(config.spec);
  const scenario::PolicyHandle handle = scenario::make_policy(bundle, config.spec, config.policy);
  gp::sim::SimulationEngine engine = scenario::make_engine(bundle, config.spec);
  const gp::sim::SimulationSummary summary = engine.run(handle.policy());
  const double elapsed = ms_between(t0, Clock::now());
  if (summary.unsolved_periods != 0) {
    throw std::runtime_error("set-up probe left a period unsolved");
  }
  return elapsed;
}

/// Compares two sweeps' per-run outputs bit for bit.
void check_sweep_repeat(Result& result, const scenario::SweepResult& first,
                        const scenario::SweepResult& again) {
  for (std::size_t i = 0; i < first.runs.size(); ++i) {
    const auto& a = first.runs[i].summary;
    const auto& b = again.runs[i].summary;
    if (!same_bits(a.total_cost, b.total_cost) ||
        !same_bits(a.mean_compliance, b.mean_compliance) ||
        a.unsolved_periods != b.unsolved_periods) {
      result.error("sweep cell " + std::to_string(i) + " is not reproducible");
    }
  }
}

/// Per-run checks on a sweep: capacity per DC and the cost identity, from
/// the kept per-period rows.
void check_sweep(Result& result, const scenario::SweepResult& sweep,
                 const gp::dspp::DsppModel& model, std::size_t periods) {
  for (std::size_t i = 0; i < sweep.runs.size(); ++i) {
    const auto& summary = sweep.runs[i].summary;
    result.attempted += static_cast<long long>(periods);
    result.failed += summary.unsolved_periods;
    double resource = 0.0, reconfig = 0.0;
    for (const auto& period : summary.periods) {
      for (std::size_t l = 0; l < period.servers_per_dc.size(); ++l) {
        const double servers = period.servers_per_dc[l];
        if (!(servers >= 0.0) ||
            model.server_size * servers - model.capacity[l] > 1e-6 * (1.0 + model.capacity[l])) {
          result.error("sweep cell " + std::to_string(i) + ": DC " + std::to_string(l) +
                       " allocation outside [0, capacity]");
        }
      }
      resource += period.resource_cost;
      reconfig += period.reconfig_cost;
    }
    if (summary.periods.size() != periods ||
        std::abs(summary.total_cost - (resource + reconfig)) >
            1e-9 * (1.0 + std::abs(summary.total_cost))) {
      result.error("sweep cell " + std::to_string(i) + ": cost identity violated");
    }
  }
}

scenario::SweepResult run_sweep(const Workload& w, std::uint64_t seed) {
  scenario::SweepOptions options;
  options.keep_periods = true;
  options.max_threads = gp::ThreadPool::global().max_lanes();
  return scenario::SweepRunner(sweep_grid(w, seed), options).run();
}

void run_sweep_loop(const Workload& w, std::uint64_t seed, double seconds, Result& result) {
  const gp::dspp::DsppModel model = scenario::build(w.day.spec).model;
  const std::size_t periods = w.day.spec.sim.periods;
  std::vector<double> setup_ms;
  for (std::size_t probe = 0; probe < 4; ++probe) {
    setup_ms.push_back(sweep_setup_ms(w, seed, probe));
  }

  std::optional<scenario::SweepResult> first;
  std::vector<double> period_ms;
  double sweep_ms = 0.0;
  std::size_t cells = 0, sweeps = 0;
  const Clock::time_point start = Clock::now();
  while (sweeps < 2 || seconds_since(start) < seconds) {
    if (seconds_since(start) > kHardCapSeconds) break;
    scenario::SweepResult sweep = run_sweep(w, seed);
    check_sweep(result, sweep, model, periods);
    if (first) check_sweep_repeat(result, *first, sweep);
    for (const auto& run : sweep.runs) {
      period_ms.push_back(run.wall_ms / static_cast<double>(periods));
    }
    sweep_ms += sweep.wall_ms;
    cells += sweep.runs.size();
    ++sweeps;
    if (!first) first = std::move(sweep);
  }
  if (sweeps < 2) result.error("fewer than two sweeps within the time cap");
  double cost = 0.0, compliance = 0.0;
  for (const auto& run : first->runs) {
    cost += run.summary.total_cost;
    compliance += run.summary.mean_compliance;
  }
  const double runs = static_cast<double>(first->runs.size());
  result.metric("setup_s", median(setup_ms) / 1000.0, "s");
  result.metric("period_ms.p50", median(period_ms), "ms");
  result.metric("period_ms.tail", percentile(period_ms, w.tail_percentile), "ms");
  result.metric("cells_per_s", static_cast<double>(cells) / (sweep_ms / 1000.0), "1/s");
  result.metric("total_cost", cost / runs, "USD");
  result.metric("sla_compliance", compliance / runs, "share");
  result.note("sweeps", std::to_string(sweeps));
  result.note("cells", std::to_string(cells));
  result.note("tail", quoted(tail_label(w.tail_percentile)));
  for (const auto& cell : first->cells) {
    result.note("total_cost." + cell.policy, number(cell.total_cost.mean));
  }
}

void trace_sweep_loop(const Workload& w, std::uint64_t seed, double seconds, Result& result) {
  const std::size_t periods = w.day.spec.sim.periods;
  Trace trace;
  double untraced_ms = 0.0, traced_ms = 0.0;
  std::optional<scenario::SweepResult> first;
  const Clock::time_point start = Clock::now();
  while (!first || seconds_since(start) < seconds) {
    if (seconds_since(start) > kHardCapSeconds) break;
    scenario::SweepResult reference = run_sweep(w, seed);
    if (first) check_sweep_repeat(result, *first, reference);
    untraced_ms += reference.wall_ms;
    for (const auto& run : reference.runs) {
      trace.add_cell(run.wall_ms, run.summary.policy_wall_ms);
      result.attempted += static_cast<long long>(periods);
      result.failed += run.summary.unsolved_periods;
    }

    // Traced replay of the same grid, cells concurrent on the same lanes.
    // Each cell also constructs its policy, as a SweepRunner cell does.
    const Clock::time_point t_build = Clock::now();
    const scenario::ScenarioBundle bundle = scenario::build(w.day.spec);
    trace.build_ms.push_back(ms_between(t_build, Clock::now()));
    const std::size_t cells = reference.runs.size();
    std::vector<DayRecord> traced(cells);
    std::vector<LayerTimes> cell_times(cells);
    std::vector<double> cell_policy_ms(cells);
    const Clock::time_point t_traced = Clock::now();
    trace.pool.measure([&] {
      gp::parallel_for(
          0, cells,
          [&](std::size_t i) {
            const DayConfig config = sweep_cell(w, seed, i);
            const Clock::time_point t0 = Clock::now();
            const scenario::PolicyHandle handle =
                scenario::make_policy(bundle, config.spec, config.policy);
            cell_policy_ms[i] = ms_between(t0, Clock::now());
            traced[i] = replay_day(config, bundle, cell_times[i]);
          },
          gp::ThreadPool::global().max_lanes());
    });
    traced_ms += ms_between(t_traced, Clock::now());
    for (std::size_t i = 0; i < cells; ++i) {
      trace.times.append(cell_times[i]);
      trace.policy_ms.push_back(cell_policy_ms[i]);
      const std::string label = "traced sweep cell " + std::to_string(i);
      for (const auto& what : traced[i].errors) result.error(label + ": " + what);
      const auto& summary = reference.runs[i].summary;
      if (!same_bits(traced[i].total_cost, summary.total_cost) ||
          !same_bits(traced[i].mean_compliance, summary.mean_compliance) ||
          traced[i].unsolved_periods != summary.unsolved_periods) {
        result.error(label + " diverges from SweepRunner");
      }
    }
    if (!first) first = std::move(reference);
  }
  trace.report(w.tail_percentile, traced_ms / untraced_ms, result);
  for (const auto& cell : first->cells) {
    result.note("total_cost." + cell.policy, number(cell.total_cost.mean));
  }
}

// ------------------------------------------------------------------- main

constexpr const char* kObservabilityKnobs[] = {
    "GEOPLACE_METRICS",  "GEOPLACE_TRACE",   "GEOPLACE_RECORD",  "GEOPLACE_AUDIT",
    "GEOPLACE_TIMELINE", "GEOPLACE_PROFILE", "GEOPLACE_PROGRESS"};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string source_id = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args args;
  std::map<std::string, std::string> values;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::invalid_argument("expected --key value pairs, got '" + key + "'");
    }
    values[key.substr(2)] = argv[++i];
  }
  for (const auto& [key, value] : values) {
    if (key == "workload") {
      args.workload = value;
    } else if (key == "seed") {
      args.seed = std::stoull(value);
    } else if (key == "seconds") {
      args.seconds = std::stod(value);
    } else if (key == "trace") {
      args.trace = std::stoi(value);
    } else if (key == "source-id") {
      args.source_id = value;
    } else {
      throw std::invalid_argument("unknown option --" + key);
    }
  }
  if (args.workload.empty() || args.seconds <= 0.0 || (args.trace != 0 && args.trace != 1)) {
    throw std::invalid_argument(
        "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
  }
  return args;
}

void print_result(const Result& result) {
  for (const auto& what : result.errors) {
    std::fprintf(stderr, "perfbench: FAIL %s\n", what.c_str());
  }
  std::string info = "{\"info\":{";
  for (std::size_t i = 0; i < result.info.size(); ++i) {
    if (i > 0) info += ",";
    info += quoted(result.info[i].first) + ":" + result.info[i].second;
  }
  std::printf("%s}}\n", info.c_str());
  std::string line = "{\"correct\":" + std::string(result.correct ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(result.attempted) +
                     ",\"failed\":" + std::to_string(result.failed) + ",\"metrics\":{";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const auto& [name, value] = result.metrics[i];
    if (i > 0) line += ",";
    line += quoted(name) + ":{\"value\":" + number(value.first) +
            ",\"unit\":" + quoted(value.second) + "}";
  }
  std::printf("%s}}\n", line.c_str());
}

int run(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  for (const char* knob : kObservabilityKnobs) {
    if (std::getenv(knob) != nullptr) {
      std::fprintf(stderr, "perfbench: refusing to measure with %s set\n", knob);
      return 2;
    }
  }
  const gp::obs::RunManifest manifest = gp::obs::RunManifest::capture("perfbench");
  if (manifest.build_type == "Debug" || manifest.build_type.empty()) {
    std::fprintf(stderr, "perfbench: refusing to measure a '%s' build\n",
                 manifest.build_type.c_str());
    return 2;
  }
  const Workload workload = make_workload(args.workload);
  const std::size_t lanes = gp::ThreadPool::global().max_lanes();
  std::printf(
      "{\"manifest\":{\"workload\":%s,\"seed\":%llu,\"trace\":%d,\"git_sha\":%s,"
      "\"source_id\":%s,\"build\":%s,\"compiler\":%s,\"simd\":%s,\"cpus\":%u,\"lanes\":%zu}}\n",
      quoted(workload.name).c_str(), static_cast<unsigned long long>(args.seed), args.trace,
      quoted(manifest.git_sha).c_str(), quoted(args.source_id).c_str(),
      quoted(manifest.build_type).c_str(), quoted(manifest.compiler).c_str(),
      quoted(manifest.simd).c_str(), manifest.cpus, lanes);
  std::fflush(stdout);

  Result result;
  if (args.trace == 0) {
    if (workload.sweep) {
      run_sweep_loop(workload, args.seed, args.seconds, result);
    } else {
      run_day_loop(workload, args.seed, args.seconds, result);
    }
    result.metric("peak_rss_mb", peak_rss_mb(), "MB");
  } else if (workload.sweep) {
    trace_sweep_loop(workload, args.seed, args.seconds, result);
  } else {
    trace_day_loop(workload, args.seed, args.seconds, result);
  }
  if (result.attempted < 1) result.error("no periods attempted");
  print_result(result);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
