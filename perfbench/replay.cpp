#include "replay.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "common/rng.hpp"
#include "dspp/assignment.hpp"
#include "dspp/block_window.hpp"
#include "dspp/provisioning.hpp"
#include "dspp/window_program.hpp"
#include "qp/admm_solver.hpp"
#include "sim/engine.hpp"
#include "stats.hpp"

namespace perfbench {

using gp::linalg::Vector;

namespace {

void append_to(std::vector<double>& into, const std::vector<double>& from) {
  into.insert(into.end(), from.begin(), from.end());
}

std::size_t request_violations(const gp::sim::RequestSimReport& report) {
  std::size_t violations = 0;
  for (const auto& pair : report.pairs) violations += pair.violations;
  return violations;
}

/// The eq-(3) cost identity, recomputed from the applied allocations and
/// controls and the engine's own price observations, plus the summary's
/// own totals.
void check_costs(const gp::sim::SimulationEngine& engine, const DayConfig& config,
                 const gp::sim::SimulationSummary& summary, const std::vector<Vector>& controls,
                 DayRecord& record) {
  const auto& model = engine.model();
  const auto& pairs = engine.pairs();
  const auto& sim = config.spec.sim;
  if (summary.periods.size() != sim.periods || controls.size() != sim.periods) {
    record.errors.push_back("period count mismatch");
    return;
  }
  double resource_sum = 0.0, reconfig_sum = 0.0;
  for (std::size_t k = 0; k < sim.periods; ++k) {
    const Vector& x = record.allocations[k];
    // The allocation chosen at period k serves period k+1 at its prices.
    const double hour = sim.utc_start_hour + static_cast<double>(k + 1) * sim.period_hours;
    const Vector price = engine.observe_price(sim.freeze_prices ? sim.utc_start_hour : hour);
    double resource = 0.0, reconfig = 0.0;
    for (std::size_t pair = 0; pair < x.size(); ++pair) {
      const std::size_t l = pairs.datacenter_of(pair);
      resource += price[l] * x[pair];
      reconfig += model.reconfig_cost[l] * controls[k][pair] * controls[k][pair];
    }
    const auto& period = summary.periods[k];
    if (std::abs(resource - period.resource_cost) > 1e-9 * (1.0 + std::abs(resource)) ||
        std::abs(reconfig - period.reconfig_cost) > 1e-9 * (1.0 + std::abs(reconfig))) {
      record.errors.push_back("period " + std::to_string(k) +
                              ": cost differs from p.x + c.u^2");
    }
    resource_sum += period.resource_cost;
    reconfig_sum += period.reconfig_cost;
  }
  const double recomposed = resource_sum + reconfig_sum;
  if (std::abs(summary.total_cost - recomposed) > 1e-9 * (1.0 + std::abs(recomposed)) ||
      summary.total_cost != summary.total_resource_cost + summary.total_reconfig_cost) {
    record.errors.push_back("total cost != sum of resource and reconfiguration costs");
  }
}

}  // namespace

void check_allocations(const gp::dspp::DsppModel& model, const gp::dspp::PairIndex& pairs,
                       DayRecord& record) {
  for (std::size_t k = 0; k < record.allocations.size(); ++k) {
    const Vector& x = record.allocations[k];
    Vector per_dc(model.num_datacenters(), 0.0);
    for (std::size_t pair = 0; pair < x.size(); ++pair) {
      if (!(x[pair] >= 0.0) || !std::isfinite(x[pair])) {
        record.errors.push_back("period " + std::to_string(k) +
                                ": negative or non-finite allocation");
        break;
      }
      per_dc[pairs.datacenter_of(pair)] += model.server_size * x[pair];
    }
    for (std::size_t l = 0; l < per_dc.size(); ++l) {
      if (per_dc[l] - model.capacity[l] > 1e-6 * (1.0 + model.capacity[l])) {
        record.errors.push_back("period " + std::to_string(k) + ": DC " + std::to_string(l) +
                                " over capacity");
      }
    }
  }
}

double LayerTimes::layer_total_ms() const {
  return sum(predict_ms) + sum(window_update_ms) + sum(qp_solve_ms) + sum(extract_ms) +
         sum(block_solve_ms) + sum(assign_ms) + sum(sla_ms) + sum(request_ms);
}

void LayerTimes::append(const LayerTimes& other) {
  append_to(predict_ms, other.predict_ms);
  append_to(window_update_ms, other.window_update_ms);
  append_to(qp_solve_ms, other.qp_solve_ms);
  append_to(extract_ms, other.extract_ms);
  append_to(block_solve_ms, other.block_solve_ms);
  append_to(assign_ms, other.assign_ms);
  append_to(sla_ms, other.sla_ms);
  append_to(request_ms, other.request_ms);
  append_to(period_ms, other.period_ms);
  append_to(cold_solve_ms, other.cold_solve_ms);
  append_to(qp_iterations, other.qp_iterations);
  append_to(qp_factorizations, other.qp_factorizations);
  append_to(consensus_iterations, other.consensus_iterations);
  append_to(forecast_rel_err, other.forecast_rel_err);
  skipped_factorizations += other.skipped_factorizations;
}

DayRecord run_engine_day(const DayConfig& config) {
  namespace scenario = gp::scenario;
  DayRecord record;
  const std::size_t periods = config.spec.sim.periods;
  std::vector<Clock::time_point> starts;
  starts.reserve(periods);
  record.allocations.reserve(periods);
  std::vector<Vector> controls;
  controls.reserve(periods);

  const Clock::time_point t0 = Clock::now();
  const scenario::ScenarioBundle bundle = scenario::build(config.spec);
  const Clock::time_point t_built = Clock::now();
  const scenario::PolicyHandle handle = scenario::make_policy(bundle, config.spec, config.policy);
  const Clock::time_point t_policy = Clock::now();
  gp::sim::SimulationEngine engine = scenario::make_engine(bundle, config.spec);

  const gp::sim::PlacementPolicy& inner = handle.policy();
  const gp::sim::PlacementPolicy timed = [&](const Vector& state, const Vector& demand,
                                             const Vector& price) {
    starts.push_back(Clock::now());
    gp::sim::PolicyOutcome outcome = inner(state, demand, price);
    record.allocations.push_back(outcome.solved ? outcome.next_state : state);
    controls.push_back(outcome.solved ? outcome.control : Vector(state.size(), 0.0));
    return outcome;
  };

  gp::sim::SimulationSummary summary;
  if (config.request_path) {
    gp::sim::RequestDayOptions options;
    options.sim = config.requests;
    gp::sim::RequestDayResult day = gp::sim::simulate_day(engine, timed, options);
    summary = std::move(day.summary);
    record.simulated_requests = day.simulated_requests;
    for (const auto& report : day.period_reports) {
      record.request_violations += request_violations(report);
    }
  } else {
    summary = engine.run(timed);
  }
  const Clock::time_point t_end = Clock::now();

  record.build_ms = ms_between(t0, t_built);
  record.make_policy_ms = ms_between(t_built, t_policy);
  record.day_ms = ms_between(t0, t_end);
  record.setup_ms = ms_between(t0, periods > 1 ? starts[1] : t_end);
  for (std::size_t k = 1; k < starts.size(); ++k) {
    record.period_ms.push_back(
        ms_between(starts[k], k + 1 < starts.size() ? starts[k + 1] : t_end));
  }
  record.total_cost = summary.total_cost;
  record.total_resource_cost = summary.total_resource_cost;
  record.total_reconfig_cost = summary.total_reconfig_cost;
  record.mean_compliance = summary.mean_compliance;
  record.policy_ms = summary.policy_wall_ms;
  record.unsolved_periods = summary.unsolved_periods;
  check_allocations(engine.model(), engine.pairs(), record);
  check_costs(engine, config, summary, controls, record);
  return record;
}

DayRecord replay_day(const DayConfig& config, const gp::scenario::ScenarioBundle& bundle,
                     LayerTimes& times) {
  namespace scenario = gp::scenario;
  const auto& policy = config.policy;
  const auto& sim = config.spec.sim;
  if (policy.kind != "mpc" || policy.integerized || policy.soft_demand_penalty != 0.0 ||
      !policy.reuse_solver_state || policy.demand_predictor.kind == "oracle" ||
      policy.price_predictor.kind == "oracle" || sim.price_noise_std != 0.0) {
    throw std::invalid_argument(
        "replay_day: only hard-constraint, state-reusing MPC days without oracle forecasts or "
        "price noise");
  }
  DayRecord record;
  record.allocations.reserve(sim.periods);

  const gp::sim::SimulationEngine engine = scenario::make_engine(bundle, config.spec);
  const gp::dspp::DsppModel& model = engine.model();
  const gp::dspp::PairIndex& pairs = engine.pairs();
  auto demand_predictor = scenario::make_predictor(policy.demand_predictor);
  auto price_predictor = scenario::make_predictor(policy.price_predictor);

  // MpcController's solver configuration.
  gp::qp::AdmmSettings solver_settings;
  solver_settings.auto_warm_start = true;
  solver_settings.cache_structure = true;
  gp::qp::AdmmSolver solver(solver_settings);
  std::optional<gp::dspp::WindowProgram> program;
  std::optional<gp::dspp::BlockWindowSolver> block_solver;
  if (policy.qp_blocks > 1) {
    gp::dspp::BlockWindowSettings block_settings;
    block_settings.num_blocks = policy.qp_blocks;
    block_settings.max_lanes = policy.qp_block_lanes;
    block_settings.reuse_solver_state = true;
    block_solver.emplace(model, pairs, block_settings);
  }

  // SimulationEngine::run: one pre-sampled demand/price trace for 0..K.
  gp::Rng rng(sim.seed);
  std::vector<Vector> demand_trace, price_trace;
  for (std::size_t k = 0; k <= sim.periods; ++k) {
    const double hour = sim.utc_start_hour + static_cast<double>(k) * sim.period_hours;
    demand_trace.push_back(engine.observe_demand(hour, rng));
    price_trace.push_back(engine.observe_price(sim.freeze_prices ? sim.utc_start_hour : hour));
  }
  Vector state(pairs.num_pairs(), 0.0);
  if (sim.provision_initial) {
    gp::qp::AdmmSolver provision_solver;
    state = gp::dspp::min_cost_placement(model, pairs, demand_trace[0], price_trace[0],
                                         provision_solver);
    gp::linalg::scale(sim.initial_overprovision, state);
  }

  LayerTimes day;
  Vector last_forecast;
  double compliance_sum = 0.0;
  for (std::size_t k = 0; k < sim.periods; ++k) {
    const bool warm = k > 0;
    const Vector& demand = demand_trace[k];
    const Vector& price = price_trace[k];
    const Clock::time_point t_period = Clock::now();

    // MpcController::step.
    if (!last_forecast.empty()) {
      double err_sq = 0.0, ref_sq = 0.0;
      for (std::size_t v = 0; v < demand.size(); ++v) {
        const double diff = last_forecast[v] - demand[v];
        err_sq += diff * diff;
        ref_sq += demand[v] * demand[v];
      }
      day.forecast_rel_err.push_back(std::sqrt(err_sq) / std::max(std::sqrt(ref_sq), 1e-12));
    }
    Clock::time_point t0 = Clock::now();
    demand_predictor->observe(demand);
    price_predictor->observe(price);
    gp::dspp::WindowInputs inputs;
    inputs.initial_state = state;
    inputs.demand = demand_predictor->forecast(policy.horizon);
    inputs.price = price_predictor->forecast(policy.horizon);
    Clock::time_point t1 = Clock::now();
    if (warm) day.predict_ms.push_back(ms_between(t0, t1));
    if (!inputs.demand.empty()) last_forecast = inputs.demand.front();

    gp::dspp::WindowSolution solution;
    if (block_solver) {
      t0 = Clock::now();
      solution = block_solver->solve(std::move(inputs));
      t1 = Clock::now();
      if (warm) {
        day.block_solve_ms.push_back(ms_between(t0, t1));
        day.consensus_iterations.push_back(block_solver->last_consensus_iterations());
      } else {
        day.cold_solve_ms.push_back(ms_between(t0, t1));
      }
    } else {
      t0 = Clock::now();
      if (program) {
        program->update(model, pairs, inputs);
      } else {
        program.emplace(model, pairs, std::move(inputs));
      }
      t1 = Clock::now();
      const gp::qp::QpResult result = solver.solve(program->problem());
      const Clock::time_point t2 = Clock::now();
      solution = program->extract(result);
      const Clock::time_point t3 = Clock::now();
      if (warm) {
        day.window_update_ms.push_back(ms_between(t0, t1));
        day.qp_solve_ms.push_back(ms_between(t1, t2));
        day.extract_ms.push_back(ms_between(t2, t3));
        day.qp_iterations.push_back(result.iterations);
        day.qp_factorizations.push_back(result.info.factorizations);
        if (result.info.factorization_skipped) ++day.skipped_factorizations;
      } else {
        day.cold_solve_ms.push_back(ms_between(t1, t2));
      }
    }

    Vector control, next_state;
    const bool solved = solution.ok();
    if (solved) {
      control = solution.u.front();
      next_state = gp::linalg::add(state, control);
      for (double& x : next_state) x = std::max(0.0, x);
    } else {
      ++record.unsolved_periods;
      control.assign(pairs.num_pairs(), 0.0);
      next_state = state;
    }

    // SimulationEngine::run's per-period accounting.
    const Vector& next_demand = demand_trace[k + 1];
    const Vector& next_price = price_trace[k + 1];
    double resource_cost = 0.0, reconfig_cost = 0.0;
    for (std::size_t pair = 0; pair < pairs.num_pairs(); ++pair) {
      resource_cost += next_price[pairs.datacenter_of(pair)] * next_state[pair];
      const double c = model.reconfig_cost[pairs.datacenter_of(pair)];
      reconfig_cost += c * control[pair] * control[pair];
    }
    t0 = Clock::now();
    const gp::dspp::Assignment assignment = gp::dspp::assign_demand(pairs, next_state, next_demand);
    t1 = Clock::now();
    const gp::dspp::SlaReport report = gp::dspp::evaluate_sla(model, pairs, next_state, assignment);
    const Clock::time_point t2 = Clock::now();
    if (warm) {
      day.assign_ms.push_back(ms_between(t0, t1));
      day.sla_ms.push_back(ms_between(t1, t2));
    }
    if (config.request_path) {
      gp::sim::RequestSimOptions options = config.requests;
      options.seed = gp::sim::substream_seed(config.requests.seed, k);
      t0 = Clock::now();
      const gp::sim::RequestSimReport requests =
          gp::sim::simulate_requests(model, pairs, next_state, assignment, options);
      t1 = Clock::now();
      if (warm) day.request_ms.push_back(ms_between(t0, t1));
      record.simulated_requests += requests.simulated_requests;
      record.request_violations += request_violations(requests);
    }

    record.total_resource_cost += resource_cost;
    record.total_reconfig_cost += reconfig_cost;
    compliance_sum += report.compliance();
    record.allocations.push_back(next_state);
    state = std::move(next_state);
    if (warm) day.period_ms.push_back(ms_between(t_period, Clock::now()));
  }
  record.total_cost = record.total_resource_cost + record.total_reconfig_cost;
  record.mean_compliance = compliance_sum / static_cast<double>(sim.periods);
  check_allocations(model, pairs, record);
  times.append(day);
  return record;
}

std::string compare_days(const DayRecord& reference, const DayRecord& candidate) {
  const std::size_t periods = std::min(reference.allocations.size(), candidate.allocations.size());
  for (std::size_t k = 0; k < periods; ++k) {
    const Vector& a = reference.allocations[k];
    const Vector& b = candidate.allocations[k];
    bool same = a.size() == b.size();
    for (std::size_t i = 0; same && i < a.size(); ++i) same = same_bits(a[i], b[i]);
    if (!same) return "allocations diverge at period " + std::to_string(k);
  }
  if (reference.allocations.size() != candidate.allocations.size()) {
    return "period counts differ";
  }
  if (!same_bits(reference.total_cost, candidate.total_cost)) {
    std::ostringstream out;
    out.precision(17);
    out << "total_cost differs: " << reference.total_cost << " vs " << candidate.total_cost;
    return out.str();
  }
  if (!same_bits(reference.mean_compliance, candidate.mean_compliance)) {
    return "sla_compliance differs";
  }
  if (reference.unsolved_periods != candidate.unsolved_periods) return "unsolved counts differ";
  if (reference.simulated_requests != candidate.simulated_requests ||
      reference.request_violations != candidate.request_violations) {
    return "request counts differ";
  }
  return {};
}

}  // namespace perfbench
