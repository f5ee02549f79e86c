// End-to-end cost-gap gate for the MPC window solver's default accuracy.
//
// The MPC controller solves each window to 1e-4 and polishes the result
// (qp::AdmmSettings' defaults, which control::MpcSettings::solver takes).
// These tests run the same closed-loop day twice — once with those defaults
// and once with a tight reference window solver (1e-8 + polish; both days
// provision x_0 with the engine's default solver) — and bound what the
// looser solve costs end to end:
//
//   |total_cost - reference| / reference <= 1e-4
//   sla_compliance >= reference - 1e-4
//   no unsolved period in either run.
//
// A window-level companion pins the polish itself on a real paper_full
// window with binding capacity: the 1e-4 polished solve reproduces a 1e-8
// solve's objective and capacity duals. A third covers the solves without
// a quadratic term (the single-period placement LP behind the engine's
// initial provisioning and the static/reactive baselines), where the
// polish can be rejected at a degenerate vertex and the solver must carry
// the loose iterate on to a tighter stop.
//
// Label: accuracy.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <utility>

#include "control/mpc_controller.hpp"
#include "dspp/provisioning.hpp"
#include "dspp/window_program.hpp"
#include "linalg/vector_ops.hpp"
#include "scenario/policy.hpp"
#include "scenario/registry.hpp"
#include "sim/engine.hpp"

namespace {

using namespace gp;

constexpr double kMaxRelativeCostGap = 1e-4;
constexpr double kMaxComplianceDrop = 1e-4;

/// One closed-loop day of `spec` under exact MPC with the given solver.
sim::SimulationSummary run_day(const scenario::ScenarioSpec& spec,
                               const std::string& demand_predictor,
                               const qp::AdmmSettings& solver) {
  const scenario::ScenarioBundle bundle = scenario::build(spec);
  sim::SimulationEngine engine = scenario::make_engine(bundle, spec);
  control::MpcSettings settings;
  settings.solver = solver;
  control::MpcController controller(bundle.model, settings,
                                    scenario::make_predictor(demand_predictor),
                                    scenario::make_predictor("last"));
  return engine.run(sim::policy_from(controller));
}

qp::AdmmSettings reference_solver() {
  qp::AdmmSettings settings;
  settings.eps_abs = 1e-8;
  settings.eps_rel = 1e-8;
  settings.polish = true;
  return settings;
}

void expect_within_gap(const scenario::ScenarioSpec& spec, const std::string& demand_predictor) {
  const sim::SimulationSummary reference = run_day(spec, demand_predictor, reference_solver());
  const sim::SimulationSummary shipped =
      run_day(spec, demand_predictor, control::MpcSettings{}.solver);

  ASSERT_EQ(reference.unsolved_periods, 0);
  EXPECT_EQ(shipped.unsolved_periods, 0);
  ASSERT_GT(reference.total_cost, 0.0);
  const double gap = std::abs(shipped.total_cost - reference.total_cost) / reference.total_cost;
  EXPECT_LE(gap, kMaxRelativeCostGap)
      << "total_cost " << shipped.total_cost << " vs reference " << reference.total_cost;
  EXPECT_GE(shipped.mean_compliance, reference.mean_compliance - kMaxComplianceDrop)
      << "sla_compliance " << shipped.mean_compliance << " vs reference "
      << reference.mean_compliance;
}

TEST(AccuracyGate, PaperFullDayMatchesTightReference) {
  scenario::ScenarioSpec spec = scenario::preset("paper_full");  // noisy demand
  spec.sim.periods = 24;
  expect_within_gap(spec, "ar");
}

TEST(AccuracyGate, ScaleSmokeMatchesTightReference) {
  scenario::ScenarioSpec spec = scenario::preset("scale_smoke");  // noisy demand
  spec.sim.periods = 8;
  expect_within_gap(spec, "last");
}

TEST(AccuracyGate, PolishedWindowMatchesTightSolve) {
  const scenario::ScenarioSpec spec = scenario::preset("paper_full");
  const scenario::ScenarioBundle bundle = scenario::build(spec);
  const dspp::DsppModel& model = bundle.model;
  const dspp::PairIndex pairs(model);
  const std::size_t horizon = 5;
  dspp::WindowInputs inputs;
  inputs.initial_state.assign(pairs.num_pairs(), 0.0);
  for (std::size_t t = 0; t < horizon; ++t) {
    const double hour = 15.0 + static_cast<double>(t);  // the afternoon ramp
    inputs.demand.push_back(bundle.demand.mean_rates(hour));
    linalg::Vector price = bundle.prices.server_prices(hour);
    linalg::scale(spec.sim.period_hours, price);
    inputs.price.push_back(std::move(price));
  }

  qp::AdmmSettings tight;
  tight.eps_abs = 1e-8;
  tight.eps_rel = 1e-8;
  tight.polish = false;  // the raw tight iterate is the reference
  const qp::AdmmSettings shipped = control::MpcSettings{}.solver;

  // Cap the busiest data center below its unconstrained peak so capacity
  // binds and its duals carry a price.
  const dspp::WindowSolution free_plan = [&] {
    qp::AdmmSolver solver(tight);
    return dspp::WindowProgram(model, pairs, inputs).solve(solver);
  }();
  ASSERT_TRUE(free_plan.ok());
  linalg::Vector quota = model.capacity;
  std::size_t busiest = 0;
  double busiest_peak = 0.0;
  for (std::size_t l = 0; l < model.num_datacenters(); ++l) {
    for (const linalg::Vector& x_t : free_plan.x) {
      double used = 0.0;
      for (std::size_t pair : pairs.pairs_of_datacenter(l)) used += model.server_size * x_t[pair];
      if (used > busiest_peak) {
        busiest_peak = used;
        busiest = l;
      }
    }
  }
  ASSERT_GT(busiest_peak, 0.0);
  quota[busiest] = 0.8 * busiest_peak;
  inputs.capacity_override = quota;

  const dspp::WindowProgram program(model, pairs, inputs);
  qp::AdmmSolver tight_solver(tight);
  qp::AdmmSolver shipped_solver(shipped);
  const qp::QpResult reference = tight_solver.solve(program.problem());
  const qp::QpResult polished = shipped_solver.solve(program.problem());
  ASSERT_TRUE(reference.ok());
  ASSERT_TRUE(polished.ok());
  EXPECT_LE(std::abs(polished.objective - reference.objective),
            1e-7 * std::abs(reference.objective));

  // Duals compared relative to the largest capacity price in the window.
  const dspp::WindowSolution reference_plan = program.extract(reference);
  const dspp::WindowSolution polished_plan = program.extract(polished);
  double largest_dual = 0.0;
  for (const linalg::Vector& duals : reference_plan.capacity_duals) {
    for (double dual : duals) largest_dual = std::max(largest_dual, dual);
  }
  ASSERT_GT(largest_dual, 1e-4) << "capacity never binds: the dual check is vacuous";
  for (std::size_t t = 0; t < horizon; ++t) {
    for (std::size_t l = 0; l < model.num_datacenters(); ++l) {
      EXPECT_NEAR(polished_plan.capacity_duals[t][l], reference_plan.capacity_duals[t][l],
                  1e-4 * largest_dual)
          << "t=" << t << " l=" << l;
    }
  }
}

TEST(AccuracyGate, PlacementLpMatchesTightSolve) {
  const scenario::ScenarioSpec spec = scenario::preset("paper_full");
  const scenario::ScenarioBundle bundle = scenario::build(spec);
  const dspp::PairIndex pairs(bundle.model);
  qp::AdmmSettings tight;
  tight.eps_abs = 1e-9;
  tight.eps_rel = 1e-9;
  qp::AdmmSolver shipped_solver;
  qp::AdmmSolver tight_solver(tight);
  for (int hour = 0; hour < 24; ++hour) {
    const linalg::Vector demand = bundle.demand.mean_rates(hour);
    const linalg::Vector price = bundle.prices.server_prices(hour);
    const linalg::Vector shipped =
        dspp::min_cost_placement(bundle.model, pairs, demand, price, shipped_solver);
    const linalg::Vector reference =
        dspp::min_cost_placement(bundle.model, pairs, demand, price, tight_solver);
    // Rental cost of each placement: sum over pairs of price(l) x servers.
    double shipped_cost = 0.0, reference_cost = 0.0;
    for (std::size_t pair = 0; pair < pairs.num_pairs(); ++pair) {
      const double p = price[pairs.datacenter_of(pair)];
      shipped_cost += p * shipped[pair];
      reference_cost += p * reference[pair];
    }
    EXPECT_LE(std::abs(shipped_cost - reference_cost), 1e-5 * reference_cost) << "hour " << hour;
  }
}

}  // namespace
