// One simulated day of the MPC control loop, run two ways:
//
//  * run_engine_day — the shipped path: scenario::build + make_policy +
//    SimulationEngine::run (or sim::simulate_day with the request path),
//    timed from outside by a policy wrapper that stamps the start of every
//    period. This is the untraced, end-to-end measurement.
//  * replay_day — the same day decomposed into the public calls the engine
//    and MpcController make (predictor observe/forecast, WindowProgram
//    ctor/update, AdmmSolver::solve, WindowProgram::extract or
//    BlockWindowSolver::solve, assign_demand, evaluate_sla,
//    simulate_requests), each one timed. This is the traced run; its
//    allocations and costs must equal run_engine_day's bit for bit.
#pragma once

#include <bit>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "scenario/policy.hpp"
#include "scenario/spec.hpp"
#include "sim/request_path.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Everything that defines one simulated day.
struct DayConfig {
  gp::scenario::ScenarioSpec spec;  ///< spec.sim.seed is the day's seed
  gp::scenario::PolicySpec policy;  ///< an "mpc" policy
  bool request_path = false;        ///< fire NHPP requests at every deployment
  gp::sim::RequestSimOptions requests;
};

/// Outputs of one day, shared by both paths so they can be compared.
struct DayRecord {
  std::vector<gp::linalg::Vector> allocations;  ///< applied x_{k+1} per period
  double total_cost = 0.0;
  double total_resource_cost = 0.0;
  double total_reconfig_cost = 0.0;
  double mean_compliance = 0.0;
  double policy_ms = 0.0;                 ///< summed policy wall (engine path)
  int unsolved_periods = 0;
  std::size_t simulated_requests = 0;
  std::size_t request_violations = 0;

  // Timing (engine path): setup = scenario build + policy construction +
  // engine construction + initial provisioning + the cold first period.
  double build_ms = 0.0;
  double make_policy_ms = 0.0;
  double setup_ms = 0.0;
  double day_ms = 0.0;
  std::vector<double> period_ms;  ///< warm periods only (k >= 1)

  std::vector<std::string> errors;  ///< failed correctness checks
};

/// Per-call timings of a traced day (warm periods unless noted).
struct LayerTimes {
  std::vector<double> predict_ms;
  std::vector<double> window_update_ms;
  std::vector<double> qp_solve_ms;
  std::vector<double> extract_ms;
  std::vector<double> block_solve_ms;
  std::vector<double> assign_ms;
  std::vector<double> sla_ms;
  std::vector<double> request_ms;
  std::vector<double> period_ms;          ///< traced period wall
  std::vector<double> cold_solve_ms;      ///< first period's window solve
  std::vector<double> qp_iterations;      ///< per warm exact solve
  std::vector<double> qp_factorizations;  ///< per warm exact solve
  std::vector<double> consensus_iterations;  ///< per warm block solve
  std::vector<double> forecast_rel_err;   ///< one-step demand forecast error
  std::size_t skipped_factorizations = 0; ///< warm exact solves reusing the factor

  /// Sum of every timed call over the warm periods.
  double layer_total_ms() const;
  void append(const LayerTimes& other);
};

/// Appends an error to record.errors for every applied allocation that is
/// negative or non-finite, or that exceeds a DC's capacity.
void check_allocations(const gp::dspp::DsppModel& model, const gp::dspp::PairIndex& pairs,
                       DayRecord& record);

/// Shipped path (see file comment). Checks the day's outputs: allocations
/// non-negative and within every DC's capacity, the cost identity, and the
/// summary's own totals; failures land in DayRecord::errors.
DayRecord run_engine_day(const DayConfig& config);

/// Decomposed path over a pre-built bundle (see file comment). Checks the
/// allocations like run_engine_day.
DayRecord replay_day(const DayConfig& config, const gp::scenario::ScenarioBundle& bundle,
                     LayerTimes& times);

/// True when two doubles are the same bit pattern (determinism checks).
inline bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Bitwise comparison of two records' allocations and totals; empty when
/// identical, else a description naming the first diverging period.
std::string compare_days(const DayRecord& reference, const DayRecord& candidate);

}  // namespace perfbench
