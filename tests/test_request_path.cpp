// Tests for the batched request path (sim/request_path.hpp): closed-form
// validation of the count-first NHPP batches across a utilization grid,
// the lane-sharding determinism contract (bit-identical per-pair statistics
// at any lane count), exactness of the legacy wrappers against verbatim
// copies of the pre-batched implementations, per-pair substream
// independence, and the engine-attached simulate_day loop.
#include <gtest/gtest.h>

#include <cmath>
#include <queue>
#include <vector>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "obs/timeline.hpp"
#include "queueing/mm1.hpp"
#include "queueing/mmc.hpp"
#include "scenario/request_day.hpp"
#include "scenario/spec.hpp"
#include "sim/request_path.hpp"
#include "sim/request_sim.hpp"

namespace gp::sim {
namespace {

using linalg::Vector;

/// One data center, one access network, zero network latency, loose bound:
/// the simulated pair is a textbook split-M/M/1 group.
dspp::DsppModel single_pair_model(double mu) {
  dspp::DsppModel model;
  model.network = topology::NetworkModel({"dc0"}, {"an0"}, {{0.0}});
  model.sla.mu = mu;
  model.sla.max_latency_ms = 1000.0;
  model.reconfig_cost = {0.0};
  model.capacity = {10000.0};
  return model;
}

TEST(RequestPath, MatchesMm1ClosedFormAcrossUtilizationGrid) {
  // Per-server utilizations from relaxed to near-critical: empirical mean
  // and p95 of the batched NHPP simulation must track the M/M/1 closed
  // forms (mean = 1/(mu - lambda), p95 = ln(20) * mean — the paper's
  // Section IV-B percentile device).
  const double mu = 100.0;
  const int servers = 2;
  const dspp::DsppModel model = single_pair_model(mu);
  const dspp::PairIndex pairs(model);
  for (const double rho : {0.3, 0.5, 0.7, 0.85, 0.95}) {
    const double lambda = rho * mu * servers;
    const Vector demand{lambda};
    const Vector allocation{static_cast<double>(servers)};
    const auto assignment = dspp::assign_demand(pairs, allocation, demand);
    RequestSimOptions options;
    options.duration_s = 3000.0;
    options.seed = 17;
    const auto report = simulate_requests(model, pairs, allocation, assignment, options);
    ASSERT_GT(report.pairs[0].requests, 100000u) << "rho=" << rho;
    const double analytic_ms = 1000.0 * queueing::mean_response_time(mu, rho * mu);
    EXPECT_NEAR(report.pairs[0].mean_ms, analytic_ms, 0.08 * analytic_ms) << "rho=" << rho;
    const double analytic_p95_ms = queueing::percentile_factor(0.95) * analytic_ms;
    EXPECT_NEAR(report.pairs[0].p95_ms, analytic_p95_ms, 0.10 * analytic_p95_ms)
        << "rho=" << rho;
    EXPECT_NEAR(report.pairs[0].utilization, rho, 0.02) << "rho=" << rho;
  }
}

TEST(RequestPath, PooledWrapperMatchesErlangCAcrossUtilizationGrid) {
  // The M/M/c closed form across the same grid, through the wrapped pooled
  // simulator (which exercises the shared heap kernel).
  const double mu = 25.0;
  const int servers = 4;
  for (const double rho : {0.3, 0.6, 0.8, 0.95}) {
    const double lambda = rho * mu * servers;
    Rng rng(23);
    // Mixing slows as 1/(1-rho)^2 near criticality: give the hot points a
    // longer window so the estimate converges at the same tolerance.
    const double duration_s = rho >= 0.9 ? 12000.0 : 3000.0;
    const auto result = simulate_pooled_mmc(lambda, mu, servers, duration_s, rng);
    ASSERT_GT(result.completed, 50000u) << "rho=" << rho;
    const double analytic = queueing::mmc_mean_response_time(servers, lambda, mu);
    EXPECT_NEAR(result.mean_response, analytic, 0.08 * analytic) << "rho=" << rho;
  }
}

TEST(RequestPath, BitIdenticalAtAnyLaneCount) {
  // The SweepRunner determinism contract, at the request level: per-pair
  // statistics must be EXACTLY equal (every double, every count) whether
  // the access networks are simulated on 1, 3 or 8 lanes.
  gp::scenario::ScenarioSpec spec = gp::scenario::section7_spec(3, 8);
  const auto bundle = gp::scenario::build(spec);
  const dspp::PairIndex pairs(bundle.model);
  Vector demand(bundle.demand.mean_rates(12.0));
  Vector allocation(pairs.num_pairs(), 0.0);
  for (std::size_t v = 0; v < pairs.num_access_networks(); ++v) {
    for (std::size_t p : pairs.pairs_of_access_network(v)) {
      allocation[p] = std::ceil(pairs.coefficient(p) * demand[v] / 2.0 + 1.0);
    }
  }
  const auto assignment = dspp::assign_demand(pairs, allocation, demand);

  auto run_at = [&](std::size_t lanes) {
    RequestSimOptions options;
    options.duration_s = 30.0;
    options.seed = 5;
    options.max_lanes = lanes;
    return simulate_requests(bundle.model, pairs, allocation, assignment, options);
  };
  const auto base = run_at(1);
  ASSERT_GT(base.simulated_requests, 1000u);
  for (const std::size_t lanes : {3u, 8u}) {
    const auto other = run_at(lanes);
    ASSERT_EQ(other.pairs.size(), base.pairs.size());
    for (std::size_t p = 0; p < base.pairs.size(); ++p) {
      EXPECT_EQ(base.pairs[p].requests, other.pairs[p].requests) << "pair " << p;
      EXPECT_EQ(base.pairs[p].violations, other.pairs[p].violations) << "pair " << p;
      EXPECT_EQ(base.pairs[p].mean_ms, other.pairs[p].mean_ms) << "pair " << p;
      EXPECT_EQ(base.pairs[p].p95_ms, other.pairs[p].p95_ms) << "pair " << p;
      EXPECT_EQ(base.pairs[p].utilization, other.pairs[p].utilization) << "pair " << p;
      EXPECT_EQ(base.pairs[p].unstable, other.pairs[p].unstable) << "pair " << p;
    }
    EXPECT_EQ(base.simulated_requests, other.simulated_requests);
    EXPECT_EQ(base.mean_latency_ms, other.mean_latency_ms);
    EXPECT_EQ(base.worst_pair_p95_ms, other.worst_pair_p95_ms);
    EXPECT_EQ(base.violating_fraction, other.violating_fraction);
  }
}

TEST(RequestPath, PairSubstreamsAreIndependent) {
  // Pair statistics depend only on (seed, pair index, its own load): a
  // change to one access network's demand must leave every other pair's
  // statistics EXACTLY unchanged — the property the splitmix64 substreams
  // buy over a single shared generator.
  dspp::DsppModel model;
  model.network = topology::NetworkModel({"dc0"}, {"an0", "an1"}, {{5.0, 7.0}});
  model.sla.mu = 100.0;
  model.sla.max_latency_ms = 200.0;
  model.reconfig_cost = {0.0};
  model.capacity = {10000.0};
  const dspp::PairIndex pairs(model);
  ASSERT_EQ(pairs.num_pairs(), 2u);

  auto run_with = [&](double rate1) {
    const Vector demand{150.0, rate1};
    const Vector allocation{3.0, 4.0};
    const auto assignment = dspp::assign_demand(pairs, allocation, demand);
    RequestSimOptions options;
    options.duration_s = 60.0;
    options.seed = 11;
    return simulate_requests(model, pairs, allocation, assignment, options);
  };
  const auto a = run_with(80.0);
  const auto b = run_with(240.0);
  const std::size_t p0 = *pairs.pair_of(0, 0);
  ASSERT_GT(a.pairs[p0].requests, 1000u);
  EXPECT_EQ(a.pairs[p0].requests, b.pairs[p0].requests);
  EXPECT_EQ(a.pairs[p0].violations, b.pairs[p0].violations);
  EXPECT_EQ(a.pairs[p0].mean_ms, b.pairs[p0].mean_ms);
  EXPECT_EQ(a.pairs[p0].p95_ms, b.pairs[p0].p95_ms);
  EXPECT_EQ(a.pairs[p0].utilization, b.pairs[p0].utilization);
  // ...while the changed pair did change.
  const std::size_t p1 = *pairs.pair_of(0, 1);
  EXPECT_NE(a.pairs[p1].requests, b.pairs[p1].requests);
}

// ------------------------------------------------------------------------
// Wrapper exactness: verbatim copies of the PRE-BATCHED implementations
// (interleaved draw per event, retroactive warm-up trim). The wrapped entry
// points must reproduce them bit for bit.

QueueSimResult legacy_summarize(std::vector<double>& responses, double busy_time, int servers,
                                double duration_s, double warmup_fraction) {
  QueueSimResult result;
  const auto skip =
      static_cast<std::size_t>(warmup_fraction * static_cast<double>(responses.size()));
  if (responses.size() <= skip) return result;
  std::vector<double> measured(responses.begin() + static_cast<std::ptrdiff_t>(skip),
                               responses.end());
  result.completed = measured.size();
  result.mean_response = mean(measured);
  result.p95_response = percentile(measured, 95.0);
  result.utilization = busy_time / (static_cast<double>(servers) * duration_s);
  return result;
}

QueueSimResult legacy_split_mm1(double lambda, double mu, int servers, double duration_s,
                                Rng& rng, double warmup_fraction) {
  const double per_server_rate = lambda / static_cast<double>(servers);
  std::vector<double> responses;
  double busy_time = 0.0;
  for (int s = 0; s < servers; ++s) {
    if (per_server_rate <= 0.0) break;
    double t = rng.exponential(per_server_rate);
    double wait = 0.0;
    while (t < duration_s) {
      const double service = rng.exponential(mu);
      responses.push_back(wait + service);
      busy_time += service;
      const double gap = rng.exponential(per_server_rate);
      wait = std::max(0.0, wait + service - gap);
      t += gap;
    }
  }
  return legacy_summarize(responses, busy_time, servers, duration_s, warmup_fraction);
}

QueueSimResult legacy_pooled_mmc(double lambda, double mu, int servers, double duration_s,
                                 Rng& rng, double warmup_fraction) {
  std::priority_queue<double, std::vector<double>, std::greater<>> free_at;
  for (int s = 0; s < servers; ++s) free_at.push(0.0);
  std::vector<double> responses;
  double busy_time = 0.0;
  double t = lambda > 0.0 ? rng.exponential(lambda) : duration_s;
  while (t < duration_s) {
    const double earliest = free_at.top();
    free_at.pop();
    const double start = std::max(t, earliest);
    const double service = rng.exponential(mu);
    free_at.push(start + service);
    responses.push_back(start - t + service);
    busy_time += service;
    t += rng.exponential(lambda);
  }
  return legacy_summarize(responses, busy_time, servers, duration_s, warmup_fraction);
}

TEST(RequestPath, SplitWrapperIsBitIdenticalToLegacy) {
  for (const std::uint64_t seed : {1u, 7u, 1234u}) {
    Rng legacy_rng(seed);
    Rng wrapped_rng(seed);
    const auto expected = legacy_split_mm1(140.0, 50.0, 4, 500.0, legacy_rng, 0.1);
    const auto actual = simulate_split_mm1(140.0, 50.0, 4, 500.0, wrapped_rng, 0.1);
    EXPECT_EQ(actual.completed, expected.completed);
    EXPECT_EQ(actual.mean_response, expected.mean_response);
    EXPECT_EQ(actual.p95_response, expected.p95_response);
    EXPECT_EQ(actual.utilization, expected.utilization);
    // The wrapper consumed exactly the same number of draws.
    EXPECT_EQ(wrapped_rng(), legacy_rng());
  }
}

TEST(RequestPath, PooledWrapperIsBitIdenticalToLegacy) {
  for (const std::uint64_t seed : {2u, 9u, 4321u}) {
    Rng legacy_rng(seed);
    Rng wrapped_rng(seed);
    const auto expected = legacy_pooled_mmc(150.0, 25.0, 8, 400.0, legacy_rng, 0.1);
    const auto actual = simulate_pooled_mmc(150.0, 25.0, 8, 400.0, wrapped_rng, 0.1);
    EXPECT_EQ(actual.completed, expected.completed);
    EXPECT_EQ(actual.mean_response, expected.mean_response);
    EXPECT_EQ(actual.p95_response, expected.p95_response);
    EXPECT_EQ(actual.utilization, expected.utilization);
    EXPECT_EQ(wrapped_rng(), legacy_rng());
  }
}

TEST(RequestPath, UnstablePairViolatesEverything) {
  const dspp::DsppModel model = single_pair_model(100.0);
  const dspp::PairIndex pairs(model);
  const Vector demand{500.0};
  const Vector allocation{2.0};  // per-server rate 250 >> mu = 100
  const auto assignment = dspp::assign_demand(pairs, allocation, demand);
  RequestSimOptions options;
  options.duration_s = 10.0;
  const auto report = simulate_requests(model, pairs, allocation, assignment, options);
  ASSERT_TRUE(report.pairs[0].unstable);
  EXPECT_EQ(report.pairs[0].requests, static_cast<std::size_t>(500.0 * 10.0));
  EXPECT_EQ(report.pairs[0].violations, report.pairs[0].requests);
  EXPECT_DOUBLE_EQ(report.violating_fraction, 1.0);
}

TEST(RequestPath, ValidatesInputs) {
  const dspp::DsppModel model = single_pair_model(100.0);
  const dspp::PairIndex pairs(model);
  const Vector demand{50.0};
  const Vector allocation{1.0};
  const auto assignment = dspp::assign_demand(pairs, allocation, demand);
  RequestSimOptions options;
  options.duration_s = 0.0;
  EXPECT_THROW(simulate_requests(model, pairs, allocation, assignment, options),
               PreconditionError);
  options.duration_s = 1.0;
  options.warmup_fraction = 1.0;
  EXPECT_THROW(simulate_requests(model, pairs, allocation, assignment, options),
               PreconditionError);
  options.warmup_fraction = 0.1;
  EXPECT_THROW(
      simulate_requests(model, pairs, Vector(3, 1.0), assignment, options),
      PreconditionError);
}

TEST(RequestPath, SimulateDayFillsTimelineAndReports) {
  // A short request-level day over a small preset: one report per period,
  // requests simulated, and (with the timeline armed) the req_* columns
  // filled in every committed frame.
  gp::scenario::ScenarioSpec spec = gp::scenario::section7_spec(2, 6);
  spec.sim.periods = 4;
  spec.sim.seed = 3;
  gp::scenario::PolicySpec policy;
  policy.kind = "reactive";

  RequestDayOptions options;
  options.sim.duration_s = 5.0;
  options.sim.seed = 99;

  const bool was_enabled = obs::TimelineWriter::enabled();
  obs::TimelineWriter::set_enabled(true);
  const auto result = gp::scenario::simulate_request_day(spec, policy, options);
  const auto frames = obs::TimelineWriter::local().frames();
  obs::TimelineWriter::set_enabled(was_enabled);

  ASSERT_EQ(result.period_reports.size(), 4u);
  EXPECT_GT(result.simulated_requests, 0u);
  EXPECT_GT(result.requests_per_s, 0.0);
  EXPECT_EQ(result.summary.periods.size(), 4u);
  ASSERT_EQ(frames.size(), 4u);
  for (std::size_t k = 0; k < frames.size(); ++k) {
    EXPECT_DOUBLE_EQ(frames[k].req_simulated,
                     static_cast<double>(result.period_reports[k].simulated_requests));
    EXPECT_GT(frames[k].req_simulated, 0.0);
    EXPECT_GT(frames[k].req_mean_latency_ms, 0.0);
    EXPECT_GE(frames[k].req_worst_p95_ms, frames[k].req_mean_latency_ms);
  }
  // The day is deterministic end to end for a fixed pair of seeds.
  const auto again = gp::scenario::simulate_request_day(spec, policy, options);
  ASSERT_EQ(again.period_reports.size(), result.period_reports.size());
  for (std::size_t k = 0; k < result.period_reports.size(); ++k) {
    EXPECT_EQ(again.period_reports[k].simulated_requests,
              result.period_reports[k].simulated_requests);
    EXPECT_EQ(again.period_reports[k].mean_latency_ms,
              result.period_reports[k].mean_latency_ms);
  }
}

}  // namespace
}  // namespace gp::sim
