// Batched experiment sweeps: expand a (scenario x policy x seed) grid and
// fan the runs across the process-wide thread pool — the experiment-harness
// shape the figure reproductions, the ablations, and Monte-Carlo
// confidence intervals all share.
//
// Determinism contract (matching common/thread_pool): the grid expands to a
// fixed run order (scenario-major, then policy, then seed), every run's
// SimulationConfig seed is derived purely from (base seed, run index), and
// each lane writes its result by run index — so the full SweepResult,
// including the JSONL/CSV exports, is BIT-identical at every thread count.
//
// Observability: the sweep emits gp::obs spans ("sweep.run" around the
// grid, "sweep.cell" per run) and, when metrics are enabled, counters
// (sweep.runs, sweep.unsolved_periods), a run-wall-time histogram
// (sweep.run_ms) and a runs-per-second gauge. With the telemetry timeline
// armed (GEOPLACE_TIMELINE) and timelines_dir set, every run's per-period
// frames land as a columnar JSONL sidecar for tools/gp_report; progress
// (GEOPLACE_PROGRESS or SweepOptions::progress) adds a live stderr line
// without touching any artifact.
//
// Flight recorder: every SweepResult carries the RunManifest captured at
// run() time, which write_jsonl emits as the first line and write_csv_file
// writes as a `.manifest.json` sidecar. With SweepOptions::failures_dir
// set, each run that ends with unsolved periods or audit violations is
// captured as a ReplayBundle (manifest + resolved spec + policy + seed +
// the lane's recorder tail) that tools/gp_replay re-runs deterministically.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "obs/manifest.hpp"
#include "obs/recorder.hpp"
#include "obs/timeline.hpp"
#include "scenario/policy.hpp"
#include "scenario/registry.hpp"
#include "scenario/spec.hpp"

namespace gp::scenario {

/// The three sweep axes. Seeds: `seeds` when non-empty (exact
/// SimulationConfig seeds, e.g. to reproduce a legacy bench), otherwise
/// `num_seeds` values derived from `base_seed` via derive_run_seed().
struct SweepGrid {
  std::vector<ScenarioSpec> scenarios;
  std::vector<PolicySpec> policies;
  std::vector<std::uint64_t> seeds;
  std::size_t num_seeds = 1;
  std::uint64_t base_seed = 1;
};

struct SweepOptions {
  /// Lanes used on the global pool (0 = all). Results never depend on this.
  std::size_t max_threads = 0;
  /// Keep the per-period rows of every run. Off by default: a large grid's
  /// summaries are the product, the periods are per-run bulk.
  bool keep_periods = false;
  /// When non-empty, every failed run (unsolved periods or audit
  /// violations) writes a ReplayBundle `<scenario>_<policy>_seed<N>.replay.json`
  /// into this directory, created with the first failed run (a healthy
  /// sweep leaves no directory). Bundles are written after the parallel
  /// phase, in grid order.
  std::string failures_dir;
  /// When non-empty AND the timeline is armed (GEOPLACE_TIMELINE /
  /// TimelineWriter::set_enabled), every run's per-period telemetry is
  /// written as a manifest-headed columnar JSONL sidecar
  /// `<scenario>_<policy>_seed<N>.timeline.jsonl` into this directory
  /// (created if missing) — written after the parallel phase, in grid
  /// order, like the replay bundles they sit next to.
  std::string timelines_dir;
  /// Live progress line (runs done/total, runs/s, ETA, failures) on
  /// stderr, thread-safe and rate-limited. Also armed by the
  /// GEOPLACE_PROGRESS environment variable (same on/off grammar as
  /// GEOPLACE_METRICS). Never affects the result artifacts. Every print
  /// erases the previous line (CR + clear-to-end escape) so the completed
  /// sweep leaves no stale partial line behind.
  bool progress = false;
  /// Destination of the progress line; nullptr (the default) means stderr.
  /// Tests inject an ostringstream here to capture the exact byte stream.
  std::ostream* progress_out = nullptr;
};

/// One grid point's outcome. `summary.periods` is empty unless
/// SweepOptions::keep_periods was set.
struct RunRecord {
  std::size_t scenario_index = 0;
  std::size_t policy_index = 0;
  std::size_t seed_index = 0;
  std::string scenario;  ///< report label of the scenario
  std::string policy;    ///< PolicySpec::label()
  std::uint64_t seed = 0;
  sim::SimulationSummary summary;
  double wall_ms = 0.0;
  /// Flight-recorder capture (failed runs only; empty otherwise). The
  /// recorder tail keeps obs::ConvergenceSample's static-literal stream
  /// pointers — valid for the process lifetime by construction.
  std::vector<int> failed_periods;  ///< indices of !solved periods
  std::vector<std::pair<std::string, long long>> audit_violations;
  std::vector<obs::ConvergenceSample> recorder_tail;
  /// Per-period telemetry of this run (captured only when the timeline is
  /// armed AND SweepOptions::timelines_dir is set; empty otherwise).
  std::vector<obs::TelemetryFrame> timeline;
};

/// mean/stddev/min/max over the seed axis of one metric.
struct Aggregate {
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// Per-(scenario, policy) aggregation over seeds — the Monte-Carlo cell.
struct SweepCell {
  std::string scenario;
  std::string policy;
  std::size_t runs = 0;
  Aggregate total_cost;
  Aggregate resource_cost;
  Aggregate reconfig_cost;
  Aggregate mean_compliance;
  Aggregate worst_compliance;
  Aggregate churn;
  Aggregate policy_wall_ms;
  long long unsolved_periods = 0;  ///< summed over the cell's runs
  double wall_ms = 0.0;            ///< summed run wall time (cell work)
};

/// Everything a sweep produced, in deterministic grid order.
struct SweepResult {
  std::vector<RunRecord> runs;
  std::vector<SweepCell> cells;   ///< scenario-major, then policy
  double wall_ms = 0.0;           ///< wall clock of the whole sweep
  double runs_per_s = 0.0;
  obs::RunManifest manifest;      ///< provenance captured at run() time
  std::size_t failure_bundles = 0;  ///< bundles written to failures_dir

  /// The manifest line, then one JSON object per run (grid order):
  /// scenario, policy, seed, and the summary scalars. Non-finite values
  /// are emitted as null. Everything after the manifest line is
  /// bit-identical at every thread count.
  void write_jsonl(std::ostream& out) const;

  /// Per-cell aggregate table (mean/stddev/min/max columns) as CSV.
  void write_csv(std::ostream& out) const;

  /// write_csv to `path` plus the manifest sidecar `path + ".manifest.json"`
  /// (CSV has no comment syntax to embed provenance in-band).
  void write_csv_file(const std::string& path) const;
};

/// The per-run SimulationConfig seed for run `run_index` under `base_seed`
/// (splitmix64 over the pair) — pure, so any lane can compute any run.
std::uint64_t derive_run_seed(std::uint64_t base_seed, std::size_t run_index);

/// Filesystem-safe token for scenario/policy names inside sweep artifact
/// file names (replay bundles, timeline sidecars). Path-hostile characters
/// are replaced by '_'; any name the replacement changed (or an empty
/// name) gets a short FNV-1a suffix of the ORIGINAL, so "a/b" and "a_b"
/// cannot collide and no name can escape the artifact directory.
std::string sweep_artifact_token(const std::string& name);

/// Expands and executes a SweepGrid (see file comment).
class SweepRunner {
 public:
  explicit SweepRunner(SweepGrid grid, SweepOptions options = {});

  /// scenarios x policies x seeds.
  std::size_t num_runs() const;

  /// Executes the grid across the thread pool and aggregates. Scenario
  /// bundles are built once per scenario and shared read-only by the lanes;
  /// every lane owns its engine and policy.
  SweepResult run();

  const SweepGrid& grid() const { return grid_; }

 private:
  SweepGrid grid_;
  SweepOptions options_;
  std::vector<std::uint64_t> resolved_seeds_;
};

}  // namespace gp::scenario
