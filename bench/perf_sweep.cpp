// Performance study of the scenario sweep layer (BENCH_sweep.json).
//
// One grid — the ablation_small preset x one default MPC policy x 16
// derived seeds — run twice through SweepRunner: once capped at a single
// lane, once at four. Reports wall time and runs/s for both, verifies the
// determinism contract (the full JSONL export, every digit of every run,
// must be BIT-identical across thread counts), and derives the thread
// scaling ratio.
//
// Honest reporting: with fewer than 4 usable lanes (bench/harness.hpp) the
// lanes time-slice the same cores and the scaling ratio is scheduler noise,
// so `thread_scaling_ratio_min` is written as 0.0 (nothing to gate) instead
// of pretending. With 4 usable lanes the floor is 2.0.
//
// Timeline overhead gate: a third 4-lane run with the per-period telemetry
// timeline (GEOPLACE_TIMELINE) force-armed measures what recording one
// TelemetryFrame per period costs the hot loop, and re-checks that the
// sweep's JSONL stays bit-identical with recording on. The floor
// (timeline_overhead_ratio_min) is deliberately loose — recording must not
// halve throughput — and, like thread scaling, is only gated with 4 usable
// lanes, where the measurement is not scheduler noise.
#include <cstdlib>
#include <sstream>

#include "harness.hpp"
#include "obs/manifest.hpp"
#include "obs/timeline.hpp"
#include "scenario/sweep.hpp"

int main() {
  // Size the global pool for the 4-lane run regardless of what the machine
  // reports (the pool is sized once, on first use).
  setenv("GEOPLACE_THREADS", "4", /*overwrite=*/0);

  gp::scenario::SweepGrid grid;
  grid.scenarios = {gp::scenario::preset("ablation_small")};
  grid.policies = {gp::scenario::PolicySpec{}};  // default MPC (horizon 5, last/last)
  grid.num_seeds = 16;
  grid.base_seed = 1;

  auto sweep_at = [&grid](std::size_t threads) {
    gp::scenario::SweepOptions options;
    options.max_threads = threads;
    // Any cell that fails here leaves a replay bundle behind (CI uploads the
    // directory on a red run); a healthy sweep writes nothing.
    options.failures_dir = "sweep_failures";
    return gp::scenario::SweepRunner(grid, options).run();
  };

  const auto result1 = sweep_at(1);
  const auto result4 = sweep_at(4);

  // Third run: identical grid, telemetry timeline force-armed. Frames are
  // recorded into the per-lane rings but not dumped (no timelines_dir, no
  // GEOPLACE_TIMELINE dump path), so this isolates the record-path cost.
  gp::obs::TimelineWriter::set_enabled(true);
  const auto result_tl = sweep_at(4);
  gp::obs::TimelineWriter::set_enabled(false);

  // The leading manifest line records host facts (lane count among them),
  // so the determinism identity is checked on the stripped body — that is
  // the part that must not depend on GEOPLACE_THREADS.
  std::ostringstream jsonl1, jsonl4, jsonl_tl;
  result1.write_jsonl(jsonl1);
  result4.write_jsonl(jsonl4);
  result_tl.write_jsonl(jsonl_tl);
  const bool manifest_first = gp::obs::is_manifest_line(jsonl1.str()) &&
                              gp::obs::is_manifest_line(jsonl4.str()) &&
                              gp::obs::is_manifest_line(jsonl_tl.str());
  const std::string body1 = gp::obs::strip_manifest_lines(jsonl1.str());
  const bool bit_identical =
      manifest_first && body1 == gp::obs::strip_manifest_lines(jsonl4.str());
  // Recording telemetry must never perturb the results themselves.
  const bool timeline_transparent =
      manifest_first && body1 == gp::obs::strip_manifest_lines(jsonl_tl.str());

  const double ratio =
      result1.runs_per_s > 0.0 ? result4.runs_per_s / result1.runs_per_s : 0.0;
  const double timeline_ratio =
      result4.runs_per_s > 0.0 ? result_tl.runs_per_s / result4.runs_per_s : 0.0;

  gp::bench::Report report("BENCH_sweep.json", result1.manifest);
  report.record("cpus", gp::bench::cpus());
  report.record("runs", result1.runs.size());
  report.object("threads1", {{"wall_ms", result1.wall_ms}, {"runs_per_s", result1.runs_per_s}});
  report.object("threads4", {{"wall_ms", result4.wall_ms}, {"runs_per_s", result4.runs_per_s}});
  report.record("bit_identical", bit_identical);
  report.floor("thread_scaling_ratio", ratio, 2.0, 4);
  report.object("timeline",
                {{"wall_ms", result_tl.wall_ms}, {"runs_per_s", result_tl.runs_per_s}});
  report.record("timeline_transparent", timeline_transparent);
  report.floor("timeline_overhead_ratio", timeline_ratio, 0.5, 4);
  report.check("bit_identical", bit_identical);
  report.check("timeline_transparent", timeline_transparent);
  return report.finish();
}
