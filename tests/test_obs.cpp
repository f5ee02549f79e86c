// Tests for geoplace::obs: the metrics registry (counters, gauges,
// log-bucket histograms), the trace spans/exporters, and the contract the
// instrumented layers rely on — concurrent recording from thread_pool lanes
// is race-free (run under the tsan preset via the "obs" label), bucketed
// percentiles track the scalar reference within the documented bucket
// error, and a disabled registry/tracer records nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "obs/export.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "qp/admm_solver.hpp"
#include "qp/problem.hpp"

namespace {

using gp::obs::Histogram;
using gp::obs::HistogramOptions;
using gp::obs::Registry;
using gp::obs::Span;
using gp::obs::TraceEvent;
using gp::obs::TraceFormat;
using gp::obs::Tracer;

TEST(Counter, AddsAndResets) {
  gp::obs::Counter counter;
  EXPECT_EQ(counter.value(), 0);
  counter.add();
  counter.add(41);
  EXPECT_EQ(counter.value(), 42);
  counter.add(-2);
  EXPECT_EQ(counter.value(), 40);
  counter.reset();
  EXPECT_EQ(counter.value(), 0);
}

TEST(Gauge, LastWriteWins) {
  gp::obs::Gauge gauge;
  EXPECT_EQ(gauge.value(), 0.0);
  gauge.set(3.5);
  gauge.set(-1.25);
  EXPECT_EQ(gauge.value(), -1.25);
  gauge.reset();
  EXPECT_EQ(gauge.value(), 0.0);
}

TEST(Histogram, ExactMoments) {
  Histogram h;
  for (double v : {1.0, 2.0, 4.0, 8.0}) h.record(v);
  EXPECT_EQ(h.count(), 4);
  EXPECT_DOUBLE_EQ(h.sum(), 15.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 8.0);
}

TEST(Histogram, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.percentile(50.0), 0.0);
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 0);
  EXPECT_EQ(snap.p99, 0.0);
}

TEST(Histogram, UnderflowAndOverflowClampToObservedRange) {
  Histogram h(HistogramOptions{.min_value = 1.0, .max_value = 100.0,
                               .buckets_per_decade = 4});
  h.record(-5.0);   // underflow (negative)
  h.record(0.01);   // underflow
  h.record(1e9);    // overflow
  EXPECT_EQ(h.count(), 3);
  EXPECT_DOUBLE_EQ(h.min(), -5.0);
  EXPECT_DOUBLE_EQ(h.max(), 1e9);
  // Percentiles are clamped to the exact observed [min, max] even though
  // the owning buckets have infinite/degenerate edges.
  EXPECT_GE(h.percentile(1.0), -5.0);
  EXPECT_LE(h.percentile(99.9), 1e9);
}

TEST(Histogram, PercentileTracksScalarReferenceWithinBucketError) {
  // The documented accuracy bound: one bucket, i.e. a relative error of
  // 10^(1/buckets_per_decade) - 1 (~15.5% at the default 16/decade).
  const HistogramOptions options;  // defaults
  const double bucket_ratio = std::pow(10.0, 1.0 / options.buckets_per_decade);
  Histogram h(options);
  std::vector<double> values;
  // A skewed latency-like population spanning three decades.
  for (int i = 1; i <= 1000; ++i) {
    const double v = 0.05 * std::pow(1.01, i);  // 0.05 .. ~1047, geometric
    values.push_back(v);
    h.record(v);
  }
  for (double p : {10.0, 50.0, 90.0, 95.0, 99.0}) {
    const double exact = gp::percentile(values, p);
    const double approx = h.percentile(p);
    EXPECT_LE(approx, exact * bucket_ratio * 1.001) << "p" << p;
    EXPECT_GE(approx, exact / bucket_ratio * 0.999) << "p" << p;
  }
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 1000);
  EXPECT_DOUBLE_EQ(snap.p50, h.percentile(50.0));
  EXPECT_DOUBLE_EQ(snap.p95, h.percentile(95.0));
  EXPECT_DOUBLE_EQ(snap.p99, h.percentile(99.0));
}

TEST(Histogram, ConcurrentRecordingIsExactForCountSumMinMax) {
  // thread_pool lanes hammer one histogram; count/sum/min/max are
  // maintained with atomics and must come out exact. Run under the tsan
  // preset (label "obs") this is also the data-race check.
  Histogram h;
  constexpr std::size_t kLanes = 8;
  constexpr int kPerLane = 5000;
  gp::parallel_for(0, kLanes, [&](std::size_t lane) {
    for (int i = 0; i < kPerLane; ++i) {
      h.record(static_cast<double>(lane + 1));  // lane k records value k+1
    }
  });
  EXPECT_EQ(h.count(), static_cast<long long>(kLanes * kPerLane));
  double expected_sum = 0.0;
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    expected_sum += static_cast<double>((lane + 1) * kPerLane);
  }
  EXPECT_DOUBLE_EQ(h.sum(), expected_sum);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), static_cast<double>(kLanes));
}

TEST(RegistryTest, FindOrCreateReturnsStableReferences) {
  Registry registry;
  auto& c1 = registry.counter("a.count");
  auto& c2 = registry.counter("a.count");
  EXPECT_EQ(&c1, &c2);
  auto& h1 = registry.histogram("a.ms");
  auto& h2 = registry.histogram("a.ms");
  EXPECT_EQ(&h1, &h2);
  // Same name, different kind: a programming error, reported loudly.
  EXPECT_THROW(registry.gauge("a.count"), std::exception);
  EXPECT_THROW(registry.counter("a.ms"), std::exception);
}

TEST(RegistryTest, ResetAllZeroesGlobalWithoutInvalidatingReferences) {
  // reset_all() is the test/bench-friendly reset: values go to zero but
  // every previously handed-out reference stays valid and registered.
  auto& registry = Registry::global();
  auto& counter = registry.counter("resetall.count");
  auto& gauge = registry.gauge("resetall.gauge");
  auto& histogram = registry.histogram("resetall.ms");
  counter.add(5);
  gauge.set(2.5);
  histogram.record(1.0);
  Registry::reset_all();
  EXPECT_EQ(counter.value(), 0);
  EXPECT_EQ(gauge.value(), 0.0);
  EXPECT_EQ(histogram.count(), 0);
  EXPECT_EQ(&counter, &registry.counter("resetall.count"));
  EXPECT_EQ(&histogram, &registry.histogram("resetall.ms"));
}

TEST(RegistryTest, ConcurrentLookupAndUpdateFromPoolLanes) {
  // Runs on the GLOBAL registry — reset_all() gives the exact-count
  // assertions a clean slate without the fresh-registry workaround.
  auto& registry = Registry::global();
  const bool was_enabled = registry.enabled();
  registry.set_enabled(true);
  Registry::reset_all();
  constexpr std::size_t kLanes = 8;
  constexpr int kPerLane = 2000;
  gp::parallel_for(0, kLanes, [&](std::size_t lane) {
    // Mixed find-or-create + record, as the solvers do: lookup races are
    // covered by the registry mutex, updates by the metric atomics.
    auto& counter = registry.counter("shared.count");
    auto& histogram = registry.histogram("shared.ms");
    auto& own = registry.counter("lane." + std::to_string(lane));
    for (int i = 0; i < kPerLane; ++i) {
      counter.add(1);
      histogram.record(1.0);
      own.add(1);
    }
  });
  EXPECT_EQ(registry.counter("shared.count").value(),
            static_cast<long long>(kLanes * kPerLane));
  EXPECT_EQ(registry.histogram("shared.ms").count(),
            static_cast<long long>(kLanes * kPerLane));
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    EXPECT_EQ(registry.counter("lane." + std::to_string(lane)).value(), kPerLane);
  }
  Registry::reset_all();
  registry.set_enabled(was_enabled);
}

TEST(RegistryTest, RowsAndJsonlExport) {
  Registry registry;
  registry.counter("x.solves").add(3);
  registry.gauge("x.converged").set(1.0);
  registry.histogram("x.ms").record(2.0);
  const auto rows = registry.rows();
  ASSERT_EQ(rows.size(), 3u);  // sorted by name within each kind group
  std::ostringstream out;
  registry.write_jsonl(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"type\":\"counter\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"x.solves\""), std::string::npos);
  EXPECT_NE(text.find("\"value\":3"), std::string::npos);
  EXPECT_NE(text.find("\"type\":\"gauge\""), std::string::npos);
  EXPECT_NE(text.find("\"type\":\"histogram\""), std::string::npos);
  EXPECT_NE(text.find("\"p95\""), std::string::npos);

  registry.reset_values();
  EXPECT_EQ(registry.counter("x.solves").value(), 0);
  EXPECT_EQ(registry.histogram("x.ms").count(), 0);
}

TEST(SpanTest, MeasuresTimeWithTracingDisabled) {
  // Pin the flag: the suite may be running with GEOPLACE_TRACE armed (the
  // CI obs-on job does), and this test is about the disabled path.
  if (gp::obs::tracing_enabled()) gp::obs::stop_tracing();
  ASSERT_FALSE(gp::obs::tracing_enabled());
  const std::size_t before = Tracer::global().events().size();
  Span span("test.disabled");
  volatile double sink = 0.0;
  for (int i = 0; i < 10000; ++i) sink = sink + 1.0;
  EXPECT_GE(span.elapsed_ms(), 0.0);
  const double at_close = span.close();
  EXPECT_GE(at_close, 0.0);
  // No event emission when tracing is off.
  EXPECT_EQ(Tracer::global().events().size(), before);
}

TEST(SpanTest, NestedSpansRecordDepthAndOrder) {
  auto& tracer = Tracer::global();
  tracer.start("unused_span_depth.jsonl", TraceFormat::kJsonl);
  {
    Span outer("test.outer");
    {
      Span inner("test.inner", 7.0);
    }
  }
  tracer.counter("test.value", 2.5);
  const std::vector<TraceEvent> events = tracer.events();
  tracer.discard();
  tracer.stop();
  std::remove("unused_span_depth.jsonl");

  ASSERT_EQ(events.size(), 3u);
  // Spans are recorded at close, so the inner span lands first.
  EXPECT_EQ(events[0].name, "test.inner");
  EXPECT_EQ(events[0].depth, 1);
  EXPECT_TRUE(events[0].has_arg);
  EXPECT_EQ(events[0].arg, 7.0);
  EXPECT_EQ(events[1].name, "test.outer");
  EXPECT_EQ(events[1].depth, 0);
  EXPECT_GE(events[1].dur_us, events[0].dur_us);
  EXPECT_LE(events[1].ts_us, events[0].ts_us);
  EXPECT_EQ(events[2].name, "test.value");
  EXPECT_LT(events[2].dur_us, 0.0);  // counter sample marker
  EXPECT_EQ(events[2].arg, 2.5);
}

TEST(SpanTest, ConcurrentSpansFromPoolLanesGetDistinctThreadIds) {
  auto& tracer = Tracer::global();
  tracer.start("unused_span_tids.jsonl", TraceFormat::kJsonl);
  constexpr std::size_t kLanes = 4;
  gp::parallel_for(0, kLanes, [&](std::size_t lane) {
    Span span("test.lane", static_cast<double>(lane));
    volatile double sink = 0.0;
    for (int i = 0; i < 1000; ++i) sink = sink + 1.0;
  });
  const std::vector<TraceEvent> events = tracer.events();
  tracer.discard();
  tracer.stop();
  std::remove("unused_span_tids.jsonl");

  ASSERT_EQ(events.size(), kLanes);
  std::vector<double> lanes_seen;
  for (const auto& event : events) {
    EXPECT_EQ(event.name, std::string("test.lane"));
    EXPECT_EQ(event.depth, 0);  // depth is per-thread, no cross-lane nesting
    lanes_seen.push_back(event.arg);
  }
  std::sort(lanes_seen.begin(), lanes_seen.end());
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    EXPECT_EQ(lanes_seen[lane], static_cast<double>(lane));
  }
}

TEST(ExportTest, ChromeTraceIsWellFormedJson) {
  std::vector<TraceEvent> events;
  events.push_back({"mod.solve", 10.0, 1500.0, 1, 0, 0.0, false});
  events.push_back({"mod.inner \"q\"", 20.0, 500.0, 1, 1, 3.0, true});
  events.push_back({"mod.residual", 30.0, -1.0, 2, 0, 0.125, true});
  std::ostringstream out;
  gp::obs::write_chrome_trace(out, events);
  const std::string text = out.str();
  EXPECT_EQ(text.front(), '[');
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(text.find("\"cat\":\"mod\""), std::string::npos);
  EXPECT_NE(text.find("\\\"q\\\""), std::string::npos);  // escaping
  EXPECT_NE(text.find("\"dur\":1500"), std::string::npos);
  // Trailing "]" closes the array.
  EXPECT_NE(text.rfind(']'), std::string::npos);
}

TEST(ExportTest, JsonlRoundTripsThroughTheFile) {
  const char* path = "test_obs_roundtrip.jsonl";
  gp::obs::start_tracing(path);
  {
    Span span("roundtrip.work");
  }
  gp::obs::stop_tracing();
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line, all;
  bool saw_span = false;
  while (std::getline(in, line)) {
    all += line + "\n";
    if (line.find("\"type\":\"span\"") != std::string::npos &&
        line.find("roundtrip.work") != std::string::npos) {
      saw_span = true;
    }
  }
  in.close();
  std::remove(path);
  EXPECT_TRUE(saw_span) << all;
}

TEST(ExportTest, PathExtensionSelectsChromeVersusJsonl) {
  // ".json" exports the Chrome trace array, anything else the JSONL log;
  // both carry the run manifest (metadata event vs header line).
  auto run_traced = [](const char* path) {
    gp::obs::start_tracing(path);
    {
      Span span("fmt.work");
    }
    gp::obs::stop_tracing();
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    in.close();
    std::remove(path);
    return buffer.str();
  };

  const std::string chrome = run_traced("test_obs_fmt.json");
  EXPECT_EQ(chrome.front(), '[');
  EXPECT_NE(chrome.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(chrome.find("\"run_manifest\""), std::string::npos);
  EXPECT_NE(chrome.find("\"git_sha\""), std::string::npos);

  const std::string jsonl = run_traced("test_obs_fmt.jsonl");
  EXPECT_TRUE(gp::obs::is_manifest_line(jsonl));  // manifest is line 1
  EXPECT_NE(jsonl.find("\"type\":\"span\""), std::string::npos);
  EXPECT_EQ(jsonl.find("\"ph\":"), std::string::npos);  // not Chrome events
  // Stripping the manifest removes exactly the header line.
  const std::string stripped = gp::obs::strip_manifest_lines(jsonl);
  EXPECT_FALSE(gp::obs::is_manifest_line(stripped));
  EXPECT_NE(stripped.find("\"type\":\"span\""), std::string::npos);
}

TEST(ExportTest, JsonlExportAppendsRegistryAfterSpans) {
  // The registry outlives the tracer (both are process-wide statics, and
  // the tracer's export reads the registry): a stop_tracing() export must
  // be able to include live metric lines after the span events.
  auto& registry = Registry::global();
  const bool was_enabled = registry.enabled();
  registry.set_enabled(true);
  Registry::reset_all();
  registry.counter("exporder.count").add(7);

  const char* path = "test_obs_order.jsonl";
  gp::obs::start_tracing(path);
  {
    Span span("exporder.work");
  }
  gp::obs::stop_tracing();
  registry.set_enabled(was_enabled);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  in.close();
  std::remove(path);
  const std::string text = buffer.str();
  const std::size_t span_at = text.find("exporder.work");
  const std::size_t metric_at = text.find("\"name\":\"exporder.count\"");
  EXPECT_NE(span_at, std::string::npos);
  EXPECT_NE(metric_at, std::string::npos);
  EXPECT_LT(span_at, metric_at);  // spans first, then the registry block
  Registry::reset_all();
}

TEST(EnvSwitchTest, OneGrammarForEverySwitch) {
  struct Case {
    const char* raw;
    bool on;
    const char* path;
  };
  const Case cases[] = {
      {nullptr, false, ""},  {"", false, ""},     {"0", false, ""},
      {"false", false, ""},  {"off", false, ""},  {"1", true, ""},
      {"true", true, ""},    {"on", true, ""},    {"run.jsonl", true, "run.jsonl"},
      {"out:dir/x", true, "out:dir/x"},
  };
  for (const Case& c : cases) {
    const std::string label = c.raw == nullptr ? "<unset>" : c.raw;
    const gp::obs::EnvSwitch parsed = gp::obs::parse_env_switch(c.raw);
    EXPECT_EQ(parsed.on, c.on) << label;
    EXPECT_EQ(parsed.path, c.path) << label;
  }
}

TEST(EnvSwitchTest, PathOnlySwitchStaysOffWithoutAPath) {
  const char* name = "GEOPLACE_TEST_PATH_SWITCH";
  ::setenv(name, "on", 1);
  testing::internal::CaptureStderr();
  EXPECT_EQ(gp::obs::env_switch_path(name), "");
  const std::string warning = testing::internal::GetCapturedStderr();
  EXPECT_NE(warning.find(name), std::string::npos);
  EXPECT_NE(warning.find("needs a file path"), std::string::npos);

  ::setenv(name, "off", 1);
  testing::internal::CaptureStderr();
  EXPECT_EQ(gp::obs::env_switch_path(name), "");
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");

  ::setenv(name, "run.json", 1);
  EXPECT_EQ(gp::obs::env_switch_path(name), "run.json");
  ::unsetenv(name);
}

TEST(ManifestTest, CaptureCarriesProvenanceAndEscapes) {
  gp::obs::RunManifest manifest = gp::obs::RunManifest::capture("test");
  EXPECT_EQ(manifest.tool, "test");
  EXPECT_FALSE(manifest.git_sha.empty());
  EXPECT_GE(manifest.threads, 1u);
  manifest.seeds = {1, 2};
  manifest.spec_hash = "00ff";
  manifest.trace_paths = {"a\"b"};
  const std::string line = manifest.to_jsonl_line();
  EXPECT_TRUE(gp::obs::is_manifest_line(line));
  EXPECT_NE(line.find("\"seeds\":[1,2]"), std::string::npos);
  EXPECT_NE(line.find("\"spec_hash\":\"00ff\""), std::string::npos);
  EXPECT_NE(line.find("a\\\"b"), std::string::npos);  // quote escaping
  EXPECT_EQ(gp::obs::strip_manifest_lines(line + "\n{\"x\":1}\n"), "{\"x\":1}\n");
}

TEST(SolveInfoTest, AdmmExportsHotLoopCountersToGlobalRegistry) {
  // The solver mirrors SolveInfo::hot_loop_allocations and
  // ::residual_spmv_ns into the global registry as admm.allocs /
  // admm.spmv_ns when it is enabled. This binary installs no operator-new
  // hooks, so the alloc counter must be exactly zero; the SpMV timer runs
  // off the wall clock and must be populated (timing is only collected
  // while the registry is enabled).
  gp::qp::QpProblem problem;
  problem.p = gp::linalg::SparseMatrix::identity(2);
  problem.q = {1.0, 1.0};
  problem.a = gp::linalg::SparseMatrix::from_triplets(1, 2, {{0, 0, 1.0}, {0, 1, 1.0}});
  problem.lower = {1.0};
  problem.upper = {1.0};

  auto& registry = Registry::global();
  const bool was_enabled = registry.enabled();
  registry.set_enabled(true);
  Registry::reset_all();

  gp::qp::AdmmSolver solver;
  const auto result = solver.solve(problem);
  registry.set_enabled(was_enabled);

  ASSERT_EQ(result.status, gp::qp::SolveStatus::kOptimal);
  EXPECT_EQ(registry.counter("admm.allocs").value(), result.info.hot_loop_allocations);
  EXPECT_EQ(result.info.hot_loop_allocations, 0);
  EXPECT_EQ(registry.counter("admm.spmv_ns").value(), result.info.residual_spmv_ns);
  EXPECT_GT(result.info.residual_spmv_ns, 0);
}

TEST(SolveInfoTest, AdmmPopulatesFactorizationAndCacheFields) {
  // Two structurally identical QPs solved through one caching solver: the
  // first solve factors from scratch (cache_hits == 0), the second reuses
  // the cached scaling/ordering/symbolic analysis (cache_hits == 1). A
  // third solve with IDENTICAL data skips factorization outright.
  gp::qp::QpProblem problem;
  problem.p = gp::linalg::SparseMatrix::identity(2);
  problem.q = {1.0, 1.0};
  problem.a = gp::linalg::SparseMatrix::from_triplets(1, 2, {{0, 0, 1.0}, {0, 1, 1.0}});
  problem.lower = {1.0};
  problem.upper = {1.0};

  gp::qp::AdmmSettings settings;
  settings.cache_structure = true;
  settings.polish = false;  // a polish refactors twice per solve
  gp::qp::AdmmSolver solver(settings);

  const auto first = solver.solve(problem);
  EXPECT_EQ(first.status, gp::qp::SolveStatus::kOptimal);
  EXPECT_EQ(first.info.cache_hits, 0);
  EXPECT_GE(first.info.factorizations, 1);
  EXPECT_FALSE(first.info.factorization_skipped);

  // Same pattern, new KKT values (q alone would leave the KKT matrix
  // untouched and take the factorization-skip path instead).
  problem.p = gp::linalg::SparseMatrix::identity(2, 2.0);
  problem.q = {2.0, 0.5};
  const auto second = solver.solve(problem);
  EXPECT_EQ(second.status, gp::qp::SolveStatus::kOptimal);
  EXPECT_EQ(second.info.cache_hits, 1);
  EXPECT_GE(second.info.factorizations, 1);
  EXPECT_FALSE(second.info.factorization_skipped);

  const auto third = solver.solve(problem);  // identical data
  EXPECT_EQ(third.status, gp::qp::SolveStatus::kOptimal);
  EXPECT_EQ(third.info.cache_hits, 1);
  EXPECT_TRUE(third.info.factorization_skipped);
  EXPECT_EQ(third.info.factorizations, 0);
}

// ---------------------------------------------------- percentile property

// The provable accuracy contract of Histogram::percentile at percentile p
// over n samples: the estimate interpolates inside the bucket holding the
// order statistic x_(ceil(max(1, p/100*n))), then clamps to the exact
// observed [min, max]. So for an interior x_j the estimate lies within one
// bucket ratio r = 10^(1/buckets_per_decade) of x_j; when x_j underflows
// the estimate is capped by min_value, and when it overflows it is at
// least max_value (each still clamped to the observed range).
void expect_percentile_within_bucket_error(const Histogram& h,
                                           const std::vector<double>& sorted, double p) {
  ASSERT_FALSE(sorted.empty());
  const HistogramOptions& options = h.options();
  const double r = std::pow(10.0, 1.0 / options.buckets_per_decade);
  const double n = static_cast<double>(sorted.size());
  const double rank = std::max(1.0, p / 100.0 * n);
  const std::size_t j =
      std::min(sorted.size(), static_cast<std::size_t>(std::ceil(rank - 1e-9)));
  const double xj = sorted[j - 1];
  const double estimate = h.percentile(p);
  const double exact = gp::percentile(sorted, p);

  // Always inside the exact observed range (the clamp).
  EXPECT_GE(estimate, sorted.front() - 1e-12) << "p" << p;
  EXPECT_LE(estimate, sorted.back() + 1e-12) << "p" << p;

  if (xj < options.min_value) {
    // Underflow bucket [0, min_value): the estimate cannot exceed its edge.
    EXPECT_LE(estimate, options.min_value * (1.0 + 1e-12)) << "p" << p;
  } else if (xj >= options.max_value) {
    // Overflow bucket [max_value, max]: the estimate starts at its edge.
    EXPECT_GE(estimate, options.max_value * (1.0 - 1e-12)) << "p" << p;
  } else {
    EXPECT_GE(estimate, xj / r * (1.0 - 1e-9)) << "p" << p << " xj " << xj;
    EXPECT_LE(estimate, xj * r * (1.0 + 1e-9)) << "p" << p << " xj " << xj;
    // ... which also pins it within one bucket ratio of the interpolated
    // exact percentile's bracketing order statistics.
    EXPECT_GE(estimate, std::min(xj, exact) / r * (1.0 - 1e-9)) << "p" << p;
    EXPECT_LE(estimate, std::max(xj, exact) * r * (1.0 + 1e-9)) << "p" << p;
  }
}

constexpr double kPercentiles[] = {0.0, 1.0, 10.0, 25.0, 50.0,
                                   75.0, 90.0, 95.0, 99.0, 99.9, 100.0};

/// Deterministic LCG in [0, 1) (no global RNG state in tests).
struct Lcg {
  std::uint64_t state;
  double next() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(state >> 11) / 9007199254740992.0;
  }
};

TEST(Histogram, PropertyRandomSamplesStayWithinBucketError) {
  // Log-uniform populations over several option shapes, including a coarse
  // 4-buckets-per-decade layout (worst documented error ~78%) and a narrow
  // [1, 10] range that pushes most samples into the underflow/overflow
  // buckets.
  const HistogramOptions shapes[] = {
      {},                     // defaults: [1e-3, 1e7], 16 per decade
      {1e-3, 1e7, 4},         // coarse buckets
      {1.0, 10.0, 16},        // narrow range: heavy under/overflow
  };
  for (const auto& options : shapes) {
    Histogram h(options);
    Lcg rng{12345};
    std::vector<double> sorted;
    for (int i = 0; i < 2000; ++i) {
      const double v = std::pow(10.0, rng.next() * 8.0 - 4.0);  // 1e-4 .. 1e4
      h.record(v);
      sorted.push_back(v);
    }
    std::sort(sorted.begin(), sorted.end());
    for (double p : kPercentiles) expect_percentile_within_bucket_error(h, sorted, p);
  }
}

TEST(Histogram, PropertySingleSampleIsExactAtEveryPercentile) {
  // count == 1: every percentile clamps to the one observed value.
  for (double v : {3.7, 1e-6, 0.0, -2.5, 1e9}) {
    Histogram h;
    h.record(v);
    for (double p : kPercentiles) {
      EXPECT_DOUBLE_EQ(h.percentile(p), v) << "p" << p << " v " << v;
    }
  }
}

TEST(Histogram, PropertyConstantSamplesAreExact) {
  // All-equal samples: min == max, so the clamp makes every percentile
  // exact regardless of which bucket the value hashed into.
  Histogram h;
  std::vector<double> sorted(100, 0.42);
  for (double v : sorted) h.record(v);
  for (double p : kPercentiles) {
    EXPECT_DOUBLE_EQ(h.percentile(p), 0.42);
    expect_percentile_within_bucket_error(h, sorted, p);
  }
}

TEST(Histogram, PropertyUnderflowAndOverflowEdges) {
  const HistogramOptions options{1.0, 100.0, 8};

  // Entirely below min_value (zeros and negatives clamp there too): the
  // estimate lives in [observed min, min_value].
  Histogram low(options);
  std::vector<double> low_sorted = {-3.0, 0.0, 0.01, 0.2, 0.5};
  for (double v : low_sorted) low.record(v);
  for (double p : kPercentiles) {
    expect_percentile_within_bucket_error(low, low_sorted, p);
    EXPECT_LE(low.percentile(p), options.min_value);
    EXPECT_GE(low.percentile(p), -3.0);
  }

  // Entirely at/above max_value: the estimate lives in [max_value, max].
  Histogram high(options);
  std::vector<double> high_sorted = {100.0, 500.0, 1e4, 2e6};
  for (double v : high_sorted) high.record(v);
  for (double p : kPercentiles) {
    expect_percentile_within_bucket_error(high, high_sorted, p);
    EXPECT_GE(high.percentile(p), options.max_value);
    EXPECT_LE(high.percentile(p), 2e6);
  }

  // A mixed population crossing both edges.
  Histogram mixed(options);
  Lcg rng{777};
  std::vector<double> mixed_sorted;
  for (int i = 0; i < 500; ++i) {
    const double v = std::pow(10.0, rng.next() * 8.0 - 4.0);  // 1e-4 .. 1e4
    mixed.record(v);
    mixed_sorted.push_back(v);
  }
  std::sort(mixed_sorted.begin(), mixed_sorted.end());
  for (double p : kPercentiles) {
    expect_percentile_within_bucket_error(mixed, mixed_sorted, p);
  }
}

TEST(Registry, HistogramSnapshotTracksExactPercentiles) {
  // The registry path (named histogram + snapshot p50/p95/p99) obeys the
  // same bound as a standalone Histogram.
  auto& h = Registry::global().histogram("test.percentile_property");
  h.reset();
  Lcg rng{4242};
  std::vector<double> sorted;
  for (int i = 0; i < 1000; ++i) {
    const double v = std::pow(10.0, rng.next() * 6.0 - 3.0);  // 1e-3 .. 1e3
    h.record(v);
    sorted.push_back(v);
  }
  std::sort(sorted.begin(), sorted.end());
  for (double p : {50.0, 95.0, 99.0}) {
    expect_percentile_within_bucket_error(h, sorted, p);
  }
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 1000);
  EXPECT_DOUBLE_EQ(snap.p50, h.percentile(50.0));
  EXPECT_DOUBLE_EQ(snap.p95, h.percentile(95.0));
  EXPECT_DOUBLE_EQ(snap.p99, h.percentile(99.0));
  h.reset();
}

// ------------------------------------------------------------- timeline

using gp::obs::TelemetryFrame;
using gp::obs::TimelineWriter;

TEST(TimelineWriter, RingWrapsAndGathersOldestFirst) {
  TimelineWriter writer(4);
  EXPECT_EQ(writer.capacity(), 4u);
  for (int k = 0; k < 10; ++k) {
    TelemetryFrame& frame = writer.begin(k, 0.5 * k);
    frame.demand_total = 100.0 + k;
    writer.commit();
  }
  EXPECT_EQ(writer.size(), 4u);
  EXPECT_EQ(writer.total_committed(), 10);
  const auto frames = writer.frames();
  ASSERT_EQ(frames.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(frames[i].period, 6.0 + i);  // oldest retained first
    EXPECT_DOUBLE_EQ(frames[i].utc_hour, 0.5 * (6 + i));
    EXPECT_DOUBLE_EQ(frames[i].demand_total, 106.0 + i);
  }
  writer.clear();
  EXPECT_EQ(writer.size(), 0u);
  EXPECT_TRUE(writer.frames().empty());
}

TEST(TimelineWriter, BeginReplacesOpenFrameAndCommitCloses) {
  TimelineWriter writer(8);
  EXPECT_EQ(writer.current(), nullptr);
  writer.begin(0, 0.0).cost_resource = 1.0;
  writer.begin(1, 0.5).cost_resource = 2.0;  // discards the un-committed 0
  ASSERT_NE(writer.current(), nullptr);
  writer.commit();
  EXPECT_EQ(writer.current(), nullptr);
  writer.commit();  // no open frame: no-op
  const auto frames = writer.frames();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_DOUBLE_EQ(frames[0].period, 1.0);
  EXPECT_DOUBLE_EQ(frames[0].cost_resource, 2.0);
}

TEST(TimelineWriter, ColumnarJsonlExportIsSelfDescribing) {
  TimelineWriter writer(8);
  writer.begin(0, 0.0).cost_resource = 12.5;
  writer.commit();
  TelemetryFrame& second = writer.begin(1, 0.5);
  second.cost_resource = 0.1;
  second.mean_latency_ms = std::nan("");
  writer.commit();

  std::ostringstream out;
  gp::obs::RunManifest manifest;
  manifest.tool = "timeline";
  manifest.git_sha = "deadbeef";
  writer.write_jsonl(out, &manifest);

  std::istringstream in(out.str());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  // manifest + segment header + one line per column.
  ASSERT_EQ(lines.size(), 2 + gp::obs::timeline_num_columns());
  EXPECT_NE(lines[0].find("\"type\":\"manifest\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"type\":\"timeline\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"frames\":2"), std::string::npos);
  for (const std::string& name : gp::obs::timeline_column_names()) {
    EXPECT_NE(lines[1].find("\"" + name + "\""), std::string::npos) << name;
  }
  bool saw_cost = false, saw_latency = false;
  for (std::size_t i = 2; i < lines.size(); ++i) {
    EXPECT_NE(lines[i].find("\"type\":\"timeline_col\""), std::string::npos);
    if (lines[i].find("\"name\":\"cost_resource\"") != std::string::npos) {
      saw_cost = true;
      EXPECT_NE(lines[i].find("[12.5,0.1]"), std::string::npos) << lines[i];
    }
    if (lines[i].find("\"name\":\"mean_latency_ms\"") != std::string::npos) {
      saw_latency = true;
      // Non-finite doubles are null (JSON has no NaN).
      EXPECT_NE(lines[i].find("[0,null]"), std::string::npos) << lines[i];
    }
  }
  EXPECT_TRUE(saw_cost);
  EXPECT_TRUE(saw_latency);
}

namespace {

std::string read_whole_file(const char* path) {
  std::ifstream in(path);
  std::ostringstream content;
  content << in.rdbuf();
  return content.str();
}

std::size_t count_occurrences(const std::string& text, const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

}  // namespace

TEST(TimelineWriter, DestructorFlushesFramesLeftUnflushed) {
  // Regression: a process that exits without reaching the engine's explicit
  // end-of-run flush used to silently drop every committed frame. The
  // destructor must now give dump-at-exit parity with GEOPLACE_METRICS.
  const std::string previous_path = TimelineWriter::dump_path();
  const char* path = "test_obs_timeline_exit.jsonl";
  std::remove(path);
  TimelineWriter::set_dump_path(path);

  {
    TimelineWriter writer(8);
    for (int k = 0; k < 3; ++k) {
      writer.begin(k, 0.5 * k).cost_resource = 1.0 + k;
      writer.commit();
    }
  }  // no explicit flush(): the destructor must write the segment

  const std::string first = read_whole_file(path);
  EXPECT_NE(first.find("\"type\":\"manifest\""), std::string::npos);
  EXPECT_NE(first.find("\"type\":\"timeline\""), std::string::npos);
  EXPECT_NE(first.find("\"frames\":3"), std::string::npos);
  EXPECT_NE(first.find("[1,2,3]"), std::string::npos);  // cost_resource column

  {
    TimelineWriter writer(8);
    writer.begin(0, 0.0).cost_resource = 5.0;
    writer.commit();
    writer.flush();
  }  // everything already flushed: the destructor must NOT write a duplicate

  const std::string both = read_whole_file(path);
  EXPECT_EQ(count_occurrences(both, "\"type\":\"timeline\""), 2u);
  EXPECT_EQ(count_occurrences(both, "\"frames\":1"), 1u);

  {
    TimelineWriter writer(8);  // destroyed with nothing committed: no-op
  }
  EXPECT_EQ(count_occurrences(read_whole_file(path), "\"type\":\"timeline\""), 2u);

  TimelineWriter::set_dump_path(previous_path);
  std::remove(path);
}

TEST(TimelineWriter, DisabledTimelineContributesNothing) {
  TimelineWriter::set_enabled(false);
  EXPECT_EQ(gp::obs::timeline_frame(), nullptr);
  TimelineWriter::set_enabled(true);
  // Enabled but no open frame: contributors still get nullptr, not a stale
  // frame.
  TimelineWriter::local().clear();
  EXPECT_EQ(gp::obs::timeline_frame(), nullptr);
  TelemetryFrame& frame = TimelineWriter::local().begin(0, 0.0);
  EXPECT_EQ(gp::obs::timeline_frame(), &frame);
  TimelineWriter::local().commit();
  EXPECT_EQ(gp::obs::timeline_frame(), nullptr);
  TimelineWriter::set_enabled(false);
  TimelineWriter::local().clear();
}

}  // namespace
