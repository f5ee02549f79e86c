// Tests for the in-process sampling profiler (obs/profiler): the seqlock
// span stack the owner mutates while the watcher snapshots, the
// GEOPLACE_PROFILE grammar, the start -> sample -> stop -> fold pipeline,
// the manifest-headed folded-stack file, and the two contracts the rest of
// the codebase relies on — a disabled profiler leaves the span path
// untouched, and concurrent spans from thread-pool lanes are race-free
// (this binary carries the "obs" ctest label, so it runs under the tsan
// preset).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"

namespace {

using gp::obs::ProfileEnvSpec;
using gp::obs::Profiler;
using gp::obs::Span;
using gp::obs::SpanStack;

// The CI obs-on job arms GEOPLACE_PROFILE for every binary; these tests
// need full control of the profiler's lifecycle, so quiesce an env-armed
// watcher (writing its partial profile) before any test runs.
const bool kProfilerQuiesced = [] {
  if (std::getenv("GEOPLACE_PROFILE") != nullptr) Profiler::global().stop();
  return true;
}();

// ---------------------------------------------------------------- SpanStack

TEST(SpanStack, PushPopSnapshotRoundTrip) {
  SpanStack stack;
  const char* frames[SpanStack::kMaxDepth] = {};
  std::uint32_t depth = 99;
  ASSERT_TRUE(stack.snapshot(frames, depth));
  EXPECT_EQ(depth, 0u);

  stack.push("a");
  stack.push("b");
  stack.push("c");
  EXPECT_EQ(stack.depth(), 3u);
  ASSERT_TRUE(stack.snapshot(frames, depth));
  ASSERT_EQ(depth, 3u);
  EXPECT_STREQ(frames[0], "a");
  EXPECT_STREQ(frames[1], "b");
  EXPECT_STREQ(frames[2], "c");

  stack.pop();
  ASSERT_TRUE(stack.snapshot(frames, depth));
  ASSERT_EQ(depth, 2u);
  EXPECT_STREQ(frames[1], "b");
  stack.pop();
  stack.pop();
  EXPECT_EQ(stack.depth(), 0u);
  stack.pop();  // unmatched pop is defensive, not UB
  EXPECT_EQ(stack.depth(), 0u);
}

TEST(SpanStack, OverflowTruncatesSnapshotButKeepsDepthBalanced) {
  SpanStack stack;
  const std::uint32_t deep = SpanStack::kMaxDepth + 4;
  for (std::uint32_t i = 0; i < deep; ++i) stack.push("frame");
  EXPECT_EQ(stack.depth(), deep);  // counted past the cap...

  const char* frames[SpanStack::kMaxDepth] = {};
  std::uint32_t depth = 0;
  ASSERT_TRUE(stack.snapshot(frames, depth));
  EXPECT_EQ(depth, SpanStack::kMaxDepth);  // ...but the sample is the prefix
  for (std::uint32_t i = 0; i < depth; ++i) EXPECT_STREQ(frames[i], "frame");

  for (std::uint32_t i = 0; i < deep; ++i) stack.pop();
  EXPECT_EQ(stack.depth(), 0u);  // pops balance even past the cap
}

// -------------------------------------------------------- GEOPLACE_PROFILE

TEST(ProfileEnv, UnsetOrEmptyDisables) {
  EXPECT_FALSE(gp::obs::parse_profile_env(nullptr).enabled);
  EXPECT_FALSE(gp::obs::parse_profile_env("").enabled);
}

TEST(ProfileEnv, OffAndBareOnWordsDisable) {
  // The shared switch grammar: off-words are off, and a bare on-word names
  // no file to write the profile to.
  for (const char* raw : {"0", "false", "off", "1", "true", "on"}) {
    const ProfileEnvSpec spec = gp::obs::parse_profile_env(raw);
    EXPECT_FALSE(spec.enabled) << raw;
    EXPECT_TRUE(spec.path.empty()) << raw;
  }
}

TEST(ProfileEnv, PlainPathUsesDefaultRate) {
  const ProfileEnvSpec spec = gp::obs::parse_profile_env("run.folded");
  EXPECT_TRUE(spec.enabled);
  EXPECT_EQ(spec.path, "run.folded");
  EXPECT_DOUBLE_EQ(spec.hz, Profiler::kDefaultHz);
}

TEST(ProfileEnv, TrailingNumberIsTheSamplingRate) {
  const ProfileEnvSpec spec = gp::obs::parse_profile_env("run.folded:500");
  EXPECT_TRUE(spec.enabled);
  EXPECT_EQ(spec.path, "run.folded");
  EXPECT_DOUBLE_EQ(spec.hz, 500.0);
}

TEST(ProfileEnv, NonNumericSuffixStaysPartOfThePath) {
  const ProfileEnvSpec spec = gp::obs::parse_profile_env("out:dir/run.folded");
  EXPECT_TRUE(spec.enabled);
  EXPECT_EQ(spec.path, "out:dir/run.folded");
  EXPECT_DOUBLE_EQ(spec.hz, Profiler::kDefaultHz);
}

TEST(ProfileEnv, NonPositiveRateIsNotARate) {
  // ":0" fails the hz > 0 rule, so the colon stays in the path.
  const ProfileEnvSpec spec = gp::obs::parse_profile_env("run.folded:0");
  EXPECT_TRUE(spec.enabled);
  EXPECT_EQ(spec.path, "run.folded:0");
}

TEST(ProfileEnv, RateOnlyValueHasNoPathAndDisables) {
  const ProfileEnvSpec spec = gp::obs::parse_profile_env(":250");
  EXPECT_FALSE(spec.enabled);
  EXPECT_TRUE(spec.path.empty());
}

TEST(ProfileEnv, RateClampsToMaxHz) {
  const ProfileEnvSpec spec = gp::obs::parse_profile_env("run.folded:250000");
  EXPECT_TRUE(spec.enabled);
  EXPECT_DOUBLE_EQ(spec.hz, Profiler::kMaxHz);
}

// ----------------------------------------------------------------- Profiler

// Spins inside the innermost span until the watcher has accepted at least
// `want` samples process-wide (every registered thread is sampled each
// tick, so the spinning thread owns a share of them) or the deadline hits.
void spin_until_samples(const Profiler& profiler, std::uint64_t want) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (profiler.total_samples() < want &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
}

TEST(Profiler, DisabledProfilerLeavesTheSpanPathSilent) {
  Profiler& profiler = Profiler::global();
  ASSERT_FALSE(profiler.enabled());
  {
    Span outer("quiet.outer");
    Span inner("quiet.inner");
    // Span construction must not have touched the thread's stack.
    EXPECT_EQ(gp::obs::local_span_stack().depth(), 0u);
  }
  EXPECT_EQ(gp::obs::local_span_stack().depth(), 0u);
}

TEST(Profiler, ArmedSpansNestOnTheThreadLocalStack) {
  Profiler& profiler = Profiler::global();
  profiler.start("", 100.0);
  ASSERT_TRUE(profiler.enabled());
  {
    Span outer("nest.outer");
    EXPECT_EQ(gp::obs::local_span_stack().depth(), 1u);
    {
      Span inner("nest.inner");
      EXPECT_EQ(gp::obs::local_span_stack().depth(), 2u);
    }
    EXPECT_EQ(gp::obs::local_span_stack().depth(), 1u);
  }
  EXPECT_EQ(gp::obs::local_span_stack().depth(), 0u);
  profiler.stop();
  EXPECT_FALSE(profiler.enabled());
}

TEST(Profiler, StartClampsRateAndIgnoresRestartWhileRunning) {
  Profiler& profiler = Profiler::global();
  profiler.start("", 1.0e9);
  EXPECT_DOUBLE_EQ(profiler.hz(), Profiler::kMaxHz);
  profiler.start("ignored.folded", 10.0);  // no-op: already running
  EXPECT_TRUE(profiler.path().empty());
  EXPECT_DOUBLE_EQ(profiler.hz(), Profiler::kMaxHz);
  profiler.stop();
}

TEST(Profiler, SamplesAttributeToTheOpenSpanPath) {
  Profiler& profiler = Profiler::global();
  profiler.start("", 4000.0);
  {
    Span outer("prof.root");
    Span inner("prof.leaf");
    // Every accepted sample of THIS thread lands while prof.root;prof.leaf
    // is open; other registered threads contribute "(idle)". 64 accepted
    // samples process-wide guarantees this thread owns several.
    spin_until_samples(profiler, 64);
  }
  profiler.stop();
  const auto folded = profiler.folded();
  EXPECT_GE(profiler.total_samples(), 64u);
  auto it = folded.find("prof.root;prof.leaf");
  ASSERT_NE(it, folded.end());
  EXPECT_GT(it->second, 0u);
  // Every accepted sample is attributed somewhere: the fold counts sum back
  // to the sample counter exactly (torn snapshots were never counted).
  std::uint64_t total = 0;
  for (const auto& [stack, count] : folded) total += count;
  EXPECT_EQ(total, profiler.total_samples());
}

TEST(Profiler, StartDropsThePreviousProfile) {
  Profiler& profiler = Profiler::global();
  profiler.start("", 4000.0);
  {
    Span span("drop.me");
    spin_until_samples(profiler, 8);
  }
  profiler.stop();
  ASSERT_FALSE(profiler.folded().empty());

  profiler.start("", 4000.0);  // restart must not inherit "drop.me" counts
  profiler.stop();
  const auto folded = profiler.folded();
  EXPECT_EQ(folded.count("drop.me"), 0u);
  EXPECT_EQ(profiler.total_samples(), [&] {
    std::uint64_t total = 0;
    for (const auto& [stack, count] : folded) total += count;
    return total;
  }());
}

TEST(Profiler, ConcurrentSpansUnderThePoolAreRaceFreeAndAttributed) {
  Profiler& profiler = Profiler::global();
  profiler.start("", Profiler::kMaxHz);
  gp::ThreadPool pool(3);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  const std::uint64_t baseline = profiler.total_samples();
  // Owners push/pop from every lane while the watcher snapshots: the tsan
  // preset turns any non-atomic overlap in the seqlock into a hard failure.
  while (profiler.total_samples() < baseline + 256 &&
         std::chrono::steady_clock::now() < deadline) {
    pool.parallel_for(0, 64, [](std::size_t) {
      Span work("pool.work");
      Span detail("pool.work.detail");
    });
  }
  profiler.stop();
  const auto folded = profiler.folded();
  std::uint64_t total = 0;
  for (const auto& [stack, count] : folded) {
    // Only the spans above (whole or torn-free prefixes) and idle time are
    // legal attributions.
    EXPECT_TRUE(stack == "(idle)" || stack == "pool.work" ||
                stack == "pool.work;pool.work.detail")
        << "unexpected folded stack: " << stack;
    total += count;
  }
  EXPECT_EQ(total, profiler.total_samples());
  EXPECT_GE(profiler.total_samples(), 256u);
}

TEST(Profiler, StopWritesAManifestHeadedFoldedFile) {
  const char* path = "test_profiler_out.folded";
  std::remove(path);
  Profiler& profiler = Profiler::global();
  profiler.start(path, 4000.0);
  EXPECT_EQ(profiler.path(), path);
  {
    Span span("file.span");
    spin_until_samples(profiler, 8);
  }
  profiler.stop();

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_GE(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"type\":\"manifest\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"tool\":\"profile\""), std::string::npos);
  bool saw_span = false;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    // "stack count": a final space followed by a positive integer.
    const std::size_t space = lines[i].rfind(' ');
    ASSERT_NE(space, std::string::npos) << lines[i];
    ASSERT_LT(space + 1, lines[i].size()) << lines[i];
    EXPECT_GT(std::stoull(lines[i].substr(space + 1)), 0u) << lines[i];
    if (lines[i].substr(0, space) == "file.span") saw_span = true;
  }
  EXPECT_TRUE(saw_span);
  std::remove(path);
}

}  // namespace
