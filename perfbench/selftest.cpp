// Self-test of the benchmark's order statistics (stats.hpp): known percentiles,
// medians, counts beyond a percentile, and the sample floor for a tail.
// Exits non-zero on the first failed check.
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void expect_near(double got, double want, const char* what) {
  if (std::abs(got - want) > 1e-12 * (1.0 + std::abs(want))) {
    std::fprintf(stderr, "selftest: %s = %.17g, want %.17g\n", what, got, want);
    ++failures;
  }
}

void expect_true(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest: %s\n", what);
    ++failures;
  }
}

}  // namespace

int main() {
  using namespace perfbench;
  std::vector<double> one_to_hundred;
  for (int i = 100; i >= 1; --i) one_to_hundred.push_back(i);  // unsorted on purpose

  expect_near(median(one_to_hundred), 50.5, "median(1..100)");
  expect_near(percentile(one_to_hundred, 0.0), 1.0, "p0(1..100)");
  expect_near(percentile(one_to_hundred, 100.0), 100.0, "p100(1..100)");
  expect_near(percentile(one_to_hundred, 90.0), 90.1, "p90(1..100)");
  expect_near(percentile(one_to_hundred, 99.0), 99.01, "p99(1..100)");
  expect_near(percentile(one_to_hundred, 25.0), 25.75, "p25(1..100)");
  expect_near(median({3.0, 1.0, 2.0}), 2.0, "median of odd count");
  expect_near(median({4.0, 1.0}), 2.5, "median of even count");
  expect_near(median({7.0}), 7.0, "median of one sample");
  expect_near(median({}), 0.0, "median of nothing");
  expect_near(mean({1.0, 2.0, 6.0}), 3.0, "mean");
  expect_near(percentile({2.0, 2.0, 2.0, 9.0}, 50.0), 2.0, "median with ties");

  expect_true(count_beyond(one_to_hundred, 90.0) == 10, "10 samples beyond p90 of 1..100");
  expect_true(count_beyond(one_to_hundred, 99.0) == 1, "1 sample beyond p99 of 1..100");
  expect_true(count_beyond({5.0, 5.0, 5.0}, 50.0) == 0, "ties are not beyond");

  // The floor: exactly enough distinct samples for >= 10 beyond the tail,
  // and one fewer is not enough.
  for (double p : {50.0, 75.0, 90.0, 95.0, 99.0}) {
    const std::size_t n = samples_needed(p, 10);
    std::vector<double> values;
    for (std::size_t i = 0; i < n; ++i) values.push_back(static_cast<double>(i));
    expect_true(count_beyond(values, p) >= 10, "samples_needed gives >= 10 beyond");
    values.pop_back();
    expect_true(count_beyond(values, p) < 10, "samples_needed is the smallest count");
  }
  expect_true(samples_needed(90.0, 10) == 92, "p90 needs 92 samples");
  expect_true(samples_needed(99.0, 10) == 902, "p99 needs 902 samples");

  if (failures == 0) std::printf("selftest: ok\n");
  return failures == 0 ? 0 : 1;
}
