// Order statistics the benchmark reports: percentiles by linear
// interpolation between closest ranks (the R-7 / numpy default), the count
// of samples strictly beyond a percentile, and the highest percentile of a
// ladder that still has a minimum number of samples beyond it.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// p-th percentile (p in [0, 100]) of `values`, linear interpolation
/// between the closest ranks. Empty input returns 0.
inline double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  if (p < 0.0 || p > 100.0) throw std::invalid_argument("percentile: p outside [0, 100]");
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

inline double median(const std::vector<double>& values) { return percentile(values, 50.0); }

inline double sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

inline double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return sum(values) / static_cast<double>(values.size());
}

/// Number of samples strictly greater than the p-th percentile.
inline std::size_t count_beyond(const std::vector<double>& values, double p) {
  const double cut = percentile(values, p);
  return static_cast<std::size_t>(
      std::count_if(values.begin(), values.end(), [cut](double v) { return v > cut; }));
}

/// Smallest sample count for which the p-th percentile has at least
/// `min_beyond` samples beyond it when all samples are distinct: with n
/// sorted distinct samples, the ones beyond sit after index floor(rank).
inline std::size_t samples_needed(double p, std::size_t min_beyond) {
  if (p < 0.0 || p >= 100.0) throw std::invalid_argument("samples_needed: p outside [0, 100)");
  std::size_t n = 1;
  while (n - 1 - static_cast<std::size_t>(std::floor(p / 100.0 * static_cast<double>(n - 1))) <
         min_beyond) {
    ++n;
  }
  return n;
}

}  // namespace perfbench
