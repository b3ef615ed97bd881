#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// The q-quantile (0 ≤ q ≤ 1) of sorted [first, first + n) by linear
/// interpolation between order statistics (numpy's default). NaN when
/// n is 0.
template <class T>
double QuantileOfSorted(const T* first, size_t n, double q) {
  if (n == 0) return std::nan("");
  const double pos = q * static_cast<double>(n - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, n - 1);
  const double frac = pos - static_cast<double>(lo);
  return first[lo] + frac * (double(first[hi]) - double(first[lo]));
}

/// The same, of unsorted `values`.
double Quantile(std::vector<double> values, double q);

/// The quantiles the benchmark reports of one series.
struct Summary {
  size_t n = 0;
  double p01 = 0.0, p02 = 0.0, p05 = 0.0, p10 = 0.0, p20 = 0.0, p25 = 0.0,
         p50 = 0.0, p90 = 0.0, p99 = 0.0;
  double low = 0.0;  ///< the kTimeQuantile quantile, which metrics report
};

/// The low quantile every time metric reports (see README.md: it repeats
/// across runs where higher quantiles, medians and means do not).
inline constexpr double kTimeQuantile = 0.01;

/// Sorts [first, first + n) in place and summarizes it; sorting in place
/// keeps the summary from allocating a copy of a long series.
template <class T>
Summary SummarizeInPlace(T* first, size_t n) {
  std::sort(first, first + n);
  Summary s;
  s.n = n;
  s.p01 = QuantileOfSorted(first, n, 0.01);
  s.p02 = QuantileOfSorted(first, n, 0.02);
  s.p05 = QuantileOfSorted(first, n, 0.05);
  s.p10 = QuantileOfSorted(first, n, 0.10);
  s.p20 = QuantileOfSorted(first, n, 0.20);
  s.p25 = QuantileOfSorted(first, n, 0.25);
  s.p50 = QuantileOfSorted(first, n, 0.50);
  s.p90 = QuantileOfSorted(first, n, 0.90);
  s.p99 = QuantileOfSorted(first, n, 0.99);
  s.low = QuantileOfSorted(first, n, kTimeQuantile);
  return s;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
