#include "harness/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) {
    if (!(v > 0.0)) return 0.0;
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

int SelfTestStats() {
  int failures = 0;
  const auto expect = [&failures](const char* what, double got, double want) {
    if (std::fabs(got - want) > 1e-9 * std::max(1.0, std::fabs(want))) {
      std::fprintf(stderr, "self-test FAILED: %s = %.12g, want %.12g\n", what, got, want);
      ++failures;
    }
  };
  // numpy.percentile([1..10], q): 50 -> 5.5, 95 -> 9.55, 99 -> 9.91, 0 -> 1.
  const std::vector<double> ten = {7, 1, 10, 3, 5, 2, 9, 4, 8, 6};
  expect("p50(1..10)", Percentile(ten, 0.50), 5.5);
  expect("p95(1..10)", Percentile(ten, 0.95), 9.55);
  expect("p99(1..10)", Percentile(ten, 0.99), 9.91);
  expect("p0(1..10)", Percentile(ten, 0.0), 1.0);
  expect("p100(1..10)", Percentile(ten, 1.0), 10.0);
  expect("median(odd)", Median({3, 1, 2}), 2.0);
  expect("median(single)", Median({4.25}), 4.25);
  expect("median(empty)", Median({}), 0.0);
  // 101 values 0..100: the q-quantile is exactly 100q.
  std::vector<double> hundred;
  for (int i = 100; i >= 0; --i) hundred.push_back(i);
  expect("p95(0..100)", Percentile(hundred, 0.95), 95.0);
  expect("p99(0..100)", Percentile(hundred, 0.99), 99.0);
  expect("mean(1..10)", Mean(ten), 5.5);
  expect("mean(empty)", Mean({}), 0.0);
  expect("geomean(1,10,100)", GeoMean({1, 10, 100}), 10.0);
  expect("geomean(2,8)", GeoMean({2, 8}), 4.0);
  expect("geomean(5)", GeoMean({5}), 5.0);
  expect("geomean(empty)", GeoMean({}), 0.0);
  expect("geomean(with 0)", GeoMean({3, 0}), 0.0);
  return failures;
}

}  // namespace perfbench
