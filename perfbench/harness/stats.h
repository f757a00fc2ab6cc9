// Summary statistics the benchmark reports: order statistics of latency
// samples and the TPC-H power-style geometric mean.
#pragma once

#include <vector>

namespace perfbench {

/// The q-quantile (q in [0, 1]) by linear interpolation between the two
/// nearest order statistics (numpy's default "linear" method). 0 for an
/// empty sample.
double Percentile(std::vector<double> values, double q);

inline double Median(std::vector<double> values) { return Percentile(std::move(values), 0.5); }

/// Arithmetic mean; 0 for an empty sample.
double Mean(const std::vector<double>& values);

/// Geometric mean of strictly positive values; 0 when `values` is empty or
/// holds a value <= 0 (a geometric mean is undefined there).
double GeoMean(const std::vector<double>& values);

/// Checks Percentile, Mean and GeoMean against hand-computed vectors. Returns the
/// number of failed checks and prints each failure to stderr.
int SelfTestStats();

}  // namespace perfbench
