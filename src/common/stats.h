#ifndef HDIDX_COMMON_STATS_H_
#define HDIDX_COMMON_STATS_H_

#include <cstddef>
#include <span>
#include <vector>

namespace hdidx::common {

/// Result of a simple ordinary-least-squares line fit y = slope * x +
/// intercept. Used by the fractal-dimension estimators, which fit log-log
/// plots of box counts against grid resolution.
struct LineFit {
  double slope = 0.0;
  double intercept = 0.0;
  /// Pearson correlation coefficient of (x, y); 1.0 for a perfect line.
  double r = 0.0;
  size_t n = 0;
};

/// Fits a least-squares line through (x[i], y[i]). Requires x.size() ==
/// y.size(); with fewer than two points the fit is degenerate (slope 0).
LineFit FitLine(const std::vector<double>& x, const std::vector<double>& y);

/// Arithmetic mean; 0 for an empty vector.
double Mean(const std::vector<double>& v);

/// Population variance (divide by n); 0 for fewer than two elements.
double Variance(const std::vector<double>& v);

/// Pearson correlation between two equally sized vectors; 0 if degenerate.
double PearsonCorrelation(const std::vector<double>& x,
                          const std::vector<double>& y);

/// p-th percentile (p in [0, 1], clamped) of an already ascending `sorted`,
/// interpolating linearly between order statistics; 0 for an empty span.
/// Several percentiles of one sample share one sort (the prediction
/// service's per-shard p50/p90/p99).
double PercentileOfSorted(std::span<const double> sorted, double p);

/// Relative error (predicted - actual) / actual as used throughout the
/// paper's tables: negative values are underestimations, positive values are
/// overestimations. Returns 0 when actual == 0.
double RelativeError(double predicted, double actual);

}  // namespace hdidx::common

#endif  // HDIDX_COMMON_STATS_H_
