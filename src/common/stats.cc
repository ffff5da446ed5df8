#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace hdidx::common {

LineFit FitLine(const std::vector<double>& x, const std::vector<double>& y) {
  HDIDX_CHECK(x.size() == y.size());
  LineFit fit;
  fit.n = x.size();
  if (fit.n < 2) return fit;
  const double n = static_cast<double>(fit.n);
  double sx = 0, sy = 0, sxx = 0, syy = 0, sxy = 0;
  for (size_t i = 0; i < fit.n; ++i) {
    sx += x[i];
    sy += y[i];
    sxx += x[i] * x[i];
    syy += y[i] * y[i];
    sxy += x[i] * y[i];
  }
  const double var_x = sxx - sx * sx / n;
  const double var_y = syy - sy * sy / n;
  const double cov = sxy - sx * sy / n;
  if (var_x <= 0.0) return fit;
  fit.slope = cov / var_x;
  fit.intercept = (sy - fit.slope * sx) / n;
  fit.r = (var_y > 0.0) ? cov / std::sqrt(var_x * var_y) : 0.0;
  return fit;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double Variance(const std::vector<double>& v) {
  if (v.size() < 2) return 0.0;
  const double m = Mean(v);
  double s = 0.0;
  for (double x : v) s += (x - m) * (x - m);
  return s / static_cast<double>(v.size());
}

double PearsonCorrelation(const std::vector<double>& x,
                          const std::vector<double>& y) {
  HDIDX_CHECK(x.size() == y.size());
  if (x.size() < 2) return 0.0;
  const double mx = Mean(x);
  const double my = Mean(y);
  double sxy = 0, sxx = 0, syy = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    sxy += (x[i] - mx) * (y[i] - my);
    sxx += (x[i] - mx) * (x[i] - mx);
    syy += (y[i] - my) * (y[i] - my);
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

double PercentileOfSorted(std::span<const double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  p = std::min(1.0, std::max(0.0, p));
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  if (lo + 1 >= sorted.size()) return sorted.back();
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[lo + 1] - sorted[lo]);
}

double RelativeError(double predicted, double actual) {
  if (actual == 0.0) return 0.0;
  return (predicted - actual) / actual;
}

}  // namespace hdidx::common
