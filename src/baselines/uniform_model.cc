#include "baselines/uniform_model.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "geometry/distance.h"

namespace hdidx::baselines {

UniformModelResult PredictUniformModel(const UniformModelParams& params) {
  HDIDX_CHECK(params.num_points > 0);
  HDIDX_CHECK(params.dim > 0);
  HDIDX_CHECK(params.num_leaf_pages > 0);
  UniformModelResult result;

  const double n = static_cast<double>(params.num_points);
  const double d = static_cast<double>(params.dim);
  const double pages = static_cast<double>(params.num_leaf_pages);

  // Expected k-NN radius: N * V_sphere(r) = k, V_sphere(r) = V_unit * r^d.
  // Computed in log space: in high d, V_unit underflows and r exceeds 1 —
  // the sphere out-grows the data cube, which is exactly the curse-of-
  // dimensionality regime the model mishandles.
  const double log_v_unit = geometry::LogUnitSphereVolume(params.dim);
  const double log_r =
      (std::log(static_cast<double>(params.k) / n) - log_v_unit) / d;
  result.radius = std::exp(log_r);

  // Midpoint splits spread round-robin over the dimensions.
  result.split_dims = static_cast<size_t>(std::ceil(std::log2(pages)));
  double log_prob = 0.0;
  for (size_t i = 0; i < params.dim && i < result.split_dims; ++i) {
    // Splits per dimension: dimensions i < (split_dims % dim) get one more
    // when split_dims > dim.
    const size_t splits =
        result.split_dims / params.dim +
        (i < result.split_dims % params.dim ? 1 : 0);
    const double extent = std::pow(0.5, static_cast<double>(splits));
    log_prob += std::log(std::min(1.0, extent + 2.0 * result.radius));
  }
  result.access_probability = std::exp(log_prob);
  result.predicted_accesses =
      std::min(pages, pages * result.access_probability);
  return result;
}

}  // namespace hdidx::baselines
