#include "data/generators.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.h"
#include "data/transforms.h"

namespace hdidx::data {

Dataset GenerateUniform(size_t n, size_t dim, common::Rng* rng) {
  Dataset out(n, dim);
  auto buf = out.mutable_data();
  for (float& v : buf) v = static_cast<float>(rng->NextDouble());
  return out;
}

Dataset GenerateClustered(const ClusteredConfig& config, common::Rng* rng) {
  HDIDX_CHECK(config.num_clusters > 0);
  HDIDX_CHECK(config.dim > 0);
  const size_t d = config.dim;

  // Per-dimension scale decays exponentially so the intrinsic
  // dimensionality is approximately config.intrinsic_dim. It applies to the
  // cluster centers as well as the within-cluster spread: KLT-rotated
  // feature data concentrates both kinds of variance in the leading
  // components.
  std::vector<double> decay(d);
  for (size_t k = 0; k < d; ++k) {
    decay[k] = std::exp(-static_cast<double>(k) / config.intrinsic_dim);
  }

  // Cluster centers spread across the (decayed) space; populations
  // geometrically skewed so some regions are much denser than others.
  std::vector<std::vector<float>> centers(config.num_clusters);
  for (auto& c : centers) {
    c.resize(d);
    for (size_t k = 0; k < d; ++k) {
      c[k] = static_cast<float>(0.5 + (rng->NextDouble() - 0.5) * decay[k]);
    }
  }
  std::vector<double> cumulative(config.num_clusters);
  double total = 0.0;
  for (size_t i = 0; i < config.num_clusters; ++i) {
    total += std::pow(config.population_skew, static_cast<double>(i));
    cumulative[i] = total;
  }

  // Within-cluster standard deviations follow the same decay.
  std::vector<double> sigma(d);
  for (size_t k = 0; k < d; ++k) {
    sigma[k] = config.cluster_spread * decay[k];
  }

  Dataset out(config.num_points, d);
  for (size_t i = 0; i < config.num_points; ++i) {
    auto row = out.mutable_row(i);
    if (rng->NextBernoulli(config.noise_fraction)) {
      for (size_t k = 0; k < d; ++k) {
        row[k] = static_cast<float>(rng->NextDouble());
      }
      continue;
    }
    const double pick = rng->NextDouble() * total;
    const size_t cluster = static_cast<size_t>(
        std::lower_bound(cumulative.begin(), cumulative.end(), pick) -
        cumulative.begin());
    const auto& center = centers[std::min(cluster, config.num_clusters - 1)];
    for (size_t k = 0; k < d; ++k) {
      row[k] =
          static_cast<float>(center[k] + sigma[k] * rng->NextGaussian());
    }
  }
  return out;
}

namespace {

// Shared recipe for the KLT-transformed feature-vector surrogates. KLT is
// applied for moderate dimensionalities; beyond kMaxKltDim the generator's
// variance-decayed axes already provide the KLT ordering and the O(d^3)
// diagonalization would dominate the runtime for no modeling benefit.
Dataset FeatureSurrogate(size_t n, size_t dim, size_t clusters,
                         double intrinsic_dim, uint64_t seed) {
  constexpr size_t kMaxKltDim = 128;
  common::Rng rng(seed);
  ClusteredConfig config;
  config.num_points = n;
  config.dim = dim;
  config.num_clusters = clusters;
  config.intrinsic_dim = intrinsic_dim;
  Dataset raw = GenerateClustered(config, &rng);
  if (dim <= kMaxKltDim) {
    return KltTransform::Fit(raw).Apply(raw);
  }
  return raw;
}

}  // namespace

Dataset Color64Surrogate(size_t num_points, uint64_t seed) {
  const size_t n = num_points != 0 ? num_points : 112361;
  return FeatureSurrogate(n, 64, 48, 7.0, seed);
}

Dataset Texture48Surrogate(size_t num_points, uint64_t seed) {
  const size_t n = num_points != 0 ? num_points : 26697;
  return FeatureSurrogate(n, 48, 32, 6.0, seed);
}

Dataset Texture60Surrogate(size_t num_points, uint64_t seed) {
  const size_t n = num_points != 0 ? num_points : 275465;
  return FeatureSurrogate(n, 60, 64, 6.0, seed);
}

Dataset Isolet617Surrogate(size_t num_points, uint64_t seed) {
  const size_t n = num_points != 0 ? num_points : 7800;
  // 52 letters spoken by 150 speakers: one cluster per letter.
  return FeatureSurrogate(n, 617, 52, 10.0, seed);
}

Dataset Stock360Surrogate(size_t num_points, uint64_t seed) {
  const size_t n = num_points != 0 ? num_points : 6500;
  const size_t d = 360;
  common::Rng rng(seed);
  // One year of prices per stock: geometric-style random walks with a few
  // distinct market regimes (drift/volatility pairs) to induce clustering.
  struct Regime {
    double drift;
    double volatility;
  };
  const Regime regimes[] = {
      {0.0005, 0.01}, {-0.0003, 0.02}, {0.001, 0.005}, {0.0, 0.03}};
  Dataset prices(n, d);
  for (size_t i = 0; i < n; ++i) {
    const Regime& regime =
        regimes[rng.NextBounded(sizeof(regimes) / sizeof(regimes[0]))];
    double level = 1.0 + rng.NextDouble();
    auto row = prices.mutable_row(i);
    for (size_t t = 0; t < d; ++t) {
      level *= 1.0 + regime.drift + regime.volatility * rng.NextGaussian();
      row[t] = static_cast<float>(level);
    }
  }
  return DftTransform(prices);
}

}  // namespace hdidx::data
