#ifndef HDIDX_DATA_GENERATORS_H_
#define HDIDX_DATA_GENERATORS_H_

#include <cstdint>

#include "common/random.h"
#include "data/dataset.h"

namespace hdidx::data {

/// Configuration for the clustered (Gaussian mixture) generator that stands
/// in for the paper's real feature-vector datasets.
///
/// Real image/texture/speech feature vectors are strongly clustered and have
/// a low *intrinsic* dimensionality embedded in a high-dimensional space —
/// precisely the properties the sampling predictor exploits and the
/// uniform/fractal baselines mishandle. The generator reproduces them:
/// cluster populations follow a skewed (geometric) distribution, per-cluster
/// variances decay exponentially with the dimension index (KLT-style
/// ordering), and a small uniform background adds outliers.
struct ClusteredConfig {
  size_t num_points = 10000;
  size_t dim = 16;
  size_t num_clusters = 20;
  /// Approximate intrinsic dimensionality: the per-dimension standard
  /// deviation decays as exp(-k / intrinsic_dim).
  double intrinsic_dim = 6.0;
  /// Standard deviation of a cluster along its most significant dimension,
  /// relative to the unit data space.
  double cluster_spread = 0.05;
  /// Fraction of points drawn uniformly from the whole space instead of a
  /// cluster.
  double noise_fraction = 0.02;
  /// Skew of cluster populations: cluster i receives a share proportional to
  /// skew^i (1.0 = equal-sized clusters).
  double population_skew = 0.85;
};

/// Generates `n` points uniformly distributed in [0,1]^dim — the data model
/// assumed by the baseline cost models and used by the paper's Section 5.2
/// validation experiment.
Dataset GenerateUniform(size_t n, size_t dim, common::Rng* rng);

/// Generates a clustered Gaussian-mixture dataset per `config`.
Dataset GenerateClustered(const ClusteredConfig& config, common::Rng* rng);

/// Surrogates for the paper's five experimental datasets (Table 1).
///
/// The originals (color histograms, texture features, spoken-letter
/// features, stock price series) are not redistributable; these generators
/// produce synthetic datasets with the same cardinality and dimensionality
/// and the same qualitative structure (clustered, skewed, low intrinsic
/// dimension, KLT/DFT-transformed). Pass num_points = 0 for the paper's
/// cardinality or a smaller value for quick runs.
///
/// COLOR64: 112,361 64-d color histograms (KLT).
Dataset Color64Surrogate(size_t num_points, uint64_t seed);
/// TEXTURE48: 26,697 48-d Corel texture features (KLT).
Dataset Texture48Surrogate(size_t num_points, uint64_t seed);
/// TEXTURE60 (a.k.a. LANDSAT): 275,465 60-d Landsat texture features (KLT).
Dataset Texture60Surrogate(size_t num_points, uint64_t seed);
/// ISOLET617: 7,800 617-d spoken-letter features.
Dataset Isolet617Surrogate(size_t num_points, uint64_t seed);
/// STOCK360: 6,500 360-d one-year price series, DFT-transformed.
Dataset Stock360Surrogate(size_t num_points, uint64_t seed);

}  // namespace hdidx::data

#endif  // HDIDX_DATA_GENERATORS_H_
