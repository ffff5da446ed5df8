#include "service/prediction_service.h"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.h"
#include "geometry/kernels.h"
#include "gtest/gtest.h"
#include "service/wire.h"
#include "test_util.h"

namespace hdidx::service {
namespace {

// Small page size keeps the index at height >= 3 on a few thousand points,
// so cutoff/resampled run (and run fast) in unit tests.
constexpr size_t kPageBytes = 1024;

ServiceRequest Req(const std::string& dataset, const std::string& method,
                   uint64_t seed, size_t memory = 500) {
  ServiceRequest r;
  r.dataset = dataset;
  r.method = method;
  r.memory = memory;
  r.num_queries = 25;
  r.k = 5;
  r.seed = seed;
  r.page_bytes = kPageBytes;
  return r;
}

/// Serves one request on the shard that owns its dataset.
ServiceResponse Serve(PredictionService* svc, const ServiceRequest& request) {
  return svc->ServeOnShard(svc->registry().ShardOf(request.dataset), request);
}

/// Serves `requests` one after another, in order.
std::vector<ServiceResponse> ServeAll(
    PredictionService* svc, const std::vector<ServiceRequest>& requests) {
  std::vector<ServiceResponse> responses;
  for (const ServiceRequest& r : requests) responses.push_back(Serve(svc, r));
  return responses;
}

std::unique_ptr<PredictionService> MakeService(size_t shards,
                                               size_t cache_entries = 64) {
  ServiceOptions options;
  options.num_shards = shards;
  options.total_threads = 4;
  options.result_cache_entries = cache_entries;
  auto svc = std::make_unique<PredictionService>(options);
  std::string error;
  uint64_t seed = 11;
  for (const char* name : {"alpha", "beta", "gamma"}) {
    EXPECT_TRUE(svc->registry().Add(
        name, testing::SmallClustered(3000, 8, seed++), &error))
        << error;
  }
  return svc;
}

TEST(PredictionServiceTest, CacheHitIsBitIdenticalAndCheaper) {
  auto svc = MakeService(1);
  const ServiceRequest request = Req("alpha", "resampled", 3);

  const ServiceResponse cold = Serve(svc.get(), request);
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_FALSE(cold.cache_hit);
  // The resampled predictor pays for query-point reads, the scan, the
  // resampling pass, and the area reads.
  EXPECT_GT(cold.served_io.page_transfers, 0u);

  const ServiceResponse warm = Serve(svc.get(), request);
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_TRUE(warm.cache_hit);
  // Strictly lower simulated serving cost: a hit charges nothing.
  EXPECT_EQ(warm.served_io.page_transfers, 0u);
  EXPECT_EQ(warm.served_io.page_seeks, 0u);
  EXPECT_LT(warm.served_io.page_transfers, cold.served_io.page_transfers);

  // Byte-identical payload, down to every per-query count.
  EXPECT_EQ(testing::CanonicalBytes(cold, /*per_query=*/true),
            testing::CanonicalBytes(warm, /*per_query=*/true));
  EXPECT_EQ(cold.result.per_query_accesses, warm.result.per_query_accesses);

  const ServiceMetrics metrics = svc->Metrics();
  EXPECT_EQ(metrics.result_hits, 1u);
  EXPECT_EQ(metrics.result_misses, 1u);
  EXPECT_EQ(metrics.requests, 2u);
  EXPECT_EQ(metrics.errors, 0u);
}

TEST(PredictionServiceTest, ShardPercentilesEqualPercentileOfLatencies) {
  // Metrics() copies each shard's latencies once and sorts that copy once;
  // its p50/p90/p99 must equal the percentiles of the served responses'
  // latency_ms, sorted here independently, bit for bit.
  auto svc = MakeService(1);
  std::vector<double> latencies;
  for (uint64_t seed = 1; seed <= 7; ++seed) {
    for (const char* method : {"mini", "resampled"}) {
      const ServiceResponse response =
          Serve(svc.get(), Req("alpha", method, seed));
      ASSERT_TRUE(response.ok) << response.error;
      latencies.push_back(response.latency_ms);
    }
  }
  const ServiceMetrics metrics = svc->Metrics();
  ASSERT_EQ(metrics.shards.size(), 1u);
  const ServiceMetrics::Shard& shard = metrics.shards[0];
  EXPECT_EQ(shard.requests, latencies.size());
  std::sort(latencies.begin(), latencies.end());
  EXPECT_EQ(shard.p50_ms, common::PercentileOfSorted(latencies, 0.50));
  EXPECT_EQ(shard.p90_ms, common::PercentileOfSorted(latencies, 0.90));
  EXPECT_EQ(shard.p99_ms, common::PercentileOfSorted(latencies, 0.99));
}

TEST(PredictionServiceTest, ResponsesInvariantAcrossShardCountsAndOrder) {
  // One request per (dataset, method, seed) combination, ids 1..N.
  std::vector<ServiceRequest> requests;
  uint64_t id = 0;
  for (const char* dataset : {"alpha", "beta", "gamma"}) {
    for (const char* method : {"mini", "cutoff", "resampled"}) {
      for (const uint64_t seed : {1, 2}) {
        ServiceRequest r = Req(dataset, method, seed);
        r.id = ++id;
        requests.push_back(r);
      }
    }
  }

  // Reference: one shard, arrival order.
  auto reference_svc = MakeService(1);
  const auto reference = ServeAll(reference_svc.get(), requests);
  for (const auto& response : reference) {
    ASSERT_TRUE(response.ok) << response.error;
  }

  const auto expect_same = [&](const std::vector<ServiceResponse>& got) {
    ASSERT_EQ(got.size(), reference.size());
    for (const auto& response : got) {
      ASSERT_TRUE(response.ok) << response.error;
      const auto& ref = reference[response.id - 1];
      EXPECT_EQ(testing::CanonicalBytes(response, /*per_query=*/true),
                testing::CanonicalBytes(ref, /*per_query=*/true))
          << "request id " << response.id;
    }
  };

  for (const size_t shards : {2, 4}) {
    auto svc = MakeService(shards);
    expect_same(ServeAll(svc.get(), requests));
  }

  // Shuffled arrival order on a fresh 2-shard service: a deterministic
  // permutation (reverse + interleave) so the test itself stays stable.
  std::vector<ServiceRequest> shuffled(requests.rbegin(), requests.rend());
  std::rotate(shuffled.begin(), shuffled.begin() + shuffled.size() / 3,
              shuffled.end());
  auto shuffled_svc = MakeService(2);
  expect_same(ServeAll(shuffled_svc.get(), shuffled));
}

TEST(PredictionServiceTest, TinyCacheEvictsButStaysCorrect) {
  auto svc = MakeService(1, /*cache_entries=*/1);
  const ServiceRequest a = Req("alpha", "resampled", 5);
  const ServiceRequest b = Req("alpha", "resampled", 6);

  const ServiceResponse a1 = Serve(svc.get(), a);
  const ServiceResponse b1 = Serve(svc.get(), b);  // evicts a
  const ServiceResponse a2 = Serve(svc.get(), a);  // recomputed, evicts b
  const ServiceResponse b2 = Serve(svc.get(), b);  // recomputed

  for (const auto* r : {&a1, &b1, &a2, &b2}) ASSERT_TRUE(r->ok) << r->error;
  EXPECT_FALSE(a2.cache_hit);
  EXPECT_FALSE(b2.cache_hit);
  // Eviction must not change answers: recomputation is bit-identical.
  EXPECT_EQ(testing::CanonicalBytes(a1, true),
            testing::CanonicalBytes(a2, true));
  EXPECT_EQ(testing::CanonicalBytes(b1, true),
            testing::CanonicalBytes(b2, true));

  const ServiceMetrics metrics = svc->Metrics();
  EXPECT_EQ(metrics.result_hits, 0u);
  EXPECT_EQ(metrics.result_misses, 4u);
  EXPECT_GE(metrics.result_evictions, 2u);
}

TEST(PredictionServiceTest, WorkloadCacheSharedAcrossMemoryBudgets) {
  auto svc = MakeService(1);
  // Same (dataset, q, k, seed) under different memory budgets and methods:
  // the workload is drawn once and reused.
  const ServiceResponse first = Serve(svc.get(), Req("beta", "mini", 9, 300));
  const ServiceResponse second = Serve(svc.get(), Req("beta", "mini", 9, 900));
  const ServiceResponse third =
      Serve(svc.get(), Req("beta", "resampled", 9, 600));
  ASSERT_TRUE(first.ok && second.ok && third.ok);
  EXPECT_FALSE(first.workload_cache_hit);
  EXPECT_TRUE(second.workload_cache_hit);
  EXPECT_TRUE(third.workload_cache_hit);
  EXPECT_FALSE(second.cache_hit);  // different key, different result

  const ServiceMetrics metrics = svc->Metrics();
  EXPECT_EQ(metrics.workload_hits, 2u);
  EXPECT_EQ(metrics.workload_misses, 1u);
}

TEST(PredictionServiceKernelTest, ResponsesInvariantAcrossKernelModes) {
  namespace gk = geometry::kernels;
  // Every method, served by fresh services pinned to each kernel mode:
  // responses must be byte-identical down to per-query counts (the batched
  // kernels' bit-identity contract, observed end to end at the service
  // boundary). Fresh services per mode so no cache hit papers over a
  // divergence.
  std::vector<ServiceRequest> requests;
  uint64_t id = 0;
  for (const char* method : {"mini", "cutoff", "resampled"}) {
    ServiceRequest r = Req("alpha", method, 4);
    r.id = ++id;
    requests.push_back(r);
  }

  gk::SetKernelMode(gk::KernelMode::kScalar);
  auto scalar_svc = MakeService(2);
  const auto scalar = ServeAll(scalar_svc.get(), requests);

  // Every batched lane the host can run, not just the generic one: the
  // responses' canonical bytes must match the scalar service's.
  for (const gk::KernelMode mode : gk::SupportedKernelModes()) {
    if (mode == gk::KernelMode::kScalar) continue;
    gk::SetKernelMode(mode);
    auto batched_svc = MakeService(2);
    const auto batched = ServeAll(batched_svc.get(), requests);
    ASSERT_EQ(batched.size(), scalar.size());
    for (size_t i = 0; i < scalar.size(); ++i) {
      ASSERT_TRUE(scalar[i].ok) << scalar[i].error;
      ASSERT_TRUE(batched[i].ok) << batched[i].error;
      EXPECT_EQ(testing::CanonicalBytes(batched[i], /*per_query=*/true),
                testing::CanonicalBytes(scalar[i], /*per_query=*/true))
          << "request id " << scalar[i].id << ", mode "
          << gk::KernelModeName(mode);
    }
  }
  gk::ClearKernelModeOverride();
}

TEST(PredictionServiceTest, PerQueryRefusedOnlyBeyondOneResponseFrame) {
  auto svc = MakeService(1);
  ServiceRequest request = Req("alpha", "mini", 1);
  request.per_query = true;
  request.num_queries = wire::kMaxPerQueryCount;
  // Its answer would fit one frame, so the next check, q <= N, refuses it.
  EXPECT_NE(Serve(svc.get(), request).error.find("num_queries must be <="),
            std::string::npos);
  request.num_queries += 1;
  EXPECT_NE(Serve(svc.get(), request).error.find(
                "per_query responses carry at most"),
            std::string::npos);
  request.per_query = false;
  EXPECT_NE(Serve(svc.get(), request).error.find("num_queries must be <="),
            std::string::npos);
}

TEST(PredictionServiceTest, ErrorsAreDeterministicResponses) {
  auto svc = MakeService(2);
  const ServiceResponse unknown_ds = Serve(svc.get(), Req("nope", "mini", 1));
  EXPECT_FALSE(unknown_ds.ok);
  EXPECT_NE(unknown_ds.error.find("unknown dataset"), std::string::npos);

  const ServiceResponse unknown_method =
      Serve(svc.get(), Req("alpha", "vaft", 1));
  EXPECT_FALSE(unknown_method.ok);
  EXPECT_NE(unknown_method.error.find("unknown method"), std::string::npos);

  ServiceRequest zero_k = Req("alpha", "mini", 1);
  zero_k.k = 0;
  EXPECT_FALSE(Serve(svc.get(), zero_k).ok);

  EXPECT_EQ(svc->Metrics().errors, 3u);
}

TEST(DatasetRegistryTest, StableShardAssignmentAndUniqueness) {
  DatasetRegistry a(4);
  DatasetRegistry b(4);
  // Routing depends only on (name, num_shards) — identical across
  // instances, defined even before registration.
  for (const char* name : {"x", "y", "some/long/dataset.hdx"}) {
    EXPECT_EQ(a.ShardOf(name), b.ShardOf(name));
    EXPECT_LT(a.ShardOf(name), 4u);
  }
  std::string error;
  EXPECT_TRUE(a.Add("x", testing::SmallClustered(100, 4, 1), &error));
  EXPECT_FALSE(a.Add("x", testing::SmallClustered(100, 4, 2), &error));
  EXPECT_NE(error.find("already registered"), std::string::npos);
  EXPECT_FALSE(a.LoadFile("missing", "/no/such/file.hdx", &error));
  EXPECT_EQ(a.size(), 1u);
  ASSERT_NE(a.Find("x"), nullptr);
  EXPECT_EQ(a.Find("y"), nullptr);
}

}  // namespace
}  // namespace hdidx::service
