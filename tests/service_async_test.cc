#include "service/async_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/random.h"
#include "data/dataset_io.h"
#include "gtest/gtest.h"
#include "service/prediction_service.h"
#include "service/wire.h"
#include "test_util.h"

namespace hdidx::service {
namespace {

namespace wire = hdidx::service::wire;

constexpr size_t kPageBytes = 1024;

ServiceRequest Req(const std::string& dataset, const std::string& method,
                   uint64_t seed, uint64_t id) {
  ServiceRequest r;
  r.id = id;
  r.dataset = dataset;
  r.method = method;
  r.memory = 500;
  r.num_queries = 25;
  r.k = 5;
  r.seed = seed;
  r.page_bytes = kPageBytes;
  r.per_query = true;
  return r;
}

std::unique_ptr<PredictionService> MakeService(size_t shards) {
  ServiceOptions options;
  options.num_shards = shards;
  options.total_threads = 4;
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

/// Minimal blocking test client for the wire protocol: one socket, an
/// accumulation buffer, and a 60 s receive timeout so a server bug fails
/// the test instead of hanging it.
class WireClient {
 public:
  ~WireClient() { Close(); }

  bool Connect(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    timeval timeout{};
    timeout.tv_sec = 60;
    setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = wire::HostToNet16(port);
    if (::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr) != 1 ||
        ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      Close();
      return false;
    }
    return true;
  }

  bool Send(std::string_view bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent,
                               bytes.size() - sent, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  /// Blocks until one whole frame arrives. Returns false on timeout,
  /// transport error, or peer close (`*error` says which).
  bool Read(wire::FrameHeader* header, std::string* payload,
            std::string* error) {
    while (true) {
      size_t consumed = 0;
      std::string_view view;
      const wire::FrameStatus status =
          wire::NextFrame(buffer_, wire::kDefaultMaxPayload, &consumed,
                          header, &view, error);
      if (status == wire::FrameStatus::kError) return false;
      if (status == wire::FrameStatus::kFrame) {
        payload->assign(view);
        buffer_.erase(0, consumed);
        return true;
      }
      char chunk[1 << 16];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        *error = std::string("recv: ") + std::strerror(errno);
        return false;
      }
      if (n == 0) {
        *error = "closed";
        return false;
      }
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  /// True iff response bytes arrive within `timeout_ms`.
  bool Readable(int timeout_ms) {
    if (!buffer_.empty()) return true;
    pollfd pfd{fd_, POLLIN, 0};
    return ::poll(&pfd, 1, timeout_ms) == 1;
  }

  /// True iff the server closes the connection without sending more frames.
  bool ReadClosed() {
    wire::FrameHeader header;
    std::string payload;
    std::string error;
    return !Read(&header, &payload, &error) && error == "closed";
  }

  void Close() {
    if (fd_ >= 0) {
      close(fd_);
      fd_ = -1;
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// Sends a shutdown frame, checks the ack, and waits the server down.
/// Returns the served count the ack carried.
uint64_t ShutdownAndWait(WireClient* client, AsyncServer* server) {
  EXPECT_TRUE(client->Send(wire::EncodeShutdownRequest(999)));
  wire::FrameHeader header;
  std::string payload;
  std::string error;
  EXPECT_TRUE(client->Read(&header, &payload, &error)) << error;
  uint64_t served = 0;
  EXPECT_TRUE(
      wire::DecodeShutdownResponse(header, payload, &served, &error))
      << error;
  EXPECT_EQ(header.id, 999u);
  EXPECT_EQ(server->Wait(), served);
  return served;
}

/// Sends one predict with `id` and expects it served.
void ExpectServed(WireClient* client, uint64_t id) {
  ASSERT_TRUE(
      client->Send(wire::EncodePredictRequest(Req("alpha", "mini", 1, id))));
  wire::FrameHeader header;
  std::string payload;
  std::string error;
  ASSERT_TRUE(client->Read(&header, &payload, &error)) << error;
  wire::PredictReply reply;
  ASSERT_TRUE(wire::DecodePredictResponse(header, payload, &reply, &error))
      << error;
  EXPECT_TRUE(reply.response.ok) << reply.response.error;
  EXPECT_EQ(reply.response.id, id);
}

/// Lowers this process's soft RLIMIT_NOFILE until Restore() or scope exit.
class ScopedFdLimit {
 public:
  explicit ScopedFdLimit(rlim_t soft) {
    if (::getrlimit(RLIMIT_NOFILE, &saved_) != 0) return;
    rlimit lowered = saved_;
    lowered.rlim_cur = soft;
    ok_ = ::setrlimit(RLIMIT_NOFILE, &lowered) == 0;
  }
  ~ScopedFdLimit() { Restore(); }

  bool ok() const { return ok_; }
  void Restore() {
    if (ok_) ::setrlimit(RLIMIT_NOFILE, &saved_);
    ok_ = false;
  }

 private:
  rlimit saved_{};
  bool ok_ = false;
};

/// User plus system CPU time of the whole process, in seconds.
double ProcessCpuSeconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

/// The determinism battery: one request per (dataset, method, seed).
std::vector<ServiceRequest> BatteryRequests() {
  std::vector<ServiceRequest> requests;
  uint64_t id = 0;
  for (const char* dataset : {"alpha", "beta", "gamma"}) {
    for (const char* method : {"mini", "cutoff", "resampled"}) {
      for (const uint64_t seed : {1, 2}) {
        requests.push_back(Req(dataset, method, seed, ++id));
      }
    }
  }
  return requests;
}

/// Serves `requests` in order, in process, on a fresh `shards`-shard
/// service through its one serving path: ServeOnShard on each dataset's
/// shard, as the wire server's shard workers call it.
std::vector<ServiceResponse> ServeInProcess(
    const std::vector<ServiceRequest>& requests, size_t shards) {
  auto svc = MakeService(shards);
  std::vector<ServiceResponse> responses;
  for (const ServiceRequest& r : requests) {
    responses.push_back(
        svc->ServeOnShard(svc->registry().ShardOf(r.dataset), r));
  }
  return responses;
}

/// Canonical wire bytes by request id, served in process on one
/// shard — the reference every wire response must reproduce byte for byte.
std::map<uint64_t, std::string> InProcessReference(
    const std::vector<ServiceRequest>& requests) {
  const std::vector<ServiceResponse> responses = ServeInProcess(requests, 1);
  std::map<uint64_t, std::string> reference;
  for (size_t i = 0; i < responses.size(); ++i) {
    EXPECT_EQ(responses[i].id, requests[i].id);
    EXPECT_TRUE(responses[i].ok) << responses[i].error;
    reference[requests[i].id] =
        testing::CanonicalBytes(responses[i], requests[i].per_query);
  }
  return reference;
}

TEST(AsyncServerTest, BinaryMatchesJsonAcrossShardCountsPipelined) {
  const std::vector<ServiceRequest> requests = BatteryRequests();
  const std::map<uint64_t, std::string> reference =
      InProcessReference(requests);

  for (const size_t shards : {1, 2, 4}) {
    auto svc = MakeService(shards);
    AsyncServer server(svc.get(), AsyncServerOptions{});
    std::string error;
    ASSERT_TRUE(server.Start(&error)) << error;

    // Two clients pipeline the whole battery at once on the one event
    // loop: every request frame of both is on the wire, interleaved
    // request by request, before any response is read. Responses
    // interleave across shards — each client matches its own by id.
    WireClient clients[2];
    for (WireClient& client : clients) {
      ASSERT_TRUE(client.Connect(server.port()));
    }
    for (const ServiceRequest& r : requests) {
      for (WireClient& client : clients) {
        ASSERT_TRUE(client.Send(wire::EncodePredictRequest(r)));
      }
    }

    for (size_t c = 0; c < 2; ++c) {
      std::map<uint64_t, size_t> answered;
      for (size_t i = 0; i < requests.size(); ++i) {
        wire::FrameHeader header;
        std::string payload;
        ASSERT_TRUE(clients[c].Read(&header, &payload, &error)) << error;
        wire::PredictReply reply;
        ASSERT_TRUE(
            wire::DecodePredictResponse(header, payload, &reply, &error))
            << error;
        ASSERT_TRUE(reply.response.ok) << reply.response.error;
        ASSERT_FALSE(reply.shed);
        const auto it = reference.find(reply.response.id);
        ASSERT_NE(it, reference.end());
        EXPECT_EQ(testing::CanonicalBytes(reply.response, reply.per_query),
                  it->second)
            << "client " << c << ", request id " << reply.response.id
            << ", " << shards << " shards";
        ++answered[reply.response.id];
      }
      EXPECT_EQ(answered.size(), requests.size()) << "client " << c;
    }
    EXPECT_EQ(ShutdownAndWait(&clients[0], &server), 2 * requests.size());
  }
}

TEST(AsyncServerTest, BinaryMatchesJsonSerialAndShuffled) {
  std::vector<ServiceRequest> requests = BatteryRequests();
  const std::map<uint64_t, std::string> reference =
      InProcessReference(requests);

  // Deterministically shuffled arrival order, strictly serial exchanges
  // (send one, read one) — the other extreme from the pipelined test.
  std::reverse(requests.begin(), requests.end());
  std::rotate(requests.begin(), requests.begin() + requests.size() / 3,
              requests.end());

  auto svc = MakeService(2);
  AsyncServer server(svc.get(), AsyncServerOptions{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  WireClient client;
  ASSERT_TRUE(client.Connect(server.port()));

  for (const ServiceRequest& r : requests) {
    ASSERT_TRUE(client.Send(wire::EncodePredictRequest(r)));
    wire::FrameHeader header;
    std::string payload;
    ASSERT_TRUE(client.Read(&header, &payload, &error)) << error;
    wire::PredictReply reply;
    ASSERT_TRUE(wire::DecodePredictResponse(header, payload, &reply, &error))
        << error;
    ASSERT_TRUE(reply.response.ok) << reply.response.error;
    EXPECT_EQ(reply.response.id, r.id);  // serial: in-order by construction
    EXPECT_EQ(testing::CanonicalBytes(reply.response, reply.per_query),
              reference.at(r.id));
  }
  EXPECT_EQ(ShutdownAndWait(&client, &server), requests.size());
}

TEST(AsyncServerTest, LoadStatsAndCacheHitsOverSocket) {
  const std::string path = ::testing::TempDir() + "/async_load.hdx";
  std::string error;
  ASSERT_TRUE(data::WriteDataset(testing::SmallClustered(3000, 8, 31), path,
                                 &error))
      << error;

  auto svc = MakeService(2);  // alpha/beta/gamma pre-registered
  AsyncServer server(svc.get(), AsyncServerOptions{});
  ASSERT_TRUE(server.Start(&error)) << error;
  WireClient client;
  ASSERT_TRUE(client.Connect(server.port()));

  // Load a fourth dataset over the socket.
  ASSERT_TRUE(client.Send(wire::EncodeLoadRequest(1, "delta", path)));
  wire::FrameHeader header;
  std::string payload;
  ASSERT_TRUE(client.Read(&header, &payload, &error)) << error;
  wire::LoadResult load;
  ASSERT_TRUE(wire::DecodeLoadResponse(header, payload, &load, &error))
      << error;
  EXPECT_TRUE(load.ok) << load.error;
  EXPECT_EQ(load.dataset, "delta");
  EXPECT_EQ(load.points, 3000u);
  EXPECT_EQ(load.dims, 8u);
  EXPECT_EQ(load.shard, svc->registry().ShardOf("delta"));

  // Loading the same name again fails over the wire, politely.
  ASSERT_TRUE(client.Send(wire::EncodeLoadRequest(2, "delta", path)));
  ASSERT_TRUE(client.Read(&header, &payload, &error)) << error;
  ASSERT_TRUE(wire::DecodeLoadResponse(header, payload, &load, &error));
  EXPECT_FALSE(load.ok);
  EXPECT_NE(load.error.find("already registered"), std::string::npos);

  // Same predict twice: the second serving is a cache hit, and both carry
  // byte-identical result payloads.
  const ServiceRequest request = Req("delta", "resampled", 3, 10);
  ASSERT_TRUE(client.Send(wire::EncodePredictRequest(request)));
  ASSERT_TRUE(client.Read(&header, &payload, &error)) << error;
  wire::PredictReply cold;
  ASSERT_TRUE(wire::DecodePredictResponse(header, payload, &cold, &error));
  ASSERT_TRUE(cold.response.ok) << cold.response.error;
  EXPECT_FALSE(cold.response.cache_hit);

  ASSERT_TRUE(client.Send(wire::EncodePredictRequest(request)));
  ASSERT_TRUE(client.Read(&header, &payload, &error)) << error;
  wire::PredictReply warm;
  ASSERT_TRUE(wire::DecodePredictResponse(header, payload, &warm, &error));
  ASSERT_TRUE(warm.response.ok);
  EXPECT_TRUE(warm.response.cache_hit);
  EXPECT_EQ(testing::CanonicalBytes(warm.response, true),
            testing::CanonicalBytes(cold.response, true));

  // Stats reflect the session.
  ASSERT_TRUE(client.Send(wire::EncodeStatsRequest(20)));
  ASSERT_TRUE(client.Read(&header, &payload, &error)) << error;
  ServiceMetrics metrics;
  ASSERT_TRUE(wire::DecodeStatsResponse(header, payload, &metrics, &error))
      << error;
  EXPECT_EQ(metrics.requests, 2u);
  EXPECT_EQ(metrics.result_hits, 1u);
  EXPECT_EQ(metrics.result_misses, 1u);
  EXPECT_EQ(metrics.shed_total, 0u);
  ASSERT_EQ(metrics.shards.size(), 2u);

  EXPECT_EQ(ShutdownAndWait(&client, &server), 2u);
  std::remove(path.c_str());
}

TEST(AsyncServerTest, LoadOfOversizedHeaderAnsweredWithErrorAndServingGoesOn) {
  // A 24-byte dataset file whose header claims 2^40 one-float points: the
  // reader used to allocate for the header's claim, and the resulting
  // std::bad_alloc ended the server for every tenant.
  const std::string path = ::testing::TempDir() + "/async_crafted.hdx";
  {
    std::FILE* out = std::fopen(path.c_str(), "wb");
    ASSERT_NE(out, nullptr);
    const uint32_t version = 1;
    const uint64_t num_points = uint64_t{1} << 40;
    const uint64_t dim = 1;
    std::fwrite("HDIX", 1, 4, out);
    std::fwrite(&version, sizeof(version), 1, out);
    std::fwrite(&num_points, sizeof(num_points), 1, out);
    std::fwrite(&dim, sizeof(dim), 1, out);
    std::fclose(out);
  }
  auto svc = MakeService(2);
  AsyncServer server(svc.get(), AsyncServerOptions{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  WireClient client;
  ASSERT_TRUE(client.Connect(server.port()));

  ASSERT_TRUE(client.Send(wire::EncodeLoadRequest(1, "crafted", path)));
  wire::FrameHeader header;
  std::string payload;
  ASSERT_TRUE(client.Read(&header, &payload, &error)) << error;
  wire::LoadResult load;
  ASSERT_TRUE(wire::DecodeLoadResponse(header, payload, &load, &error))
      << error;
  EXPECT_FALSE(load.ok);
  EXPECT_NE(load.error.find("exceeds the 32-bit row id limit"),
            std::string::npos)
      << load.error;
  EXPECT_EQ(svc->registry().Find("crafted"), nullptr);

  // The same connection is still served.
  ExpectServed(&client, 2);
  EXPECT_EQ(ShutdownAndWait(&client, &server), 1u);
  std::remove(path.c_str());
}

TEST(AsyncServerTest, DegenerateRequestsRejectedInProcessAndOverWire) {
  // Requests whose only possible answer is a meaningless "ok", on N = 3000
  // 8-d points: k >= N (the query's own row leaves N - 1 neighbors), pages
  // too small for two 8-d records (< 2 * (4 * 8 + 4) = 72 bytes), and more
  // queries than points. Each (even index) is answered with an error
  // echoing its id; the valid request after it (odd index) still serves.
  struct Degenerate {
    size_t k, page_bytes, num_queries;
  };
  std::vector<ServiceRequest> requests;
  for (const Degenerate& d : std::vector<Degenerate>{{5000, kPageBytes, 25},
                                                     {3000, kPageBytes, 25},
                                                     {5, 16, 25},
                                                     {5, 71, 25},
                                                     {5, kPageBytes, 3001}}) {
    ServiceRequest bad = Req("alpha", "mini", 1, 40 + requests.size());
    bad.k = d.k;
    bad.page_bytes = d.page_bytes;
    bad.num_queries = d.num_queries;
    requests.push_back(bad);
    requests.push_back(Req("alpha", "mini", 1, 40 + requests.size()));
  }

  const std::vector<ServiceResponse> in_process = ServeInProcess(requests, 2);
  ASSERT_EQ(in_process.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    const bool valid = i % 2 == 1;
    EXPECT_EQ(in_process[i].id, requests[i].id);
    EXPECT_EQ(in_process[i].ok, valid) << in_process[i].error;
    EXPECT_EQ(in_process[i].error.empty(), valid);
  }

  auto svc = MakeService(2);
  AsyncServer server(svc.get(), AsyncServerOptions{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  WireClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(client.Send(wire::EncodePredictRequest(requests[i])));
    wire::FrameHeader header;
    std::string payload;
    ASSERT_TRUE(client.Read(&header, &payload, &error)) << error;
    wire::PredictReply reply;
    ASSERT_TRUE(wire::DecodePredictResponse(header, payload, &reply, &error))
        << error;
    EXPECT_EQ(reply.response.id, requests[i].id);
    EXPECT_EQ(reply.response.ok, in_process[i].ok) << reply.response.error;
    EXPECT_EQ(reply.response.error, in_process[i].error);
  }
  EXPECT_EQ(ShutdownAndWait(&client, &server), requests.size());
}

/// Sends `request`, expects a predict error response echoing its id, and
/// returns the error text.
std::string PredictError(WireClient* client, const ServiceRequest& request) {
  std::string error;
  EXPECT_TRUE(client->Send(wire::EncodePredictRequest(request)));
  wire::FrameHeader header;
  std::string payload;
  if (!client->Read(&header, &payload, &error)) {
    ADD_FAILURE() << error;
    return "";
  }
  wire::PredictReply reply;
  EXPECT_TRUE(wire::DecodePredictResponse(header, payload, &reply, &error))
      << error;
  EXPECT_EQ(reply.response.id, request.id);
  EXPECT_FALSE(reply.response.ok);
  return reply.response.error;
}

TEST(AsyncServerTest, LongUnknownDatasetNameAnsweredWithBoundedError) {
  // The longest name a wire string carries. Its error used to echo it
  // whole, 65,552 bytes, and the shard worker's encoder aborted the server.
  ServiceRequest request = Req(std::string(0xffff, 'n'), "mini", 1, 7);
  const std::string in_process = ServeInProcess({request}, 2)[0].error;
  EXPECT_EQ(in_process,
            "unknown dataset: " + std::string(kMaxEchoBytes, 'n') + "...");

  auto svc = MakeService(2);
  AsyncServer server(svc.get(), AsyncServerOptions{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  WireClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  EXPECT_EQ(PredictError(&client, request), in_process);
  ExpectServed(&client, 8);
  EXPECT_EQ(ShutdownAndWait(&client, &server), 2u);
}

TEST(AsyncServerTest, LongLoadPathAnsweredWithBoundedError) {
  // The reader's error quotes the path, and the registry's quotes it again:
  // 130,039 bytes for this path, which the event loop's encoder aborted on.
  const std::string path(65000, 'p');
  std::string in_process;
  {
    auto svc = MakeService(2);
    EXPECT_FALSE(svc->registry().LoadFile("long", path, &in_process));
  }
  EXPECT_LE(in_process.size(), 2 * kMaxEchoBytes + 64) << in_process;
  EXPECT_EQ(in_process.rfind("cannot read " + std::string(kMaxEchoBytes, 'p') +
                                 "...: ",
                             0),
            0u)
      << in_process;

  auto svc = MakeService(2);
  AsyncServer server(svc.get(), AsyncServerOptions{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  WireClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(client.Send(wire::EncodeLoadRequest(5, "long", path)));
  wire::FrameHeader header;
  std::string payload;
  ASSERT_TRUE(client.Read(&header, &payload, &error)) << error;
  EXPECT_EQ(header.id, 5u);
  wire::LoadResult load;
  ASSERT_TRUE(wire::DecodeLoadResponse(header, payload, &load, &error))
      << error;
  EXPECT_FALSE(load.ok);
  EXPECT_EQ(load.dataset, "long");
  EXPECT_EQ(load.error, in_process);
  ExpectServed(&client, 6);
  EXPECT_EQ(ShutdownAndWait(&client, &server), 1u);
}

TEST(AsyncServerTest, PerQueryBeyondOneFrameRefusedBeforeWork) {
  // One more query than a response frame's per-query array holds. The
  // refusal comes before the dataset's own checks, so the small dataset
  // is enough to show it.
  ServiceRequest request = Req("alpha", "mini", 1, 9);
  request.num_queries = wire::kMaxPerQueryCount + 1;
  const std::string in_process = ServeInProcess({request}, 2)[0].error;
  EXPECT_EQ(in_process, "per_query responses carry at most " +
                            std::to_string(wire::kMaxPerQueryCount) +
                            " queries");

  auto svc = MakeService(2);
  AsyncServer server(svc.get(), AsyncServerOptions{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  WireClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  EXPECT_EQ(PredictError(&client, request), in_process);
  ExpectServed(&client, 10);
  EXPECT_EQ(ShutdownAndWait(&client, &server), 2u);
}

TEST(AsyncServerTest, MemoryBeyondDatasetServedAsDatasetSize) {
  // A budget of N = 3000 points already holds the whole dataset, so every
  // method serves M = 3001 and M = 1e9 exactly as M = N, from the same
  // cache entry. For method=resampled a budget of 1e9 points would
  // otherwise size the resample pass's k·M areas file until
  // std::bad_alloc.
  std::vector<ServiceRequest> requests;
  for (const char* method : {"mini", "cutoff", "resampled"}) {
    for (const size_t memory : {size_t{3000}, size_t{3001},
                                size_t{1'000'000'000}}) {
      ServiceRequest r = Req("alpha", method, 1, 60 + requests.size());
      r.memory = memory;
      requests.push_back(r);
    }
  }
  const std::map<uint64_t, std::string> reference =
      InProcessReference(requests);
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(reference.at(requests[i].id),
              reference.at(requests[i - i % 3].id))
        << requests[i].method << ", memory " << requests[i].memory;
  }

  auto svc = MakeService(2);
  AsyncServer server(svc.get(), AsyncServerOptions{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  WireClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(client.Send(wire::EncodePredictRequest(requests[i])));
    wire::FrameHeader header;
    std::string payload;
    ASSERT_TRUE(client.Read(&header, &payload, &error)) << error;
    wire::PredictReply reply;
    ASSERT_TRUE(wire::DecodePredictResponse(header, payload, &reply, &error))
        << error;
    ASSERT_TRUE(reply.response.ok) << reply.response.error;
    EXPECT_EQ(reply.response.id, requests[i].id);
    EXPECT_EQ(reply.response.cache_hit, i % 3 != 0);
    EXPECT_EQ(testing::CanonicalBytes(reply.response, reply.per_query),
              reference.at(requests[i].id));
  }
  EXPECT_EQ(ShutdownAndWait(&client, &server), requests.size());
}

TEST(AsyncServerTest, BackpressureShedsExactlyTheOverflow) {
  auto svc = MakeService(1);
  AsyncServerOptions options;
  options.shard_queue_capacity = 3;
  options.retry_after_ms = 25;
  AsyncServer server(svc.get(), options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  WireClient client;
  ASSERT_TRUE(client.Connect(server.port()));

  // Park the shard workers, then over-fill the queue: of 5 predicts, ids
  // 1..3 are admitted and 4..5 must be shed — deterministically, because
  // nothing drains the queue while paused.
  server.PauseServingForTest();
  std::string frames;
  for (uint64_t id = 1; id <= 5; ++id) {
    frames += wire::EncodePredictRequest(Req("alpha", "mini", 1, id));
  }
  ASSERT_TRUE(client.Send(frames));

  wire::FrameHeader header;
  std::string payload;
  for (const uint64_t expected_id : {4, 5}) {
    ASSERT_TRUE(client.Read(&header, &payload, &error)) << error;
    wire::PredictReply reply;
    ASSERT_TRUE(wire::DecodePredictResponse(header, payload, &reply, &error))
        << error;
    EXPECT_TRUE(reply.shed);
    EXPECT_EQ(reply.response.id, expected_id);
    EXPECT_EQ(reply.retry_after_ms, 25u);
  }

  // The stats op is served by the reactor, not the parked workers: the
  // queue gauges are visible mid-backpressure.
  ASSERT_TRUE(client.Send(wire::EncodeStatsRequest(50)));
  ASSERT_TRUE(client.Read(&header, &payload, &error)) << error;
  ServiceMetrics metrics;
  ASSERT_TRUE(wire::DecodeStatsResponse(header, payload, &metrics, &error));
  EXPECT_EQ(metrics.shed_total, 2u);
  const size_t shard = svc->registry().ShardOf("alpha");
  ASSERT_LT(shard, metrics.shards.size());
  EXPECT_EQ(metrics.shards[shard].queue_depth, 3u);
  EXPECT_EQ(metrics.shards[shard].peak_queue_depth, 3u);
  EXPECT_EQ(metrics.shards[shard].shed, 2u);

  // Resume: the three admitted requests complete, in admission order.
  server.ResumeServingForTest();
  for (const uint64_t expected_id : {1, 2, 3}) {
    ASSERT_TRUE(client.Read(&header, &payload, &error)) << error;
    wire::PredictReply reply;
    ASSERT_TRUE(wire::DecodePredictResponse(header, payload, &reply, &error))
        << error;
    EXPECT_FALSE(reply.shed);
    ASSERT_TRUE(reply.response.ok) << reply.response.error;
    EXPECT_EQ(reply.response.id, expected_id);
  }

  ASSERT_TRUE(client.Send(wire::EncodeStatsRequest(51)));
  ASSERT_TRUE(client.Read(&header, &payload, &error)) << error;
  ASSERT_TRUE(wire::DecodeStatsResponse(header, payload, &metrics, &error));
  EXPECT_EQ(metrics.shards[shard].queue_depth, 0u);
  EXPECT_EQ(metrics.shards[shard].peak_queue_depth, 3u);
  EXPECT_EQ(metrics.shed_total, 2u);  // sheds are not retried server-side

  EXPECT_EQ(ShutdownAndWait(&client, &server), 3u);
}

TEST(AsyncServerTest, LoadWithQueuedPredictsDoesNotDeadlock) {
  const std::string path = ::testing::TempDir() + "/async_load_busy.hdx";
  std::string error;
  ASSERT_TRUE(data::WriteDataset(testing::SmallClustered(3000, 8, 47), path,
                                 &error))
      << error;

  auto svc = MakeService(1);
  AsyncServer server(svc.get(), AsyncServerOptions{});
  ASSERT_TRUE(server.Start(&error)) << error;
  WireClient client;
  ASSERT_TRUE(client.Connect(server.port()));

  // Park the workers, queue three predicts, then ask for a load. The
  // load's quiesce must wait out *in-flight* serves only: parked workers
  // can never drain the queue, so a quiesce that waited for empty queues
  // (the pre-fix behavior) deadlocked the reactor here — wedging every
  // connection and leaving the queues paused forever.
  server.PauseServingForTest();
  std::string frames;
  for (uint64_t id = 1; id <= 3; ++id) {
    frames += wire::EncodePredictRequest(Req("alpha", "mini", 1, id));
  }
  frames += wire::EncodeLoadRequest(9, "delta", path);
  ASSERT_TRUE(client.Send(frames));

  // The load acks and its Resume unparks the workers, so the queued
  // predicts complete too (in admission order; the ack may interleave
  // with them, since workers restart as soon as the registry settles).
  bool load_acked = false;
  std::vector<uint64_t> predict_ids;
  for (int i = 0; i < 4; ++i) {
    wire::FrameHeader header;
    std::string payload;
    ASSERT_TRUE(client.Read(&header, &payload, &error)) << error;
    if (header.id == 9) {
      wire::LoadResult load;
      ASSERT_TRUE(wire::DecodeLoadResponse(header, payload, &load, &error))
          << error;
      EXPECT_TRUE(load.ok) << load.error;
      EXPECT_EQ(load.dataset, "delta");
      load_acked = true;
    } else {
      wire::PredictReply reply;
      ASSERT_TRUE(
          wire::DecodePredictResponse(header, payload, &reply, &error))
          << error;
      ASSERT_TRUE(reply.response.ok) << reply.response.error;
      EXPECT_FALSE(reply.shed);
      predict_ids.push_back(reply.response.id);
    }
  }
  EXPECT_TRUE(load_acked);
  EXPECT_EQ(predict_ids, (std::vector<uint64_t>{1, 2, 3}));

  // The loaded dataset serves over the same connection.
  ASSERT_TRUE(
      client.Send(wire::EncodePredictRequest(Req("delta", "mini", 2, 20))));
  wire::FrameHeader header;
  std::string payload;
  ASSERT_TRUE(client.Read(&header, &payload, &error)) << error;
  wire::PredictReply reply;
  ASSERT_TRUE(wire::DecodePredictResponse(header, payload, &reply, &error));
  EXPECT_TRUE(reply.response.ok) << reply.response.error;

  EXPECT_EQ(ShutdownAndWait(&client, &server), 4u);
  std::remove(path.c_str());
}

TEST(AsyncServerTest, ShutdownDrainsQueuedPredictsEvenWhilePaused) {
  auto svc = MakeService(1);
  AsyncServer server(svc.get(), AsyncServerOptions{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  WireClient client;
  ASSERT_TRUE(client.Connect(server.port()));

  // Queue predicts against parked workers, then request shutdown in the
  // same pipelined breath. Shutdown overrides the pause: it stops
  // admitting predicts, resumes the workers, and acks only once every
  // admitted response is buffered — so the wire carries exactly 1..3 and
  // then the ack, instead of the pre-fix indefinite stall.
  server.PauseServingForTest();
  std::string frames;
  for (uint64_t id = 1; id <= 3; ++id) {
    frames += wire::EncodePredictRequest(Req("alpha", "mini", 1, id));
  }
  frames += wire::EncodeShutdownRequest(999);
  ASSERT_TRUE(client.Send(frames));

  for (const uint64_t expected_id : {1, 2, 3}) {
    wire::FrameHeader header;
    std::string payload;
    ASSERT_TRUE(client.Read(&header, &payload, &error)) << error;
    wire::PredictReply reply;
    ASSERT_TRUE(wire::DecodePredictResponse(header, payload, &reply, &error))
        << error;
    ASSERT_TRUE(reply.response.ok) << reply.response.error;
    EXPECT_FALSE(reply.shed);
    EXPECT_EQ(reply.response.id, expected_id);
  }
  wire::FrameHeader header;
  std::string payload;
  ASSERT_TRUE(client.Read(&header, &payload, &error)) << error;
  uint64_t served = 0;
  ASSERT_TRUE(wire::DecodeShutdownResponse(header, payload, &served, &error))
      << error;
  EXPECT_EQ(header.id, 999u);
  EXPECT_EQ(served, 3u);
  EXPECT_EQ(server.Wait(), 3u);
}

TEST(AsyncServerTest, ClientsVanishingMidResponseDontKillTheServer) {
  const std::vector<ServiceRequest> requests = BatteryRequests();
  auto svc = MakeService(2);
  AsyncServer server(svc.get(), AsyncServerOptions{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  // Pipeline the whole battery, then vanish without reading a byte: the
  // server's response writes land on a reset connection. Without
  // MSG_NOSIGNAL the second write after the RST raises SIGPIPE and kills
  // the process (the healthy session below would fail to connect); with
  // it the write returns EPIPE and the connection is simply closed.
  std::string frames;
  for (const ServiceRequest& r : requests) {
    frames += wire::EncodePredictRequest(r);
  }
  for (int round = 0; round < 4; ++round) {
    WireClient vanisher;
    ASSERT_TRUE(vanisher.Connect(server.port()));
    ASSERT_TRUE(vanisher.Send(frames));
    vanisher.Close();
  }

  WireClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(
      client.Send(wire::EncodePredictRequest(Req("alpha", "mini", 1, 500))));
  wire::FrameHeader header;
  std::string payload;
  ASSERT_TRUE(client.Read(&header, &payload, &error)) << error;
  wire::PredictReply reply;
  ASSERT_TRUE(wire::DecodePredictResponse(header, payload, &reply, &error))
      << error;
  EXPECT_TRUE(reply.response.ok) << reply.response.error;
  ShutdownAndWait(&client, &server);
}

TEST(AsyncServerTest, MalformedStreamsRejectedWithoutTakingTheServerDown) {
  auto svc = MakeService(1);
  AsyncServer server(svc.get(), AsyncServerOptions{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  // A stream that is not the protocol at all: one kError frame with id 0,
  // then the connection is closed.
  {
    WireClient garbage;
    ASSERT_TRUE(garbage.Connect(server.port()));
    ASSERT_TRUE(garbage.Send("GET / HTTP/1.1\r\nHost: nope\r\n\r\n"));
    wire::FrameHeader header;
    std::string payload;
    ASSERT_TRUE(garbage.Read(&header, &payload, &error)) << error;
    std::string message;
    ASSERT_TRUE(wire::DecodeErrorFrame(header, payload, &message, &error))
        << error;
    EXPECT_EQ(header.id, 0u);
    EXPECT_NE(message.find("bad magic"), std::string::npos);
    EXPECT_TRUE(garbage.ReadClosed());
  }

  // A well-framed but undecodable payload: the error echoes the id and the
  // connection keeps serving.
  WireClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(client.Send(
      wire::EncodeFrame(wire::WireOp::kPredict, 0, 77, "junk")));
  wire::FrameHeader header;
  std::string payload;
  ASSERT_TRUE(client.Read(&header, &payload, &error)) << error;
  std::string message;
  ASSERT_TRUE(wire::DecodeErrorFrame(header, payload, &message, &error));
  EXPECT_EQ(header.id, 77u);

  ASSERT_TRUE(client.Send(wire::EncodePredictRequest(Req("alpha", "mini", 1,
                                                         78))));
  ASSERT_TRUE(client.Read(&header, &payload, &error)) << error;
  wire::PredictReply reply;
  ASSERT_TRUE(wire::DecodePredictResponse(header, payload, &reply, &error));
  EXPECT_TRUE(reply.response.ok) << reply.response.error;
  EXPECT_EQ(reply.response.id, 78u);

  EXPECT_EQ(ShutdownAndWait(&client, &server), 1u);
}

TEST(AsyncServerTest, WorkerDecodeErrorsKeepIdAndOrderAndSkipServedCount) {
  // Predict payloads are decoded on the shard worker, not the reactor.
  // A payload that routes fine (valid leading dataset string) but fails
  // the full decode must still produce a kError echoing the id, ordered
  // FIFO against the same connection's other predicts on that shard, and
  // the connection must keep serving. Interleave bad and good predicts and
  // check ids come back in admission order.
  auto svc = MakeService(1);
  AsyncServer server(svc.get(), AsyncServerOptions{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  WireClient client;
  ASSERT_TRUE(client.Connect(server.port()));

  // Routing key present, rest of the payload truncated: the reactor's
  // peek succeeds, the worker's DecodeRequest fails.
  std::string bad_payload;
  wire::AppendString(&bad_payload, "alpha");
  ASSERT_TRUE(client.Send(
      wire::EncodeFrame(wire::WireOp::kPredict, 0, 101, bad_payload)));
  ASSERT_TRUE(client.Send(wire::EncodePredictRequest(Req("alpha", "mini", 1,
                                                         102))));
  ASSERT_TRUE(client.Send(
      wire::EncodeFrame(wire::WireOp::kPredict, 0, 103, bad_payload)));
  ASSERT_TRUE(client.Send(wire::EncodePredictRequest(Req("alpha", "mini", 2,
                                                         104))));

  for (const uint64_t expected_id : {101, 102, 103, 104}) {
    wire::FrameHeader header;
    std::string payload;
    ASSERT_TRUE(client.Read(&header, &payload, &error)) << error;
    EXPECT_EQ(header.id, expected_id);
    if (expected_id % 2 == 1) {
      std::string message;
      ASSERT_TRUE(
          wire::DecodeErrorFrame(header, payload, &message, &error))
          << error;
      EXPECT_NE(message.find("predict"), std::string::npos) << message;
    } else {
      wire::PredictReply reply;
      ASSERT_TRUE(
          wire::DecodePredictResponse(header, payload, &reply, &error))
          << error;
      EXPECT_TRUE(reply.response.ok) << reply.response.error;
    }
  }

  // Only the two well-formed predicts count as served.
  EXPECT_EQ(ShutdownAndWait(&client, &server), 2u);
}

TEST(AsyncServerTest, AcceptBacksOffOnFdExhaustionAndKeepsServing) {
  auto svc = MakeService(1);
  AsyncServer server(svc.get(), AsyncServerOptions{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  WireClient a;
  ASSERT_TRUE(a.Connect(server.port()));
  ASSERT_NO_FATAL_FAILURE(ExpectServed(&a, 1));  // A is accepted

  // B's socket takes the lowest free descriptor number. With the soft
  // limit just above it, B connects (the kernel completes the handshake
  // into the listen backlog) but the server's accept, which needs a
  // higher number, fails with EMFILE.
  const int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(probe, 0);
  ::close(probe);
  ScopedFdLimit limit(static_cast<rlim_t>(probe) + 1);
  ASSERT_TRUE(limit.ok());
  WireClient b;
  ASSERT_TRUE(b.Connect(server.port()));
  ASSERT_TRUE(
      b.Send(wire::EncodePredictRequest(Req("alpha", "mini", 2, 100))));

  // B stays unserved, and the loop backs off instead of spinning on the
  // failing accept: 300 ms of waiting cost the process little CPU.
  const double cpu_before = ProcessCpuSeconds();
  EXPECT_FALSE(b.Readable(300));
  EXPECT_LT(ProcessCpuSeconds() - cpu_before, 0.15);
  // A is served throughout.
  for (uint64_t id = 2; id <= 4; ++id) {
    ASSERT_NO_FATAL_FAILURE(ExpectServed(&a, id));
  }
  EXPECT_FALSE(b.Readable(0));

  // Descriptors are back: the re-armed listen socket accepts B, whose
  // queued predict is then served, within a bounded wait.
  limit.Restore();
  ASSERT_TRUE(b.Readable(5000));
  wire::FrameHeader header;
  std::string payload;
  ASSERT_TRUE(b.Read(&header, &payload, &error)) << error;
  wire::PredictReply reply;
  ASSERT_TRUE(wire::DecodePredictResponse(header, payload, &reply, &error))
      << error;
  EXPECT_TRUE(reply.response.ok) << reply.response.error;
  EXPECT_EQ(reply.response.id, 100u);
  ASSERT_NO_FATAL_FAILURE(ExpectServed(&b, 101));

  EXPECT_EQ(ShutdownAndWait(&a, &server), 6u);
}

TEST(AsyncServerFuzzTest, RandomStreamsNeverCrashTheServer) {
  auto svc = MakeService(2);
  AsyncServer server(svc.get(), AsyncServerOptions{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  // The socket-level half of the malformed-frame corpus: seeded random
  // streams — pure garbage, truncated real frames, real frames with bytes
  // flipped — thrown at live connections. The server must answer or close
  // each one and stay healthy throughout (checked with a real session at
  // the end; ASan/TSan runs make this a memory/race check too).
  common::Rng rng(20260809);
  const std::string real = wire::EncodePredictRequest(Req("alpha", "mini", 1,
                                                          1));
  for (int iter = 0; iter < 30; ++iter) {
    WireClient attacker;
    ASSERT_TRUE(attacker.Connect(server.port()));
    std::string bytes;
    switch (iter % 3) {
      case 0: {  // pure garbage
        const size_t len = 1 + rng.NextBounded(200);
        for (size_t i = 0; i < len; ++i) {
          bytes.push_back(static_cast<char>(rng.NextBounded(256)));
        }
        break;
      }
      case 1:  // truncated real frame
        bytes = real.substr(0, rng.NextBounded(real.size()));
        break;
      default: {  // real frame with header bytes flipped (payload flips
                  // would make a *valid* request with garbage parameters —
                  // that is the decoders' fuzz suite's job, not a framing
                  // concern)
        bytes = real;
        for (size_t f = 0; f < 1 + rng.NextBounded(4); ++f) {
          bytes[rng.NextBounded(wire::kHeaderBytes)] ^=
              static_cast<char>(1u << rng.NextBounded(8));
        }
        break;
      }
    }
    ASSERT_TRUE(attacker.Send(bytes));
    attacker.Close();  // abandon mid-exchange half the time the frame was fine
  }

  WireClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(
      client.Send(wire::EncodePredictRequest(Req("beta", "resampled", 2,
                                                 5))));
  wire::FrameHeader header;
  std::string payload;
  ASSERT_TRUE(client.Read(&header, &payload, &error)) << error;
  wire::PredictReply reply;
  ASSERT_TRUE(wire::DecodePredictResponse(header, payload, &reply, &error))
      << error;
  EXPECT_TRUE(reply.response.ok) << reply.response.error;
  ShutdownAndWait(&client, &server);
}

}  // namespace
}  // namespace hdidx::service
