// hdidx_perfbench: runs one workload of the end-to-end benchmark in this
// process and prints its raw samples as one JSON object on the last line of
// stdout. perfbench/run.py builds this binary, runs it, and turns the raw
// samples into the metrics named in BENCHMARK.json.
//
//   hdidx_perfbench --workload cold-d60|mixed-d16|ooc-build --seed N
//                   --seconds S [--trace 0|1] [--spans PATH]
//   hdidx_perfbench --dump-ops N --seed N     (mixed-d16 op stream only)
//
// Every workload is one closed-loop client: the next op is issued only after
// the previous one answered. Serving runs one shard on one worker thread.
// The system is driven only through public entry points: AsyncServer over
// loopback, PredictionService, BuildOnDisk and the layer functions the
// traced runs call one by one. Spans are recorded only here, around those
// calls, and written to --spans when the run ends.

#include <arpa/inet.h>
#include <malloc.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/random.h"
#include "common/stats.h"
#include "core/cutoff.h"
#include "core/hupper.h"
#include "core/mini_index.h"
#include "core/predictor.h"
#include "core/resampled.h"
#include "data/dataset.h"
#include "data/generators.h"
#include "index/bulk_loader.h"
#include "index/external_build.h"
#include "index/rtree.h"
#include "index/topology.h"
#include "io/disk_model.h"
#include "io/io_stats.h"
#include "io/paged_file.h"
#include "service/async_server.h"
#include "service/prediction_service.h"
#include "service/protocol.h"
#include "service/wire.h"
#include "workload/query_workload.h"

namespace hdidx::perfbench {
namespace {

namespace wire = service::wire;

// Set-up runs this many times per process; run.py reports the median.
constexpr size_t kSetupReps = 5;
// Ops whose output bytes feed the pinned digest (the timed loop runs at
// least this many ops, whatever --seconds says, so the digest is complete).
constexpr size_t kColdPinOps = 8;
constexpr size_t kMixedPinOps = 300;
constexpr size_t kBuildPinOps = 4;
// cold-d60: the ROADMAP's unit of work (Table 3 texture60 shape). Requests
// round-robin over several datasets so a run's latency does not hinge on
// one draw of cluster structure; the first kColdAccuracyOps requests are
// checked against a real tree after the loop.
constexpr size_t kColdDatasets = 4;
constexpr size_t kColdPoints = 100000;
constexpr size_t kColdDim = 60;
constexpr size_t kColdMemory = 10000;
constexpr size_t kColdQueries = 100;
constexpr size_t kColdK = 21;
constexpr size_t kColdAccuracyOps = 32;

// mixed-d16: a skewed key population over three methods and two budgets.
// Popularity is Zipf over the workload seeds and uniform over the six
// (method, budget) pairs of a seed, so every method sees the same share of
// traffic and of misses. Predicts are dealt in decks that hold every key in
// exact proportion, so a run's miss count and mix barely depend on the seed.
constexpr size_t kMixedPoints = 100000;
constexpr size_t kMixedDim = 16;
constexpr size_t kMixedSeeds = 8;
constexpr const char* kMixedMethods[] = {"mini", "cutoff", "resampled"};
constexpr size_t kMixedMemories[] = {5000, 10000};
constexpr size_t kMixedQueries = 100;
constexpr size_t kMixedK = 21;
constexpr double kMixedZipf = 2.0;
constexpr size_t kMixedDeck = 96;
constexpr size_t kMixedResultCache = 32;
constexpr size_t kMixedWorkloadCache = 4;
constexpr size_t kMixedStatsEvery = 32;
constexpr size_t kMixedWarmupOps = 200;
constexpr size_t kMixedAccuracySets = 16;
constexpr size_t kMixedAccuracyOps = 2;

// ooc-build: the ROADMAP's other unit of work.
constexpr size_t kBuildPoints = 100000;
constexpr size_t kBuildDim = 16;
constexpr size_t kBuildThreads = 2;
constexpr size_t kBuildQueries = 100;
constexpr size_t kBuildK = 21;
constexpr size_t kBuildAccuracySets = 16;
constexpr size_t kBuildAccuracyOps = 2;

using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double MsBetween(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e6;
}

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Seed of the `i`-th request drawn from a run seed: distinct per request.
uint64_t RequestSeed(uint64_t run_seed, uint64_t i) {
  return Mix64(run_seed * 0x100000001b3ULL + i);
}

/// FNV-1a over a byte stream.
class Digest {
 public:
  void Add(std::string_view bytes) {
    for (const char c : bytes) {
      hash_ ^= static_cast<uint8_t>(c);
      hash_ *= 0x100000001b3ULL;
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Restricts this process (and every thread it starts later) to the first
/// CPU it may run on. A closed loop with one client has one runnable thread
/// at a time, so one CPU suffices; sharing it turns each hand-off between
/// threads (client -> reactor -> worker, build -> read-ahead) into a
/// same-CPU switch instead of a cross-CPU wake-up, whose cost on a shared VM
/// swings by 3x with the host's state. Returns false if the affinity cannot
/// be set.
bool PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return false;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      cpu_set_t pinned;
      CPU_ZERO(&pinned);
      CPU_SET(cpu, &pinned);
      return ::sched_setaffinity(0, sizeof(pinned), &pinned) == 0;
    }
  }
  return false;
}

/// Returns the memory set-up freed to the OS and restarts the kernel's
/// peak-RSS count, so the peak read after the timed loop covers the loop
/// and what set-up left live, not set-up's transients.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// Peak resident set of this process in KiB (VmHWM), 0 if unreadable.
double PeakRssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr);
    }
  }
  return 0.0;
}

// --- spans -----------------------------------------------------------------

/// In-memory span recorder for the traced runs. Spans nest by call order on
/// the client thread: a span's parent is the innermost span open when it
/// began. Disabled tracers record nothing and read no clock.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (!enabled_) return;
    // Touch the span buffer up front so recording a span never takes a
    // page fault.
    spans_.resize(1 << 16);
    spans_.clear();
    open_.reserve(16);
  }

  bool enabled() const { return enabled_; }

  /// Opens a span starting at `start_ns`, or now when it is negative.
  int Begin(const char* name, uint64_t op, int64_t start_ns = -1) {
    if (!enabled_) return -1;
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, op, parent, start_ns < 0 ? NowNs() : start_ns, 0});
    open_.push_back(static_cast<int>(spans_.size() - 1));
    return open_.back();
  }

  /// Closes span `index` (the innermost open one) now, optionally renaming
  /// it once its outcome is known (a serve becomes a hit or a miss); returns
  /// the end time.
  int64_t End(int index, const char* name = nullptr) {
    if (index < 0) return 0;
    const int64_t end_ns = NowNs();
    spans_[index].end_ns = end_ns;
    if (name != nullptr) spans_[index].name = name;
    open_.pop_back();
    return end_ns;
  }

  /// Start time of span `index`, or -1 when nothing was recorded.
  int64_t StartOf(int index) const {
    return index < 0 ? -1 : spans_[index].start_ns;
  }

  /// One JSON object per line: name, op, parent index, start/end ns.
  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"op\":%llu,\"parent\":%d,"
                   "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   s.name, static_cast<unsigned long long>(s.op), s.parent,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    const char* name;
    uint64_t op;
    int parent;
    int64_t start_ns;
    int64_t end_ns;
  };
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class SpanScope {
 public:
  /// `start_ns` < 0 starts the span now; a first child passes its
  /// parent's start() so both open at one clock read.
  SpanScope(Tracer* tracer, const char* name, uint64_t op,
            int64_t start_ns = -1)
      : tracer_(tracer), op_(op), index_(tracer->Begin(name, op, start_ns)) {}
  ~SpanScope() { tracer_->End(index_, name_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  void Rename(const char* name) { name_ = name; }
  int64_t start() const { return tracer_->StartOf(index_); }

  /// Ends this span and opens its sibling `name` at the same instant, so a
  /// sequence of layer calls costs one clock read per boundary and leaves
  /// no gap between them.
  void Next(const char* name) {
    const int64_t at = tracer_->End(index_, name_);
    index_ = tracer_->Begin(name, op_, at);
    name_ = nullptr;
  }

 private:
  Tracer* tracer_;
  uint64_t op_;
  int index_;
  const char* name_ = nullptr;
};

// --- raw output -------------------------------------------------------------

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += JsonNumber(values[i]);
  }
  return out + "]";
}

/// The raw samples of one run; run.py computes every metric from these.
struct RawResult {
  std::vector<double> setup_s;
  std::vector<double> generate_s;
  std::vector<double> register_s;
  /// Timed ops on the untraced path: predicts (serving) or builds.
  std::vector<double> op_ms;
  std::vector<double> stats_ms;
  /// Traced runs: op time with and without spans, and (mixed-d16) cache-hit
  /// times over the socket and in process.
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  std::vector<double> socket_hit_ms;
  std::vector<double> inproc_hit_ms;
  /// Simulated I/O summed over the predicts or builds of the timed loop.
  double sim_io_s = 0.0;
  double sim_seeks = 0.0;
  double sim_transfers = 0.0;
  size_t io_ops = 0;
  /// (predicted, measured) average leaf accesses.
  std::vector<std::pair<double, double>> accuracy;
  double peak_rss_kb = 0.0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;
  std::string digest;
  size_t digest_ops = 0;
  /// Per-layer counters computed here (name -> value).
  std::map<std::string, double> counters;

  void Fail(std::string why) {
    ++failed;
    if (failures.size() < 10) failures.push_back(std::move(why));
  }

  std::string ToJson(const std::string& workload, uint64_t seed,
                     bool trace) const {
    std::string out = "{\"workload\":" + JsonString(workload);
    out += ",\"seed\":" + std::to_string(seed);
    out += ",\"trace\":" + std::to_string(trace ? 1 : 0);
    out += ",\"setup_s\":" + JsonArray(setup_s);
    out += ",\"generate_s\":" + JsonArray(generate_s);
    out += ",\"register_s\":" + JsonArray(register_s);
    out += ",\"op_ms\":" + JsonArray(op_ms);
    out += ",\"stats_ms\":" + JsonArray(stats_ms);
    out += ",\"traced_ms\":" + JsonArray(traced_ms);
    out += ",\"untraced_ms\":" + JsonArray(untraced_ms);
    out += ",\"socket_hit_ms\":" + JsonArray(socket_hit_ms);
    out += ",\"inproc_hit_ms\":" + JsonArray(inproc_hit_ms);
    out += ",\"sim_io_s\":" + JsonNumber(sim_io_s);
    out += ",\"sim_seeks\":" + JsonNumber(sim_seeks);
    out += ",\"sim_transfers\":" + JsonNumber(sim_transfers);
    out += ",\"io_ops\":" + std::to_string(io_ops);
    out += ",\"accuracy\":[";
    for (size_t i = 0; i < accuracy.size(); ++i) {
      if (i > 0) out += ',';
      out += "[" + JsonNumber(accuracy[i].first) + "," +
             JsonNumber(accuracy[i].second) + "]";
    }
    out += "],\"peak_rss_kb\":" + JsonNumber(peak_rss_kb);
    out += ",\"attempted\":" + std::to_string(attempted);
    out += ",\"failed\":" + std::to_string(failed);
    out += ",\"failures\":[";
    for (size_t i = 0; i < failures.size(); ++i) {
      if (i > 0) out += ',';
      out += JsonString(failures[i]);
    }
    out += "],\"digest\":" + JsonString(digest);
    out += ",\"digest_ops\":" + std::to_string(digest_ops);
    out += ",\"counters\":{";
    bool first = true;
    for (const auto& [name, value] : counters) {
      if (!first) out += ',';
      first = false;
      out += JsonString(name) + ":" + JsonNumber(value);
    }
    out += "}}";
    return out;
  }
};

// --- serving plumbing -------------------------------------------------------

/// A blocking loopback client: one request in flight at a time.
class Client {
 public:
  Client() = default;
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool Connect(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = wire::HostToNet16(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    return ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr)) == 0;
  }

  /// Sends one frame and reads the next response frame.
  bool RoundTrip(std::string_view frame, wire::FrameHeader* header,
                 std::string* payload) {
    size_t sent = 0;
    while (sent < frame.size()) {
      const ssize_t n = ::send(fd_, frame.data() + sent, frame.size() - sent,
                               MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      sent += static_cast<size_t>(n);
    }
    while (true) {
      size_t consumed = 0;
      std::string_view view;
      std::string error;
      const wire::FrameStatus status = wire::NextFrame(
          buffer_, wire::kDefaultMaxPayload, &consumed, header, &view, &error);
      if (status == wire::FrameStatus::kError) return false;
      if (status == wire::FrameStatus::kFrame) {
        payload->assign(view);
        buffer_.erase(0, consumed);
        return true;
      }
      char chunk[1 << 16];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return false;
      }
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// One shard on one worker thread behind an AsyncServer, plus the client.
struct Serving {
  std::unique_ptr<service::PredictionService> service;
  std::unique_ptr<service::AsyncServer> server;
  std::unique_ptr<Client> client;

  ~Serving() {
    client.reset();
    if (server != nullptr) {
      server->Stop();
      server->Wait();
    }
  }
};

/// Registers `datasets` (name, data), starts the server and connects.
/// Returns false (with *error) on any failure.
bool StartServing(std::vector<std::pair<std::string, data::Dataset>> datasets,
                  size_t result_cache, size_t workload_cache,
                  Serving* serving, std::string* error) {
  service::ServiceOptions options;
  options.num_shards = 1;
  options.total_threads = 1;
  options.result_cache_entries = result_cache;
  options.workload_cache_entries = workload_cache;
  serving->service = std::make_unique<service::PredictionService>(options);
  for (auto& [name, dataset] : datasets) {
    if (!serving->service->registry().Add(name, std::move(dataset), error)) {
      return false;
    }
  }
  serving->server = std::make_unique<service::AsyncServer>(
      serving->service.get(), service::AsyncServerOptions{});
  if (!serving->server->Start(error)) return false;
  serving->client = std::make_unique<Client>();
  if (!serving->client->Connect(serving->server->port())) {
    *error = "cannot connect to the server";
    return false;
  }
  return true;
}

/// The deterministic bytes of a predict response: the wire encoding with
/// every serving-metadata field cleared, per-query accesses included.
std::string CanonicalBytes(service::ServiceResponse response) {
  response.id = 0;
  response.shard = 0;
  response.latency_ms = 0.0;
  response.cache_hit = false;
  response.workload_cache_hit = false;
  response.served_io = io::IoStats{};
  return wire::EncodePredictResponse(response, /*per_query=*/true);
}

double IoSeconds(const io::IoStats& stats, size_t page_bytes) {
  io::DiskModel disk;
  disk.page_bytes = page_bytes;
  return stats.CostSeconds(disk);
}

/// Serves `request` in process by calling, in order, the public entry points
/// PredictionService's cold path calls, with a span around each layer call.
/// `*encoded` receives the wire encoding of the response.
service::ServiceResponse Replay(const data::Dataset& dataset,
                                const service::ServiceRequest& request,
                                common::ThreadPool* pool, Tracer* tracer,
                                uint64_t op, std::string* encoded) {
  service::ServiceResponse response;
  response.id = request.id;
  io::DiskModel disk;
  disk.page_bytes = request.page_bytes;
  std::optional<index::TreeTopology> topology;
  {
    SpanScope span(tracer, "index.topology", op);
    topology.emplace(
        index::TreeTopology::FromDisk(dataset.size(), dataset.dim(), disk));
  }
  const common::ExecutionContext ctx(pool, request.seed);
  common::Rng rng(request.seed);
  std::optional<workload::QueryWorkload> queries;
  {
    SpanScope span(tracer, "workload.create", op);
    queries.emplace(workload::QueryWorkload::Create(
        dataset, request.num_queries, request.k, &rng, ctx));
  }
  const uint64_t prediction_seed = request.seed + 1;
  if (request.method == "mini") {
    SpanScope span(tracer, "core.mini", op);
    core::MiniIndexParams params;
    params.sampling_fraction =
        std::min(1.0, static_cast<double>(request.memory) /
                          static_cast<double>(dataset.size()));
    params.seed = prediction_seed;
    response.result = core::PredictWithMiniIndex(dataset, *topology, *queries,
                                                 params, ctx);
  } else {
    std::optional<io::PagedFile> file;
    {
      SpanScope span(tracer, "io.copy", op);
      file.emplace(io::PagedFile::FromDataset(dataset, disk));
    }
    size_t h_upper = 0;
    {
      SpanScope span(tracer, "core.hupper", op);
      h_upper = core::ChooseHupper(*topology, request.memory);
    }
    if (request.method == "cutoff") {
      SpanScope span(tracer, "core.cutoff", op);
      core::CutoffParams params;
      params.memory_points = request.memory;
      params.h_upper = h_upper;
      params.seed = prediction_seed;
      response.result = core::PredictWithCutoffTree(&*file, *topology,
                                                    *queries, params, ctx);
    } else {
      SpanScope span(tracer, "core.resampled", op);
      core::ResampledParams params;
      params.memory_points = request.memory;
      params.h_upper = h_upper;
      params.seed = prediction_seed;
      response.result = core::PredictWithResampledTree(&*file, *topology,
                                                       *queries, params, ctx);
    }
  }
  response.ok = true;
  response.served_io = response.result.io;
  {
    SpanScope span(tracer, "wire.encode", op);
    *encoded = wire::EncodePredictResponse(response, request.per_query);
  }
  return response;
}

/// Average leaf accesses of `queries` measured on `tree`.
double MeasuredAccesses(const index::RTree& tree,
                        const workload::QueryRegions& queries) {
  return common::Mean(core::MeasureLeafAccesses(tree, queries, nullptr));
}

/// In-memory VAMSplit tree over `dataset` at the serving page size.
index::RTree ReferenceTree(const data::Dataset& dataset,
                           const index::TreeTopology& topology) {
  index::BulkLoadOptions options;
  options.topology = &topology;
  return index::BulkLoadInMemory(dataset, options);
}

/// One accuracy pair: a resampled prediction at `memory` sample points over
/// `dataset` and the leaf accesses the same workload measures on `tree`.
std::pair<double, double> ResampledAccuracy(
    const data::Dataset& dataset, const index::RTree& tree,
    const index::TreeTopology& topology, size_t memory, size_t queries,
    size_t k, uint64_t workload_seed, uint64_t sample_seed) {
  common::Rng rng(workload_seed);
  const workload::QueryWorkload workload =
      workload::QueryWorkload::Create(dataset, queries, k, &rng);
  io::PagedFile file = io::PagedFile::FromDataset(dataset, io::DiskModel());
  core::ResampledParams params;
  params.memory_points = memory;
  params.h_upper = core::ChooseHupper(topology, memory);
  params.seed = sample_seed;
  const core::PredictionResult predicted =
      core::PredictWithResampledTree(&file, topology, workload, params);
  return {predicted.avg_leaf_accesses, MeasuredAccesses(tree, workload)};
}

/// Sends one predict over the socket; fills *reply and returns the round
/// trip in ms, or a negative value (with a failure recorded) on error.
double SocketPredict(Client* client, const service::ServiceRequest& request,
                     wire::PredictReply* reply, RawResult* raw) {
  const std::string frame = wire::EncodePredictRequest(request);
  wire::FrameHeader header;
  std::string payload;
  const int64_t start = NowNs();
  const bool ok = client->RoundTrip(frame, &header, &payload);
  const double ms = MsBetween(start, NowNs());
  std::string error;
  if (!ok) {
    raw->Fail("connection lost on request " + std::to_string(request.id));
    return -1.0;
  }
  if (!wire::DecodePredictResponse(header, payload, reply, &error)) {
    raw->Fail("undecodable response: " + error);
    return -1.0;
  }
  if (reply->shed) {
    raw->Fail("request " + std::to_string(request.id) + " was shed");
    return -1.0;
  }
  if (!reply->response.ok) {
    raw->Fail("request " + std::to_string(request.id) +
              " failed: " + reply->response.error);
    return -1.0;
  }
  if (reply->response.id != request.id) {
    raw->Fail("response id mismatch on request " +
              std::to_string(request.id));
    return -1.0;
  }
  return ms;
}

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
};

/// True while the timed loop should issue another op.
class Deadline {
 public:
  Deadline(double seconds, size_t min_ops)
      : end_ns_(NowNs() + static_cast<int64_t>(seconds * 1e9)),
        min_ops_(min_ops) {}
  bool More(size_t ops_done) const {
    return ops_done < min_ops_ || NowNs() < end_ns_;
  }

 private:
  int64_t end_ns_;
  size_t min_ops_;
};

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

/// Runs `setup` (which appends one generate_s/register_s/setup_s sample)
/// kSetupReps times and keeps the last. The earlier repetitions run in
/// forked children, before this process has started any thread, so the
/// process that goes on to the timed loop carries no memory of them.
template <typename Setup>
bool RepeatSetup(RawResult* raw, std::string* error, const Setup& setup) {
  for (size_t rep = 0; rep + 1 < kSetupReps; ++rep) {
    int fds[2];
    if (::pipe(fds) != 0) {
      *error = "pipe failed";
      return false;
    }
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::close(fds[0]);
      RawResult child;
      std::string ignored;
      double times[3] = {-1.0, -1.0, -1.0};
      if (setup(&child, &ignored)) {
        times[0] = child.generate_s.back();
        times[1] = child.register_s.back();
        times[2] = child.setup_s.back();
      }
      const bool sent = ::write(fds[1], times, sizeof(times)) ==
                        static_cast<ssize_t>(sizeof(times));
      ::_exit(sent ? 0 : 1);  // no destructors: the child's server dies here
    }
    ::close(fds[1]);
    double times[3] = {-1.0, -1.0, -1.0};
    const bool got = pid > 0 && ::read(fds[0], times, sizeof(times)) ==
                                    static_cast<ssize_t>(sizeof(times));
    ::close(fds[0]);
    if (pid > 0) ::waitpid(pid, nullptr, 0);
    if (!got || times[2] < 0.0) {
      *error = "set-up repetition failed";
      return false;
    }
    raw->generate_s.push_back(times[0]);
    raw->register_s.push_back(times[1]);
    raw->setup_s.push_back(times[2]);
  }
  return setup(raw, error);
}

// --- cold-d60 --------------------------------------------------------------

data::Dataset MakeClustered(size_t n, size_t dim, uint64_t seed) {
  common::Rng rng(seed);
  data::ClusteredConfig config;
  config.num_points = n;
  config.dim = dim;
  return data::GenerateClustered(config, &rng);
}

std::string ColdName(size_t d) { return "d60-" + std::to_string(d); }

service::ServiceRequest ColdRequest(uint64_t run_seed, uint64_t i) {
  service::ServiceRequest request;
  request.id = i + 1;
  request.dataset = ColdName(i % kColdDatasets);
  request.method = "resampled";
  request.memory = kColdMemory;
  request.num_queries = kColdQueries;
  request.k = kColdK;
  request.seed = RequestSeed(run_seed, i);
  request.per_query = true;
  return request;
}

bool RunCold(const RunOptions& opt, RawResult* raw, Tracer* tracer,
             std::string* error) {
  std::optional<Serving> serving;
  const bool set_up = RepeatSetup(raw, error, [&](RawResult* r,
                                                 std::string* why) {
    serving.emplace();
    const int64_t start = NowNs();
    std::vector<std::pair<std::string, data::Dataset>> datasets;
    for (size_t d = 0; d < kColdDatasets; ++d) {
      datasets.emplace_back(
          ColdName(d), MakeClustered(kColdPoints, kColdDim,
                                     RequestSeed(opt.seed, 1000000 + d)));
    }
    r->generate_s.push_back(SecondsSince(start));
    const int64_t registered = NowNs();
    if (!StartServing(std::move(datasets), 64, 32, &*serving, why)) {
      return false;
    }
    r->register_s.push_back(SecondsSince(registered));
    r->setup_s.push_back(SecondsSince(start));
    return true;
  });
  if (!set_up) return false;
  const service::DatasetRegistry& registry = serving->service->registry();
  common::ThreadPool replay_pool(1);
  ResetPeakRss();

  Digest digest;
  std::vector<wire::PredictReply> accuracy_replies;
  const Deadline deadline(opt.seconds,
                          std::max(kColdPinOps, kColdAccuracyOps));
  for (uint64_t i = 0; deadline.More(i); ++i) {
    ++raw->attempted;
    const service::ServiceRequest request = ColdRequest(opt.seed, i);
    wire::PredictReply reply;
    const double ms =
        SocketPredict(serving->client.get(), request, &reply, raw);
    if (ms < 0.0) continue;
    if (reply.response.cache_hit) raw->Fail("fresh request hit the cache");
    const std::string served = CanonicalBytes(reply.response);
    if (i < kColdPinOps) {
      digest.Add(served);
      raw->digest_ops = i + 1;
    }
    if (i < kColdAccuracyOps) accuracy_replies.push_back(reply);
    raw->sim_io_s += IoSeconds(reply.response.served_io, request.page_bytes);
    raw->sim_seeks += static_cast<double>(reply.response.served_io.page_seeks);
    raw->sim_transfers +=
        static_cast<double>(reply.response.served_io.page_transfers);
    ++raw->io_ops;
    raw->op_ms.push_back(ms);
    if (!tracer->enabled()) continue;

    // Traced run: replay the same request layer by layer in process and
    // require the replayed bytes to equal the served ones.
    std::string encoded;
    const int64_t start = NowNs();
    service::ServiceResponse replayed;
    {
      SpanScope root(tracer, "op", i);
      replayed = Replay(*registry.Find(request.dataset), request,
                        &replay_pool, tracer, i, &encoded);
    }
    raw->traced_ms.push_back(MsBetween(start, NowNs()));
    raw->untraced_ms.push_back(ms);
    if (CanonicalBytes(replayed) != served) {
      raw->Fail("replay of request " + std::to_string(request.id) +
                " differs from the served bytes");
    }
  }
  raw->peak_rss_kb = PeakRssKb();
  raw->digest = Hex(digest.value());

  // Accuracy: the first kColdAccuracyOps requests, against an in-memory
  // VAMSplit tree of each request's dataset.
  const index::TreeTopology topology = index::TreeTopology::FromDisk(
      kColdPoints, kColdDim, io::DiskModel());
  std::vector<index::RTree> trees;
  for (size_t d = 0; d < kColdDatasets; ++d) {
    trees.push_back(ReferenceTree(*registry.Find(ColdName(d)), topology));
  }
  for (const wire::PredictReply& reply : accuracy_replies) {
    const uint64_t i = reply.response.id - 1;
    const service::ServiceRequest request = ColdRequest(opt.seed, i);
    common::Rng rng(request.seed);
    const workload::QueryWorkload queries = workload::QueryWorkload::Create(
        *registry.Find(request.dataset), request.num_queries, request.k,
        &rng);
    raw->accuracy.emplace_back(
        reply.response.result.avg_leaf_accesses,
        MeasuredAccesses(trees[i % kColdDatasets], queries));
  }
  return true;
}

// --- mixed-d16 -------------------------------------------------------------

struct MixedKey {
  size_t seed_index = 0;
  size_t method = 0;
  size_t memory = 0;
};

/// The mixed-d16 op stream: a stats op every kMixedStatsEvery ops, and
/// predicts dealt from shuffled decks of kMixedDeck keys. A deck holds each
/// workload seed in Zipf proportion (largest remainder), its (method,
/// budget) pairs taken in turn across decks. Ops depend only on the run
/// seed.
class MixedStream {
 public:
  explicit MixedStream(uint64_t run_seed)
      : run_seed_(run_seed), rng_(common::Rng(run_seed).Fork(0x6d69786564)) {
    std::vector<double> share(kMixedSeeds);
    double total = 0.0;
    for (size_t j = 0; j < kMixedSeeds; ++j) {
      share[j] = 1.0 / std::pow(static_cast<double>(j + 1), kMixedZipf);
      total += share[j];
    }
    std::vector<size_t> by_remainder(kMixedSeeds);
    size_t dealt = 0;
    for (size_t j = 0; j < kMixedSeeds; ++j) {
      share[j] *= static_cast<double>(kMixedDeck) / total;
      counts_[j] = static_cast<size_t>(share[j]);
      dealt += counts_[j];
      by_remainder[j] = j;
    }
    std::stable_sort(by_remainder.begin(), by_remainder.end(),
                     [&](size_t a, size_t b) {
                       return share[a] - std::floor(share[a]) >
                              share[b] - std::floor(share[b]);
                     });
    for (size_t r = 0; dealt < kMixedDeck; ++r, ++dealt) {
      ++counts_[by_remainder[r]];
    }
  }

  /// Next op: nullopt for a stats op, else the predict key.
  std::optional<MixedKey> Next() {
    const uint64_t i = next_++;
    if (i % kMixedStatsEvery == kMixedStatsEvery - 1) return std::nullopt;
    if (dealt_ == deck_.size()) Deal();
    return deck_[dealt_++];
  }

  service::ServiceRequest Request(const MixedKey& key, uint64_t id) const {
    service::ServiceRequest request;
    request.id = id;
    request.dataset = "d16";
    request.method = kMixedMethods[key.method];
    request.memory = kMixedMemories[key.memory];
    request.num_queries = kMixedQueries;
    request.k = kMixedK;
    request.seed = RequestSeed(run_seed_, 1000 + key.seed_index);
    request.per_query = true;
    return request;
  }

 private:
  static constexpr size_t kPairs =
      std::size(kMixedMethods) * std::size(kMixedMemories);

  void Deal() {
    deck_.clear();
    for (size_t j = 0; j < kMixedSeeds; ++j) {
      for (size_t c = 0; c < counts_[j]; ++c) {
        const size_t pair = turn_[j]++ % kPairs;
        deck_.push_back({j, pair / std::size(kMixedMemories),
                         pair % std::size(kMixedMemories)});
      }
    }
    rng_.Shuffle(&deck_);
    dealt_ = 0;
  }

  uint64_t run_seed_;
  common::Rng rng_;
  size_t counts_[kMixedSeeds] = {};
  size_t turn_[kMixedSeeds] = {};
  std::vector<MixedKey> deck_;
  size_t dealt_ = 0;
  uint64_t next_ = 0;
};

std::string KeyName(const service::ServiceRequest& r) {
  return r.method + "/" + std::to_string(r.memory) + "/" +
         Hex(r.seed);
}

/// Deterministic counters of a stats reply (timings excluded).
std::string StatsCounters(const service::ServiceMetrics& m) {
  return "S|" + std::to_string(m.requests) + "|" +
         std::to_string(m.errors) + "|" + std::to_string(m.result_hits) +
         "|" + std::to_string(m.result_misses) + "|" +
         std::to_string(m.result_evictions) + "|" +
         std::to_string(m.workload_hits) + "|" +
         std::to_string(m.workload_misses) + "|" +
         std::to_string(m.workload_evictions);
}

/// Per-key output check: every response for a key carries the bytes of the
/// first (the miss that computed it).
class HitEqualsMiss {
 public:
  bool Check(const std::string& key, const std::string& bytes) {
    const auto [it, inserted] = seen_.emplace(key, bytes);
    return inserted || it->second == bytes;
  }

 private:
  std::map<std::string, std::string> seen_;
};

/// How one mixed-d16 predict is served in a traced run (op index mod 3).
enum class Path { kSocket, kInProcess, kInProcessTraced };

bool RunMixed(const RunOptions& opt, RawResult* raw, Tracer* tracer,
              std::string* error) {
  std::optional<Serving> serving;
  HitEqualsMiss check;
  Digest digest;
  std::optional<MixedStream> stream;
  uint64_t next_id = 1;
  // The digest covers the warm-up and the first kMixedPinOps timed ops.
  bool pinning = true;
  auto pin = [&](std::string_view bytes) {
    if (pinning) digest.Add(bytes);
  };

  // One op over the socket; returns its ms (negative on failure).
  auto socket_op = [&](const std::optional<MixedKey>& key, bool* hit,
                       wire::PredictReply* reply) -> double {
    if (!key.has_value()) {
      wire::FrameHeader header;
      std::string payload;
      const int64_t start = NowNs();
      const bool ok = serving->client->RoundTrip(
          wire::EncodeStatsRequest(next_id++), &header, &payload);
      const double ms = MsBetween(start, NowNs());
      service::ServiceMetrics metrics;
      std::string why;
      if (!ok || !wire::DecodeStatsResponse(header, payload, &metrics, &why)) {
        raw->Fail("stats op failed: " + why);
        return -1.0;
      }
      pin(StatsCounters(metrics));
      return ms;
    }
    const service::ServiceRequest request = stream->Request(*key, next_id++);
    const double ms =
        SocketPredict(serving->client.get(), request, reply, raw);
    if (ms < 0.0) return ms;
    *hit = reply->response.cache_hit;
    const std::string bytes = CanonicalBytes(reply->response);
    if (!check.Check(KeyName(request), bytes)) {
      raw->Fail("hit bytes differ from miss bytes for " + KeyName(request));
    }
    pin("P|" + KeyName(request) + (*hit ? "|hit|" : "|miss|"));
    pin(bytes);
    return ms;
  };

  // Set-up includes the warm-up prefix of the op stream, which fills the
  // caches; its responses feed the digest and the hit-equals-miss check.
  const bool set_up = RepeatSetup(raw, error, [&](RawResult* r,
                                                 std::string* why) {
    serving.emplace();
    stream.emplace(opt.seed);
    const int64_t start = NowNs();
    std::vector<std::pair<std::string, data::Dataset>> datasets;
    datasets.emplace_back("d16",
                          MakeClustered(kMixedPoints, kMixedDim, opt.seed));
    r->generate_s.push_back(SecondsSince(start));
    const int64_t registered = NowNs();
    if (!StartServing(std::move(datasets), kMixedResultCache,
                      kMixedWorkloadCache, &*serving, why)) {
      return false;
    }
    r->register_s.push_back(SecondsSince(registered));
    for (size_t w = 0; w < kMixedWarmupOps; ++w) {
      bool hit = false;
      wire::PredictReply reply;
      if (socket_op(stream->Next(), &hit, &reply) < 0.0) {
        *why = "warm-up op failed";
        return false;
      }
    }
    r->setup_s.push_back(SecondsSince(start));
    return true;
  });
  if (!set_up) return false;
  const data::Dataset& dataset = *serving->service->registry().Find("d16");
  service::PredictionService* svc = serving->service.get();
  common::ThreadPool replay_pool(1);
  ResetPeakRss();
  const service::ServiceMetrics before = svc->Metrics();

  // In process: decode the request frame, serve on the shard, encode the
  // response — the server worker's calls, minus the socket. The clock and
  // the root span cover exactly those calls: the request frame is the
  // client's work and is encoded first, and the output checks run after.
  auto inproc_op = [&](const std::optional<MixedKey>& key, uint64_t op,
                       Tracer* t, bool* hit) -> double {
    if (!key.has_value()) {
      service::ServiceMetrics metrics;
      const int64_t start = NowNs();
      {
        SpanScope root(t, "op", op);
        SpanScope span(t, "service.metrics", op, root.start());
        metrics = svc->Metrics();
        span.Next("wire.encode_stats");
        const std::string encoded =
            wire::EncodeStatsResponse(next_id++, metrics);
      }
      const double ms = MsBetween(start, NowNs());
      pin(StatsCounters(metrics));
      return ms;
    }
    const std::string frame =
        wire::EncodePredictRequest(stream->Request(*key, next_id++));
    service::RequestLine line;
    service::ServiceResponse response;
    std::string why;
    bool decoded = false;
    const int64_t start = NowNs();
    {
      SpanScope root(t, "op", op);
      SpanScope span(t, "wire.decode", op, root.start());
      {
        wire::FrameHeader header;
        std::string_view payload;
        size_t consumed = 0;
        decoded = wire::NextFrame(frame, wire::kDefaultMaxPayload, &consumed,
                                  &header, &payload,
                                  &why) == wire::FrameStatus::kFrame &&
                  wire::DecodeRequest(header, payload, &line, &why);
      }
      if (decoded) {
        span.Next("service.serve");
        response = svc->ServeOnShard(0, line.predict);
        span.Rename(response.cache_hit ? "service.serve_hit"
                                        : "service.serve_miss");
        span.Next("wire.encode");
        const std::string encoded =
            wire::EncodePredictResponse(response, line.predict.per_query);
      }
    }
    const double ms = MsBetween(start, NowNs());
    if (!decoded) {
      raw->Fail("request did not decode: " + why);
      return -1.0;
    }
    if (!response.ok) {
      raw->Fail("in-process predict failed: " + response.error);
      return -1.0;
    }
    *hit = response.cache_hit;
    const std::string bytes = CanonicalBytes(response);
    if (!check.Check(KeyName(line.predict), bytes)) {
      raw->Fail("hit bytes differ from miss bytes for " +
                KeyName(line.predict));
    }
    pin("P|" + KeyName(line.predict) + (*hit ? "|hit|" : "|miss|"));
    pin(bytes);
    return ms;
  };

  Tracer off(false);
  const Deadline deadline(opt.seconds, kMixedPinOps);
  for (uint64_t i = 0; deadline.More(i); ++i) {
    ++raw->attempted;
    pinning = i < kMixedPinOps;
    const std::optional<MixedKey> key = stream->Next();
    const Path path = !tracer->enabled() ? Path::kSocket
                                         : static_cast<Path>(i % 3);
    bool hit = false;
    double ms = -1.0;
    wire::PredictReply reply;
    if (path == Path::kSocket) {
      ms = socket_op(key, &hit, &reply);
    } else {
      ms = inproc_op(key, i,
                     path == Path::kInProcessTraced ? tracer : &off, &hit);
    }
    if (i < kMixedPinOps) raw->digest_ops = i + 1;
    if (ms < 0.0) continue;
    if (!key.has_value()) {
      if (path == Path::kSocket) raw->stats_ms.push_back(ms);
      continue;
    }
    const service::ServiceRequest request = stream->Request(*key, 0);
    if (path == Path::kSocket) {
      raw->op_ms.push_back(ms);
      const io::IoStats& served = reply.response.served_io;
      raw->sim_io_s += IoSeconds(served, request.page_bytes);
      raw->sim_seeks += static_cast<double>(served.page_seeks);
      raw->sim_transfers += static_cast<double>(served.page_transfers);
      ++raw->io_ops;
      if (hit) raw->socket_hit_ms.push_back(ms);
    } else if (path == Path::kInProcess) {
      raw->untraced_ms.push_back(ms);
      if (hit) raw->inproc_hit_ms.push_back(ms);
    } else {
      raw->traced_ms.push_back(ms);
      if (!hit) {
        // Replay the miss layer by layer (its own root span) for the core
        // breakdown, and check it reproduces the served bytes.
        std::string encoded;
        service::ServiceResponse replayed;
        {
          SpanScope root(tracer, "replay", i);
          replayed =
              Replay(dataset, request, &replay_pool, tracer, i, &encoded);
        }
        if (!check.Check(KeyName(request), CanonicalBytes(replayed))) {
          raw->Fail("replay differs from the served bytes for " +
                    KeyName(request));
        }
      }
    }
  }
  raw->peak_rss_kb = PeakRssKb();
  raw->digest = Hex(digest.value());

  const service::ServiceMetrics after = svc->Metrics();
  const double hits =
      static_cast<double>(after.result_hits - before.result_hits);
  const double misses =
      static_cast<double>(after.result_misses - before.result_misses);
  const double whits =
      static_cast<double>(after.workload_hits - before.workload_hits);
  const double wmisses =
      static_cast<double>(after.workload_misses - before.workload_misses);
  raw->counters["service.result_hit_rate"] =
      hits + misses > 0 ? hits / (hits + misses) : 0.0;
  raw->counters["service.workload_hit_rate"] =
      whits + wmisses > 0 ? whits / (whits + wmisses) : 0.0;
  raw->counters["service.result_evictions"] =
      static_cast<double>(after.result_evictions - before.result_evictions);

  // Accuracy: the resampled keys of every workload seed, served again in
  // process, against an in-memory VAMSplit tree; then resampled predictions
  // on more datasets of the same shape, drawn for the check alone, so one
  // draw of cluster structure does not decide the figure.
  const index::TreeTopology topology = index::TreeTopology::FromDisk(
      dataset.size(), dataset.dim(), io::DiskModel());
  const index::RTree tree = ReferenceTree(dataset, topology);
  for (size_t j = 0; j < kMixedSeeds; ++j) {
    MixedKey key;
    key.seed_index = j;
    key.method = 2;  // resampled
    const service::ServiceRequest first = stream->Request(key, 0);
    common::Rng rng(first.seed);
    const double measured = MeasuredAccesses(
        tree, workload::QueryWorkload::Create(dataset, first.num_queries,
                                              first.k, &rng));
    for (key.memory = 0; key.memory < std::size(kMixedMemories);
         ++key.memory) {
      const service::ServiceResponse response =
          svc->ServeOnShard(0, stream->Request(key, 0));
      if (!response.ok) {
        raw->Fail("accuracy predict failed: " + response.error);
        continue;
      }
      raw->accuracy.emplace_back(response.result.avg_leaf_accesses, measured);
    }
  }
  for (uint64_t set = 1; set < kMixedAccuracySets; ++set) {
    const data::Dataset other = MakeClustered(
        kMixedPoints, kMixedDim, RequestSeed(opt.seed, 4000000 + set));
    const index::RTree other_tree = ReferenceTree(other, topology);
    for (uint64_t j = 0; j < kMixedAccuracyOps; ++j) {
      const uint64_t id = 3000000 + 4 * (set * kMixedAccuracyOps + j);
      for (size_t m = 0; m < std::size(kMixedMemories); ++m) {
        raw->accuracy.push_back(ResampledAccuracy(
            other, other_tree, topology, kMixedMemories[m], kMixedQueries,
            kMixedK, RequestSeed(opt.seed, id),
            RequestSeed(opt.seed, id + 1 + m)));
      }
    }
  }
  return true;
}

// --- ooc-build -------------------------------------------------------------

bool RunBuild(const RunOptions& opt, RawResult* raw, Tracer* tracer,
              std::string* error) {
  std::optional<data::Dataset> dataset;
  std::optional<common::ThreadPool> pool;
  const bool set_up = RepeatSetup(raw, error, [&](RawResult* r,
                                                 std::string*) {
    const int64_t start = NowNs();
    dataset.emplace(MakeClustered(kBuildPoints, kBuildDim, opt.seed));
    r->generate_s.push_back(SecondsSince(start));
    pool.emplace(kBuildThreads);
    r->register_s.push_back(0.0);
    r->setup_s.push_back(SecondsSince(start));
    return true;
  });
  if (!set_up) return false;
  const common::ExecutionContext ctx(&*pool);
  const io::DiskModel disk;
  ResetPeakRss();
  const index::TreeTopology topology =
      index::TreeTopology::FromDisk(kBuildPoints, kBuildDim, disk);
  index::ExternalBuildOptions options;
  options.topology = &topology;
  options.memory_points = kBuildPoints / 10;
  options.split_strategy = index::SplitStrategy::kAdaptiveSample;
  options.exec = &ctx;

  std::optional<uint64_t> layout;
  std::optional<index::RTree> first_tree;
  double data_passes = 0.0;
  double pages_read = 0.0;
  double overlap = 0.0;
  index::ExternalBuildIo phases_total;
  const Deadline deadline(opt.seconds, kBuildPinOps);
  for (uint64_t i = 0; deadline.More(i); ++i) {
    ++raw->attempted;
    // Traced runs alternate: odd builds carry spans, even builds none.
    const bool traced = tracer->enabled() && i % 2 == 1;
    Tracer off(false);
    Tracer* t = traced ? tracer : &off;
    std::optional<io::PagedFile> file;
    std::optional<index::ExternalBuildResult> result;
    const int64_t op_start = NowNs();
    int64_t build_start = 0;
    {
      SpanScope root(t, "op", i);
      {
        SpanScope span(t, "io.copy", i);
        file.emplace(io::PagedFile::FromDataset(*dataset, disk));
      }
      SpanScope span(t, "index.build", i);
      build_start = NowNs();
      result.emplace(index::BuildOnDisk(&*file, options));
    }
    const int64_t end = NowNs();
    if (tracer->enabled()) {
      (traced ? raw->traced_ms : raw->untraced_ms)
          .push_back(MsBetween(op_start, end));
    }
    raw->op_ms.push_back(MsBetween(build_start, end));
    const uint64_t digest = index::TreeLayoutDigest(result->tree);
    if (!layout.has_value()) {
      layout = digest;
    } else if (*layout != digest) {
      raw->Fail("build " + std::to_string(i) + " layout digest " +
                Hex(digest) + " differs from the first build's " +
                Hex(*layout));
    }
    if (i < kBuildPinOps) raw->digest_ops = i + 1;
    raw->sim_io_s += result->io.CostSeconds(disk);
    raw->sim_seeks += static_cast<double>(result->io.page_seeks);
    raw->sim_transfers += static_cast<double>(result->io.page_transfers);
    ++raw->io_ops;
    data_passes += static_cast<double>(result->io.page_transfers) /
                   static_cast<double>(file->num_pages());
    pages_read += static_cast<double>(result->io.page_transfers);
    overlap += result->overlap_ratio;
    phases_total.sample += result->phases.sample;
    phases_total.partition += result->phases.partition;
    phases_total.finish += result->phases.finish;
    phases_total.directory += result->phases.directory;
    if (!first_tree.has_value()) first_tree.emplace(std::move(result->tree));
  }
  raw->peak_rss_kb = PeakRssKb();
  raw->digest = Hex(layout.value_or(0));
  const double builds = static_cast<double>(raw->io_ops);
  raw->counters["index.data_passes"] = data_passes / builds;
  raw->counters["index.pages_read"] = pages_read / builds;
  raw->counters["io.readahead_overlap"] = overlap / builds;
  raw->counters["index.io_sample_s"] =
      phases_total.sample.CostSeconds(disk) / builds;
  raw->counters["index.io_partition_s"] =
      phases_total.partition.CostSeconds(disk) / builds;
  raw->counters["index.io_finish_s"] =
      phases_total.finish.CostSeconds(disk) / builds;
  raw->counters["index.io_directory_s"] =
      phases_total.directory.CostSeconds(disk) / builds;

  // Accuracy: resampled predictions at the build's window M, against the
  // tree the build produced — the timed dataset's, and that of a few more
  // datasets built the same way, so one draw of cluster structure does not
  // decide the figure.
  for (uint64_t set = 0; set < kBuildAccuracySets; ++set) {
    std::optional<data::Dataset> other;
    std::optional<index::RTree> other_tree;
    if (set > 0) {
      other.emplace(MakeClustered(kBuildPoints, kBuildDim,
                                  RequestSeed(opt.seed, 2000000 + set)));
      io::PagedFile file = io::PagedFile::FromDataset(*other, disk);
      other_tree.emplace(std::move(index::BuildOnDisk(&file, options).tree));
    }
    const data::Dataset& data = set > 0 ? *other : *dataset;
    const index::RTree& tree = set > 0 ? *other_tree : *first_tree;
    for (uint64_t j = 0; j < kBuildAccuracyOps; ++j) {
      const uint64_t id = 2 * (set * kBuildAccuracyOps + j);
      raw->accuracy.push_back(ResampledAccuracy(
          data, tree, topology, options.memory_points, kBuildQueries, kBuildK,
          RequestSeed(opt.seed, id), RequestSeed(opt.seed, id + 1)));
    }
  }
  return true;
}

// --- entry -----------------------------------------------------------------

int Usage() {
  std::fprintf(stderr,
               "usage: hdidx_perfbench --workload cold-d60|mixed-d16|"
               "ooc-build --seed N --seconds S [--trace 0|1] "
               "[--spans PATH]\n"
               "       hdidx_perfbench --dump-ops N --seed N\n");
  return 2;
}

bool ParseUint(const char* text, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') {
    return false;
  }
  *out = v;
  return true;
}

int Main(int argc, char** argv) {
  RunOptions opt;
  uint64_t dump_ops = 0;
  for (int a = 1; a < argc; ++a) {
    const std::string flag = argv[a];
    if (a + 1 >= argc) return Usage();
    const char* value = argv[++a];
    uint64_t n = 0;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--spans") {
      opt.spans_path = value;
    } else if (!ParseUint(value, &n)) {
      return Usage();
    } else if (flag == "--seed") {
      opt.seed = n;
    } else if (flag == "--seconds") {
      opt.seconds = static_cast<double>(n);
    } else if (flag == "--trace") {
      if (n > 1) return Usage();
      opt.trace = n == 1;
    } else if (flag == "--dump-ops") {
      dump_ops = n;
    } else {
      return Usage();
    }
  }

  if (dump_ops > 0) {
    MixedStream stream(opt.seed);
    for (uint64_t i = 0; i < dump_ops; ++i) {
      const std::optional<MixedKey> key = stream.Next();
      std::printf("%s\n", key.has_value()
                              ? KeyName(stream.Request(*key, 0)).c_str()
                              : "stats");
    }
    return 0;
  }

  RawResult raw;
  Tracer tracer(opt.trace);
  std::string error;
  // Every workload, the ooc-build read-ahead thread included, on one CPU.
  if (!PinToOneCpu()) {
    std::fprintf(stderr, "hdidx_perfbench: cannot pin to one CPU\n");
    return 1;
  }
  bool ok = false;
  if (opt.workload == "cold-d60") {
    ok = RunCold(opt, &raw, &tracer, &error);
  } else if (opt.workload == "mixed-d16") {
    ok = RunMixed(opt, &raw, &tracer, &error);
  } else if (opt.workload == "ooc-build") {
    ok = RunBuild(opt, &raw, &tracer, &error);
  } else {
    return Usage();
  }
  if (!ok) {
    std::fprintf(stderr, "hdidx_perfbench: %s: %s\n", opt.workload.c_str(),
                 error.c_str());
    return 1;
  }
  if (opt.trace && !opt.spans_path.empty() && !tracer.Write(opt.spans_path)) {
    std::fprintf(stderr, "hdidx_perfbench: cannot write %s\n",
                 opt.spans_path.c_str());
    return 1;
  }
  std::printf("%s\n", raw.ToJson(opt.workload, opt.seed, opt.trace).c_str());
  return 0;
}

}  // namespace
}  // namespace hdidx::perfbench

int main(int argc, char** argv) { return hdidx::perfbench::Main(argc, argv); }
