// hdidx_client: batch client for hdidx_serve.
//
// Spawns the server (--serve "cmd"), reads the ready line to learn the
// bound TCP port, then runs a session over the binary wire protocol
// (src/service/wire.h): load, a pipelined predict batch (all request frames
// written before any response is read), an optional warm repeat of the same
// batch that must be served from the mini-index cache, stats, shutdown. The
// shutdown is sent even when an earlier exchange failed, so the client
// never waits on a server it did not stop.
// Exits 0 only on a fully healthy session (all predictions ok, warm batch
// hit the cache, clean shutdown), so CI can use it as a one-command smoke
// test of the service.
//
// Usage:
//   hdidx_client --serve "./hdidx_serve --shards 2" --data data.hdx
//                [--dataset d] [--method resampled] [--memory 10000]
//                [--k 10] [--queries 100] [--requests 4] [--seed 1]
//                [--repeat true]
//
// --repeat follows the tools' boolean rule: "false" or "0" skips the warm
// pass.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>

#include "flags.h"
#include "service/protocol.h"
#include "service/wire.h"

namespace {

namespace wire = hdidx::service::wire;

constexpr char kUsage[] =
    "usage: hdidx_client --serve CMD --data FILE [--dataset NAME]\n"
    "                    [--method mini|cutoff|resampled] [--memory M]\n"
    "                    [--k K] [--queries Q] [--requests R] [--seed S]\n"
    "                    [--repeat BOOL]\n";

struct SessionSpec {
  std::string dataset;
  std::string data_path;
  std::string method;
  uint64_t memory = 0;
  uint64_t k = 0;
  uint64_t queries = 0;
  uint64_t requests = 0;
  uint64_t seed = 0;
  bool repeat = true;
};

/// Session health tally; the summary line and the exit status derive from
/// it.
struct SessionTally {
  bool load_ok = false;
  bool shutdown_ok = false;
  uint64_t predict_ok = 0;
  uint64_t predict_failed = 0;
  uint64_t cache_hits = 0;
};

/// Spawns `command` via /bin/sh with its stdout piped back; returns false
/// on fork/pipe failure.
bool Spawn(const std::string& command, pid_t* pid, FILE** from_child) {
  int out_pipe[2];  // child -> parent
  if (pipe(out_pipe) != 0) return false;
  *pid = fork();
  if (*pid < 0) return false;
  if (*pid == 0) {
    dup2(out_pipe[1], STDOUT_FILENO);
    close(out_pipe[0]);
    close(out_pipe[1]);
    execl("/bin/sh", "sh", "-c", command.c_str(), nullptr);
    std::perror("exec");
    _exit(127);
  }
  close(out_pipe[1]);
  *from_child = fdopen(out_pipe[0], "r");
  return *from_child != nullptr;
}

/// Reads lines from the server's stdout until the ready line and parses
/// the bound port out of it. Returns 0 on failure.
uint16_t ReadReadyPort(FILE* from_child) {
  char buffer[1 << 14];
  while (std::fgets(buffer, sizeof(buffer), from_child) != nullptr) {
    const std::string line(buffer);
    if (line.find("\"op\":\"ready\"") == std::string::npos) continue;
    const size_t pos = line.find("\"port\":");
    if (pos == std::string::npos) {
      std::fprintf(stderr, "error: ready line has no port: %s", line.c_str());
      return 0;
    }
    const unsigned long port =
        std::strtoul(line.c_str() + pos + 7, nullptr, 10);
    if (port == 0 || port > 65535) {
      std::fprintf(stderr, "error: bad port in ready line: %s", line.c_str());
      return 0;
    }
    return static_cast<uint16_t>(port);
  }
  std::fprintf(stderr, "error: server exited before ready line\n");
  return 0;
}

int ConnectLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = wire::HostToNet16(port);
  if (::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

bool SendAll(int fd, std::string_view bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    // MSG_NOSIGNAL: a server that closed mid-pipeline is an EPIPE (and a
    // clean "transport error" exit), not a SIGPIPE kill.
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

/// Blocks until one whole frame is extracted from the connection. The
/// payload is copied out so `*buffer` can keep accumulating.
bool ReadFrame(int fd, std::string* buffer, wire::FrameHeader* header,
               std::string* payload, std::string* error) {
  while (true) {
    size_t consumed = 0;
    std::string_view view;
    const wire::FrameStatus status = wire::NextFrame(
        *buffer, wire::kDefaultMaxPayload, &consumed, header, &view, error);
    if (status == wire::FrameStatus::kError) return false;
    if (status == wire::FrameStatus::kFrame) {
      payload->assign(view);
      buffer->erase(0, consumed);
      return true;
    }
    char chunk[1 << 16];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      *error = std::string("recv: ") + std::strerror(errno);
      return false;
    }
    if (n == 0) {
      *error = "server closed the connection mid-frame";
      return false;
    }
    buffer->append(chunk, static_cast<size_t>(n));
  }
}

/// Reads `count` predict responses off the socket (ids may arrive in any
/// order across shards) and tallies them. kError frames count as failures
/// but do not abort the session — the server keeps the connection open.
bool TallyPredictReplies(int fd, std::string* buffer, uint64_t count,
                         SessionTally* tally) {
  for (uint64_t i = 0; i < count; ++i) {
    wire::FrameHeader header;
    std::string payload;
    std::string error;
    if (!ReadFrame(fd, buffer, &header, &payload, &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return false;
    }
    if (header.op == wire::WireOp::kError) {
      std::string message;
      wire::DecodeErrorFrame(header, payload, &message, &error);
      std::fprintf(stderr, "predict failed: %s\n", message.c_str());
      ++tally->predict_failed;
      continue;
    }
    wire::PredictReply reply;
    if (!wire::DecodePredictResponse(header, payload, &reply, &error)) {
      std::fprintf(stderr, "error: bad predict response: %s\n", error.c_str());
      return false;
    }
    if (reply.shed) {
      std::fprintf(stderr,
                   "predict shed by shard %llu (retry after %u ms)\n",
                   static_cast<unsigned long long>(reply.response.shard),
                   reply.retry_after_ms);
      ++tally->predict_failed;
      continue;
    }
    if (reply.response.ok) {
      ++tally->predict_ok;
    } else {
      ++tally->predict_failed;
      std::fprintf(stderr, "predict failed: %s\n",
                   reply.response.error.c_str());
    }
    if (reply.response.cache_hit) ++tally->cache_hits;
  }
  return true;
}

/// Sends a shutdown frame and reads up to its acknowledgment, skipping any
/// responses still owed before it. Returns false when the connection fails
/// first or the acknowledgment is malformed.
bool Shutdown(int fd, std::string* buffer) {
  wire::FrameHeader header;
  std::string payload;
  std::string error;
  if (SendAll(fd, wire::EncodeShutdownRequest(3))) {
    while (ReadFrame(fd, buffer, &header, &payload, &error)) {
      if (header.op != wire::WireOp::kShutdown) continue;
      uint64_t served = 0;
      return wire::DecodeShutdownResponse(header, payload, &served, &error);
    }
  }
  std::fprintf(stderr, "error: shutdown exchange failed: %s\n",
               error.c_str());
  return false;
}

/// The session up to shutdown: load, pipelined cold batch, optional warm
/// batch, stats. Returns false on transport failure (the tally still
/// decides overall health). `*buffer` keeps the bytes read past the last
/// frame.
bool RunWireSession(int fd, const SessionSpec& spec, SessionTally* tally,
                    std::string* buffer_out) {
  std::string& buffer = *buffer_out;
  wire::FrameHeader header;
  std::string payload;
  std::string error;

  if (!SendAll(fd, wire::EncodeLoadRequest(1, spec.dataset, spec.data_path)) ||
      !ReadFrame(fd, &buffer, &header, &payload, &error)) {
    std::fprintf(stderr, "error: load exchange failed: %s\n", error.c_str());
    return false;
  }
  wire::LoadResult load;
  if (header.op != wire::WireOp::kLoad ||
      !wire::DecodeLoadResponse(header, payload, &load, &error)) {
    std::string message;
    if (header.op == wire::WireOp::kError &&
        wire::DecodeErrorFrame(header, payload, &message, &error)) {
      error = message;
    }
    std::fprintf(stderr, "error: bad load response: %s\n", error.c_str());
    return false;
  }
  tally->load_ok = load.ok;
  if (!load.ok) std::fprintf(stderr, "load failed: %s\n", load.error.c_str());

  // Pipelined batches: write every predict frame of a pass, then drain the
  // same number of responses.
  const auto send_batch = [&](uint64_t id_base) {
    std::string frames;
    for (uint64_t i = 0; i < spec.requests; ++i) {
      hdidx::service::ServiceRequest request;
      request.id = id_base + i;
      request.dataset = spec.dataset;
      request.method = spec.method;
      request.memory = spec.memory;
      request.k = spec.k;
      request.num_queries = spec.queries;
      request.seed = spec.seed + i;
      frames += wire::EncodePredictRequest(request);
    }
    return SendAll(fd, frames);
  };
  if (!send_batch(1000) ||
      !TallyPredictReplies(fd, &buffer, spec.requests, tally)) {
    return false;
  }
  if (spec.repeat) {
    if (!send_batch(2000) ||
        !TallyPredictReplies(fd, &buffer, spec.requests, tally)) {
      return false;
    }
  }

  if (!SendAll(fd, wire::EncodeStatsRequest(2)) ||
      !ReadFrame(fd, &buffer, &header, &payload, &error)) {
    std::fprintf(stderr, "error: stats exchange failed: %s\n", error.c_str());
    return false;
  }
  hdidx::service::ServiceMetrics metrics;
  if (header.op != wire::WireOp::kStats ||
      !wire::DecodeStatsResponse(header, payload, &metrics, &error)) {
    std::fprintf(stderr, "error: bad stats response: %s\n", error.c_str());
    return false;
  }
  std::printf("stats: %s\n",
              hdidx::service::SerializeMetrics(metrics).c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hdidx;
  const tools::Flags flags(argc, argv,
                           {"serve", "data", "dataset", "method", "memory",
                            "k", "queries", "requests", "seed", "repeat"});

  SessionSpec spec;
  spec.dataset = flags.GetString("dataset", "d");
  spec.data_path = flags.GetString("data", "");
  spec.method = flags.GetString("method", "resampled");
  spec.memory = flags.GetUint("memory", 10000);
  spec.k = flags.GetUint("k", 10);
  spec.queries = flags.GetUint("queries", 100);
  spec.requests = flags.GetUint("requests", 4);
  spec.seed = flags.GetUint("seed", 1);
  spec.repeat = flags.GetBool("repeat", true);
  const std::string serve_cmd = flags.GetString("serve", "");
  flags.ExitOnError(kUsage);

  if (spec.data_path.empty() || serve_cmd.empty()) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }

  pid_t pid = -1;
  FILE* from_child = nullptr;
  if (!Spawn(serve_cmd, &pid, &from_child)) {
    std::fprintf(stderr, "error: cannot spawn '%s'\n", serve_cmd.c_str());
    return 1;
  }

  SessionTally tally;
  const uint16_t port = ReadReadyPort(from_child);
  const int fd = port != 0 ? ConnectLoopback(port) : -1;
  if (fd < 0 && port != 0) {
    std::fprintf(stderr, "error: cannot connect to 127.0.0.1:%u\n",
                 static_cast<unsigned>(port));
  }
  std::string buffer;
  const bool transport_ok =
      fd >= 0 && RunWireSession(fd, spec, &tally, &buffer);
  // Shut down whether or not the session got through: a server that is
  // never told to stop never exits, and waiting for it would hang.
  tally.shutdown_ok = fd >= 0 && Shutdown(fd, &buffer);
  if (fd >= 0) close(fd);
  if (!tally.shutdown_ok) {
    // The connection cannot carry the shutdown: signal the server instead,
    // and wait only for the spawned process, not for the server's stdout
    // (a server started under `sh -c` may outlive a signalled shell).
    kill(pid, SIGTERM);
    std::fclose(from_child);
    waitpid(pid, nullptr, 0);
    std::fprintf(stderr, "error: no clean shutdown; server signalled\n");
    return 1;
  }
  // Drain anything else the server printed so it never blocks on a full
  // stdout pipe before exiting.
  char sink[1 << 12];
  while (std::fgets(sink, sizeof(sink), from_child) != nullptr) {
  }
  std::fclose(from_child);

  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "error: server exited uncleanly (status %d)\n",
                 status);
    return 1;
  }

  const uint64_t expected = spec.requests * (spec.repeat ? 2 : 1);
  std::printf("session: %llu/%llu predictions ok, %llu cache hits, "
              "load %s, shutdown %s\n",
              static_cast<unsigned long long>(tally.predict_ok),
              static_cast<unsigned long long>(expected),
              static_cast<unsigned long long>(tally.cache_hits),
              tally.load_ok ? "ok" : "FAILED",
              tally.shutdown_ok ? "clean" : "MISSING");

  const bool healthy = transport_ok && tally.load_ok && tally.shutdown_ok &&
                       tally.predict_failed == 0 &&
                       tally.predict_ok == expected &&
                       (!spec.repeat || tally.cache_hits >= spec.requests);
  if (!healthy) {
    std::fprintf(stderr, "error: unhealthy session\n");
    return 1;
  }
  return 0;
}
