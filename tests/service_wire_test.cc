#include "service/wire.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "gtest/gtest.h"
#include "service/protocol.h"
#include "test_util.h"

namespace hdidx::service::wire {
namespace {

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const char c : bytes) {
    const auto b = static_cast<uint8_t>(c);
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

/// Runs the full extract-and-decode path a server/client would on `bytes`
/// and returns the status. Exists so the fuzz tests exercise every decoder
/// on whatever frames fall out of mutated input — the assertion is simply
/// that none of this crashes or over-reads.
FrameStatus ExtractAndDecode(std::string_view bytes) {
  size_t consumed = 0;
  FrameHeader header;
  std::string_view payload;
  std::string error;
  const FrameStatus status = NextFrame(bytes, kDefaultMaxPayload, &consumed,
                                       &header, &payload, &error);
  if (status != FrameStatus::kFrame) return status;
  EXPECT_LE(consumed, bytes.size());
  RequestLine request;
  DecodeRequest(header, payload, &request, &error);
  PredictReply reply;
  DecodePredictResponse(header, payload, &reply, &error);
  LoadResult load;
  DecodeLoadResponse(header, payload, &load, &error);
  ServiceMetrics metrics;
  DecodeStatsResponse(header, payload, &metrics, &error);
  uint64_t served = 0;
  DecodeShutdownResponse(header, payload, &served, &error);
  std::string message;
  DecodeErrorFrame(header, payload, &message, &error);
  std::string dataset;
  PeekPredictDataset(payload, &dataset);
  return status;
}

TEST(WireGoldenTest, FrameBytesArePinned) {
  // Byte-exact fixtures: any change to these is a wire-format break and
  // must bump kVersion. Header layout: magic "HD", version, op, flags,
  // reserved, u32 length, u64 id — all little-endian.
  EXPECT_EQ(Hex(EncodeStatsRequest(7)),
            "4844"              // magic 0x4448 -> "HD" on the wire
            "01"                // version 1
            "02"                // op kStats
            "0000"              // flags
            "0000"              // reserved
            "00000000"          // length 0
            "0700000000000000"  // id 7
  );
  EXPECT_EQ(Hex(EncodeShutdownRequest(0x0102030405060708ull)),
            "484401030000000000000000"
            "0807060504030201");

  ServiceRequest predict;
  predict.id = 9;
  predict.dataset = "d";
  predict.method = "mini";
  predict.memory = 1000;
  predict.num_queries = 25;
  predict.k = 5;
  predict.seed = 3;
  predict.page_bytes = 1024;
  predict.per_query = true;
  EXPECT_EQ(Hex(EncodePredictRequest(predict)),
            "4844"              // magic
            "01"                // version
            "00"                // op kPredict
            "0400"              // flags: kFlagPerQuery
            "0000"              // reserved
            "31000000"          // length 49: 3 + 6 string bytes + 5 u64s
            "0900000000000000"  // id 9
            "010064"            // dataset: len 1, "d"
            "04006d696e69"      // method: len 4, "mini"
            "e803000000000000"  // memory 1000
            "1900000000000000"  // num_queries 25
            "0500000000000000"  // k 5
            "0300000000000000"  // seed 3
            "0004000000000000"  // page_bytes 1024
  );

  EXPECT_EQ(Hex(EncodeLoadRequest(1, "d", "/x.hdx")),
            "4844"
            "01"
            "01"                // op kLoad
            "0000"
            "0000"
            "0b000000"          // length 11: two u16-prefixed strings
            "0100000000000000"  // id 1
            "010064"            // dataset: len 1, "d"
            "06002f782e686478"  // path: len 6, "/x.hdx"
  );

  EXPECT_EQ(Hex(EncodeErrorFrame(0, "bad")),
            "4844"
            "01"
            "04"                // op kError
            "0100"              // flags: kFlagResponse
            "0000"
            "05000000"          // length: u16 prefix + 3 bytes
            "0000000000000000"
            "0300626164");

  EXPECT_EQ(Hex(EncodeShedResponse(42, 1, 50)),
            "4844"
            "01"
            "00"                // op kPredict
            "2100"              // flags: kFlagResponse | kFlagShed
            "0000"
            "08000000"          // length 8
            "2a00000000000000"  // id 42
            "01000000"          // shard 1
            "32000000"          // retry_after_ms 50
  );
}

TEST(WireRoundTripTest, RequestsDecodeThroughSharedRequestLine) {
  ServiceRequest predict;
  predict.id = 77;
  predict.dataset = "alpha";
  predict.method = "resampled";
  predict.memory = 4096;
  predict.num_queries = 50;
  predict.k = 10;
  predict.seed = 12345;
  predict.page_bytes = 8192;
  predict.per_query = true;

  for (const std::string& frame :
       {EncodePredictRequest(predict), EncodeLoadRequest(5, "beta", "/b.hdx"),
        EncodeStatsRequest(6), EncodeShutdownRequest(7)}) {
    size_t consumed = 0;
    FrameHeader header;
    std::string_view payload;
    std::string error;
    ASSERT_EQ(NextFrame(frame, kDefaultMaxPayload, &consumed, &header,
                        &payload, &error),
              FrameStatus::kFrame)
        << error;
    EXPECT_EQ(consumed, frame.size());
    RequestLine line;
    ASSERT_TRUE(DecodeRequest(header, payload, &line, &error)) << error;
    switch (line.op) {
      case RequestLine::Op::kPredict:
        EXPECT_EQ(line.predict.id, 77u);
        EXPECT_EQ(line.predict.dataset, "alpha");
        EXPECT_EQ(line.predict.method, "resampled");
        EXPECT_EQ(line.predict.memory, 4096u);
        EXPECT_EQ(line.predict.num_queries, 50u);
        EXPECT_EQ(line.predict.k, 10u);
        EXPECT_EQ(line.predict.seed, 12345u);
        EXPECT_EQ(line.predict.page_bytes, 8192u);
        EXPECT_TRUE(line.predict.per_query);
        break;
      case RequestLine::Op::kLoad:
        EXPECT_EQ(line.load_dataset, "beta");
        EXPECT_EQ(line.load_path, "/b.hdx");
        break;
      case RequestLine::Op::kStats:
      case RequestLine::Op::kShutdown:
        break;
    }
  }
}

TEST(WireRoundTripTest, PredictResponseCarriesEveryResultField) {
  ServiceResponse response;
  response.id = 31;
  response.ok = true;
  response.shard = 2;
  response.cache_hit = true;
  response.workload_cache_hit = true;
  response.latency_ms = 1.25;
  response.served_io.page_seeks = 11;
  response.served_io.page_transfers = 23;
  response.result.avg_leaf_accesses = 3.7500000000000004;  // not exactly
  response.result.per_query_accesses = {1.0, 2.5, 0.0, 7.25};
  response.result.num_predicted_leaves = 9;
  response.result.h_upper = 4;
  response.result.sigma_upper = 1.5;
  response.result.sigma_lower = 0.75;
  response.result.io.page_seeks = 100;
  response.result.io.page_transfers = 200;

  for (const bool per_query : {true, false}) {
    const std::string frame = EncodePredictResponse(response, per_query);
    size_t consumed = 0;
    FrameHeader header;
    std::string_view payload;
    std::string error;
    ASSERT_EQ(NextFrame(frame, kDefaultMaxPayload, &consumed, &header,
                        &payload, &error),
              FrameStatus::kFrame);
    PredictReply reply;
    ASSERT_TRUE(DecodePredictResponse(header, payload, &reply, &error))
        << error;
    EXPECT_FALSE(reply.shed);
    EXPECT_EQ(reply.per_query, per_query);
    EXPECT_TRUE(reply.response.ok);
    EXPECT_TRUE(reply.response.cache_hit);
    EXPECT_TRUE(reply.response.workload_cache_hit);
    EXPECT_EQ(reply.response.id, 31u);
    EXPECT_EQ(reply.response.shard, 2u);
    EXPECT_EQ(reply.response.served_io.page_seeks, 11u);
    EXPECT_EQ(reply.response.served_io.page_transfers, 23u);
    // The determinism contract, stated as bytes: the canonical wire bytes
    // of the decoded response equal those of the response the server
    // encoded.
    EXPECT_EQ(testing::CanonicalBytes(reply.response, per_query),
              testing::CanonicalBytes(response, per_query));
    if (per_query) {
      EXPECT_EQ(reply.response.result.per_query_accesses,
                response.result.per_query_accesses);
    } else {
      // The count still round-trips (zero-filled) so the canonical bytes,
      // which carry it, are identical.
      EXPECT_EQ(reply.response.result.per_query_accesses.size(),
                response.result.per_query_accesses.size());
    }
  }
}

TEST(WireRoundTripTest, LargestPerQueryResponseFitsOneFrame) {
  // kMaxPerQueryCount is exact: 92 fixed payload bytes plus 8 per query
  // fit kDefaultMaxPayload, and one more query would not.
  ServiceResponse response;
  response.ok = true;
  response.result.per_query_accesses.assign(kMaxPerQueryCount, 1.0);
  const std::string frame = EncodePredictResponse(response, true);
  const size_t payload = frame.size() - kHeaderBytes;
  EXPECT_EQ(payload, 92 + sizeof(double) * kMaxPerQueryCount);
  EXPECT_LE(payload, kDefaultMaxPayload);
  EXPECT_GT(payload + sizeof(double), kDefaultMaxPayload);
}

TEST(WireRoundTripTest, ErrorShedLoadStatsShutdownResponses) {
  std::string error;
  size_t consumed = 0;
  FrameHeader header;
  std::string_view payload;

  // Predict error response (ok=false): message round-trips.
  ServiceResponse failed;
  failed.id = 8;
  failed.ok = false;
  failed.shard = 1;
  failed.error = "unknown dataset 'nope'";
  const std::string failed_frame = EncodePredictResponse(failed, false);
  ASSERT_EQ(NextFrame(failed_frame, kDefaultMaxPayload, &consumed, &header,
                      &payload, &error),
            FrameStatus::kFrame);
  PredictReply reply;
  ASSERT_TRUE(DecodePredictResponse(header, payload, &reply, &error));
  EXPECT_FALSE(reply.response.ok);
  EXPECT_EQ(reply.response.error, "unknown dataset 'nope'");
  EXPECT_EQ(testing::CanonicalBytes(reply.response, false),
            testing::CanonicalBytes(failed, false));

  // Shed.
  const std::string shed = EncodeShedResponse(99, 3, 25);
  ASSERT_EQ(NextFrame(shed, kDefaultMaxPayload, &consumed, &header, &payload,
                      &error),
            FrameStatus::kFrame);
  ASSERT_TRUE(DecodePredictResponse(header, payload, &reply, &error));
  EXPECT_TRUE(reply.shed);
  EXPECT_EQ(reply.response.id, 99u);
  EXPECT_EQ(reply.response.shard, 3u);
  EXPECT_EQ(reply.retry_after_ms, 25u);

  // Load, both outcomes.
  LoadResult load;
  load.ok = true;
  load.dataset = "d";
  load.points = 20000;
  load.dims = 16;
  load.shard = 1;
  const std::string load_ok = EncodeLoadResponse(4, load);
  ASSERT_EQ(NextFrame(load_ok, kDefaultMaxPayload, &consumed, &header,
                      &payload, &error),
            FrameStatus::kFrame);
  LoadResult decoded_load;
  ASSERT_TRUE(DecodeLoadResponse(header, payload, &decoded_load, &error));
  EXPECT_TRUE(decoded_load.ok);
  EXPECT_EQ(decoded_load.points, 20000u);
  EXPECT_EQ(decoded_load.dims, 16u);
  EXPECT_EQ(decoded_load.shard, 1u);

  load.ok = false;
  load.error = "no such file";
  const std::string load_err = EncodeLoadResponse(4, load);
  ASSERT_EQ(NextFrame(load_err, kDefaultMaxPayload, &consumed, &header,
                      &payload, &error),
            FrameStatus::kFrame);
  ASSERT_TRUE(DecodeLoadResponse(header, payload, &decoded_load, &error));
  EXPECT_FALSE(decoded_load.ok);
  EXPECT_EQ(decoded_load.error, "no such file");

  // Stats: every counter including the new queue gauges.
  ServiceMetrics metrics;
  metrics.requests = 10;
  metrics.errors = 1;
  metrics.result_hits = 4;
  metrics.result_misses = 6;
  metrics.result_evictions = 1;
  metrics.workload_hits = 3;
  metrics.workload_misses = 7;
  metrics.workload_evictions = 2;
  metrics.shed_total = 5;
  metrics.shards.resize(2);
  metrics.shards[1].requests = 10;
  metrics.shards[1].p50_ms = 1.5;
  metrics.shards[1].p90_ms = 2.5;
  metrics.shards[1].p99_ms = 3.5;
  metrics.shards[1].queue_depth = 2;
  metrics.shards[1].peak_queue_depth = 4;
  metrics.shards[1].shed = 5;
  const std::string stats = EncodeStatsResponse(12, metrics);
  ASSERT_EQ(NextFrame(stats, kDefaultMaxPayload, &consumed, &header, &payload,
                      &error),
            FrameStatus::kFrame);
  // Payload size pins the layout: 10 fixed 8-byte fields (9 counters plus
  // the shard count), then 7 per shard.
  EXPECT_EQ(payload.size(), 10u * 8u + 2u * 56u);
  ServiceMetrics decoded_metrics;
  ASSERT_TRUE(DecodeStatsResponse(header, payload, &decoded_metrics, &error))
      << error;
  // JSON serialization is a faithful field-by-field readout, so equality of
  // the serialized lines is equality of every field at once.
  EXPECT_EQ(SerializeMetrics(decoded_metrics), SerializeMetrics(metrics));

  // Shutdown.
  const std::string ack = EncodeShutdownResponse(2, 16);
  ASSERT_EQ(NextFrame(ack, kDefaultMaxPayload, &consumed, &header, &payload,
                      &error),
            FrameStatus::kFrame);
  uint64_t served = 0;
  ASSERT_TRUE(DecodeShutdownResponse(header, payload, &served, &error));
  EXPECT_EQ(served, 16u);

  // Error frame.
  const std::string err = EncodeErrorFrame(6, "malformed predict payload");
  ASSERT_EQ(NextFrame(err, kDefaultMaxPayload, &consumed, &header, &payload,
                      &error),
            FrameStatus::kFrame);
  std::string message;
  ASSERT_TRUE(DecodeErrorFrame(header, payload, &message, &error));
  EXPECT_EQ(header.id, 6u);
  EXPECT_EQ(message, "malformed predict payload");
}

TEST(WireFramingTest, TruncatedPrefixesNeedMoreThenCompleteFrame) {
  const std::string frame = EncodeStatsRequest(3) + EncodeShutdownRequest(4);
  // Every proper prefix of the first frame is kNeedMore — never an error,
  // never a partial decode.
  for (size_t n = 0; n < kHeaderBytes; ++n) {
    size_t consumed = 0;
    FrameHeader header;
    std::string_view payload;
    std::string error;
    EXPECT_EQ(NextFrame(std::string_view(frame).substr(0, n),
                        kDefaultMaxPayload, &consumed, &header, &payload,
                        &error),
              FrameStatus::kNeedMore)
        << "prefix " << n;
  }
  // Both frames extract in sequence.
  size_t consumed = 0;
  FrameHeader header;
  std::string_view payload;
  std::string error;
  std::string_view rest = frame;
  ASSERT_EQ(NextFrame(rest, kDefaultMaxPayload, &consumed, &header, &payload,
                      &error),
            FrameStatus::kFrame);
  EXPECT_EQ(header.op, WireOp::kStats);
  rest.remove_prefix(consumed);
  ASSERT_EQ(NextFrame(rest, kDefaultMaxPayload, &consumed, &header, &payload,
                      &error),
            FrameStatus::kFrame);
  EXPECT_EQ(header.op, WireOp::kShutdown);
  EXPECT_EQ(consumed, rest.size());
}

TEST(WireFramingTest, MalformedHeadersAreUnrecoverableErrors) {
  const std::string good = EncodeStatsRequest(1);
  const auto expect_error = [&](std::string frame, const char* what) {
    size_t consumed = 0;
    FrameHeader header;
    std::string_view payload;
    std::string error;
    EXPECT_EQ(NextFrame(frame, kDefaultMaxPayload, &consumed, &header,
                        &payload, &error),
              FrameStatus::kError)
        << what;
    EXPECT_FALSE(error.empty()) << what;
  };

  std::string bad_magic = good;
  bad_magic[0] = 'X';
  expect_error(bad_magic, "bad magic");

  std::string bad_version = good;
  bad_version[2] = 9;
  expect_error(bad_version, "bad version");

  std::string bad_op = good;
  bad_op[3] = 5;  // one past kError
  expect_error(bad_op, "unknown op");

  std::string bad_reserved = good;
  bad_reserved[6] = 1;
  expect_error(bad_reserved, "nonzero reserved");

  std::string oversized = good;
  oversized[11] = '\x7f';  // length high byte -> ~2 GiB
  expect_error(oversized, "oversized length");

  // The cap is the caller's: the same length passes under a larger one
  // (and then reports kNeedMore for the missing payload).
  std::string big = good;
  big[10] = 1;  // third length byte: length = 65536
  size_t consumed = 0;
  FrameHeader header;
  std::string_view payload;
  std::string error;
  EXPECT_EQ(NextFrame(big, /*max_payload=*/1024, &consumed, &header, &payload,
                      &error),
            FrameStatus::kError);
  EXPECT_EQ(NextFrame(big, /*max_payload=*/1u << 20, &consumed, &header,
                      &payload, &error),
            FrameStatus::kNeedMore);
}

TEST(WireReaderTest, OverrunsFailSticky) {
  std::string payload;
  AppendString(&payload, "ab");
  WireReader reader(payload);
  std::string s;
  EXPECT_TRUE(reader.ReadString(&s));
  EXPECT_EQ(s, "ab");
  EXPECT_TRUE(reader.AtEnd());
  uint64_t v = 0;
  EXPECT_FALSE(reader.ReadU64(&v));  // past the end
  EXPECT_FALSE(reader.ok());
  uint8_t b = 0;
  EXPECT_FALSE(reader.ReadU8(&b));  // sticky

  // A string length prefix overrunning the payload fails without reading.
  std::string lying;
  AppendU16(&lying, 1000);
  lying += "short";
  WireReader liar(lying);
  EXPECT_FALSE(liar.ReadString(&s));
  EXPECT_FALSE(liar.ok());

  // An f64 count larger than the remaining bytes fails before allocating.
  WireReader tiny(std::string_view("\x01\x02\x03", 3));
  std::vector<double> doubles;
  EXPECT_FALSE(tiny.ReadF64Array(1u << 30, &doubles));
  EXPECT_TRUE(doubles.empty());
}

TEST(WirePeekTest, PeekAgreesWithFullDecodeAndFailsOnTruncation) {
  // The reactor routes predicts by peeking only the leading dataset
  // string; the worker then runs the full decode. The two must agree on
  // every well-formed predict frame, and the peek must refuse exactly the
  // payloads too short to carry the routing key.
  ServiceRequest predict;
  predict.id = 21;
  predict.dataset = "texture60";
  predict.method = "resampled";
  const std::string frame = EncodePredictRequest(predict);
  const std::string_view payload(frame.data() + kHeaderBytes,
                                 frame.size() - kHeaderBytes);

  std::string peeked;
  ASSERT_TRUE(PeekPredictDataset(payload, &peeked));
  FrameHeader header;
  header.op = WireOp::kPredict;
  header.id = predict.id;
  RequestLine request;
  std::string error;
  ASSERT_TRUE(DecodeRequest(header, payload, &request, &error));
  EXPECT_EQ(peeked, request.predict.dataset);

  // Every truncation that cuts into the length prefix or the string bytes
  // fails; anything at or past the full string still peeks successfully.
  const size_t need = 2 + predict.dataset.size();
  for (size_t len = 0; len <= payload.size(); ++len) {
    std::string name;
    EXPECT_EQ(PeekPredictDataset(payload.substr(0, len), &name), len >= need)
        << "truncated to " << len;
  }
}

TEST(WirePeekTest, PeekNeverCrashesOnGarbage) {
  common::Rng rng(31);
  for (int iter = 0; iter < 2000; ++iter) {
    std::string bytes;
    const size_t len = rng.NextBounded(40);
    for (size_t i = 0; i < len; ++i) {
      bytes.push_back(static_cast<char>(rng.NextBounded(256)));
    }
    std::string dataset;
    PeekPredictDataset(bytes, &dataset);
  }
}

// --- seeded malformed-frame fuzz corpus ---------------------------------
//
// The contract under test: no byte stream — random garbage, truncation,
// or bit-flipped real frames — may crash the extract/decode path. ASan and
// TSan runs of this suite are the memory-safety half of the server's
// "rejects cleanly, never crashes" claim.

/// Valid frames of every kind, used as fuzz seeds.
std::vector<std::string> SeedCorpus() {
  ServiceRequest predict;
  predict.id = 11;
  predict.dataset = "alpha";
  predict.method = "cutoff";
  predict.per_query = true;
  ServiceResponse ok_response;
  ok_response.id = 12;
  ok_response.ok = true;
  ok_response.result.per_query_accesses = {1.0, 2.0, 3.0};
  ServiceResponse err_response;
  err_response.id = 13;
  err_response.error = "boom";
  ServiceMetrics metrics;
  metrics.shards.resize(3);
  LoadResult load;
  load.ok = true;
  load.dataset = "d";
  load.points = 100;
  load.dims = 8;
  return {
      EncodePredictRequest(predict),
      EncodeLoadRequest(1, "d", "/tmp/d.hdx"),
      EncodeStatsRequest(2),
      EncodeShutdownRequest(3),
      EncodePredictResponse(ok_response, /*per_query=*/true),
      EncodePredictResponse(ok_response, /*per_query=*/false),
      EncodePredictResponse(err_response, /*per_query=*/false),
      EncodeShedResponse(4, 0, 50),
      EncodeErrorFrame(0, "bad magic"),
      EncodeStatsResponse(5, metrics),
      EncodeLoadResponse(6, load),
      EncodeShutdownResponse(7, 42),
  };
}

TEST(WireFuzzTest, RandomGarbageNeverCrashesTheDecoder) {
  common::Rng rng(20260809);
  for (int iter = 0; iter < 2000; ++iter) {
    std::string bytes;
    const size_t len = rng.NextBounded(96);
    for (size_t i = 0; i < len; ++i) {
      bytes.push_back(static_cast<char>(rng.NextBounded(256)));
    }
    ExtractAndDecode(bytes);
  }
}

TEST(WireFuzzTest, MutatedAndTruncatedRealFramesNeverCrash) {
  const std::vector<std::string> corpus = SeedCorpus();
  common::Rng rng(7);
  for (int iter = 0; iter < 4000; ++iter) {
    std::string frame = corpus[rng.NextBounded(corpus.size())];
    // Flip a few bits anywhere — header fields, length prefixes, payload.
    const size_t flips = 1 + rng.NextBounded(4);
    for (size_t f = 0; f < flips; ++f) {
      frame[rng.NextBounded(frame.size())] ^=
          static_cast<char>(1u << rng.NextBounded(8));
    }
    // Half the time also truncate, so length fields lie about what follows.
    if (rng.NextBernoulli(0.5)) {
      frame.resize(rng.NextBounded(frame.size() + 1));
    }
    ExtractAndDecode(frame);
  }
}

TEST(WireFuzzTest, ValidHeadersWithGarbagePayloadsFailCleanly) {
  // Well-framed garbage: the header passes NextFrame, so every byte of the
  // payload reaches the payload decoders. They must reject without crashing
  // (kStats/kShutdown requests are the exception: their only valid payload
  // is empty, so a non-empty one simply fails DecodeRequest).
  common::Rng rng(99);
  for (int iter = 0; iter < 2000; ++iter) {
    const auto op = static_cast<WireOp>(rng.NextBounded(5));
    const auto flags = static_cast<uint16_t>(rng.NextBounded(64));
    std::string payload;
    const size_t len = rng.NextBounded(64);
    for (size_t i = 0; i < len; ++i) {
      payload.push_back(static_cast<char>(rng.NextBounded(256)));
    }
    const std::string frame =
        EncodeFrame(op, flags, rng.NextU64(), payload);
    EXPECT_EQ(ExtractAndDecode(frame), FrameStatus::kFrame);
  }
}

}  // namespace
}  // namespace hdidx::service::wire
