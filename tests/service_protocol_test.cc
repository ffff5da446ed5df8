#include "service/protocol.h"

#include <cstdio>
#include <sstream>
#include <string>

#include "data/dataset_io.h"
#include "gtest/gtest.h"
#include "service/server.h"
#include "test_util.h"

namespace hdidx::service {
namespace {

TEST(ProtocolParseTest, FlatObjectRoundTrip) {
  std::map<std::string, JsonValue> fields;
  std::string error;
  ASSERT_TRUE(ParseFlatJsonObject(
      R"({"s":"a\"b\\c","n":-1.5e2,"t":true,"f":false,"z":null})", &fields,
      &error))
      << error;
  EXPECT_EQ(fields["s"].kind, JsonValue::Kind::kString);
  EXPECT_EQ(fields["s"].str, "a\"b\\c");
  EXPECT_EQ(fields["n"].kind, JsonValue::Kind::kNumber);
  EXPECT_DOUBLE_EQ(fields["n"].num, -150.0);
  EXPECT_TRUE(fields["t"].boolean);
  EXPECT_FALSE(fields["f"].boolean);
  EXPECT_EQ(fields["z"].kind, JsonValue::Kind::kNull);

  EXPECT_TRUE(ParseFlatJsonObject("  { }  ", &fields, &error));
  EXPECT_TRUE(fields.empty());
}

TEST(ProtocolParseTest, MalformedInputsAreRejectedWithReasons) {
  std::map<std::string, JsonValue> fields;
  std::string error;
  EXPECT_FALSE(ParseFlatJsonObject("not json", &fields, &error));
  EXPECT_FALSE(ParseFlatJsonObject("{\"a\":1", &fields, &error));
  EXPECT_FALSE(ParseFlatJsonObject("{\"a\":1} trailing", &fields, &error));
  EXPECT_FALSE(ParseFlatJsonObject("{\"a\":}", &fields, &error));
  EXPECT_FALSE(ParseFlatJsonObject("{\"a\":\"unterminated}", &fields, &error));
  // Nested containers are a request-side error by design.
  EXPECT_FALSE(ParseFlatJsonObject("{\"a\":{\"b\":1}}", &fields, &error));
  EXPECT_NE(error.find("nested"), std::string::npos);
  EXPECT_FALSE(ParseFlatJsonObject("{\"a\":[1,2]}", &fields, &error));
}

TEST(ProtocolParseTest, PredictRequestFieldsAndDefaults) {
  RequestLine line;
  std::string error;
  ASSERT_TRUE(ParseRequestLine(
      R"({"op":"predict","dataset":"d1","method":"mini","memory":2000,)"
      R"("num_queries":50,"k":7,"seed":42,"page_bytes":4096,"id":9,)"
      R"("per_query":true})",
      &line, &error))
      << error;
  EXPECT_EQ(line.op, RequestLine::Op::kPredict);
  EXPECT_TRUE(line.has_id);
  EXPECT_EQ(line.predict.id, 9u);
  EXPECT_EQ(line.predict.dataset, "d1");
  EXPECT_EQ(line.predict.method, "mini");
  EXPECT_EQ(line.predict.memory, 2000u);
  EXPECT_EQ(line.predict.num_queries, 50u);
  EXPECT_EQ(line.predict.k, 7u);
  EXPECT_EQ(line.predict.seed, 42u);
  EXPECT_EQ(line.predict.page_bytes, 4096u);
  EXPECT_TRUE(line.predict.per_query);

  // Minimal predict: only the dataset; everything else defaults.
  ASSERT_TRUE(ParseRequestLine(R"({"dataset":"d2"})", &line, &error));
  EXPECT_EQ(line.op, RequestLine::Op::kPredict);
  EXPECT_FALSE(line.has_id);
  EXPECT_EQ(line.predict.method, "resampled");
  EXPECT_EQ(line.predict.page_bytes, 8192u);

  // Required / typed fields.
  EXPECT_FALSE(ParseRequestLine(R"({"op":"predict"})", &line, &error));
  EXPECT_FALSE(ParseRequestLine(
      R"({"op":"predict","dataset":"d","k":2.5})", &line, &error));
  EXPECT_FALSE(ParseRequestLine(
      R"({"op":"predict","dataset":"d","k":-3})", &line, &error));
  EXPECT_FALSE(ParseRequestLine(
      R"({"op":"predict","dataset":"d","memory":"lots"})", &line, &error));
  EXPECT_FALSE(ParseRequestLine(R"({"op":"teleport"})", &line, &error));
  EXPECT_NE(error.find("unknown op"), std::string::npos);
}

TEST(ProtocolParseTest, LoadStatsShutdownOps) {
  RequestLine line;
  std::string error;
  ASSERT_TRUE(ParseRequestLine(
      R"({"op":"load","dataset":"d","path":"/tmp/x.hdx"})", &line, &error));
  EXPECT_EQ(line.op, RequestLine::Op::kLoad);
  EXPECT_EQ(line.load_dataset, "d");
  EXPECT_EQ(line.load_path, "/tmp/x.hdx");
  EXPECT_FALSE(ParseRequestLine(R"({"op":"load","dataset":"d"})", &line,
                                &error));
  ASSERT_TRUE(ParseRequestLine(R"({"op":"stats"})", &line, &error));
  EXPECT_EQ(line.op, RequestLine::Op::kStats);
  ASSERT_TRUE(ParseRequestLine(R"({"op":"shutdown"})", &line, &error));
  EXPECT_EQ(line.op, RequestLine::Op::kShutdown);
}

TEST(ProtocolSerializeTest, QuotingAndErrorResults) {
  EXPECT_EQ(JsonQuote("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
  ServiceResponse failed;
  failed.ok = false;
  failed.error = "unknown dataset: \"x\"";
  const std::string serialized = SerializeResult(failed, false);
  EXPECT_EQ(serialized, "{\"error\":\"unknown dataset: \\\"x\\\"\"}");
}

TEST(ProtocolSerializeTest, ResultPayloadIsSelfConsistent) {
  ServiceResponse response;
  response.ok = true;
  response.id = 3;
  response.result.avg_leaf_accesses = 12.5;
  response.result.per_query_accesses = {12.0, 13.0};
  response.result.num_predicted_leaves = 7;
  response.result.h_upper = 2;
  response.result.sigma_upper = 0.25;
  response.result.sigma_lower = 1.0;
  response.result.io.page_seeks = 11;
  response.result.io.page_transfers = 22;
  const std::string payload = SerializeResult(response, true);
  EXPECT_NE(payload.find("\"avg_leaf_accesses\":12.5"), std::string::npos);
  EXPECT_NE(payload.find("\"num_queries\":2"), std::string::npos);
  EXPECT_NE(payload.find("\"per_query\":[12,13]"), std::string::npos);
  EXPECT_NE(payload.find("\"io_seeks\":11"), std::string::npos);

  const std::string full = SerializePredictResponse(response, false);
  EXPECT_NE(full.find("\"op\":\"predict\""), std::string::npos);
  EXPECT_NE(full.find("\"id\":3"), std::string::npos);
  EXPECT_NE(full.find("\"cache\":\"miss\""), std::string::npos);
  // The metadata wrapper embeds the identical payload bytes.
  EXPECT_NE(full.find(SerializeResult(response, false)), std::string::npos);
}

TEST(ServerLoopTest, BatchesFlushAndShutdownCleanly) {
  ServiceOptions options;
  options.num_shards = 2;
  options.total_threads = 2;
  PredictionService svc(options);
  std::string error;
  ASSERT_TRUE(svc.registry().Add(
      "d", testing::SmallClustered(1200, 6, 21), &error))
      << error;

  // Two predict lines, a blank line (ignored), the first again (now a cache
  // hit), a malformed line, stats, shutdown. page_bytes=1024 keeps the tree
  // height >= 3 at this size; method mini works regardless.
  const char* script =
      "{\"op\":\"predict\",\"dataset\":\"d\",\"method\":\"mini\","
      "\"memory\":200,\"num_queries\":10,\"k\":3,\"page_bytes\":1024}\n"
      "{\"op\":\"predict\",\"dataset\":\"d\",\"method\":\"mini\","
      "\"memory\":300,\"num_queries\":10,\"k\":3,\"page_bytes\":1024}\n"
      "\n"
      "{\"op\":\"predict\",\"dataset\":\"d\",\"method\":\"mini\","
      "\"memory\":200,\"num_queries\":10,\"k\":3,\"page_bytes\":1024}\n"
      "this is not json\n"
      "{\"op\":\"stats\"}\n"
      "{\"op\":\"shutdown\"}\n"
      "{\"op\":\"predict\",\"dataset\":\"d\"}\n";  // after shutdown: ignored
  std::istringstream in(script);
  std::ostringstream out;
  const size_t served = RunServer(in, out, &svc);
  EXPECT_EQ(served, 3u);

  const std::string output = out.str();
  // Sequence ids assigned in arrival order; the third predict repeats the
  // first request and must be served from cache.
  EXPECT_NE(output.find("\"id\":1"), std::string::npos);
  EXPECT_NE(output.find("\"id\":2"), std::string::npos);
  EXPECT_NE(output.find("\"id\":3"), std::string::npos);
  EXPECT_EQ(output.find("\"id\":4"), std::string::npos);
  EXPECT_NE(output.find("\"cache\":\"hit\""), std::string::npos);
  EXPECT_NE(output.find("\"op\":\"error\""), std::string::npos);
  EXPECT_NE(output.find("\"op\":\"stats\""), std::string::npos);
  EXPECT_NE(output.find("\"op\":\"shutdown\",\"ok\":true,\"served\":3"),
            std::string::npos);
  const ServiceMetrics metrics = svc.Metrics();
  EXPECT_EQ(metrics.requests, 3u);
  EXPECT_EQ(metrics.result_hits, 1u);
}

TEST(ServerLoopTest, LoadOpLoadsFromDiskOnce) {
  ServiceOptions options;
  PredictionService svc(options);
  const data::Dataset dataset = testing::SmallClustered(400, 5, 33);
  const std::string path =
      ::testing::TempDir() + "/service_protocol_load.hdx";
  std::string error;
  ASSERT_TRUE(data::WriteDataset(dataset, path, &error)) << error;

  std::istringstream in(
      "{\"op\":\"load\",\"dataset\":\"disk\",\"path\":" + JsonQuote(path) +
      "}\n"
      "{\"op\":\"load\",\"dataset\":\"disk\",\"path\":" + JsonQuote(path) +
      "}\n"
      "{\"op\":\"shutdown\"}\n");
  std::ostringstream out;
  RunServer(in, out, &svc);
  const std::string output = out.str();
  EXPECT_NE(output.find("\"op\":\"load\",\"ok\":true,\"dataset\":\"disk\","
                        "\"points\":400,\"dims\":5"),
            std::string::npos);
  // The second load of the same name is refused: datasets load once.
  EXPECT_NE(output.find("already registered"), std::string::npos);
  EXPECT_EQ(svc.registry().size(), 1u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hdidx::service
