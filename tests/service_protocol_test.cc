#include "service/protocol.h"

#include <string>

#include "gtest/gtest.h"

namespace hdidx::service {
namespace {

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
}

}  // namespace
}  // namespace hdidx::service
