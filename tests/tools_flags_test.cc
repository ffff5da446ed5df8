#include "../tools/flags.h"

#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace hdidx::tools {
namespace {

/// Builds an argv from string literals ("argv[0]" prepended).
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : storage_(std::move(args)) {
    storage_.insert(storage_.begin(), "tool");
    for (auto& s : storage_) ptrs_.push_back(s.data());
  }
  int argc() const { return static_cast<int>(ptrs_.size()); }
  char** argv() { return ptrs_.data(); }

 private:
  std::vector<std::string> storage_;
  std::vector<char*> ptrs_;
};

TEST(FlagsTest, ParsesBothSyntaxesAndDefaults) {
  Argv args({"--data=x.hdx", "--memory", "5000", "--measure"});
  const Flags flags(args.argc(), args.argv());
  EXPECT_TRUE(flags.ok());
  EXPECT_EQ(flags.GetString("data", ""), "x.hdx");
  EXPECT_EQ(flags.GetUint("memory", 0), 5000u);
  EXPECT_TRUE(flags.GetBool("measure"));
  EXPECT_EQ(flags.GetUint("absent", 42), 42u);
  EXPECT_EQ(flags.GetString("absent", "fallback"), "fallback");
  EXPECT_TRUE(flags.ok());
}

TEST(FlagsTest, UnknownFlagIsAnError) {
  Argv args({"--data=x.hdx", "--memroy=5000"});  // typo
  const Flags flags(args.argc(), args.argv(), {"data", "memory"});
  EXPECT_FALSE(flags.ok());
  EXPECT_NE(flags.error().find("unknown flag: --memroy"), std::string::npos);
}

TEST(FlagsTest, KnownFlagListAcceptsExactMatches) {
  Argv args({"--data=x.hdx", "--memory=5000"});
  const Flags flags(args.argc(), args.argv(), {"data", "memory", "seed"});
  EXPECT_TRUE(flags.ok()) << flags.error();
}

TEST(FlagsTest, NonFlagArgumentIsAnError) {
  Argv args({"stray"});
  const Flags flags(args.argc(), args.argv());
  EXPECT_FALSE(flags.ok());
  EXPECT_NE(flags.error().find("unexpected argument"), std::string::npos);
}

TEST(FlagsTest, MalformedUintIsAnErrorNotZero) {
  // The old parser silently turned all of these into 0 or a prefix parse.
  for (const char* bad : {"--n=abc", "--n=12x", "--n=-5", "--n=", "--n=1.5"}) {
    Argv args({bad});
    const Flags flags(args.argc(), args.argv());
    EXPECT_EQ(flags.GetUint("n", 7), 7u) << bad;  // fallback, not garbage
    EXPECT_FALSE(flags.ok()) << bad;
    EXPECT_NE(flags.error().find("non-negative integer"), std::string::npos);
  }
}

TEST(FlagsTest, MalformedDoubleIsAnError) {
  for (const char* bad : {"--f=abc", "--f=1.5x", "--f="}) {
    Argv args({bad});
    const Flags flags(args.argc(), args.argv());
    EXPECT_EQ(flags.GetDouble("f", 2.5), 2.5) << bad;
    EXPECT_FALSE(flags.ok()) << bad;
  }
}

TEST(FlagsTest, ValidNumbersStayValid) {
  Argv args({"--n=18446744073709551615", "--f=-1.5e3", "--zero=0"});
  const Flags flags(args.argc(), args.argv());
  EXPECT_EQ(flags.GetUint("n", 0), 18446744073709551615ull);
  EXPECT_DOUBLE_EQ(flags.GetDouble("f", 0.0), -1500.0);
  EXPECT_EQ(flags.GetUint("zero", 9), 0u);
  EXPECT_TRUE(flags.ok()) << flags.error();
}

TEST(FlagsTest, UintAboveMaxIsAnError) {
  Argv args({"--port=70000", "--ok=65535"});
  const Flags flags(args.argc(), args.argv());
  EXPECT_EQ(flags.GetUint("ok", 0, 65535), 65535u);
  EXPECT_TRUE(flags.ok()) << flags.error();
  EXPECT_EQ(flags.GetUint("port", 0, 65535), 0u);  // the fallback
  EXPECT_FALSE(flags.ok());
  EXPECT_NE(flags.error().find("at most 65535"), std::string::npos);
}

TEST(FlagsTest, BoolFollowsOneRuleWithAnyDefault) {
  Argv args({"--a=0", "--b=false", "--c", "--d=1"});
  const Flags flags(args.argc(), args.argv());
  for (const bool fallback : {false, true}) {
    EXPECT_FALSE(flags.GetBool("a", fallback));
    EXPECT_FALSE(flags.GetBool("b", fallback));
    EXPECT_TRUE(flags.GetBool("c", fallback));
    EXPECT_TRUE(flags.GetBool("d", fallback));
    EXPECT_EQ(flags.GetBool("absent", fallback), fallback);
  }
  EXPECT_TRUE(flags.ok());
}

TEST(FlagsTest, FirstErrorIsKept) {
  Argv args({"--a=bad", "--b=alsobad"});
  const Flags flags(args.argc(), args.argv());
  flags.GetUint("a", 0);
  const std::string first = flags.error();
  flags.GetUint("b", 0);
  EXPECT_EQ(flags.error(), first);
}

}  // namespace
}  // namespace hdidx::tools
