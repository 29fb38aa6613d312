// The shared bench harness (bench/bench_common): the strict key=value
// parser, the artifact JSON writer and its provenance stamp, and the gate
// and percentile helpers every bench binary uses.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace ftc::bench {
namespace {

Args parse(std::vector<std::string> tokens) {
  tokens.insert(tokens.begin(), "/path/to/bench_test");
  std::vector<char*> argv;
  for (std::string& token : tokens) argv.push_back(token.data());
  return Args(static_cast<int>(argv.size()), argv.data());
}

TEST(BenchArgs, TypedGettersReadGivenValuesAndFallBackOtherwise) {
  const Args args = parse({"nodes=12", "c=1.5", "out=x.json",
                           "alphas=0.8,1.1", "scales=64,128", "big=-7"});
  EXPECT_EQ(args.get_u32("nodes", 4), 12u);
  EXPECT_EQ(args.get_u32("files", 48), 48u);
  EXPECT_DOUBLE_EQ(args.get_double("c", 1.25), 1.5);
  EXPECT_EQ(args.get_string("out", "BENCH.json"), "x.json");
  EXPECT_EQ(args.get_double_list("alphas", {}),
            (std::vector<double>{0.8, 1.1}));
  EXPECT_EQ(args.get_int_list("scales", {}),
            (std::vector<std::int64_t>{64, 128}));
  EXPECT_EQ(args.get_int("big", 0), -7);
  args.finish();  // every given key was read: returns
}

TEST(BenchArgs, AcceptsZeroOneFlags) {
  const Args args = parse({"check_bound=1", "warm=0", "trace=true"});
  EXPECT_TRUE(args.get_bool("check_bound", false));
  EXPECT_FALSE(args.get_bool("warm", true));
  EXPECT_TRUE(args.get_bool("trace", false));
  EXPECT_TRUE(args.get_bool("absent", true));
  args.finish();
}

TEST(BenchArgs, OptionsEchoTheValuesInEffect) {
  const Args args = parse({"nodes=6", "warm=0"});
  (void)args.get_u32("nodes", 10);
  (void)args.get_u32("files", 240);
  (void)args.get_bool("warm", true);
  EXPECT_EQ(args.options().dump(),
            R"({"nodes": 6, "files": 240, "warm": false})");
}

TEST(BenchArgsDeathTest, UnknownKeyExitsTwoWithTheUsageLine) {
  const Args args = parse({"alpha=1.1"});
  (void)args.get_double_list("alphas", {0.0, 1.1});
  (void)args.get_bool("check_bound", false);
  EXPECT_EXIT(args.finish(), testing::ExitedWithCode(2),
              "unknown key 'alpha'.*\nusage: bench_test "
              "\\[alphas=0,1.1\\] \\[check_bound=0\\]");
}

TEST(BenchArgsDeathTest, NumberWithTrailingJunkExitsTwo) {
  const Args args = parse({"files=12x"});
  EXPECT_EQ(args.get_u32("files", 48), 48u);
  EXPECT_EXIT(args.finish(), testing::ExitedWithCode(2),
              "files wants a non-negative 32-bit integer, got '12x'");
  const Args signed_args = parse({"files=12x"});
  (void)signed_args.get_int("files", 48);
  EXPECT_EXIT(signed_args.finish(), testing::ExitedWithCode(2),
              "files wants an integer");
}

TEST(BenchArgsDeathTest, EmptyValueExitsTwo) {
  const Args number = parse({"files="});
  (void)number.get_u32("files", 48);
  EXPECT_EXIT(number.finish(), testing::ExitedWithCode(2), "got ''");
  const Args text = parse({"out="});
  (void)text.get_string("out", "BENCH.json");
  EXPECT_EXIT(text.finish(), testing::ExitedWithCode(2),
              "out wants a non-empty value");
}

TEST(BenchArgsDeathTest, MalformedValuesExitTwo) {
  for (const char* token :
       {"n=-1", "n=4294967296", "flag=2", "c=1.5.2", "c=nan", "list=1,,2",
        "bare"}) {
    const Args args = parse({token});
    (void)args.get_u32("n", 0);
    (void)args.get_bool("flag", false);
    (void)args.get_double("c", 1.0);
    (void)args.get_int_list("list", {});
    EXPECT_EXIT(args.finish(), testing::ExitedWithCode(2), "usage: ")
        << token;
  }
}

TEST(BenchArgsDeathTest, GetterAfterFinishFailsAtOnce) {
  const Args args = parse({"n=x"});
  (void)args.get_string("n", "");
  args.finish();
  EXPECT_EXIT((void)args.get_u32("n", 0), testing::ExitedWithCode(2),
              "n wants a non-negative 32-bit integer, got 'x'");
}

TEST(BenchJson, EscapesStrings) {
  EXPECT_EQ(Json("a\"b\\c\nd\te\x01").dump(), R"("a\"b\\c\nd\te\u0001")");
  EXPECT_EQ(Json(std::string("plain")).dump(), R"("plain")");
}

TEST(BenchJson, WritesScalars) {
  EXPECT_EQ(Json().dump(), "null");
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(std::numeric_limits<std::uint64_t>::max()).dump(),
            "18446744073709551615");
  EXPECT_EQ(Json(-3).dump(), "-3");
  EXPECT_EQ(Json(0.1724).dump(), "0.1724");
  EXPECT_EQ(Json(2.0).dump(), "2");
  EXPECT_EQ(Json(1234567.8).dump(), "1234568");
  EXPECT_EQ(Json(std::numeric_limits<double>::quiet_NaN()).dump(), "null");
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(), "null");
}

TEST(BenchJson, NestsObjectsAndArraysInInsertionOrder) {
  Json doc{{"bench", "b"}, {"phase", {{"ops", 3}, {"p99_us", 1.5}}}};
  doc.set("list", Json::array({1, 2}));
  doc.set("empty", Json::array({}));
  doc.set("raw", Json::raw(R"({"k": [1]})"));
  doc.set("bench", "renamed");  // replaces in place
  EXPECT_EQ(doc.dump(),
            "{\n"
            "  \"bench\": \"renamed\",\n"
            "  \"phase\": {\"ops\": 3, \"p99_us\": 1.5},\n"
            "  \"list\": [1, 2],\n"
            "  \"empty\": [],\n"
            "  \"raw\": {\"k\": [1]}\n"
            "}");
  ASSERT_NE(doc.find("phase"), nullptr);
  EXPECT_EQ(doc.find("phase")->find("ops")->dump(), "3");
  EXPECT_EQ(doc.find("missing"), nullptr);
  Json grown;
  grown.set("a", Json{{"b", Json{{"c", 1}}}});
  EXPECT_EQ(grown.dump(), "{\n  \"a\": {\n    \"b\": {\"c\": 1}\n  }\n}");
}

TEST(BenchArtifact, CarriesTheProvenanceStampAndConfig) {
  const Args args = parse({"nodes=3"});
  (void)args.get_u32("nodes", 8);
  const Json doc = artifact("bench_test", args);
  ASSERT_NE(doc.find("git_sha"), nullptr);
  const std::string sha = doc.find("git_sha")->dump();
  EXPECT_TRUE(sha == "\"none\"" || sha.size() >= 42) << sha;
  ASSERT_NE(doc.find("build_type"), nullptr);
  EXPECT_NE(doc.find("build_type")->dump(), "\"\"");
  ASSERT_NE(doc.find("nproc"), nullptr);
  EXPECT_GE(std::stoi(doc.find("nproc")->dump()), 1);
  EXPECT_EQ(doc.find("bench")->dump(), "\"bench_test\"");
  EXPECT_EQ(doc.find("config")->dump(), R"({"nodes": 3})");
}

TEST(BenchArtifact, WritesAndInlinesFiles) {
  const std::string path = testing::TempDir() + "/bench_harness_test.json";
  write_json(path, Json{{"ok", true}});
  EXPECT_EQ(inline_file(path).dump(), R"({"ok": true})");
  std::remove(path.c_str());
  EXPECT_EQ(inline_file(path).dump(), "null");
}

TEST(BenchPercentile, NearestRankBelow) {
  EXPECT_EQ(percentile({}, 99.0), 0.0);
  const std::vector<double> sorted = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_EQ(percentile(sorted, 0.0), 1.0);
  EXPECT_EQ(percentile(sorted, 50.0), 5.0);
  EXPECT_EQ(percentile(sorted, 99.0), 9.0);
  EXPECT_EQ(percentile(sorted, 100.0), 10.0);
}

TEST(BenchGate, ExitCodeTurnsOnTheFirstFailure) {
  Gate gate;
  EXPECT_TRUE(gate.check(true, "first %d", 1));
  EXPECT_EQ(gate.exit_code(), 0);
  EXPECT_FALSE(gate.check(false, "second %s", "fails"));
  EXPECT_TRUE(gate.check(true, "third passes"));
  EXPECT_FALSE(gate.passed());
  EXPECT_EQ(gate.exit_code(), 1);
}

}  // namespace
}  // namespace ftc::bench
