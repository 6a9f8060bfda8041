// The shared bench command line: well-formed flags parse to their
// values; every malformed one prints usage and exits 2 instead of
// running a campaign on a silently defaulted or truncated value.
#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <vector>

#include "bench_common.h"

namespace gfwsim::bench {
namespace {

BenchOptions parse(std::initializer_list<const char*> flags) {
  std::vector<std::string> args{"bench"};
  args.insert(args.end(), flags.begin(), flags.end());
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  return parse_bench_args(static_cast<int>(argv.size()), argv.data());
}

TEST(BenchArgs, WellFormedFlagsParse) {
  const BenchOptions options =
      parse({"--shards", "8", "--threads", "2", "--seed", "0x5eed", "--days", "3",
             "--loss", "0.25", "--jitter", "1.5", "--checkpoint", "ckpt", "--resume",
             "--mem-budget", "64m", "--probe-queue-cap", "4"});
  EXPECT_EQ(options.shards, 8u);
  EXPECT_EQ(options.threads, 2u);
  EXPECT_EQ(options.seed, 0x5eedu);
  EXPECT_EQ(options.days, 3);
  EXPECT_DOUBLE_EQ(options.loss, 0.25);
  EXPECT_DOUBLE_EQ(options.jitter_ms, 1.5);
  EXPECT_EQ(options.checkpoint, "ckpt");
  EXPECT_TRUE(options.resume);
  EXPECT_EQ(options.mem_budget, 64ull << 20);
  EXPECT_EQ(options.probe_queue_cap, 4u);
}

TEST(BenchArgsDeathTest, NonNumericValuesExit2) {
  EXPECT_EXIT(parse({"--loss", "foo"}), testing::ExitedWithCode(2), "usage");
  EXPECT_EXIT(parse({"--threads", "two"}), testing::ExitedWithCode(2), "usage");
  EXPECT_EXIT(parse({"--seed", ""}), testing::ExitedWithCode(2), "usage");
  EXPECT_EXIT(parse({"--stall-timeout", "nan"}), testing::ExitedWithCode(2), "usage");
}

TEST(BenchArgsDeathTest, TrailingGarbageExits2) {
  EXPECT_EXIT(parse({"--shards", "2x"}), testing::ExitedWithCode(2), "usage");
  EXPECT_EXIT(parse({"--days", "3d"}), testing::ExitedWithCode(2), "usage");
  EXPECT_EXIT(parse({"--jitter", "5ms"}), testing::ExitedWithCode(2), "usage");
  EXPECT_EXIT(parse({"--mem-budget", "64mb"}), testing::ExitedWithCode(2), "usage");
}

TEST(BenchArgsDeathTest, OutOfRangeValuesExit2) {
  EXPECT_EXIT(parse({"--threads", "-1"}), testing::ExitedWithCode(2), "usage");
  EXPECT_EXIT(parse({"--shards", "0"}), testing::ExitedWithCode(2), "usage");
  EXPECT_EXIT(parse({"--shards", "4294967296"}), testing::ExitedWithCode(2), "usage");
  EXPECT_EXIT(parse({"--loss", "1.5"}), testing::ExitedWithCode(2), "usage");
  EXPECT_EXIT(parse({"--seed", "99999999999999999999"}), testing::ExitedWithCode(2),
              "usage");
  EXPECT_EXIT(parse({"--mem-budget", "99999999999g"}), testing::ExitedWithCode(2),
              "usage");
}

TEST(BenchArgsDeathTest, MissingPrerequisiteExits2) {
  EXPECT_EXIT(parse({"--resume"}), testing::ExitedWithCode(2),
              "--resume requires --checkpoint");
  EXPECT_EXIT(parse({"--worker-kill-after", "1"}), testing::ExitedWithCode(2),
              "requires --workers");
}

TEST(BenchArgsDeathTest, UnknownOrValuelessFlagsExit2) {
  EXPECT_EXIT(parse({"--json", "out.json"}), testing::ExitedWithCode(2),
              "unknown option: --json");
  EXPECT_EXIT(parse({"--days"}), testing::ExitedWithCode(2), "usage");
}

}  // namespace
}  // namespace gfwsim::bench
