// The shared bench command line: well-formed flags parse to their
// values; every malformed one prints usage and exits 2 instead of
// running a campaign on a silently defaulted or truncated value. The
// gfw_worker tool parses its numbers the same way.
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <string>
#include <vector>

#include "bench_common.h"
#include "gfw/checkpoint.h"

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

TEST(BenchArgs, WholeUnsignedTakesOnlyWholeTokens) {
  EXPECT_EQ(whole_unsigned("8", UINT32_MAX), 8u);
  EXPECT_EQ(whole_unsigned("0x5eed", UINT64_MAX), 0x5eedu);
  EXPECT_EQ(whole_unsigned("4294967295", UINT32_MAX), 4294967295u);
  for (const char* bad : {"", "8x", "-1", "+1", " 1", "0x", "1:3", "4294967296"}) {
    EXPECT_FALSE(whole_unsigned(bad, UINT32_MAX).has_value()) << '"' << bad << '"';
  }
}

// Runs the built gfw_worker with `args`; only returns if exec fails.
void exec_gfw_worker(std::vector<std::string> args) {
  args.insert(args.begin(), GFW_WORKER_PATH);
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  ::execv(GFW_WORKER_PATH, argv.data());
  std::_Exit(127);
}

TEST(GfwWorkerArgsDeathTest, MalformedNumbersExit2) {
  const std::vector<std::vector<std::string>> cases = {
      {"--shards", "8x"},        {"--shards", "-1"},          {"--shards", "4294967296"},
      {"--range", "1x:3"},       {"--range", "1:3x"},         {"--range", "-1:3"},
      {"--seed", "0x5eedz"},     {"--seed", ""},              {"--days", "2d"},
      {"--days", "-1"},          {"--shard-retries", "-1"},   {"--shard-retries", "1x"},
  };
  // Every case is well formed but for its one flag (a later --range
  // replaces the first), so only the malformed value can stop the run.
  const std::string journal = testing::TempDir() + "gfwsim_worker_args.ckpt";
  for (const std::vector<std::string>& flags : cases) {
    std::vector<std::string> args = {"--run", "--journal", journal, "--range", "0:1"};
    args.insert(args.end(), flags.begin(), flags.end());
    EXPECT_EXIT(exec_gfw_worker(args), testing::ExitedWithCode(2), "usage")
        << flags[0] << " " << flags[1];
  }
}

// This process's address-space size (VmSize in /proc/self/status), in
// bytes; 0 where it cannot be read. Terabytes under AddressSanitizer's
// shadow mappings, so a limit relative to it works in every build.
std::uint64_t address_space_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) return std::stoull(line.substr(7)) << 10;
  }
  return 0;
}

TEST(GfwWorkerArgsDeathTest, SkipSetIsSizedByTheRangeNotTheShardCount) {
  // A skip set sized by --shards would ask for 4 GiB here before running
  // the range's one shard; under an address-space limit of 1 GiB above
  // this process's own size, that allocation is refused.
  const std::string journal = testing::TempDir() + "gfwsim_worker_huge_shards.ckpt";
  std::remove(journal.c_str());
  const auto run_limited = [&] {
    const rlim_t limit = address_space_bytes() + (1ull << 30);
    const rlimit address_space{limit, limit};
    ::setrlimit(RLIMIT_AS, &address_space);
    exec_gfw_worker({"--run", "--journal", journal, "--shards", "4294967295", "--range",
                     "0:1", "--days", "1"});
  };
  EXPECT_EXIT(run_limited(), testing::ExitedWithCode(0), "");
  const gfw::Checkpoint loaded = gfw::load_checkpoint(journal);
  EXPECT_EQ(loaded.header.shard_count, 4294967295u);
  ASSERT_EQ(loaded.shards.size(), 1u);
  EXPECT_EQ(loaded.shards.begin()->first, 0u);
  std::remove(journal.c_str());
}

}  // namespace
}  // namespace gfwsim::bench
