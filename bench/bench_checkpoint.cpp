// Checkpoint/resume demonstration: run a standard campaign with a shard
// journal and print a SHA-1 over the merged result. The digest covers
// every summary field but log_offset and every probe record (via the
// checkpoint codec), so two invocations printing the same digest
// produced bit-identical campaigns — which is exactly what CI's
// kill-and-resume smoke asserts:
//
//   bench_checkpoint --checkpoint j.ckpt            (killed mid-run)
//   bench_checkpoint --checkpoint j.ckpt --resume   (finishes the rest)
//   bench_checkpoint                                (uninterrupted ref)
//
// The resumed digest must equal the uninterrupted one. With --workers N
// the same campaign runs across forked worker processes, and
// --worker-kill-after K SIGKILLs one of them mid-flight — CI's chaos job
// asserts the digest STILL equals the undisturbed run's.
#include <vector>

#include "bench_common.h"
#include "crypto/sha1.h"
#include "gfw/checkpoint.h"

using namespace gfwsim;

namespace {

// SHA-1 over the checkpoint-codec serialization of every shard: summary
// fields, blocking history, teardown report, server rows, resource
// verdict, and the shard's records.
std::string campaign_digest(const gfw::CampaignResult& result) {
  crypto::Sha1 hash;
  for (const auto& shard : result.shards) {
    gfw::ProbeLog slice;
    std::vector<gfw::ProbeRecord> records(
        result.log.records().begin() + static_cast<std::ptrdiff_t>(shard.log_offset),
        result.log.records().begin() +
            static_cast<std::ptrdiff_t>(shard.log_offset + shard.probes));
    slice.assign(std::move(records));
    hash.update(gfw::serialize_shard(shard, slice));
  }
  const auto digest = hash.finish();
  return hex_encode(ByteSpan(digest.data(), digest.size()));
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchOptions options = bench::parse_bench_args(argc, argv);
  analysis::print_banner(std::cout,
                         "Supervised campaign: checkpoint journal and resume");
  bench::BenchReporter report("checkpoint", options);

  const gfw::CampaignResult result =
      bench::run_standard_sharded(options, 0x0C4E, /*default_days=*/3);
  bench::print_run_summary(std::cout, result, options);

  const std::string digest = campaign_digest(result);
  // Stable machine-greppable line for the CI kill-and-resume smoke.
  std::cout << "merged-campaign-sha1: " << digest << "\n\n";

  report.metric("merged campaign SHA-1 (summaries + records)",
                "identical across kill/resume and thread counts", digest);
  report.metric("shards quarantined", "0 (campaign complete)",
                std::to_string(result.shards_quarantined()));
  // Interrupted partial runs exit nonzero too: their digest covers only
  // the merged prefix and must not be compared against a full run.
  return result.complete() && !result.interrupted ? 0 : 1;
}
