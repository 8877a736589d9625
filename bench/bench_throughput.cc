// Throughput harness: runs the load generator over the WK1/WK2 presets
// (scaled and, with --full-too or AUTOVIEW_BENCH_FULL=1, the full paper
// counts of Table I) and writes BENCH_throughput.json. Each row reports
// QPS and p50/p95/p99 latency of the parse -> rewrite -> execute serving
// path after view selection, plus the compressed benefit-matrix
// footprint and peak RSS of the whole pipeline.
//
// Usage: bench_throughput [loadgen flags...] — flags are forwarded to
// ParseLoadGenArgs and applied on top of each preset row (e.g.
// --clients=16 --measure_s=10).

#include <cstdlib>
#include <cstring>

#include "bench/loadgen.h"
#include "bench_common.h"

namespace autoview {
namespace bench {
namespace {

int Run(int argc, char** argv) {
  bool full_too = std::getenv("AUTOVIEW_BENCH_FULL") != nullptr;
  std::vector<std::string> flags;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full-too") == 0) {
      full_too = true;
    } else {
      flags.push_back(argv[i]);
    }
  }

  struct Row {
    const char* workload;
    bool full;
    uint64_t view_budget_bytes;  // 0 = unlimited store
    bool online = false;         // serve through the OnlineAdvisor
    const char* drift = "";      // request-mix drift (online rows)
  };
  // The third row reruns WK1 under a deliberately tight view-store
  // budget — about half the ~110 KB the unlimited WK1-scaled store
  // occupies — showing the utility-per-byte eviction path end to end
  // (store bytes stay <= budget, evicted views degrade to base-table
  // serving, zero failed requests). The last two rows serve WK1 through
  // the online advisor — stationary and under churn drift — so the
  // streaming ingest -> incremental re-clustering/re-indexing ->
  // warm-started re-selection -> generation hot-swap loop runs end to
  // end (reselections/swaps_committed > 0, zero failed requests).
  std::vector<Row> rows = {{"WK1", false, 0},
                           {"WK2", false, 0},
                           {"WK1", false, 48 * 1024},
                           {"WK1", false, 0, true, ""},
                           {"WK1", false, 0, true, "churn"}};
  if (full_too) {
    rows.push_back({"WK1", true, 0});
    rows.push_back({"WK2", true, 0});
  }

  std::vector<LoadGenResult> results;
  for (const Row& row : rows) {
    std::vector<std::string> args = flags;
    args.push_back(StrFormat("--workload=%s", row.workload));
    args.push_back(StrFormat("--full=%s", row.full ? "true" : "false"));
    if (row.view_budget_bytes > 0) {
      args.push_back(StrFormat(
          "--view_budget_bytes=%llu",
          static_cast<unsigned long long>(row.view_budget_bytes)));
    }
    if (row.online) {
      // Online rows run the deterministic scheduled mode (drift progress
      // is schedule position) with a short per-epoch re-selection.
      args.push_back("--online=true");
      args.push_back(StrFormat("--drift=%s", row.drift));
      args.push_back("--max_requests=100");
      args.push_back("--advisor_epoch=25");
    }
    Result<LoadGenConfig> config = ParseLoadGenArgs(args);
    if (!config.ok()) {
      std::fprintf(stderr, "bad flags: %s\n",
                   config.status().ToString().c_str());
      return 1;
    }
    // Full-scale rows keep the run bounded: a fixed request budget per
    // client instead of a timed window, and a short selection deadline.
    if (row.full && config.value().max_requests == 0) {
      config.value().max_requests = 25;
    }
    std::fprintf(stderr, "[bench_throughput] %s %s%s%s ...\n", row.workload,
                 row.full ? "full" : "scaled",
                 row.online ? " online" : "",
                 row.online && row.drift[0] != '\0' ? " drift" : "");
    Result<LoadGenResult> result = RunLoadGen(config.value());
    if (!result.ok()) {
      std::fprintf(stderr, "loadgen failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    results.push_back(result.value());
    std::fprintf(stderr,
                 "[bench_throughput] %s %s: %zu req, %.1f qps, "
                 "p50 %.3f ms, p99 %.3f ms, rss %.1f MB\n",
                 row.workload, row.full ? "full" : "scaled",
                 results.back().requests, results.back().qps,
                 results.back().p50_ms, results.back().p99_ms,
                 results.back().peak_rss_mb);
  }

  const std::string json = ThroughputJson(results);
  std::fputs(json.c_str(), stdout);
  Status write = WriteTextFile("BENCH_throughput.json", json);
  if (!write.ok()) {
    std::fprintf(stderr, "write failed: %s\n", write.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace autoview

int main(int argc, char** argv) { return autoview::bench::Run(argc, argv); }
