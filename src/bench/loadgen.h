#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace autoview {

class ThreadPool;

/// \brief Configuration of the throughput load generator (after the
/// kv-server harness shape: clients / warmup / measure / seed / workload
/// preset / output files). All randomness in a run flows from `seed` —
/// the repro lint in scripts/check_determinism.sh enforces that the
/// loadgen never draws ambient entropy.
struct LoadGenConfig {
  int clients = 8;          ///< concurrent serving clients (pool tasks)
  double warmup_s = 1.0;    ///< untimed ramp-up window (timed mode)
  double measure_s = 5.0;   ///< measured window (timed mode)
  uint64_t seed = 12345;    ///< root seed; client c uses stream c

  std::string workload = "WK1";  ///< preset: WK1 | WK2
  double scale = 1.0;            ///< bench-scale multiplier (full=false)
  bool full = false;             ///< full paper counts (38.6k / 157.6k)

  /// When nonzero, ignore the time windows and serve exactly this many
  /// requests per client from the precomputed schedule — the
  /// deterministic mode (same request multiset for any thread count).
  size_t max_requests = 0;

  size_t select_iterations = 60;   ///< IterView iterations
  double select_timeout_s = 20.0;  ///< selection deadline (anytime)

  /// Byte budget of the serving view store (0 = unlimited). When the
  /// selection does not fit, the store keeps the best utility-per-byte
  /// views and the rest of the requests fall back to base tables — the
  /// run still completes with zero failed queries.
  uint64_t view_budget_bytes = 0;

  /// Request-mix drift across the schedule ("" = stationary uniform):
  /// "churn" draws from a rotating quarter of the query space (four
  /// phases), "shift" slides a Zipf(1.2) hot spot across it with
  /// progress, "adhoc" sends half the traffic to a fixed nq/8 head and
  /// the rest uniform. Deterministic — each client's drift stream comes
  /// from the same seeded Rng stream as the stationary schedule.
  /// Requires max_requests > 0 (progress = position in the schedule).
  std::string drift;

  /// Serve through a live OnlineAdvisor instead of the one-shot batch
  /// pipeline: every request is ingested before being served from a
  /// freshly pinned store snapshot, so epoch-triggered re-selections
  /// hot-swap the view set mid-run while serving continues.
  bool online = false;

  /// Advisor re-selection epoch in queries (online mode only).
  size_t advisor_epoch = 32;

  std::string csv_file;   ///< summary CSV path ("" = skip)
  std::string json_file;  ///< summary JSON path ("" = skip)

  bool operator==(const LoadGenConfig& other) const {
    return clients == other.clients && warmup_s == other.warmup_s &&
           measure_s == other.measure_s && seed == other.seed &&
           workload == other.workload && scale == other.scale &&
           full == other.full && max_requests == other.max_requests &&
           select_iterations == other.select_iterations &&
           select_timeout_s == other.select_timeout_s &&
           view_budget_bytes == other.view_budget_bytes &&
           drift == other.drift && online == other.online &&
           advisor_epoch == other.advisor_epoch &&
           csv_file == other.csv_file && json_file == other.json_file;
  }
};

/// Parses `--key=value` flags (e.g. `--clients=16 --workload=WK2
/// --full`). Unknown flags are an error; every field of LoadGenConfig
/// round-trips through ToArgs + ParseLoadGenArgs.
Result<LoadGenConfig> ParseLoadGenArgs(const std::vector<std::string>& args);

/// Serializes `config` back into the flag form ParseLoadGenArgs accepts.
std::vector<std::string> ToArgs(const LoadGenConfig& config);

/// \brief Summary of one measured load-generation run.
struct LoadGenResult {
  std::string workload;  ///< preset name
  std::string mode;      ///< "scaled" or "full"
  size_t num_queries = 0;     ///< workload |Q| (generated)
  size_t num_tables = 0;      ///< workload table count
  size_t num_candidates = 0;  ///< |Z| after clustering
  size_t num_selected = 0;    ///< materialized views
  int clients = 0;
  uint64_t seed = 0;

  size_t requests = 0;     ///< measured requests (all clients)
  double elapsed_s = 0.0;  ///< measured wall time
  double qps = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double mean_ms = 0.0;

  size_t csr_shards = 0;        ///< compressed benefit-matrix shards
  size_t csr_bytes = 0;         ///< compressed payload size
  double peak_rss_mb = 0.0;     ///< process peak RSS after the run
  double select_utility = 0.0;  ///< chosen solution utility
  bool select_timed_out = false;

  uint64_t view_budget_bytes = 0;  ///< configured store budget (0 = off)
  uint64_t store_bytes = 0;        ///< stored view bytes while serving
  size_t store_views = 0;          ///< resident views while serving
  uint64_t evictions = 0;          ///< budget evictions during this run
  uint64_t rewrite_fallbacks = 0;  ///< evicted-view rewrite fallbacks
  size_t failed_requests = 0;      ///< requests that returned an error

  std::string drift;             ///< drift mode ("" = stationary)
  bool online = false;           ///< served through the online advisor
  uint64_t ingested = 0;         ///< advisor-ingested queries (online)
  uint64_t reselections = 0;     ///< advisor re-selections (online)
  uint64_t swaps_committed = 0;  ///< generation hot swaps (online)

  /// Per-phase latency breakdown over the same measured requests as
  /// p50_ms..p99_ms, so a serving regression is attributable to the
  /// phase that moved: parse (SQL -> plan), rewrite (pin + view
  /// substitution), execute (cost-mode execution of the final plan).
  double parse_p50_ms = 0.0;
  double parse_p95_ms = 0.0;
  double parse_p99_ms = 0.0;
  double rewrite_p50_ms = 0.0;
  double rewrite_p95_ms = 0.0;
  double rewrite_p99_ms = 0.0;
  double execute_p50_ms = 0.0;
  double execute_p95_ms = 0.0;
  double execute_p99_ms = 0.0;

  /// GlobalRewriteCache() deltas over this run.
  uint64_t rewrite_cache_hits = 0;
  uint64_t rewrite_cache_misses = 0;
};

/// Nearest-rank percentile (p in [0, 100]) over ascending `sorted`;
/// 0 for an empty vector. Exposed for the fixture tests.
double Percentile(const std::vector<double>& sorted, double p);

/// The deterministic request schedule: client c's requests are drawn
/// from Rng stream c of `seed` — uniformly over [0, num_queries) when
/// `drift` is empty, otherwise per the LoadGenConfig::drift modes
/// (churn / shift / adhoc), with progress measured by position in the
/// schedule. The multiset of scheduled requests depends only on (seed,
/// clients, per_client, num_queries, drift) — never on the thread count
/// executing it.
std::vector<std::vector<size_t>> BuildSchedule(
    uint64_t seed, int clients, size_t per_client, size_t num_queries,
    const std::string& drift = std::string());

/// Runs the full pipeline for `config`: generate the preset workload,
/// cluster it (streaming), build the compressed benefit matrix in
/// shards, select views with deadline-bounded incremental IterView,
/// materialize the selection, then drive the parse -> rewrite -> execute
/// serving path from `config.clients` concurrent clients on the shared
/// thread pool, measuring per-request latency. Writes the CSV/JSON
/// outputs when configured.
Result<LoadGenResult> RunLoadGen(const LoadGenConfig& config);

/// Writers for the summary formats (single JSON object with a
/// `results` array / CSV with a header row). Exposed for golden tests.
std::string ThroughputJson(const std::vector<LoadGenResult>& results);
std::string ThroughputCsv(const std::vector<LoadGenResult>& results);

/// Writes `text` to `path` (single blob, trailing newline preserved).
Status WriteTextFile(const std::string& path, const std::string& text);

/// Peak resident set size of this process in bytes (getrusage).
size_t PeakRssBytes();

}  // namespace autoview
