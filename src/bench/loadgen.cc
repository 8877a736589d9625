#include "bench/loadgen.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <numeric>
#include <utility>

#include "core/advisor.h"
#include "core/streaming_problem.h"
#include "engine/executor.h"
#include "engine/rewriter.h"
#include "engine/view_store.h"
#include "ilp/problem_index.h"
#include "plan/builder.h"
#include "select/iterview.h"
#include "util/logging.h"
#include "subquery/clusterer.h"
#include "util/metrics.h"
#include "util/parse.h"
#include "util/random.h"
#include "util/strings.h"
#include "util/thread_pool.h"
#include "workload/generator.h"

namespace autoview {

namespace {

/// Parses one `--key=value` (or bare `--full`) flag into `config`.
Status ParseFlag(const std::string& arg, LoadGenConfig* config) {
  if (arg.rfind("--", 0) != 0) {
    return Status::InvalidArgument("expected --key=value, got: " + arg);
  }
  const size_t eq = arg.find('=');
  const std::string key = arg.substr(2, eq == std::string::npos
                                            ? std::string::npos
                                            : eq - 2);
  const std::string value =
      eq == std::string::npos ? "" : arg.substr(eq + 1);
  // Strict whole-string parsing (util/parse.h): signs on unsigned
  // flags, trailing junk, and overflow are all errors instead of the
  // silent wrap/truncate the strtoull family allowed.
  auto parse_u64 = [&](uint64_t* out) {
    const Status status = ParseUint64(value, out);
    return status.ok() ? status
                       : Status::InvalidArgument("bad integer for --" + key +
                                                 ": " + value);
  };
  auto parse_double = [&](double* out) {
    const Status status = ParseDouble(value, out);
    return status.ok() ? status
                       : Status::InvalidArgument("bad number for --" + key +
                                                 ": " + value);
  };

  uint64_t u = 0;
  if (key == "clients") {
    AV_RETURN_NOT_OK(parse_u64(&u));
    config->clients = static_cast<int>(u);
  } else if (key == "warmup_s") {
    AV_RETURN_NOT_OK(parse_double(&config->warmup_s));
  } else if (key == "measure_s") {
    AV_RETURN_NOT_OK(parse_double(&config->measure_s));
  } else if (key == "seed") {
    AV_RETURN_NOT_OK(parse_u64(&config->seed));
  } else if (key == "workload") {
    config->workload = value;
  } else if (key == "scale") {
    AV_RETURN_NOT_OK(parse_double(&config->scale));
  } else if (key == "full") {
    config->full = value.empty() || value == "true" || value == "1";
  } else if (key == "max_requests") {
    AV_RETURN_NOT_OK(parse_u64(&u));
    config->max_requests = u;
  } else if (key == "select_iterations") {
    AV_RETURN_NOT_OK(parse_u64(&u));
    config->select_iterations = u;
  } else if (key == "select_timeout_s") {
    AV_RETURN_NOT_OK(parse_double(&config->select_timeout_s));
  } else if (key == "view_budget_bytes") {
    AV_RETURN_NOT_OK(parse_u64(&config->view_budget_bytes));
  } else if (key == "drift") {
    config->drift = value;
  } else if (key == "online") {
    config->online = value.empty() || value == "true" || value == "1";
  } else if (key == "advisor_epoch") {
    AV_RETURN_NOT_OK(parse_u64(&u));
    config->advisor_epoch = u;
  } else if (key == "csv") {
    config->csv_file = value;
  } else if (key == "json") {
    config->json_file = value;
  } else {
    return Status::InvalidArgument("unknown loadgen flag: --" + key);
  }
  return Status::OK();
}

}  // namespace

Result<LoadGenConfig> ParseLoadGenArgs(const std::vector<std::string>& args) {
  LoadGenConfig config;
  for (const std::string& arg : args) {
    AV_RETURN_NOT_OK(ParseFlag(arg, &config));
  }
  if (config.clients <= 0) {
    return Status::InvalidArgument("--clients must be positive");
  }
  if (config.workload != "WK1" && config.workload != "WK2") {
    return Status::InvalidArgument("--workload must be WK1 or WK2, got: " +
                                   config.workload);
  }
  if (config.drift != "" && config.drift != "churn" &&
      config.drift != "shift" && config.drift != "adhoc") {
    return Status::InvalidArgument(
        "--drift must be churn, shift, or adhoc, got: " + config.drift);
  }
  if (!config.drift.empty() && config.max_requests == 0) {
    return Status::InvalidArgument(
        "--drift requires --max_requests (progress is schedule position)");
  }
  if (config.advisor_epoch == 0) {
    return Status::InvalidArgument("--advisor_epoch must be positive");
  }
  return config;
}

std::vector<std::string> ToArgs(const LoadGenConfig& config) {
  std::vector<std::string> args;
  args.push_back(StrFormat("--clients=%d", config.clients));
  args.push_back(StrFormat("--warmup_s=%.17g", config.warmup_s));
  args.push_back(StrFormat("--measure_s=%.17g", config.measure_s));
  args.push_back(StrFormat("--seed=%llu",
                           static_cast<unsigned long long>(config.seed)));
  args.push_back("--workload=" + config.workload);
  args.push_back(StrFormat("--scale=%.17g", config.scale));
  args.push_back(StrFormat("--full=%s", config.full ? "true" : "false"));
  args.push_back(StrFormat("--max_requests=%zu", config.max_requests));
  args.push_back(
      StrFormat("--select_iterations=%zu", config.select_iterations));
  args.push_back(
      StrFormat("--select_timeout_s=%.17g", config.select_timeout_s));
  args.push_back(StrFormat(
      "--view_budget_bytes=%llu",
      static_cast<unsigned long long>(config.view_budget_bytes)));
  args.push_back("--drift=" + config.drift);
  args.push_back(StrFormat("--online=%s", config.online ? "true" : "false"));
  args.push_back(StrFormat("--advisor_epoch=%zu", config.advisor_epoch));
  args.push_back("--csv=" + config.csv_file);
  args.push_back("--json=" + config.json_file);
  return args;
}

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  if (p <= 0.0) return sorted.front();
  // Nearest-rank: the smallest value with at least p% of samples <= it.
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const size_t index =
      std::min(sorted.size() - 1,
               static_cast<size_t>(std::max(1.0, rank)) - 1);
  return sorted[index];
}

std::vector<std::vector<size_t>> BuildSchedule(uint64_t seed, int clients,
                                               size_t per_client,
                                               size_t num_queries,
                                               const std::string& drift) {
  std::vector<std::vector<size_t>> schedule(
      static_cast<size_t>(std::max(clients, 0)));
  if (num_queries == 0) return schedule;
  const size_t nq = num_queries;
  for (int c = 0; c < clients; ++c) {
    Rng rng(Rng::StreamSeed(seed, static_cast<uint64_t>(c)));
    auto& reqs = schedule[static_cast<size_t>(c)];
    reqs.reserve(per_client);
    for (size_t n = 0; n < per_client; ++n) {
      size_t qi = 0;
      if (drift == "churn") {
        // Rotating quarter: phase p of 4 draws only from
        // [p*nq/4, (p+1)*nq/4) — the active set fully churns between
        // phases.
        const size_t phase = std::min<size_t>(3, 4 * n / per_client);
        const size_t lo = phase * nq / 4;
        const size_t hi = std::max(lo + 1, (phase + 1) * nq / 4);
        qi = lo + static_cast<size_t>(rng.UniformInt(
                      0, static_cast<int64_t>(hi - lo) - 1));
      } else if (drift == "shift") {
        // A Zipf(1.2) hot spot whose head slides across the whole query
        // space as the schedule progresses.
        const size_t hot = n * nq / per_client;
        qi = (hot + static_cast<size_t>(
                        rng.Zipf(static_cast<int64_t>(nq), 1.2))) %
             nq;
      } else if (drift == "adhoc") {
        // Half the traffic pins a fixed nq/8 head (stable, cacheable);
        // the other half is one-off uniform noise.
        const size_t head = std::max<size_t>(1, nq / 8);
        qi = static_cast<size_t>(
            rng.Bernoulli(0.5)
                ? rng.UniformInt(0, static_cast<int64_t>(head) - 1)
                : rng.UniformInt(0, static_cast<int64_t>(nq) - 1));
      } else {
        qi = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(nq) - 1));
      }
      reqs.push_back(qi);
    }
  }
  return schedule;
}

size_t PeakRssBytes() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  // ru_maxrss is kilobytes on Linux.
  return static_cast<size_t>(usage.ru_maxrss) * 1024;
}

namespace {

using SteadyClock = std::chrono::steady_clock;

double SecondsBetween(SteadyClock::time_point a, SteadyClock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One client's serving loop: parse -> rewrite -> execute, recording
/// per-request latency (ms) into `latencies` (owned by this client).
/// In scheduled mode it runs its exact schedule; in timed mode it draws
/// from its own Rng stream until `stop_at`, recording only requests that
/// started after `record_from` (the warmup boundary).
struct ClientTask {
  const GeneratedWorkload* workload = nullptr;
  const Rewriter* rewriter = nullptr;
  const Executor* executor = nullptr;

  /// Online mode: every request is ingested into the advisor (which may
  /// re-select and hot-swap `store` right here) before it is served.
  OnlineAdvisor* advisor = nullptr;

  /// Requests are served through Rewriter::RewriteServing against this
  /// store (view index + rewrite cache, pinning only the substituted
  /// views), so committed swaps become visible mid-run.
  MaterializedViewStore* store = nullptr;

  std::vector<double> latencies;
  // Phase breakdown, index-aligned with `latencies` (one entry per
  // successful measured request).
  std::vector<double> parse_ms;
  std::vector<double> rewrite_ms;
  std::vector<double> execute_ms;
  size_t errors = 0;

  void Serve(size_t query_index) {
    if (advisor != nullptr) {
      // Outside the timed section: the swap happens on this (client)
      // thread, but other clients keep serving from their pins — the
      // measured latency is the request itself, which never blocks on a
      // re-selection.
      // An ingest failure is advisory-only: the request still serves
      // against the current view set, it just misses one window update.
      Status ingest = advisor->IngestSql(workload->sql[query_index]).status();
      if (!ingest.ok()) {
        AV_LOG(Warning) << "online ingest failed: " << ingest.ToString();
      }
    }
    const auto start = SteadyClock::now();
    PlanBuilder builder(&workload->db->catalog());
    Result<PlanNodePtr> plan =
        builder.BuildFromSql(workload->sql[query_index]);
    if (!plan.ok()) {
      ++errors;
      return;
    }
    const auto parsed = SteadyClock::now();
    // The pins in `serving` keep the substituted views alive until the
    // plan has executed.
    Result<ServingRewrite> serving =
        rewriter->RewriteServing(plan.value(), store);
    if (!serving.ok()) {
      ++errors;
      return;
    }
    const PlanNodePtr& final_plan = serving.value().plan;
    const auto rewritten_at = SteadyClock::now();
    Result<CostReport> cost = executor->ExecuteForCost(*final_plan);
    if (!cost.ok()) {
      ++errors;
      return;
    }
    const auto done = SteadyClock::now();
    latencies.push_back(1e3 * SecondsBetween(start, done));
    parse_ms.push_back(1e3 * SecondsBetween(start, parsed));
    rewrite_ms.push_back(1e3 * SecondsBetween(parsed, rewritten_at));
    execute_ms.push_back(1e3 * SecondsBetween(rewritten_at, done));
  }

  void RunScheduled(const std::vector<size_t>& schedule) {
    latencies.reserve(schedule.size());
    parse_ms.reserve(schedule.size());
    rewrite_ms.reserve(schedule.size());
    execute_ms.reserve(schedule.size());
    for (size_t qi : schedule) Serve(qi);
  }

  void RunTimed(uint64_t client_seed, SteadyClock::time_point record_from,
                SteadyClock::time_point stop_at) {
    Rng rng(client_seed);
    const size_t nq = workload->sql.size();
    while (SteadyClock::now() < stop_at) {
      const size_t qi = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(nq) - 1));
      const bool record = SteadyClock::now() >= record_from;
      const size_t before = latencies.size();
      Serve(qi);
      if (!record && latencies.size() > before) {
        // Warmup request: drop it from every aligned series.
        latencies.pop_back();
        parse_ms.pop_back();
        rewrite_ms.pop_back();
        execute_ms.pop_back();
      }
    }
  }
};

/// Sorts `values` and fills the three percentile slots.
void FillPercentiles(std::vector<double> values, double* p50, double* p95,
                     double* p99) {
  std::sort(values.begin(), values.end());
  *p50 = Percentile(values, 50);
  *p95 = Percentile(values, 95);
  *p99 = Percentile(values, 99);
}

}  // namespace

Result<LoadGenResult> RunLoadGen(const LoadGenConfig& config) {
  LoadGenResult result;
  result.workload = config.workload;
  result.mode = config.full ? "full" : "scaled";
  result.clients = config.clients;
  result.seed = config.seed;

  // 1. Generate the preset workload.
  CloudWorkloadSpec spec;
  if (config.workload == "WK1") {
    spec = config.full ? Wk1FullSpec() : Wk1Spec(config.scale);
  } else if (config.workload == "WK2") {
    spec = config.full ? Wk2FullSpec() : Wk2Spec(config.scale);
  } else {
    return Status::InvalidArgument("unknown workload preset: " +
                                   config.workload);
  }
  GeneratedWorkload workload = GenerateCloudWorkload(spec);
  result.num_queries = workload.sql.size();
  result.num_tables = workload.db->catalog().num_tables();
  if (workload.sql.empty()) {
    return Status::InvalidArgument("empty workload");
  }

  // Store counters are reported as deltas so concurrent runs in one
  // process stay additive.
  const ViewStoreCounters::Snapshot store_before = GlobalViewStore().Read();
  const RobustnessCounters::Snapshot robust_before = GlobalRobustness().Read();
  const RewriteCacheCounters::Snapshot cache_before =
      GlobalRewriteCache().Read();
  Executor executor(workload.db.get());
  ViewStoreOptions store_options;
  store_options.budget_bytes = config.view_budget_bytes;
  result.view_budget_bytes = config.view_budget_bytes;
  result.drift = config.drift;
  result.online = config.online;
  MaterializedViewStore store(workload.db.get(), store_options);
  std::unique_ptr<OnlineAdvisor> advisor;
  ViewSetSnapshot snapshot;

  if (config.online) {
    // 2'. Online mode: a live advisor replaces the one-shot cluster ->
    // build -> select -> materialize pipeline. Clients stream every
    // request into it; each epoch it re-selects (warm-started, under the
    // selection deadline) and hot-swaps the store generation while the
    // other clients keep serving from their pinned snapshots.
    OnlineAdvisorOptions advisor_options;
    advisor_options.seed = config.seed;
    advisor_options.trigger = ReselectTrigger::kQueryEpoch;
    advisor_options.epoch_queries = config.advisor_epoch;
    advisor_options.window_queries = 4 * config.advisor_epoch;
    advisor_options.select_iterations = config.select_iterations;
    if (config.select_timeout_s > 0) {
      advisor_options.reselect_budget_ms = 1e3 * config.select_timeout_s;
    }
    advisor = std::make_unique<OnlineAdvisor>(workload.db.get(), &store,
                                              advisor_options);
  } else {
    // 2. Cluster (streaming: plans stay transient) and build the
    // compressed benefit matrix in bounded shards. query_fn re-parses on
    // demand — the re-invocable contract of the streaming paths.
    const auto query_fn = [&workload](size_t qi) -> PlanNodePtr {
      PlanBuilder builder(&workload.db->catalog());
      Result<PlanNodePtr> plan = builder.BuildFromSql(workload.sql[qi]);
      return plan.ok() ? std::move(plan).value() : nullptr;
    };
    SubqueryClusterer clusterer;
    WorkloadAnalysis analysis =
        clusterer.AnalyzeStreaming(workload.sql.size(), query_fn);
    result.num_candidates = analysis.candidates.size();

    StreamingProblemOptions problem_options;
    AV_ASSIGN_OR_RETURN(StreamingProblem problem,
                        BuildStreamingProblem(workload.db->catalog(), analysis,
                                              query_fn, problem_options));
    result.csr_shards = problem.compact.rows.num_shards();
    result.csr_bytes = problem.compact.rows.byte_size();

    // 3. Deadline-bounded incremental selection straight off the shards.
    const MvsProblemIndex index(problem.compact);
    IterViewSelector::Options select_options;
    select_options.iterations = config.select_iterations;
    select_options.seed = config.seed;
    if (config.select_timeout_s > 0) {
      select_options.deadline =
          Deadline::AfterMillis(1e3 * config.select_timeout_s);
    }
    IterViewSelector selector(select_options);
    AV_ASSIGN_OR_RETURN(MvsSolution solution, selector.SelectIndexed(index));
    result.select_utility = solution.utility;
    result.select_timed_out = solution.timed_out;

    // 4. Materialize the chosen views into the budgeted store, each
    // scored with its solver utility so any forced eviction keeps the
    // strongest utility-per-byte views. A view the budget rejects
    // outright is skipped — its queries serve from base tables.
    for (size_t j = 0; j < solution.z.size(); ++j) {
      if (!solution.z[j]) continue;
      MaterializeOptions mopts;
      mopts.utility = index.ViewUtility(j);
      Result<const MaterializedView*> view =
          store.Materialize(problem.candidate_plans[j], executor, mopts);
      if (!view.ok() &&
          view.status().code() != StatusCode::kResourceExhausted) {
        return view.status();
      }
    }

    // Pin the selected views for the whole run: pinned views cannot be
    // physically dropped mid-request, and views the budget evicted
    // simply are not in the set. (Online mode pins per request only, so
    // committed hot swaps become visible mid-run.)
    snapshot = store.PinLive();
    result.num_selected = snapshot.views().size();
    result.store_views = store.size();
    result.store_bytes = store.bytes_used();
  }

  // 5. Serve: config.clients concurrent clients on the shared pool,
  // each parsing/rewriting/executing its own request stream.
  Rewriter rewriter(&workload.db->catalog());
  const int clients = config.clients;
  std::vector<ClientTask> tasks(static_cast<size_t>(clients));
  for (auto& task : tasks) {
    task.workload = &workload;
    task.rewriter = &rewriter;
    task.executor = &executor;
    task.advisor = advisor.get();
    task.store = &store;
  }

  ThreadPool& pool = DefaultPool();
  SteadyClock::time_point measure_start;
  SteadyClock::time_point measure_end;
  if (config.max_requests > 0) {
    const std::vector<std::vector<size_t>> schedule =
        BuildSchedule(config.seed, clients, config.max_requests,
                      workload.sql.size(), config.drift);
    measure_start = SteadyClock::now();
    pool.ParallelFor(0, static_cast<size_t>(clients), [&](size_t c) {
      tasks[c].RunScheduled(schedule[c]);
    });
    measure_end = SteadyClock::now();
  } else {
    const auto start = SteadyClock::now();
    const auto record_from =
        start + std::chrono::duration_cast<SteadyClock::duration>(
                    std::chrono::duration<double>(config.warmup_s));
    const auto stop_at =
        record_from + std::chrono::duration_cast<SteadyClock::duration>(
                          std::chrono::duration<double>(config.measure_s));
    measure_start = record_from;
    pool.ParallelFor(0, static_cast<size_t>(clients), [&](size_t c) {
      tasks[c].RunTimed(Rng::StreamSeed(config.seed, c), record_from,
                        stop_at);
    });
    measure_end = stop_at;
  }

  // 6. Aggregate.
  std::vector<double> latencies;
  for (const auto& task : tasks) {
    latencies.insert(latencies.end(), task.latencies.begin(),
                     task.latencies.end());
  }
  std::sort(latencies.begin(), latencies.end());
  result.requests = latencies.size();
  result.elapsed_s = SecondsBetween(measure_start, measure_end);
  result.qps = result.elapsed_s > 0
                   ? static_cast<double>(result.requests) / result.elapsed_s
                   : 0.0;
  result.p50_ms = Percentile(latencies, 50);
  result.p95_ms = Percentile(latencies, 95);
  result.p99_ms = Percentile(latencies, 99);
  result.mean_ms =
      latencies.empty()
          ? 0.0
          : std::accumulate(latencies.begin(), latencies.end(), 0.0) /
                static_cast<double>(latencies.size());
  result.peak_rss_mb =
      static_cast<double>(PeakRssBytes()) / (1024.0 * 1024.0);
  std::vector<double> parse_all, rewrite_all, execute_all;
  for (const auto& task : tasks) {
    parse_all.insert(parse_all.end(), task.parse_ms.begin(),
                     task.parse_ms.end());
    rewrite_all.insert(rewrite_all.end(), task.rewrite_ms.begin(),
                       task.rewrite_ms.end());
    execute_all.insert(execute_all.end(), task.execute_ms.begin(),
                       task.execute_ms.end());
  }
  FillPercentiles(std::move(parse_all), &result.parse_p50_ms,
                  &result.parse_p95_ms, &result.parse_p99_ms);
  FillPercentiles(std::move(rewrite_all), &result.rewrite_p50_ms,
                  &result.rewrite_p95_ms, &result.rewrite_p99_ms);
  FillPercentiles(std::move(execute_all), &result.execute_p50_ms,
                  &result.execute_p95_ms, &result.execute_p99_ms);
  for (const auto& task : tasks) result.failed_requests += task.errors;
  snapshot.Release();
  if (config.online) {
    const OnlineAdvisorStats advisor_stats = advisor->stats();
    result.num_candidates = advisor_stats.candidate_views;
    result.num_selected = advisor->SelectedKeys().size();
    result.select_utility = advisor_stats.incumbent_utility;
    result.select_timed_out = advisor_stats.last_reselect_timed_out;
    result.ingested = advisor_stats.ingested;
    result.reselections = advisor_stats.reselections;
    result.swaps_committed = advisor_stats.swaps_committed;
    result.store_views = store.size();
    result.store_bytes = store.bytes_used();
  }
  result.evictions =
      GlobalViewStore().Read().evictions - store_before.evictions;
  result.rewrite_fallbacks = GlobalRobustness().Read().rewrite_fallbacks -
                             robust_before.rewrite_fallbacks;
  const RewriteCacheCounters::Snapshot cache_after =
      GlobalRewriteCache().Read();
  result.rewrite_cache_hits = cache_after.hits - cache_before.hits;
  result.rewrite_cache_misses = cache_after.misses - cache_before.misses;

  if (!config.csv_file.empty()) {
    AV_RETURN_NOT_OK(WriteTextFile(config.csv_file, ThroughputCsv({result})));
  }
  if (!config.json_file.empty()) {
    AV_RETURN_NOT_OK(
        WriteTextFile(config.json_file, ThroughputJson({result})));
  }
  return result;
}

namespace {

std::string ResultJson(const LoadGenResult& r) {
  return StrFormat(
      "    {\"workload\": \"%s\", \"mode\": \"%s\", \"queries\": %zu, "
      "\"tables\": %zu, \"candidates\": %zu, \"selected\": %zu, "
      "\"clients\": %d, \"seed\": %llu, \"requests\": %zu, "
      "\"elapsed_s\": %.3f, \"qps\": %.2f, \"p50_ms\": %.3f, "
      "\"p95_ms\": %.3f, \"p99_ms\": %.3f, \"mean_ms\": %.3f, "
      "\"csr_shards\": %zu, \"csr_bytes\": %zu, \"peak_rss_mb\": %.1f, "
      "\"select_utility\": %.4f, \"select_timed_out\": %s, "
      "\"view_budget_bytes\": %llu, \"store_bytes\": %llu, "
      "\"store_views\": %zu, \"evictions\": %llu, "
      "\"rewrite_fallbacks\": %llu, \"failed_requests\": %zu, "
      "\"drift\": \"%s\", \"online\": %s, \"ingested\": %llu, "
      "\"reselections\": %llu, \"swaps_committed\": %llu, "
      "\"parse_p50_ms\": %.3f, \"parse_p95_ms\": %.3f, "
      "\"parse_p99_ms\": %.3f, \"rewrite_p50_ms\": %.3f, "
      "\"rewrite_p95_ms\": %.3f, \"rewrite_p99_ms\": %.3f, "
      "\"execute_p50_ms\": %.3f, \"execute_p95_ms\": %.3f, "
      "\"execute_p99_ms\": %.3f, \"rewrite_cache_hits\": %llu, "
      "\"rewrite_cache_misses\": %llu}",
      r.workload.c_str(), r.mode.c_str(), r.num_queries, r.num_tables,
      r.num_candidates, r.num_selected, r.clients,
      static_cast<unsigned long long>(r.seed), r.requests, r.elapsed_s,
      r.qps, r.p50_ms, r.p95_ms, r.p99_ms, r.mean_ms, r.csr_shards,
      r.csr_bytes, r.peak_rss_mb, r.select_utility,
      r.select_timed_out ? "true" : "false",
      static_cast<unsigned long long>(r.view_budget_bytes),
      static_cast<unsigned long long>(r.store_bytes), r.store_views,
      static_cast<unsigned long long>(r.evictions),
      static_cast<unsigned long long>(r.rewrite_fallbacks),
      r.failed_requests, r.drift.c_str(), r.online ? "true" : "false",
      static_cast<unsigned long long>(r.ingested),
      static_cast<unsigned long long>(r.reselections),
      static_cast<unsigned long long>(r.swaps_committed),
      r.parse_p50_ms, r.parse_p95_ms,
      r.parse_p99_ms, r.rewrite_p50_ms, r.rewrite_p95_ms, r.rewrite_p99_ms,
      r.execute_p50_ms, r.execute_p95_ms, r.execute_p99_ms,
      static_cast<unsigned long long>(r.rewrite_cache_hits),
      static_cast<unsigned long long>(r.rewrite_cache_misses));
}

}  // namespace

std::string ThroughputJson(const std::vector<LoadGenResult>& results) {
  std::string out = "{\n  \"benchmark\": \"autoview_throughput\",\n"
                    "  \"results\": [\n";
  for (size_t n = 0; n < results.size(); ++n) {
    out += ResultJson(results[n]);
    out += n + 1 < results.size() ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

std::string ThroughputCsv(const std::vector<LoadGenResult>& results) {
  std::string out =
      "workload,mode,queries,tables,candidates,selected,clients,seed,"
      "requests,elapsed_s,qps,p50_ms,p95_ms,p99_ms,mean_ms,csr_shards,"
      "csr_bytes,peak_rss_mb,select_utility,select_timed_out,"
      "view_budget_bytes,store_bytes,store_views,evictions,"
      "rewrite_fallbacks,failed_requests,drift,online,ingested,"
      "reselections,swaps_committed,parse_p50_ms,parse_p95_ms,"
      "parse_p99_ms,rewrite_p50_ms,rewrite_p95_ms,rewrite_p99_ms,"
      "execute_p50_ms,execute_p95_ms,execute_p99_ms,rewrite_cache_hits,"
      "rewrite_cache_misses\n";
  for (const LoadGenResult& r : results) {
    out += StrFormat(
        "%s,%s,%zu,%zu,%zu,%zu,%d,%llu,%zu,%.3f,%.2f,%.3f,%.3f,%.3f,%.3f,"
        "%zu,%zu,%.1f,%.4f,%d,%llu,%llu,%zu,%llu,%llu,%zu,%s,%d,%llu,%llu,"
        "%llu,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%llu,%llu\n",
        r.workload.c_str(), r.mode.c_str(), r.num_queries, r.num_tables,
        r.num_candidates, r.num_selected, r.clients,
        static_cast<unsigned long long>(r.seed), r.requests, r.elapsed_s,
        r.qps, r.p50_ms, r.p95_ms, r.p99_ms, r.mean_ms, r.csr_shards,
        r.csr_bytes, r.peak_rss_mb, r.select_utility,
        r.select_timed_out ? 1 : 0,
        static_cast<unsigned long long>(r.view_budget_bytes),
        static_cast<unsigned long long>(r.store_bytes), r.store_views,
        static_cast<unsigned long long>(r.evictions),
        static_cast<unsigned long long>(r.rewrite_fallbacks),
        r.failed_requests, r.drift.c_str(), r.online ? 1 : 0,
        static_cast<unsigned long long>(r.ingested),
        static_cast<unsigned long long>(r.reselections),
        static_cast<unsigned long long>(r.swaps_committed),
        r.parse_p50_ms, r.parse_p95_ms, r.parse_p99_ms,
        r.rewrite_p50_ms, r.rewrite_p95_ms, r.rewrite_p99_ms,
        r.execute_p50_ms, r.execute_p95_ms, r.execute_p99_ms,
        static_cast<unsigned long long>(r.rewrite_cache_hits),
        static_cast<unsigned long long>(r.rewrite_cache_misses));
  }
  return out;
}

Status WriteTextFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Internal("cannot open for writing: " + path);
  }
  const size_t written = std::fwrite(text.data(), 1, text.size(), f);
  const int close_rc = std::fclose(f);
  if (written != text.size() || close_rc != 0) {
    return Status::Internal("short write: " + path);
  }
  return Status::OK();
}

}  // namespace autoview
