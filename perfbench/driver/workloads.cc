#include "driver/workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <barrier>
#include <cstdio>
#include <cmath>
#include <functional>
#include <memory>
#include <thread>

#include "core/streaming_problem.h"
#include "costmodel/wide_deep.h"
#include "driver/measure.h"
#include "driver/serving.h"
#include "ilp/problem_index.h"
#include "plan/builder.h"
#include "select/iterview.h"
#include "select/rlview.h"
#include "subquery/clusterer.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace {

using autoview::Status;

// Advisor settings shared by every run, so the advisor does the same
// work whatever the run seed (the seed shapes the request streams).
constexpr uint64_t kAdvisorSeed = 42;
constexpr size_t kIterViewIterations = 60;
constexpr size_t kRlViewEpisodes = 16;
constexpr size_t kWideDeepEpochs = 1;
constexpr size_t kOnlineEpoch = 64;
constexpr size_t kOnlineWindow = 256;
constexpr uint64_t kOnlineBudgetBytes = 48 * 1024;
constexpr double kZipfExponent = 1.1;

// A single client's measured stream is cut into this many windows.
// Window w serves the same requests in every round, so each window is
// timed once per round, and serve_qps takes every window from the round
// in which it ran fastest (see FastestPerItem).
constexpr size_t kWindows = 10;

// Rng stream numbers under the run seed.
constexpr uint64_t kMeasuredStream = 0;
constexpr uint64_t kWarmupStream = 100;
constexpr uint64_t kVerifyStream = 200;

/// A workload: how to deploy it and which requests to send.
struct Workload {
  std::string name;
  size_t clients = 1;
  /// Rounds per run. Each round sets the workload up from scratch and
  /// serves the same measured stream, so set-up, advice and every
  /// request are timed once per round.
  size_t rounds = 3;
  /// Measured requests per second of --seconds (a fixed rate, not a
  /// measured one: the request count depends on --seconds only).
  double requests_per_second = 0.0;
  /// The measured total is rounded up to a multiple of this.
  size_t granularity = 1;
  /// Verify served requests right after serving them (off the clock),
  /// because the advisor may swap the store under later requests.
  bool verify_inline = false;
  size_t verify_per_client = 0;
  /// Generates the data and runs the advisor's batch part.
  std::function<Status(SpanBuffer*, Deployment*)> deploy;
  /// Per-client warm-up streams (the same in every set-up).
  std::function<std::vector<std::vector<size_t>>(uint64_t seed, size_t nq)>
      warmup;
  /// Per-client measured streams of `per_client` requests each.
  std::function<std::vector<std::vector<size_t>>(
      uint64_t seed, size_t per_client, size_t nq)>
      measured;
};

double SecondsSince(int64_t start_ns) {
  return 1e-9 * static_cast<double>(NowNanos() - start_ns);
}

autoview::SubqueryClusterer::QueryFn QueryFn(const Deployment& d) {
  return [&d](size_t qi) -> autoview::PlanNodePtr {
    autoview::Result<autoview::PlanNodePtr> plan =
        autoview::PlanBuilder(&d.workload.db->catalog())
            .BuildFromSql(d.workload.sql[qi]);
    return plan.ok() ? std::move(plan).value() : nullptr;
  };
}

/// serve-zipf: the batch advisor over WK1 at Table I scale.
Status DeployServeZipf(SpanBuffer* spans, Deployment* d) {
  {
    ScopedSpan span(spans, "workload.generate");
    d->workload = autoview::GenerateCloudWorkload(autoview::Wk1FullSpec());
  }
  AttachEngine(d);
  d->store = std::make_unique<autoview::MaterializedViewStore>(
      d->workload.db.get(), autoview::ViewStoreOptions{});
  const int64_t advise_start = NowNanos();
  const auto query_fn = QueryFn(*d);
  const autoview::WorkloadAnalysis analysis = [&] {
    ScopedSpan span(spans, "subquery.cluster");
    return autoview::SubqueryClusterer().AnalyzeStreaming(d->sql().size(),
                                                          query_fn);
  }();
  autoview::Result<autoview::StreamingProblem> problem = [&] {
    ScopedSpan span(spans, "core.problem");
    return autoview::BuildStreamingProblem(
        d->workload.db->catalog(), analysis, query_fn,
        autoview::StreamingProblemOptions{});
  }();
  if (!problem.ok()) return problem.status();
  const auto index = [&] {
    ScopedSpan span(spans, "ilp.index");
    return std::make_unique<autoview::MvsProblemIndex>(
        problem.value().compact);
  }();
  autoview::Result<autoview::MvsSolution> solution = [&] {
    ScopedSpan span(spans, "select.iterview");
    autoview::IterViewSelector::Options options;
    options.iterations = kIterViewIterations;
    options.seed = kAdvisorSeed;
    return autoview::IterViewSelector(options).SelectIndexed(*index);
  }();
  if (!solution.ok()) return solution.status();
  {
    ScopedSpan span(spans, "engine.materialize");
    for (size_t j = 0; j < solution.value().z.size(); ++j) {
      if (!solution.value().z[j]) continue;
      autoview::MaterializeOptions options;
      options.utility = index->ViewUtility(j);
      autoview::Result<const autoview::MaterializedView*> view =
          d->store->Materialize(problem.value().candidate_plans[j],
                                *d->executor, options);
      if (!view.ok()) return view.status();
      ++d->views_selected;
    }
  }
  d->advise_s = SecondsSince(advise_start);
  d->select_utility = solution.value().utility;
  d->deadline_fired = solution.value().timed_out;
  return Status::OK();
}

/// online-churn: a live advisor over scaled WK1 with a byte budget.
Status DeployOnlineChurn(SpanBuffer* spans, Deployment* d) {
  {
    ScopedSpan span(spans, "workload.generate");
    d->workload = autoview::GenerateCloudWorkload(autoview::Wk1Spec());
  }
  AttachEngine(d);
  autoview::ViewStoreOptions store_options;
  store_options.budget_bytes = kOnlineBudgetBytes;
  d->store = std::make_unique<autoview::MaterializedViewStore>(
      d->workload.db.get(), store_options);
  autoview::OnlineAdvisorOptions options;
  options.seed = kAdvisorSeed;
  options.trigger = autoview::ReselectTrigger::kQueryEpoch;
  options.epoch_queries = kOnlineEpoch;
  options.window_queries = kOnlineWindow;
  options.select_iterations = kIterViewIterations;
  options.reselect_budget_ms = 0.0;  // no deadline
  d->advisor = std::make_unique<autoview::OnlineAdvisor>(
      d->workload.db.get(), d->store.get(), options);
  return Status::OK();
}

/// advise-job: the paper's Table V path over the JOB-like workload.
Status DeployAdviseJob(SpanBuffer* spans, Deployment* d) {
  {
    ScopedSpan span(spans, "workload.generate");
    d->workload =
        autoview::GenerateJobWorkload(autoview::JobWorkloadSpec{});
  }
  AttachEngine(d);
  autoview::AutoViewOptions options;
  options.exact_benefits = true;
  options.seed = kAdvisorSeed;
  d->system = std::make_unique<autoview::AutoViewSystem>(d->workload.db.get(),
                                                         options);
  {
    ScopedSpan span(spans, "core.load");
    AV_RETURN_NOT_OK(d->system->LoadWorkload(d->sql()));
  }
  if (d->system->skipped_queries() != 0) {
    return Status::Internal(std::to_string(d->system->skipped_queries()) +
                            " JOB queries failed to plan");
  }
  {
    ScopedSpan span(spans, "core.ground_truth");
    AV_RETURN_NOT_OK(d->system->BuildGroundTruth());
  }
  autoview::WideDeepOptions wd_options = autoview::WideDeepOptions::Full();
  wd_options.epochs = kWideDeepEpochs;
  wd_options.seed = kAdvisorSeed;
  autoview::WideDeepEstimator estimator(&d->workload.db->catalog(),
                                        wd_options);
  {
    ScopedSpan span(spans, "costmodel.train");
    AV_RETURN_NOT_OK(estimator.Train(d->system->cost_dataset()));
  }
  d->store = std::make_unique<autoview::MaterializedViewStore>(
      d->workload.db.get(), autoview::ViewStoreOptions{});
  const int64_t advise_start = NowNanos();
  autoview::Result<autoview::MvsProblem> problem = [&] {
    ScopedSpan span(spans, "costmodel.estimate");
    return d->system->EstimateProblem(estimator);
  }();
  if (!problem.ok()) return problem.status();
  autoview::Result<autoview::MvsSolution> solution = [&] {
    ScopedSpan span(spans, "select.rlview");
    autoview::RLViewSelector::Options rl_options;
    rl_options.episodes = kRlViewEpisodes;
    rl_options.seed = kAdvisorSeed;
    return autoview::RLViewSelector(rl_options).Select(problem.value());
  }();
  if (!solution.ok()) return solution.status();
  {
    ScopedSpan span(spans, "engine.materialize");
    for (size_t j = 0; j < solution.value().z.size(); ++j) {
      if (!solution.value().z[j]) continue;
      autoview::Result<const autoview::MaterializedView*> view =
          d->store->Materialize(d->system->candidates()[j].plan,
                                *d->executor);
      if (!view.ok()) return view.status();
      ++d->views_selected;
    }
  }
  d->advise_s = SecondsSince(advise_start);
  d->select_utility = solution.value().utility;
  d->deadline_fired = solution.value().timed_out;
  return Status::OK();
}

std::vector<Workload> AllWorkloads() {
  std::vector<Workload> all;
  {
    Workload w;
    w.name = "serve-zipf";
    w.clients = 2;
    w.rounds = 3;
    w.requests_per_second = 8000;
    w.granularity = 2;
    w.verify_per_client = 32;
    w.deploy = DeployServeZipf;
    w.warmup = [](uint64_t seed, size_t nq) {
      return ZipfStreams(seed, kWarmupStream, 2, 2000,
                         FixedRankPermutation(nq), kZipfExponent);
    };
    w.measured = [](uint64_t seed, size_t per_client, size_t nq) {
      return ZipfStreams(seed, kMeasuredStream, 2, per_client,
                         FixedRankPermutation(nq), kZipfExponent);
    };
    all.push_back(std::move(w));
  }
  {
    Workload w;
    w.name = "online-churn";
    w.clients = 1;
    w.rounds = 5;
    // Over 1,000 requests a round at --seconds 15, enough for a p99 of the
    // per-request fastest latencies (a 4-core host serves about 130/s).
    w.requests_per_second = 340;
    // Whole epochs in each churn quarter, so the advisor re-selects at the
    // same stream positions, over the same queries, whatever the seed:
    // the seed orders the requests within an epoch only.
    w.granularity = 4 * kOnlineEpoch;
    w.verify_inline = true;
    w.verify_per_client = 32;
    w.deploy = DeployOnlineChurn;
    // The warm-up fills the advisor's first window (whole epochs), so its
    // first selections are part of set-up.
    w.warmup = [](uint64_t seed, size_t nq) {
      return std::vector<std::vector<size_t>>{
          CycleStream(seed, kWarmupStream, kOnlineWindow, nq, kOnlineEpoch)};
    };
    w.measured = [](uint64_t seed, size_t per_client, size_t nq) {
      return std::vector<std::vector<size_t>>{
          ChurnStream(seed, kMeasuredStream, per_client, nq, kOnlineEpoch)};
    };
    all.push_back(std::move(w));
  }
  {
    Workload w;
    w.name = "advise-job";
    w.clients = 2;
    w.rounds = 3;
    w.requests_per_second = 700;
    w.granularity = 226;  // whole passes over the JOB queries
    w.verify_per_client = 16;
    w.deploy = DeployAdviseJob;
    w.warmup = [](uint64_t seed, size_t nq) {
      return RoundRobinStreams(seed, 2, (nq + 1) / 2, nq);
    };
    w.measured = [](uint64_t seed, size_t per_client, size_t nq) {
      return RoundRobinStreams(seed, 2, per_client, nq);
    };
    all.push_back(std::move(w));
  }
  return all;
}

using Streams = std::vector<std::vector<size_t>>;

/// Runs each client's warm-up stream and then, once every client has
/// warmed up, its measured stream: one thread per client when there are
/// several, so warm-up and measurement run on the same threads (and
/// allocator arenas). `at_boundary` runs once between the two phases,
/// while no client is running. A single client's measured stream is cut
/// into kWindows windows; several clients' streams are one window.
/// Returns the end time of each window.
std::vector<int64_t> RunClients(std::vector<Client>* clients,
                                const Streams& warmup, const Streams& measured,
                                const Streams& verify_at, bool verify_inline,
                                const std::function<void()>& at_boundary) {
  const std::vector<size_t> none;
  std::vector<int64_t> window_ends;
  if (clients->size() == 1) {
    Client& client = (*clients)[0];
    client.Run(warmup[0], /*measured=*/false, none, false);
    at_boundary();
    client.Run(measured[0], /*measured=*/true, verify_at[0], verify_inline,
               kWindows, [&] { window_ends.push_back(NowNanos()); });
    return window_ends;
  }
  std::barrier boundary(static_cast<std::ptrdiff_t>(clients->size()),
                        [&at_boundary]() noexcept { at_boundary(); });
  std::vector<std::thread> threads;
  threads.reserve(clients->size());
  for (size_t c = 0; c < clients->size(); ++c) {
    threads.emplace_back([&, c] {
      Client& client = (*clients)[c];
      client.Run(warmup[c], /*measured=*/false, none, false);
      boundary.arrive_and_wait();
      client.Run(measured[c], /*measured=*/true, verify_at[c], verify_inline);
    });
  }
  for (std::thread& thread : threads) thread.join();
  window_ends.push_back(NowNanos());
  return window_ends;
}

/// One repetition of the workload: set-up (with warm-up), then the
/// measured stream. Every round does the same work.
struct Round {
  double setup_s = 0.0;
  double advise_s = 0.0;
  double window_s = 0.0;  ///< measured wall time minus inline verification
  std::vector<double> window_s_each;  ///< the same, per window
  /// Per measured request and ingest, client after client in stream
  /// order. With one client the n-th entry is the same call in every
  /// round.
  std::vector<double> latency_ms;
  std::vector<double> ingest_ms;
  std::vector<size_t> served_queries;
  double cpu_units = 0.0;
  double served_cost = 0.0;
  uint64_t substitutions = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_lookups = 0;
  uint64_t evictions = 0;
  uint64_t reselections = 0;
  uint64_t store_bytes = 0;
  size_t views_selected = 0;
  double utility = 0.0;

  double qps() const {
    return static_cast<double>(latency_ms.size()) / std::max(1e-9, window_s);
  }
};

void Absorb(const ClientLog& log, RunResult* result) {
  result->attempted += log.attempted;
  result->failed += log.failed;
  for (const std::string& error : log.errors) {
    if (result->errors.size() < 16) result->errors.push_back(error);
  }
}

double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

Metric Value(double value, const std::string& unit, size_t samples) {
  return Metric{value, unit, samples};
}

/// A percentile metric over `values`; a layer the workload does not run
/// (no samples) reads 0, too few samples beyond the percentile read null.
Metric PercentileMetric(const std::vector<double>& values, double p) {
  if (values.empty()) return Metric{0.0, "ms", 0};
  return Metric{SupportedPercentile(values, p), "ms", values.size()};
}

double Sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

/// Fills `result->per_layer` from the summarized spans in
/// `result->layers` (pooled over rounds) and the layer counters of the
/// last round (every round does the same work).
void AddPerLayerMetrics(const std::vector<Round>& rounds, size_t requests,
                        double serve_qps, RunResult* result) {
  const Round& last = rounds.back();
  const auto durations = [&](const char* name) {
    auto found = result->layers.find(name);
    return found == result->layers.end() ? std::vector<double>{}
                                          : found->second.duration_ms;
  };
  // A set-up phase runs once per round: report its median in seconds.
  const auto phase_s = [&](const char* name) {
    const std::vector<double> ms = durations(name);
    return Value(1e-3 * Median(ms), "s", ms.size());
  };
  // Time spent in a serving-loop call, per round.
  const auto round_total_s = [&](const char* name) {
    const std::vector<double> ms = durations(name);
    return Value(1e-3 * Sum(ms) / static_cast<double>(rounds.size()), "s",
                 ms.size());
  };
  const auto per_request = [&](double total, const char* unit) {
    const size_t n = last.latency_ms.size();
    return Value(n > 0 ? total / static_cast<double>(n) : 0.0, unit, n);
  };
  const double unexplained_ms =
      result->layers.count("request") ? result->layers["request"].self_ms
                                      : 0.0;

  auto& layer = result->per_layer;
  layer.emplace_back("plan.build_p50_ms",
                     PercentileMetric(durations("plan.build"), 50));
  layer.emplace_back("plan.build_p99_ms",
                     PercentileMetric(durations("plan.build"), 99));
  layer.emplace_back("engine.rewrite_p50_ms",
                     PercentileMetric(durations("engine.rewrite"), 50));
  layer.emplace_back("engine.rewrite_p99_ms",
                     PercentileMetric(durations("engine.rewrite"), 99));
  layer.emplace_back(
      "engine.rewrite_cache_hit_ratio",
      Value(last.cache_lookups > 0
                ? static_cast<double>(last.cache_hits) / last.cache_lookups
                : 0.0,
            "ratio", last.cache_lookups));
  layer.emplace_back("engine.substitutions_per_req",
                     per_request(static_cast<double>(last.substitutions),
                                 "count"));
  layer.emplace_back("engine.execute_p50_ms",
                     PercentileMetric(durations("engine.execute"), 50));
  layer.emplace_back("engine.execute_p99_ms",
                     PercentileMetric(durations("engine.execute"), 99));
  layer.emplace_back("engine.cpu_units_per_req",
                     per_request(last.cpu_units, "cpu_units"));
  layer.emplace_back(
      "request.unexplained_ms",
      Value(requests > 0 ? unexplained_ms / static_cast<double>(requests)
                         : 0.0,
            "ms", requests));
  layer.emplace_back("workload.generate_s", phase_s("workload.generate"));
  layer.emplace_back("subquery.cluster_s", phase_s("subquery.cluster"));
  layer.emplace_back("core.problem_s", phase_s("core.problem"));
  layer.emplace_back("ilp.index_s", phase_s("ilp.index"));
  layer.emplace_back("select.iterview_s", phase_s("select.iterview"));
  layer.emplace_back("engine.materialize_s", phase_s("engine.materialize"));
  layer.emplace_back("engine.store_bytes",
                     Value(static_cast<double>(last.store_bytes), "bytes", 1));
  layer.emplace_back(
      "core.advisor_ingest_p50_ms",
      PercentileMetric(durations("core.advisor_ingest"), 50));
  layer.emplace_back(
      "core.advisor_ingest_p99_ms",
      PercentileMetric(durations("core.advisor_ingest"), 99));
  layer.emplace_back("core.advisor_ingest_s",
                     round_total_s("core.advisor_ingest"));
  layer.emplace_back(
      "core.advisor_reselect_p50_ms",
      PercentileMetric(durations("core.advisor_reselect"), 50));
  layer.emplace_back("core.advisor_reselect_s",
                     round_total_s("core.advisor_reselect"));
  layer.emplace_back(
      "core.advisor_reselections",
      Value(static_cast<double>(last.reselections), "count", 1));
  layer.emplace_back("engine.evictions",
                     Value(static_cast<double>(last.evictions), "count", 1));
  layer.emplace_back("core.load_s", phase_s("core.load"));
  layer.emplace_back("core.ground_truth_s", phase_s("core.ground_truth"));
  layer.emplace_back("costmodel.train_s", phase_s("costmodel.train"));
  layer.emplace_back("costmodel.estimate_s", phase_s("costmodel.estimate"));
  layer.emplace_back("select.rlview_s", phase_s("select.rlview"));
  layer.emplace_back("select.utility", Value(last.utility, "usd", 1));
  layer.emplace_back(
      "select.views_selected",
      Value(static_cast<double>(last.views_selected), "count", 1));
  layer.emplace_back("workload.repeat_share",
                     Value(result->fingerprint.repeat_share, "ratio",
                           last.latency_ms.size()));
  layer.emplace_back("trace.serve_qps", Value(serve_qps, "1/s", requests));
}

}  // namespace

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const Workload& w : AllWorkloads()) names.push_back(w.name);
  return names;
}

std::vector<std::pair<std::string, std::string>> EndToEndMetricNames() {
  return {{"setup_s", "s"},           {"advise_s", "s"},
          {"serve_qps", "1/s"},       {"latency_p50_ms", "ms"},
          {"latency_p99_ms", "ms"},   {"served_saving", "ratio"},
          {"peak_rss_mb", "MiB"},     {"error_rate", "ratio"}};
}

std::vector<std::pair<std::string, std::string>> PerLayerMetricNames() {
  return {{"plan.build_p50_ms", "ms"},
          {"plan.build_p99_ms", "ms"},
          {"engine.rewrite_p50_ms", "ms"},
          {"engine.rewrite_p99_ms", "ms"},
          {"engine.rewrite_cache_hit_ratio", "ratio"},
          {"engine.substitutions_per_req", "count"},
          {"engine.execute_p50_ms", "ms"},
          {"engine.execute_p99_ms", "ms"},
          {"engine.cpu_units_per_req", "cpu_units"},
          {"request.unexplained_ms", "ms"},
          {"workload.generate_s", "s"},
          {"subquery.cluster_s", "s"},
          {"core.problem_s", "s"},
          {"ilp.index_s", "s"},
          {"select.iterview_s", "s"},
          {"engine.materialize_s", "s"},
          {"engine.store_bytes", "bytes"},
          {"core.advisor_ingest_p50_ms", "ms"},
          {"core.advisor_ingest_p99_ms", "ms"},
          {"core.advisor_ingest_s", "s"},
          {"core.advisor_reselect_p50_ms", "ms"},
          {"core.advisor_reselect_s", "s"},
          {"core.advisor_reselections", "count"},
          {"engine.evictions", "count"},
          {"core.load_s", "s"},
          {"core.ground_truth_s", "s"},
          {"costmodel.train_s", "s"},
          {"costmodel.estimate_s", "s"},
          {"select.rlview_s", "s"},
          {"select.utility", "usd"},
          {"select.views_selected", "count"},
          {"workload.repeat_share", "ratio"},
          {"trace.serve_qps", "1/s"}};
}

bool RunWorkload(const RunConfig& config, RunResult* result,
                 std::string* error) {
  std::vector<Workload> all = AllWorkloads();
  auto it = std::find_if(all.begin(), all.end(), [&](const Workload& w) {
    return w.name == config.workload;
  });
  if (it == all.end()) {
    *error = "unknown workload: " + config.workload;
    return false;
  }
  const Workload& w = *it;
  result->clients = w.clients;
  result->rounds_run = w.rounds;
  const auto robustness_start = autoview::GlobalRobustness().Read();

  // Thread 0 records set-up spans; client c records into buffer c + 1.
  SpanBuffer setup_spans(0);
  SpanBuffer* setup_trace = config.trace ? &setup_spans : nullptr;
  std::vector<SpanBuffer> client_spans;
  client_spans.reserve(w.clients);
  for (size_t c = 0; c < w.clients; ++c) {
    client_spans.emplace_back(static_cast<int>(c + 1));
  }

  const double wanted = w.requests_per_second * config.seconds /
                        static_cast<double>(w.rounds);
  const size_t per_round =
      std::max<size_t>(1, static_cast<size_t>(std::ceil(
                              wanted / static_cast<double>(w.granularity)))) *
      w.granularity;
  const size_t per_client = per_round / w.clients;
  Streams warmup, measured, verify_at;
  std::vector<Round> rounds;
  std::unique_ptr<Deployment> d;
  for (size_t k = 0; k < w.rounds; ++k) {
    d.reset();
    Round r;
    const int64_t start = NowNanos();
    d = std::make_unique<Deployment>();
    const Status deployed = w.deploy(setup_trace, d.get());
    ++result->attempted;
    if (!deployed.ok()) {
      ++result->failed;
      result->errors.push_back("set-up: " + deployed.ToString());
      return true;
    }
    const size_t nq = d->sql().size();
    if (k == 0) {
      warmup = w.warmup(config.seed, nq);
      measured = w.measured(config.seed, per_client, nq);
      for (size_t c = 0; c < w.clients; ++c) {
        verify_at.push_back(SamplePositions(config.seed, kVerifyStream + c,
                                            per_client, w.verify_per_client));
      }
    }
    std::vector<Client> clients;
    for (size_t c = 0; c < w.clients; ++c) {
      clients.emplace_back(d.get(), config.trace ? &client_spans[c] : nullptr,
                           ((k + 1) << 40) | ((c + 1) << 32));
    }
    const int64_t warm_start = NowNanos();
    int64_t boundary = 0;
    autoview::RewriteCacheCounters::Snapshot cache_before;
    autoview::ViewStoreCounters::Snapshot store_before;
    uint64_t reselections_before = 0;
    const std::vector<int64_t> window_ends = RunClients(
        &clients, warmup, measured, verify_at, w.verify_inline, [&] {
          boundary = NowNanos();
          cache_before = autoview::GlobalRewriteCache().Read();
          store_before = autoview::GlobalViewStore().Read();
          if (d->advisor) reselections_before = d->advisor->stats().reselections;
        });
    const auto cache_after = autoview::GlobalRewriteCache().Read();
    const auto store_after = autoview::GlobalViewStore().Read();
    if (setup_trace != nullptr) setup_trace->Record("warmup", warm_start, boundary);
    r.setup_s = 1e-9 * static_cast<double>(boundary - start);
    for (size_t i = 0; i < window_ends.size(); ++i) {
      r.window_s_each.push_back(
          1e-9 * static_cast<double>(window_ends[i] -
                                     (i == 0 ? boundary : window_ends[i - 1])));
    }
    r.cache_hits = cache_after.hits - cache_before.hits;
    r.cache_lookups = r.cache_hits + cache_after.misses - cache_before.misses;
    r.evictions = store_after.evictions - store_before.evictions;

    // Off the clock: verification and aggregation.
    ClientLog post;
    for (Client& client : clients) {
      ClientLog& log = client.log();
      for (const auto& [query, plan] : log.deferred) {
        VerifyServed(*d, query, *plan, &post);
      }
      r.latency_ms.insert(r.latency_ms.end(), log.latency_ms.begin(),
                          log.latency_ms.end());
      r.ingest_ms.insert(r.ingest_ms.end(), log.ingest_ms.begin(),
                         log.ingest_ms.end());
      r.served_queries.insert(r.served_queries.end(), log.query.begin(),
                              log.query.end());
      // Only one client verifies inline, so its pauses are the windows'.
      double paused_before = 0.0;
      for (size_t i = 0;
           i < log.window_paused_s.size() && i < r.window_s_each.size(); ++i) {
        r.window_s_each[i] -= log.window_paused_s[i] - paused_before;
        paused_before = log.window_paused_s[i];
      }
      r.cpu_units += Sum(log.cpu_units);
      r.served_cost += Sum(log.cost);
      r.substitutions += log.substitutions;
      Absorb(log, result);
    }
    r.window_s = Sum(r.window_s_each);
    r.store_bytes = d->store->bytes_used();
    if (d->advisor) {
      const autoview::OnlineAdvisorStats stats = d->advisor->stats();
      r.reselections = stats.reselections - reselections_before;
      r.advise_s = 1e-3 * Sum(r.ingest_ms);
      r.utility = stats.incumbent_utility;
      r.views_selected = d->advisor->SelectedKeys().size();
      d->deadline_fired = d->deadline_fired || stats.last_reselect_timed_out;
    } else {
      r.advise_s = d->advise_s;
      r.utility = d->select_utility;
      r.views_selected = d->views_selected;
    }
    if (d->deadline_fired) post.Fail("a selection deadline fired");
    // Every round does the same work, so its exact counts must repeat.
    // online-churn at more than one advisor thread is exempt: view ids,
    // and so rewrites, follow build-completion order (README.md).
    const bool strict = !(d->advisor && autoview::DefaultPool().size() > 1);
    if (k > 0 && strict &&
        (r.cpu_units != rounds[0].cpu_units ||
         r.views_selected != rounds[0].views_selected ||
         r.utility != rounds[0].utility)) {
      post.Fail("exact-repeat: round " + std::to_string(k + 1) +
                " did different work than round 1");
    }
    post.attempted += k > 0 && strict ? 1 : 0;
    if (k + 1 == w.rounds) {
      const double base_cost =
          BaseCost(*d, r.served_queries, w.clients, &post);
      result->served_saving =
          base_cost > 0 ? 1.0 - r.served_cost / base_cost : 0.0;
    }
    Absorb(post, result);
    std::fprintf(stderr,
                 "[perfbench] %s round %zu: set-up %.3f s, %zu requests "
                 "in %.3f s\n",
                 w.name.c_str(), k + 1, r.setup_s, r.latency_ms.size(),
                 r.window_s);
    rounds.push_back(std::move(r));
  }
  if (autoview::GlobalRobustness().Read().selection_timeouts !=
      robustness_start.selection_timeouts) {
    ++result->attempted;
    ++result->failed;
    result->errors.push_back("a selection deadline fired");
  }
  const Round& last = rounds.back();
  result->requests = last.latency_ms.size();
  result->fingerprint.cpu_units = last.cpu_units;
  result->fingerprint.views_selected = last.views_selected;
  result->fingerprint.utility = last.utility;
  result->fingerprint.repeat_share = RepeatShare(measured);

  // Per-round values, and the run's value for each timed metric.
  std::vector<double> setup_s, advise_s, qps;
  std::vector<std::vector<double>> window_s, latency_ms, ingest_ms;
  size_t requests = 0;  // measured requests of all rounds
  for (const Round& r : rounds) {
    setup_s.push_back(r.setup_s);
    advise_s.push_back(r.advise_s);
    qps.push_back(r.qps());
    window_s.push_back(r.window_s_each);
    latency_ms.push_back(r.latency_ms);
    ingest_ms.push_back(r.ingest_ms);
    requests += r.latency_ms.size();
  }
  // With one client (and one advisor thread) every round repeats each
  // request and each IngestSql call exactly, so each is timed by its
  // fastest round: contention from other tenants of a shared host only
  // ever adds time, in bursts shorter than a round. serve_qps then takes
  // each window's fastest round. With several clients the requests
  // interleave differently in every round, so the serving metrics pool
  // all rounds. Set-up and batch advice are the median round.
  std::vector<size_t> fastest_round;
  std::vector<double> served_latency;
  double serve_qps = 0.0;
  if (w.clients == 1) {
    served_latency = FastestPerItem(latency_ms);
    serve_qps = static_cast<double>(served_latency.size()) /
                std::max(1e-9, Sum(FastestPerItem(window_s, &fastest_round)));
  } else {
    double total_s = 0.0;
    for (const Round& r : rounds) {
      served_latency.insert(served_latency.end(), r.latency_ms.begin(),
                            r.latency_ms.end());
      total_s += r.window_s;
    }
    serve_qps = static_cast<double>(requests) / std::max(1e-9, total_s);
  }
  const double advise = d->advisor ? 1e-3 * Sum(FastestPerItem(ingest_ms))
                                   : Median(advise_s);
  result->rounds = {
      {"setup_s", setup_s},
      {"advise_s", advise_s},
      {"serve_qps", qps},
      {"fastest_window_round",
       std::vector<double>(fastest_round.begin(), fastest_round.end())}};
  auto& e2e = result->end_to_end;
  e2e.emplace_back("setup_s", Value(Median(setup_s), "s", rounds.size()));
  e2e.emplace_back("advise_s",
                   Value(advise, "s",
                         d->advisor ? ingest_ms[0].size() : rounds.size()));
  e2e.emplace_back("serve_qps",
                   Value(serve_qps, "1/s", served_latency.size()));
  e2e.emplace_back("latency_p50_ms", PercentileMetric(served_latency, 50));
  e2e.emplace_back("latency_p99_ms", PercentileMetric(served_latency, 99));
  e2e.emplace_back("served_saving",
                   Value(result->served_saving, "ratio", last.latency_ms.size()));
  e2e.emplace_back("peak_rss_mb", Value(PeakRssMb(), "MiB", 1));
  e2e.emplace_back(
      "error_rate",
      Value(static_cast<double>(result->failed) /
                static_cast<double>(std::max<size_t>(1, result->attempted)),
            "ratio", result->attempted));

  if (!config.trace) return true;

  std::vector<const SpanBuffer*> buffers = {&setup_spans};
  for (const SpanBuffer& b : client_spans) buffers.push_back(&b);
  result->layers = SummarizeSpans(buffers);
  AddPerLayerMetrics(rounds, requests, serve_qps, result);

  if (!config.trace_path.empty() && !WriteSpans(config.trace_path, buffers)) {
    *error = "cannot write spans to " + config.trace_path;
    return false;
  }
  return true;
}

}  // namespace perfbench
