#pragma once

// The closed-loop serving side of the benchmark: a deployed workload
// (database, view store, optional online advisor) and the clients that
// send it requests. Each client waits for its reply before sending the
// next request.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/advisor.h"
#include "core/autoview.h"
#include "driver/trace.h"
#include "engine/executor.h"
#include "engine/rewriter.h"
#include "engine/view_store.h"
#include "workload/generator.h"

namespace perfbench {

/// One deployed workload. Members are destroyed in reverse order, so
/// the advisor and the store go before the database they point into.
struct Deployment {
  autoview::GeneratedWorkload workload;
  std::unique_ptr<autoview::AutoViewSystem> system;  ///< advise-job only
  std::unique_ptr<autoview::MaterializedViewStore> store;
  std::unique_ptr<autoview::OnlineAdvisor> advisor;  ///< online-churn only
  std::unique_ptr<autoview::Executor> executor;
  std::unique_ptr<autoview::Rewriter> rewriter;

  double advise_s = 0.0;        ///< the advisor's share of set-up
  double select_utility = 0.0;  ///< utility of the chosen view set
  size_t views_selected = 0;
  bool deadline_fired = false;

  const std::vector<std::string>& sql() const { return workload.sql; }
};

/// Creates the executor and rewriter over `d->workload.db`.
void AttachEngine(Deployment* d);

/// What one client saw. Timed series hold one entry per successful
/// measured request, index-aligned.
struct ClientLog {
  std::vector<double> latency_ms;  ///< parse -> rewrite -> execute
  std::vector<double> cpu_units;   ///< served plan's CostReport
  std::vector<double> cost;        ///< Pricing::QueryCost of that report
  std::vector<size_t> query;       ///< query id of the request
  uint64_t substitutions = 0;      ///< views substituted, summed

  size_t attempted = 0;  ///< requests + ingests + verifications
  size_t failed = 0;     ///< of those, the ones that failed
  std::vector<std::string> errors;  ///< the first few failure messages

  std::vector<double> ingest_ms;  ///< IngestSql wall time (measured)
  double paused_s = 0.0;          ///< inline verification, not measured

  /// paused_s at the end of each measured window.
  std::vector<double> window_paused_s;

  /// Served plans kept for verification after the measured window.
  std::vector<std::pair<size_t, autoview::PlanNodePtr>> deferred;

  void Fail(const std::string& what);
};

/// One closed-loop client of `d`.
class Client {
 public:
  /// `spans` is null in the untraced run; only measured requests are
  /// traced. Request ids start at `first_request` so ids stay distinct
  /// across clients.
  Client(Deployment* d, SpanBuffer* spans, uint64_t first_request)
      : d_(d), spans_(spans), next_request_(first_request) {}

  /// Sends `stream` in order. Unmeasured requests (warm-up) are served
  /// and checked for errors but neither logged nor traced. Requests at the ascending
  /// stream positions in `verify_at` are verified against their base
  /// plan: right away, off the clock, when `verify_inline` (the store
  /// may change under later requests), else after the measured window.
  /// With an advisor, every request is ingested before it is served.
  /// A measured stream is cut into `windows` consecutive slices of equal
  /// length (to within one); at the end of each, the client notes its
  /// pause total and calls `at_window_end`.
  void Run(const std::vector<size_t>& stream, bool measured,
           const std::vector<size_t>& verify_at, bool verify_inline,
           size_t windows = 1,
           const std::function<void()>& at_window_end = nullptr);

  ClientLog& log() { return log_; }

 private:
  void Ingest(size_t query, bool measured);
  void Serve(size_t query, bool measured, bool verify, bool verify_inline);

  Deployment* d_;
  SpanBuffer* spans_;
  SpanBuffer* active_spans_ = nullptr;  ///< spans_ while measuring
  uint64_t next_request_;
  ClientLog log_;
};

/// Executes `served` and the base plan of `query` and compares their
/// rows as bags. Failures and mismatches are recorded in `log`.
void VerifyServed(const Deployment& d, size_t query,
                  const autoview::PlanNode& served, ClientLog* log);

/// Sum of Pricing::QueryCost over the base plans of `queries`, one
/// execution per distinct id spread over `threads` threads; records
/// failures in `log`.
double BaseCost(const Deployment& d, const std::vector<size_t>& queries,
                size_t threads, ClientLog* log);

}  // namespace perfbench
