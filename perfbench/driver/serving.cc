#include "driver/serving.h"

#include <algorithm>
#include <thread>

#include "engine/table.h"
#include "plan/builder.h"

namespace perfbench {

using autoview::PlanBuilder;
using autoview::PlanNodePtr;
using autoview::Pricing;
using autoview::Result;

namespace {

constexpr size_t kMaxErrorMessages = 8;

double MillisSince(int64_t start_ns) {
  return 1e-6 * static_cast<double>(NowNanos() - start_ns);
}

}  // namespace

void AttachEngine(Deployment* d) {
  d->executor = std::make_unique<autoview::Executor>(d->workload.db.get());
  d->rewriter =
      std::make_unique<autoview::Rewriter>(&d->workload.db->catalog());
}

void ClientLog::Fail(const std::string& what) {
  ++failed;
  if (errors.size() < kMaxErrorMessages) errors.push_back(what);
}

void Client::Run(const std::vector<size_t>& stream, bool measured,
                 const std::vector<size_t>& verify_at, bool verify_inline,
                 size_t windows,
                 const std::function<void()>& at_window_end) {
  if (measured) {
    log_.latency_ms.reserve(stream.size());
    log_.cpu_units.reserve(stream.size());
    log_.cost.reserve(stream.size());
    log_.query.reserve(stream.size());
  }
  active_spans_ = measured ? spans_ : nullptr;
  size_t next_verify = 0;
  size_t window = 0;
  const auto end_windows_at = [&](size_t position) {
    // Window w ends after position (w + 1) * n / windows.
    while (measured && window < windows &&
           (window + 1) * stream.size() / windows == position) {
      log_.window_paused_s.push_back(log_.paused_s);
      if (at_window_end) at_window_end();
      ++window;
    }
  };
  end_windows_at(0);
  for (size_t i = 0; i < stream.size(); ++i) {
    const bool verify =
        next_verify < verify_at.size() && verify_at[next_verify] == i;
    if (verify) ++next_verify;
    if (d_->advisor != nullptr) Ingest(stream[i], measured);
    Serve(stream[i], measured, verify, verify_inline);
    end_windows_at(i + 1);
  }
}

void Client::Ingest(size_t query, bool measured) {
  ++log_.attempted;
  const uint64_t reselections_before =
      active_spans_ != nullptr ? d_->advisor->stats().reselections : 0;
  const int64_t start = NowNanos();
  int32_t span_index = -1;
  Result<uint64_t> id = [&] {
    ScopedSpan span(active_spans_, "core.advisor_ingest", next_request_);
    span_index = span.index();
    return d_->advisor->IngestSql(d_->sql()[query]);
  }();
  if (measured) log_.ingest_ms.push_back(MillisSince(start));
  if (active_spans_ != nullptr &&
      d_->advisor->stats().reselections != reselections_before) {
    active_spans_->Rename(span_index, "core.advisor_reselect");
  }
  if (!id.ok()) log_.Fail("ingest: " + id.status().ToString());
}

void Client::Serve(size_t query, bool measured, bool verify,
                   bool verify_inline) {
  ++log_.attempted;
  const uint64_t request = next_request_++;
  const int64_t start = NowNanos();
  autoview::ServingRewrite rewrite;
  autoview::CostReport report;
  {
    ScopedSpan request_span(active_spans_, "request", request);
    Result<PlanNodePtr> plan = [&] {
      ScopedSpan span(active_spans_, "plan.build", request);
      return PlanBuilder(&d_->workload.db->catalog())
          .BuildFromSql(d_->sql()[query]);
    }();
    if (!plan.ok()) {
      log_.Fail("parse: " + plan.status().ToString());
      return;
    }
    Result<autoview::ServingRewrite> rewritten = [&] {
      ScopedSpan span(active_spans_, "engine.rewrite", request);
      return d_->rewriter->RewriteServing(plan.value(), d_->store.get());
    }();
    if (!rewritten.ok()) {
      log_.Fail("rewrite: " + rewritten.status().ToString());
      return;
    }
    rewrite = std::move(rewritten).value();
    Result<autoview::CostReport> cost = [&] {
      ScopedSpan span(active_spans_, "engine.execute", request);
      return d_->executor->ExecuteForCost(*rewrite.plan);
    }();
    if (!cost.ok()) {
      log_.Fail("execute: " + cost.status().ToString());
      return;
    }
    report = cost.value();
  }
  const int64_t done = NowNanos();
  if (measured) {
    log_.latency_ms.push_back(1e-6 * static_cast<double>(done - start));
    log_.cpu_units.push_back(report.cpu_units);
    log_.cost.push_back(Pricing().QueryCost(report));
    log_.query.push_back(query);
    log_.substitutions += rewrite.num_substitutions;
  }
  if (!verify) return;
  if (verify_inline) {
    const int64_t pause = NowNanos();
    VerifyServed(*d_, query, *rewrite.plan, &log_);
    log_.paused_s += 1e-3 * MillisSince(pause);
  } else {
    log_.deferred.emplace_back(query, rewrite.plan);
  }
}

void VerifyServed(const Deployment& d, size_t query,
                  const autoview::PlanNode& served, ClientLog* log) {
  ++log->attempted;
  Result<PlanNodePtr> base = PlanBuilder(&d.workload.db->catalog())
                                 .BuildFromSql(d.sql()[query]);
  if (!base.ok()) {
    log->Fail("verify parse: " + base.status().ToString());
    return;
  }
  Result<autoview::ExecResult> expected = d.executor->Execute(*base.value());
  Result<autoview::ExecResult> actual = d.executor->Execute(served);
  if (!expected.ok() || !actual.ok()) {
    log->Fail("verify execute: " + (expected.ok() ? actual.status()
                                                   : expected.status())
                                       .ToString());
    return;
  }
  if (!autoview::TablesEqualUnordered(expected.value().table,
                                      actual.value().table)) {
    log->Fail("verify: rewritten plan of query " + std::to_string(query) +
              " returned different rows than its base plan");
  }
}

double BaseCost(const Deployment& d, const std::vector<size_t>& queries,
                size_t threads, ClientLog* log) {
  std::vector<size_t> distinct = queries;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  // Thread t prices every threads-th distinct query.
  threads = std::max<size_t>(1, threads);
  std::vector<double> cost(distinct.size(), 0.0);
  std::vector<ClientLog> logs(threads);
  const auto price = [&](size_t t) {
    for (size_t i = t; i < distinct.size(); i += threads) {
      Result<PlanNodePtr> base = PlanBuilder(&d.workload.db->catalog())
                                     .BuildFromSql(d.sql()[distinct[i]]);
      Result<autoview::CostReport> report =
          base.ok() ? d.executor->ExecuteForCost(*base.value())
                    : Result<autoview::CostReport>(base.status());
      if (report.ok()) {
        cost[i] = Pricing().QueryCost(report.value());
      } else {
        logs[t].Fail("base cost: " + report.status().ToString());
      }
    }
  };
  std::vector<std::thread> workers;
  for (size_t t = 1; t < threads; ++t) workers.emplace_back(price, t);
  price(0);
  for (std::thread& worker : workers) worker.join();
  log->attempted += distinct.size();
  for (const ClientLog& l : logs) {
    log->failed += l.failed;
    for (const std::string& error : l.errors) {
      if (log->errors.size() < kMaxErrorMessages) log->errors.push_back(error);
    }
  }
  // Sum in request order, so the total does not depend on `threads`.
  double total = 0.0;
  for (size_t query : queries) {
    total += cost[static_cast<size_t>(
        std::lower_bound(distinct.begin(), distinct.end(), query) -
        distinct.begin())];
  }
  return total;
}

}  // namespace perfbench
