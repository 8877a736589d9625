#include "util/metrics.h"

#include <cmath>
#include <limits>

namespace autoview {

void PoolCounters::RecordTask(uint64_t nanos) {
  tasks_run_.fetch_add(1, std::memory_order_relaxed);
  busy_nanos_.fetch_add(nanos, std::memory_order_relaxed);
}

void PoolCounters::RecordQueueDepth(uint64_t depth) {
  uint64_t seen = max_queue_depth_.load(std::memory_order_relaxed);
  while (depth > seen && !max_queue_depth_.compare_exchange_weak(
                             seen, depth, std::memory_order_relaxed)) {
  }
}

PoolCounters::Snapshot PoolCounters::Read() const {
  Snapshot s;
  s.tasks_run = tasks_run_.load(std::memory_order_relaxed);
  s.max_queue_depth = max_queue_depth_.load(std::memory_order_relaxed);
  s.busy_nanos = busy_nanos_.load(std::memory_order_relaxed);
  return s;
}

void RobustnessCounters::RecordFallback() {
  estimator_fallbacks_.fetch_add(1, std::memory_order_relaxed);
}

void RobustnessCounters::RecordFaultInjected() {
  faults_injected_.fetch_add(1, std::memory_order_relaxed);
}

void RobustnessCounters::RecordTimeout() {
  selection_timeouts_.fetch_add(1, std::memory_order_relaxed);
}

void RobustnessCounters::RecordRewriteFallback() {
  rewrite_fallbacks_.fetch_add(1, std::memory_order_relaxed);
}

RobustnessCounters::Snapshot RobustnessCounters::Read() const {
  Snapshot s;
  s.estimator_fallbacks = estimator_fallbacks_.load(std::memory_order_relaxed);
  s.faults_injected = faults_injected_.load(std::memory_order_relaxed);
  s.selection_timeouts = selection_timeouts_.load(std::memory_order_relaxed);
  s.rewrite_fallbacks = rewrite_fallbacks_.load(std::memory_order_relaxed);
  return s;
}

void RobustnessCounters::Reset() {
  estimator_fallbacks_.store(0, std::memory_order_relaxed);
  faults_injected_.store(0, std::memory_order_relaxed);
  selection_timeouts_.store(0, std::memory_order_relaxed);
  rewrite_fallbacks_.store(0, std::memory_order_relaxed);
}

RobustnessCounters& GlobalRobustness() {
  static RobustnessCounters counters;
  return counters;
}

void SelectionCounters::RecordUtilityCells(uint64_t cells) {
  utility_cells_.fetch_add(cells, std::memory_order_relaxed);
}

void SelectionCounters::RecordQueriesSolved(uint64_t queries) {
  queries_solved_.fetch_add(queries, std::memory_order_relaxed);
}

SelectionCounters::Snapshot SelectionCounters::Read() const {
  Snapshot s;
  s.utility_cells = utility_cells_.load(std::memory_order_relaxed);
  s.queries_solved = queries_solved_.load(std::memory_order_relaxed);
  return s;
}

void SelectionCounters::Reset() {
  utility_cells_.store(0, std::memory_order_relaxed);
  queries_solved_.store(0, std::memory_order_relaxed);
}

SelectionCounters& GlobalSelection() {
  static SelectionCounters counters;
  return counters;
}

void ViewStoreCounters::RecordEviction(uint64_t bytes) {
  evictions_.fetch_add(1, std::memory_order_relaxed);
  evicted_bytes_.fetch_add(bytes, std::memory_order_relaxed);
}

void ViewStoreCounters::RecordAdmissionRejected() {
  admissions_rejected_.fetch_add(1, std::memory_order_relaxed);
}

void ViewStoreCounters::RecordAsyncBuild() {
  async_builds_.fetch_add(1, std::memory_order_relaxed);
}

void ViewStoreCounters::RecordRecoveredView() {
  recovered_views_.fetch_add(1, std::memory_order_relaxed);
}

void ViewStoreCounters::RecordTornWalTail() {
  torn_wal_tails_.fetch_add(1, std::memory_order_relaxed);
}

ViewStoreCounters::Snapshot ViewStoreCounters::Read() const {
  Snapshot s;
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.evicted_bytes = evicted_bytes_.load(std::memory_order_relaxed);
  s.admissions_rejected = admissions_rejected_.load(std::memory_order_relaxed);
  s.async_builds = async_builds_.load(std::memory_order_relaxed);
  s.recovered_views = recovered_views_.load(std::memory_order_relaxed);
  s.torn_wal_tails = torn_wal_tails_.load(std::memory_order_relaxed);
  return s;
}

void ViewStoreCounters::Reset() {
  evictions_.store(0, std::memory_order_relaxed);
  evicted_bytes_.store(0, std::memory_order_relaxed);
  admissions_rejected_.store(0, std::memory_order_relaxed);
  async_builds_.store(0, std::memory_order_relaxed);
  recovered_views_.store(0, std::memory_order_relaxed);
  torn_wal_tails_.store(0, std::memory_order_relaxed);
}

ViewStoreCounters& GlobalViewStore() {
  static ViewStoreCounters counters;
  return counters;
}

void RewriteCacheCounters::RecordHit() {
  hits_.fetch_add(1, std::memory_order_relaxed);
}

void RewriteCacheCounters::RecordMiss() {
  misses_.fetch_add(1, std::memory_order_relaxed);
}

void RewriteCacheCounters::RecordInsert() {
  inserts_.fetch_add(1, std::memory_order_relaxed);
}

void RewriteCacheCounters::RecordInvalidatedEntries(uint64_t entries) {
  invalidated_entries_.fetch_add(entries, std::memory_order_relaxed);
}

void RewriteCacheCounters::RecordInvalidationSweep() {
  invalidation_sweeps_.fetch_add(1, std::memory_order_relaxed);
}

void RewriteCacheCounters::RecordPinFailure() {
  pin_failures_.fetch_add(1, std::memory_order_relaxed);
}

RewriteCacheCounters::Snapshot RewriteCacheCounters::Read() const {
  Snapshot s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.inserts = inserts_.load(std::memory_order_relaxed);
  s.invalidated_entries =
      invalidated_entries_.load(std::memory_order_relaxed);
  s.invalidation_sweeps =
      invalidation_sweeps_.load(std::memory_order_relaxed);
  s.pin_failures = pin_failures_.load(std::memory_order_relaxed);
  return s;
}

void RewriteCacheCounters::Reset() {
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  inserts_.store(0, std::memory_order_relaxed);
  invalidated_entries_.store(0, std::memory_order_relaxed);
  invalidation_sweeps_.store(0, std::memory_order_relaxed);
  pin_failures_.store(0, std::memory_order_relaxed);
}

RewriteCacheCounters& GlobalRewriteCache() {
  static RewriteCacheCounters counters;
  return counters;
}

namespace {
/// Library-boundary guard: mismatched inputs poison the metric (NaN)
/// instead of aborting the process.
double SizeMismatch() { return std::numeric_limits<double>::quiet_NaN(); }
}  // namespace

void RunningStat::Add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStat::variance() const {
  return n_ > 0 ? m2_ / static_cast<double>(n_) : 0.0;
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

double MeanAbsoluteError(const std::vector<double>& y,
                         const std::vector<double>& yhat) {
  if (y.size() != yhat.size()) return SizeMismatch();
  if (y.empty()) return 0.0;
  double total = 0.0;
  for (size_t i = 0; i < y.size(); ++i) total += std::fabs(y[i] - yhat[i]);
  return total / static_cast<double>(y.size());
}

double MeanAbsolutePercentError(const std::vector<double>& y,
                                const std::vector<double>& yhat, double eps) {
  if (y.size() != yhat.size()) return SizeMismatch();
  if (y.empty()) return 0.0;
  double total = 0.0;
  for (size_t i = 0; i < y.size(); ++i) {
    const double denom = std::fabs(y[i]) < eps ? eps : std::fabs(y[i]);
    total += std::fabs(y[i] - yhat[i]) / denom;
  }
  return total / static_cast<double>(y.size());
}

double RootMeanSquaredError(const std::vector<double>& y,
                            const std::vector<double>& yhat) {
  if (y.size() != yhat.size()) return SizeMismatch();
  if (y.empty()) return 0.0;
  double total = 0.0;
  for (size_t i = 0; i < y.size(); ++i) {
    const double d = y[i] - yhat[i];
    total += d * d;
  }
  return std::sqrt(total / static_cast<double>(y.size()));
}

double PearsonCorrelation(const std::vector<double>& y,
                          const std::vector<double>& yhat) {
  if (y.size() != yhat.size()) return SizeMismatch();
  const size_t n = y.size();
  if (n == 0) return 0.0;
  double my = 0, mh = 0;
  for (size_t i = 0; i < n; ++i) {
    my += y[i];
    mh += yhat[i];
  }
  my /= static_cast<double>(n);
  mh /= static_cast<double>(n);
  double num = 0, dy = 0, dh = 0;
  for (size_t i = 0; i < n; ++i) {
    num += (y[i] - my) * (yhat[i] - mh);
    dy += (y[i] - my) * (y[i] - my);
    dh += (yhat[i] - mh) * (yhat[i] - mh);
  }
  if (dy <= 0 || dh <= 0) return 0.0;
  return num / std::sqrt(dy * dh);
}

}  // namespace autoview
