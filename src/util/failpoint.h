#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/annotations.h"
#include "util/status.h"

namespace autoview {

/// \brief What an armed failpoint injects at its site.
enum class FailAction {
  kNone = 0,  ///< site not armed (or probability roll missed)
  kError,     ///< the site returns an injected error Status
  kNan,       ///< the site produces NaN (numeric sites: model inference)
  kCorrupt,   ///< the site sees corrupted bytes (persistence sites)
};

const char* FailActionName(FailAction action);

/// \brief Process-wide fault-injection registry (compiled in always,
/// zero-cost when unset).
///
/// Sites are armed via the AUTOVIEW_FAILPOINTS environment variable (read
/// once at first use) or programmatically via Configure(). The spec is a
/// ';'-separated list of `site=action[:probability]` entries, e.g.
///
///   AUTOVIEW_FAILPOINTS=
///       "viewstore.materialize=error:0.5;wide_deep.infer=nan:0.1;metadata.load=corrupt"
///
/// Probability defaults to 1.0 (always fire). Rolls draw from a
/// deterministic per-registry PRNG so fault sequences are reproducible
/// for a fixed call order.
///
/// When no site is armed, AV_FAILPOINT() costs a single relaxed atomic
/// load — safe to leave in hot paths.
///
/// Wired sites (grep AV_FAILPOINT for the authoritative list):
///   viewstore.materialize  error    MaterializedViewStore::Materialize
///   viewstore.wal_append   error    ViewStateLog::Append (the WAL
///                                   commit point; callers roll back)
///   viewstore.wal_replay   corrupt  ViewStateLog::Replay (bit-flips the
///                                   log, exercising torn-tail handling)
///   viewstore.rematerialize error   recovery rebuilds (Recover)
///   wide_deep.infer        nan      WideDeepEstimator::Estimate
///   metadata.load          corrupt  MetadataStore::Load
///   executor.scan          error    Executor table scans
///   rewriter.pin           error    Rewriter::RewriteServing (an
///                                   indexed walk loses its pin race)
class Failpoints {
 public:
  /// The process-wide registry. First call reads AUTOVIEW_FAILPOINTS.
  static Failpoints& Instance();

  /// Replaces the configuration with `spec` (see class comment); an
  /// empty spec disarms everything. Returns InvalidArgument on a
  /// malformed entry (the registry is left disarmed in that case).
  Status Configure(const std::string& spec) AV_EXCLUDES(mu_);

  /// Disarms every site and resets hit counters.
  void Clear() AV_EXCLUDES(mu_);

  /// Fast check: is any site armed?
  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Rolls the dice for `site`; returns the armed action when it fires.
  /// Sites that were never configured always return kNone.
  FailAction Evaluate(std::string_view site) AV_EXCLUDES(mu_);

  /// Number of times `site` actually fired (not just evaluated).
  uint64_t hits(std::string_view site) const AV_EXCLUDES(mu_);

  /// Total fires across all sites since the last Configure()/Clear().
  uint64_t total_hits() const AV_EXCLUDES(mu_);

 private:
  Failpoints();

  struct Site {
    std::string name;
    FailAction action = FailAction::kNone;
    double probability = 1.0;
    uint64_t hits = 0;
  };

  // Relaxed fast-path flag: only gates whether Evaluate bothers taking
  // mu_; the authoritative armed set is sites_ under the lock.
  std::atomic<bool> enabled_{false};
  mutable Mutex mu_;
  std::vector<Site> sites_ AV_GUARDED_BY(mu_);  // tiny; linear scan
  uint64_t rng_state_ AV_GUARDED_BY(mu_) = 0;   // SplitMix64 fault rolls
};

/// Evaluates a failpoint site; kNone when the registry is disarmed.
#define AV_FAILPOINT(site)                               \
  (::autoview::Failpoints::Instance().enabled()          \
       ? ::autoview::Failpoints::Instance().Evaluate(site) \
       : ::autoview::FailAction::kNone)

/// Returns an injected Internal error from the enclosing function when
/// `site` is armed with `error` and fires.
#define AV_FAILPOINT_STATUS(site)                                       \
  do {                                                                  \
    if (AV_FAILPOINT(site) == ::autoview::FailAction::kError) {         \
      return ::autoview::Status::Internal(                              \
          std::string("failpoint injected error at ") + (site));        \
    }                                                                   \
  } while (0)

}  // namespace autoview
