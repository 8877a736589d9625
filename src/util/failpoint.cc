#include "util/failpoint.h"

#include <cstdlib>

#include "util/logging.h"
#include "util/metrics.h"
#include "util/parse.h"
#include "util/strings.h"

namespace autoview {

namespace {

/// SplitMix64 step: deterministic, cheap, good enough for fault rolls.
uint64_t NextRoll(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double RollUniform01(uint64_t* state) {
  return static_cast<double>(NextRoll(state) >> 11) * 0x1.0p-53;
}

Result<FailAction> ParseAction(std::string_view token) {
  if (token == "error") return FailAction::kError;
  if (token == "nan") return FailAction::kNan;
  if (token == "corrupt") return FailAction::kCorrupt;
  return Status::InvalidArgument("unknown failpoint action: " +
                                 std::string(token));
}

}  // namespace

const char* FailActionName(FailAction action) {
  switch (action) {
    case FailAction::kNone:
      return "none";
    case FailAction::kError:
      return "error";
    case FailAction::kNan:
      return "nan";
    case FailAction::kCorrupt:
      return "corrupt";
  }
  return "?";
}

Failpoints::Failpoints() {
  if (const char* env = std::getenv("AUTOVIEW_FAILPOINTS")) {
    // A malformed env spec must not take the process down; Configure
    // leaves the registry disarmed in that case.
    const Status status = Configure(env);
    if (!status.ok()) {
      AV_LOG(Warning) << "ignoring AUTOVIEW_FAILPOINTS: " << status.ToString();
    }
  }
}

Failpoints& Failpoints::Instance() {
  static Failpoints instance;
  return instance;
}

Status Failpoints::Configure(const std::string& spec) {
  MutexLock lock(mu_);
  sites_.clear();
  rng_state_ = 0x41757456ull;  // fixed: reproducible fault sequences
  enabled_.store(false, std::memory_order_relaxed);
  for (const std::string& raw : Split(spec, ';')) {
    const std::string_view entry = Trim(raw);
    if (entry.empty()) continue;
    const size_t eq = entry.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      sites_.clear();
      return Status::InvalidArgument("failpoint entry missing '=': " +
                                     std::string(entry));
    }
    Site site;
    site.name = std::string(Trim(entry.substr(0, eq)));
    std::string_view rhs = Trim(entry.substr(eq + 1));
    const size_t colon = rhs.find(':');
    std::string_view action_token =
        colon == std::string_view::npos ? rhs : rhs.substr(0, colon);
    auto action = ParseAction(Trim(action_token));
    if (!action.ok()) {
      sites_.clear();
      return action.status();
    }
    site.action = action.value();
    if (colon != std::string_view::npos) {
      // ParseDouble rejects nan, inf and hex forms, which would slip
      // past the range check below.
      const std::string_view prob_token = Trim(rhs.substr(colon + 1));
      if (!ParseDouble(prob_token, &site.probability).ok() ||
          site.probability < 0.0 || site.probability > 1.0) {
        sites_.clear();
        return Status::InvalidArgument("failpoint probability not in [0,1]: " +
                                       std::string(prob_token));
      }
    }
    sites_.push_back(std::move(site));
  }
  enabled_.store(!sites_.empty(), std::memory_order_relaxed);
  return Status::OK();
}

void Failpoints::Clear() {
  MutexLock lock(mu_);
  sites_.clear();
  enabled_.store(false, std::memory_order_relaxed);
}

FailAction Failpoints::Evaluate(std::string_view site) {
  if (!enabled()) return FailAction::kNone;
  MutexLock lock(mu_);
  for (Site& s : sites_) {
    if (s.name != site) continue;
    if (s.probability < 1.0 && RollUniform01(&rng_state_) >= s.probability) {
      return FailAction::kNone;
    }
    ++s.hits;
    GlobalRobustness().RecordFaultInjected();
    return s.action;
  }
  return FailAction::kNone;
}

uint64_t Failpoints::hits(std::string_view site) const {
  MutexLock lock(mu_);
  for (const Site& s : sites_) {
    if (s.name == site) return s.hits;
  }
  return 0;
}

uint64_t Failpoints::total_hits() const {
  MutexLock lock(mu_);
  uint64_t total = 0;
  for (const Site& s : sites_) total += s.hits;
  return total;
}

}  // namespace autoview
