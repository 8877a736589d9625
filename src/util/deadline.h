#pragma once

#include <atomic>
#include <chrono>
#include <memory>

namespace autoview {

/// \brief A wall-clock budget for cooperative anytime algorithms.
///
/// Value type: copies observe the same instant, so one Deadline can be
/// handed to every parallel trial of a selector. The default instance is
/// infinite and Expired() on it never reads the clock, keeping
/// deadline-free runs bit-identical to historical behavior (no timing
/// dependence is introduced).
class Deadline {
 public:
  /// Infinite: never expires.
  Deadline() = default;

  static Deadline Infinite() { return Deadline(); }

  /// Expires `budget` from now.
  static Deadline After(std::chrono::nanoseconds budget) {
    Deadline d;
    d.infinite_ = false;
    d.at_ = std::chrono::steady_clock::now() + budget;
    return d;
  }

  /// Expires `ms` milliseconds from now (fractional values allowed).
  static Deadline AfterMillis(double ms) {
    return After(std::chrono::nanoseconds(
        static_cast<int64_t>(ms * 1e6)));
  }

  bool IsInfinite() const { return infinite_; }

  bool Expired() const {
    return !infinite_ && std::chrono::steady_clock::now() >= at_;
  }

  /// Time left; zero when expired, a very large value when infinite.
  std::chrono::nanoseconds Remaining() const {
    if (infinite_) return std::chrono::nanoseconds::max();
    const auto now = std::chrono::steady_clock::now();
    return now >= at_ ? std::chrono::nanoseconds(0)
                      : std::chrono::duration_cast<std::chrono::nanoseconds>(
                            at_ - now);
  }

 private:
  bool infinite_ = true;
  std::chrono::steady_clock::time_point at_{};
};

/// \brief Cooperative cancellation flag shared by value.
///
/// Copies alias the same flag: hand a token to concurrent tasks, call
/// RequestCancel() from anywhere, and every holder observes
/// it. Default-constructed tokens each own a fresh (uncancelled) flag.
class CancellationToken {
 public:
  CancellationToken() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  /// Const: copies share one flag, so cancelling through any copy —
  /// including one captured by value in a lambda — is well-defined.
  void RequestCancel() const { flag_->store(true, std::memory_order_relaxed); }

  bool Cancelled() const { return flag_->load(std::memory_order_relaxed); }

 private:
  // Relaxed is enough (see util/annotations.h conventions): the flag is
  // a level-triggered stop signal polled by cooperative loops; no data
  // is published through it, so no acquire/release pairing is needed.
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Shared stop predicate for cooperative loops: cancelled or past due.
inline bool StopRequested(const Deadline& deadline,
                          const CancellationToken& cancel) {
  return cancel.Cancelled() || deadline.Expired();
}

}  // namespace autoview
