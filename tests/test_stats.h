#pragma once

// Statistics helpers that only tests use: a streaming accumulator and
// two error measures. A size mismatch between the two vectors yields
// quiet NaN.

#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

namespace autoview {

/// \brief Streaming mean / variance / min / max accumulator (Welford).
class RunningStat {
 public:
  void Add(double x) {
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
  size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Population variance.
  double variance() const {
    return n_ > 0 ? m2_ / static_cast<double>(n_) : 0.0;
  }
  double stddev() const { return std::sqrt(variance()); }
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return sum_; }

 private:
  size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Root mean squared error.
inline double RootMeanSquaredError(const std::vector<double>& y,
                                   const std::vector<double>& yhat) {
  if (y.size() != yhat.size()) return std::numeric_limits<double>::quiet_NaN();
  if (y.empty()) return 0.0;
  double total = 0.0;
  for (size_t i = 0; i < y.size(); ++i) {
    const double d = y[i] - yhat[i];
    total += d * d;
  }
  return std::sqrt(total / static_cast<double>(y.size()));
}

/// Pearson correlation coefficient; 0 when either side is constant.
inline double PearsonCorrelation(const std::vector<double>& y,
                                 const std::vector<double>& yhat) {
  if (y.size() != yhat.size()) return std::numeric_limits<double>::quiet_NaN();
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
