#include "nn/optimizer.h"

#include <cmath>

namespace autoview {
namespace nn {

Adam::Adam(std::vector<Tensor> params, Options options)
    : params_(std::move(params)), options_(options) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const auto& p : params_) {
    m_.emplace_back(p.size(), 0.0);
    v_.emplace_back(p.size(), 0.0);
  }
}

void Adam::Step() {
  ++t_;
  const Scalar bias1 = 1.0 - std::pow(options_.beta1, static_cast<Scalar>(t_));
  const Scalar bias2 = 1.0 - std::pow(options_.beta2, static_cast<Scalar>(t_));
  for (size_t i = 0; i < params_.size(); ++i) {
    auto& value = params_[i].mutable_data();
    const auto& grad = params_[i].grad();
    auto& m = m_[i];
    auto& v = v_[i];
    for (size_t j = 0; j < value.size(); ++j) {
      Scalar g = grad[j] + options_.weight_decay * value[j];
      m[j] = options_.beta1 * m[j] + (1.0 - options_.beta1) * g;
      v[j] = options_.beta2 * v[j] + (1.0 - options_.beta2) * g * g;
      const Scalar mhat = m[j] / bias1;
      const Scalar vhat = v[j] / bias2;
      value[j] -= options_.lr * mhat / (std::sqrt(vhat) + options_.eps);
    }
  }
}

void Adam::ZeroGrad() {
  for (auto& p : params_) p.ZeroGrad();
}

}  // namespace nn
}  // namespace autoview
