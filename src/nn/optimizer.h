#pragma once

#include <vector>

#include "nn/tensor.h"

namespace autoview {
namespace nn {

/// \brief Adam optimizer [Kingma & Ba, 2014] — the paper's choice for
/// jointly optimizing all Wide-Deep parts (Algorithm 1, line 14).
class Adam {
 public:
  struct Options {
    Scalar lr = 1e-3;
    Scalar beta1 = 0.9;
    Scalar beta2 = 0.999;
    Scalar eps = 1e-8;
    Scalar weight_decay = 0.0;
  };

  explicit Adam(std::vector<Tensor> params) : Adam(std::move(params), Options{}) {}
  Adam(std::vector<Tensor> params, Options options);

  /// Applies one update from the accumulated gradients.
  void Step();

  /// Zeroes all parameter gradients.
  void ZeroGrad();

  Scalar learning_rate() const { return options_.lr; }
  void set_learning_rate(Scalar lr) { options_.lr = lr; }

 private:
  std::vector<Tensor> params_;
  Options options_;
  std::vector<std::vector<Scalar>> m_;
  std::vector<std::vector<Scalar>> v_;
  int64_t t_ = 0;
};

}  // namespace nn
}  // namespace autoview
