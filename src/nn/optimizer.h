#ifndef MECSC_NN_OPTIMIZER_H
#define MECSC_NN_OPTIMIZER_H

#include <vector>

#include "nn/autodiff.h"

namespace mecsc::nn {

/// Base optimizer over a fixed parameter list.
class Optimizer {
 public:
  explicit Optimizer(std::vector<Var> params);
  virtual ~Optimizer() = default;

  /// Applies one update from the accumulated gradients.
  virtual void step() = 0;
  /// Clears accumulated gradients.
  void zero_grad();
  /// Rescales gradients so their global L2 norm is at most `max_norm`
  /// (RNN training stabiliser). Returns the pre-clip global norm — the
  /// telemetry layer records it as the training-health signal.
  double clip_grad_norm(double max_norm);

 protected:
  std::vector<Var> params_;
};

/// Adam (Kingma & Ba) — the default for the Info-RNN-GAN trainer.
class Adam final : public Optimizer {
 public:
  Adam(std::vector<Var> params, double lr, double beta1 = 0.9,
       double beta2 = 0.999, double eps = 1e-8);
  void step() override;

 private:
  double lr_;
  double beta1_;
  double beta2_;
  double eps_;
  std::size_t t_ = 0;
  std::vector<Matrix> m_;
  std::vector<Matrix> v_;
};

}  // namespace mecsc::nn

#endif  // MECSC_NN_OPTIMIZER_H
