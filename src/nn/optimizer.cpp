#include "nn/optimizer.h"

#include <cmath>

#include "common/error.h"

namespace mecsc::nn {

Optimizer::Optimizer(std::vector<Var> params) : params_(std::move(params)) {
  for (const auto& p : params_) {
    MECSC_CHECK_MSG(p != nullptr && p->requires_grad,
                    "optimizer parameters must require gradients");
  }
}

void Optimizer::zero_grad() {
  for (const auto& p : params_) p->zero_grad();
}

double Optimizer::clip_grad_norm(double max_norm) {
  MECSC_CHECK_MSG(max_norm > 0.0, "max_norm must be > 0");
  double sq = 0.0;
  for (const auto& p : params_) {
    if (p->grad.empty()) continue;
    for (double g : p->grad.data()) sq += g * g;
  }
  double norm = std::sqrt(sq);
  if (norm <= max_norm || norm == 0.0) return norm;
  double s = max_norm / norm;
  for (const auto& p : params_) {
    if (p->grad.empty()) continue;
    for (double& g : p->grad.data()) g *= s;
  }
  return norm;
}

Adam::Adam(std::vector<Var> params, double lr, double beta1, double beta2,
           double eps)
    : Optimizer(std::move(params)), lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {
  MECSC_CHECK_MSG(lr > 0.0, "learning rate must be > 0");
  MECSC_CHECK_MSG(0.0 <= beta1 && beta1 < 1.0, "beta1 out of [0,1)");
  MECSC_CHECK_MSG(0.0 <= beta2 && beta2 < 1.0, "beta2 out of [0,1)");
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const auto& p : params_) {
    m_.emplace_back(p->value.rows(), p->value.cols());
    v_.emplace_back(p->value.rows(), p->value.cols());
  }
}

void Adam::step() {
  ++t_;
  double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  for (std::size_t i = 0; i < params_.size(); ++i) {
    auto& p = params_[i];
    if (p->grad.empty()) continue;
    auto& m = m_[i];
    auto& v = v_[i];
    const auto& g = p->grad.data();
    for (std::size_t j = 0; j < g.size(); ++j) {
      m[j] = beta1_ * m[j] + (1.0 - beta1_) * g[j];
      v[j] = beta2_ * v[j] + (1.0 - beta2_) * g[j] * g[j];
      double mhat = m[j] / bc1;
      double vhat = v[j] / bc2;
      p->value[j] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
    }
  }
}

}  // namespace mecsc::nn
