#include "gan/info_rnn_gan.h"

#include <algorithm>
#include <limits>

#include "common/error.h"
#include "nn/autodiff.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace mecsc::gan {

using nn::Matrix;
using nn::Var;

InfoRnnGan::InfoRnnGan(InfoRnnGanConfig config, std::uint64_t seed)
    : config_(config), rng_(seed) {
  MECSC_CHECK_MSG(config_.noise_dim > 0 && config_.num_codes > 0 &&
                      config_.hidden > 0 && config_.seq_len > 0,
                  "all Info-RNN-GAN sizes must be > 0");
  MECSC_CHECK_MSG(config_.batch_size > 0, "batch size must be > 0");
  MECSC_CHECK_MSG(config_.lambda_info >= 0.0, "lambda must be >= 0");
  MECSC_CHECK_MSG(config_.lambda_supervised >= 0.0, "lambda_supervised must be >= 0");

  common::Rng init = rng_.split();
  std::size_t g_in = config_.noise_dim + config_.num_codes + 1;
  g_rnn_ = nn::make_birnn(config_.rnn, g_in, config_.hidden, init);
  g_head_ = std::make_unique<nn::Linear>(2 * config_.hidden, 1, init);
  d_rnn_ = nn::make_birnn(config_.rnn, 1, config_.hidden, init);
  d_head_ = std::make_unique<nn::Linear>(2 * config_.hidden, 1, init);
  q_head_ = std::make_unique<nn::Linear>(2 * config_.hidden, config_.num_codes, init);

  std::vector<Var> g_params = g_rnn_->parameters();
  for (const auto& p : g_head_->parameters()) g_params.push_back(p);
  // InfoGAN practice: the Q head trains with the generator's optimizer
  // (both minimise −λ·L1); the shared trunk belongs to D's optimizer.
  for (const auto& p : q_head_->parameters()) g_params.push_back(p);
  g_opt_ = std::make_unique<nn::Adam>(std::move(g_params), config_.lr_generator);

  std::vector<Var> d_params = d_rnn_->parameters();
  for (const auto& p : d_head_->parameters()) d_params.push_back(p);
  d_opt_ = std::make_unique<nn::Adam>(std::move(d_params), config_.lr_discriminator);
}

Matrix InfoRnnGan::one_hot_batch(const std::vector<std::size_t>& codes) const {
  Matrix m(codes.size(), config_.num_codes);
  for (std::size_t b = 0; b < codes.size(); ++b) {
    MECSC_CHECK_MSG(codes[b] < config_.num_codes, "code id out of range");
    m.at(b, codes[b]) = 1.0;
  }
  return m;
}

InfoRnnGan::GeneratorOut InfoRnnGan::run_generator(
    const std::vector<Matrix>& teacher, const std::vector<std::size_t>& codes,
    bool with_noise) {
  MECSC_CHECK_MSG(!teacher.empty(), "empty teacher sequence");
  const std::size_t batch = teacher.front().rows();
  Matrix onehot = one_hot_batch(codes);
  std::vector<Var> inputs;
  inputs.reserve(teacher.size());
  for (const auto& prev : teacher) {
    MECSC_CHECK(prev.rows() == batch && prev.cols() == 1);
    Matrix z = with_noise ? Matrix::randn(batch, config_.noise_dim, rng_)
                          : Matrix(batch, config_.noise_dim);
    inputs.push_back(nn::constant(nn::concat_cols(nn::concat_cols(z, onehot), prev)));
  }
  std::vector<Var> hidden = g_rnn_->forward(inputs);
  GeneratorOut out;
  out.outputs.reserve(hidden.size());
  for (std::size_t t = 0; t < hidden.size(); ++t) {
    // Residual head: predicted demand = previous demand + bounded delta.
    // Demand series are strongly persistent (bursts last several slots),
    // so the head learns the *change* — burst onsets, diurnal slope,
    // decay — instead of re-deriving each user's absolute level.
    Var delta = nn::op_scale(nn::op_tanh(g_head_->forward(hidden[t])), 0.5);
    out.outputs.push_back(nn::op_add(nn::constant(teacher[t]), delta));
  }
  return out;
}

InfoRnnGan::DiscriminatorOut InfoRnnGan::run_discriminator(
    const std::vector<Var>& demand_seq) {
  std::vector<Var> hidden = d_rnn_->forward(demand_seq);
  DiscriminatorOut out;
  out.logits.reserve(hidden.size());
  out.q_logits.reserve(hidden.size());
  for (const auto& h : hidden) {
    out.logits.push_back(d_head_->forward(h));
    out.q_logits.push_back(q_head_->forward(h));
  }
  return out;
}

namespace {

/// Mean of per-step scalar losses: (1/T) Σ_t loss_t, matching the
/// monitoring-period average of Eq. 23.
Var mean_over_steps(const std::vector<Var>& losses) {
  MECSC_CHECK(!losses.empty());
  Var acc = losses.front();
  for (std::size_t t = 1; t < losses.size(); ++t) acc = nn::op_add(acc, losses[t]);
  return nn::op_scale(acc, 1.0 / static_cast<double>(losses.size()));
}

}  // namespace

GanStepStats InfoRnnGan::train_step(const std::vector<std::vector<double>>& windows,
                                    const std::vector<std::size_t>& codes) {
  MECSC_SPAN("gan.train_step");
  MECSC_CHECK_MSG(!windows.empty(), "empty batch");
  MECSC_CHECK_MSG(windows.size() == codes.size(), "windows/codes size mismatch");
  const std::size_t batch = windows.size();
  const std::size_t len = config_.seq_len;
  for (const auto& w : windows) {
    MECSC_CHECK_MSG(w.size() == len + 1, "window must have seq_len+1 values");
  }

  // Per-step batch matrices: teacher[t] = x_t, target/real[t] = x_{t+1}.
  std::vector<Matrix> teacher(len, Matrix(batch, 1));
  std::vector<Matrix> real(len, Matrix(batch, 1));
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t t = 0; t < len; ++t) {
      teacher[t].at(b, 0) = std::clamp(windows[b][t], 0.0, 1.0);
      real[t].at(b, 0) = std::clamp(windows[b][t + 1], 0.0, 1.0);
    }
  }
  Matrix ones(batch, 1, 1.0);
  Matrix zeros(batch, 1, 0.0);
  Matrix code_target = one_hot_batch(codes);
  GanStepStats stats;

  // ---- Discriminator step: max log D(real) + log(1 − D(G(z,c))). ----
  {
    GeneratorOut fake = run_generator(teacher, codes);
    std::vector<Var> fake_detached;
    fake_detached.reserve(len);
    for (const auto& o : fake.outputs) fake_detached.push_back(nn::constant(o->value));
    std::vector<Var> real_seq;
    real_seq.reserve(len);
    for (const auto& r : real) real_seq.push_back(nn::constant(r));

    DiscriminatorOut on_real = run_discriminator(real_seq);
    DiscriminatorOut on_fake = run_discriminator(fake_detached);
    std::vector<Var> step_losses;
    step_losses.reserve(2 * len);
    Var ones_c = nn::constant(ones);
    Var zeros_c = nn::constant(zeros);
    for (std::size_t t = 0; t < len; ++t) {
      step_losses.push_back(nn::loss_bce_with_logits(on_real.logits[t], ones_c));
      step_losses.push_back(nn::loss_bce_with_logits(on_fake.logits[t], zeros_c));
    }
    Var d_loss = mean_over_steps(step_losses);
    g_opt_->zero_grad();
    d_opt_->zero_grad();
    nn::backward(d_loss);
    double d_norm = d_opt_->clip_grad_norm(config_.grad_clip);
    MECSC_HISTOGRAM("gan.grad_norm.d", d_norm);
    d_opt_->step();
    stats.d_loss = d_loss->value[0];
  }

  // ---- Generator/Q step: min BCE(D(fake), 1) + λ·CE(Q(fake), c). ----
  {
    GeneratorOut fake = run_generator(teacher, codes);
    DiscriminatorOut on_fake = run_discriminator(fake.outputs);
    Var ones_c = nn::constant(ones);
    Var code_c = nn::constant(code_target);
    std::vector<Var> adv_losses;
    std::vector<Var> info_losses;
    std::vector<Var> sup_losses;
    adv_losses.reserve(len);
    info_losses.reserve(len);
    sup_losses.reserve(len);
    for (std::size_t t = 0; t < len; ++t) {
      adv_losses.push_back(nn::loss_bce_with_logits(on_fake.logits[t], ones_c));
      info_losses.push_back(nn::loss_softmax_cross_entropy(on_fake.q_logits[t], code_c));
      sup_losses.push_back(nn::loss_mse(fake.outputs[t], nn::constant(real[t])));
    }
    Var adv = mean_over_steps(adv_losses);
    Var info = mean_over_steps(info_losses);
    Var sup = mean_over_steps(sup_losses);
    Var g_loss = nn::op_add(
        nn::op_add(adv, nn::op_scale(info, config_.lambda_info)),
        nn::op_scale(sup, config_.lambda_supervised));
    g_opt_->zero_grad();
    d_opt_->zero_grad();  // trunk grads from this pass are discarded
    nn::backward(g_loss);
    double g_norm = g_opt_->clip_grad_norm(config_.grad_clip);
    MECSC_HISTOGRAM("gan.grad_norm.g", g_norm);
    g_opt_->step();
    d_opt_->zero_grad();
    stats.g_adv_loss = adv->value[0];
    stats.info_loss = info->value[0];
    stats.supervised_loss = sup->value[0];
  }
  if (obs::enabled()) {
    obs::Registry& reg = obs::current();
    reg.counter("gan.train_steps").inc();
    reg.gauge("gan.d_loss").set(stats.d_loss);
    reg.gauge("gan.g_adv_loss").set(stats.g_adv_loss);
    reg.gauge("gan.info_loss").set(stats.info_loss);
    reg.gauge("gan.supervised_loss").set(stats.supervised_loss);
    reg.histogram("gan.d_loss_trajectory").observe(stats.d_loss);
    reg.histogram("gan.g_adv_loss_trajectory").observe(stats.g_adv_loss);
  }
  return stats;
}

GanStepStats InfoRnnGan::train(const std::vector<std::vector<double>>& cluster_series,
                               std::size_t steps) {
  std::vector<std::size_t> codes(cluster_series.size());
  for (std::size_t c = 0; c < codes.size(); ++c) codes[c] = c % config_.num_codes;
  return train_with_codes(cluster_series, codes, steps);
}

GanStepStats InfoRnnGan::train_with_codes(
    const std::vector<std::vector<double>>& series,
    const std::vector<std::size_t>& series_codes, std::size_t steps) {
  MECSC_CHECK_MSG(!series.empty(), "no training series");
  MECSC_CHECK_MSG(series.size() == series_codes.size(),
                  "one code per training series required");
  const std::size_t len = config_.seq_len;
  std::vector<std::size_t> usable;
  for (std::size_t c = 0; c < series.size(); ++c) {
    MECSC_CHECK_MSG(series_codes[c] < config_.num_codes, "code out of range");
    if (series[c].size() >= len + 2) usable.push_back(c);
  }
  MECSC_CHECK_MSG(!usable.empty(),
                  "every training series is shorter than seq_len+2");

  // Fixed validation batch: the most recent window of each usable series
  // (round-robin up to one batch worth).
  std::vector<std::vector<double>> val_windows;
  std::vector<std::size_t> val_codes;
  for (std::size_t j = 0; j < std::min(usable.size(), config_.batch_size); ++j) {
    const auto& s_c = series[usable[j]];
    val_windows.emplace_back(s_c.end() - static_cast<std::ptrdiff_t>(len + 1),
                             s_c.end());
    val_codes.push_back(series_codes[usable[j]]);
  }

  GanStepStats last;
  double best_val = std::numeric_limits<double>::infinity();
  std::vector<Matrix> best_weights;
  for (std::size_t s = 0; s < steps; ++s) {
    std::vector<std::vector<double>> windows;
    std::vector<std::size_t> codes;
    windows.reserve(config_.batch_size);
    for (std::size_t b = 0; b < config_.batch_size; ++b) {
      std::size_t c = usable[rng_.index(usable.size())];
      const auto& s_c = series[c];
      std::size_t start = rng_.index(s_c.size() - len - 1);
      windows.emplace_back(s_c.begin() + static_cast<std::ptrdiff_t>(start),
                           s_c.begin() + static_cast<std::ptrdiff_t>(start + len + 1));
      codes.push_back(series_codes[c]);
    }
    last = train_step(windows, codes);
    if ((s + 1) % kValidationInterval == 0 || s + 1 == steps) {
      double val = validation_mse(val_windows, val_codes);
      if (val < best_val) {
        best_val = val;
        best_weights = snapshot_generator();
      }
    }
  }
  if (!best_weights.empty()) restore_generator(best_weights);
  return last;
}

double InfoRnnGan::validation_mse(const std::vector<std::vector<double>>& windows,
                                  const std::vector<std::size_t>& codes) {
  const std::size_t len = config_.seq_len;
  const std::size_t batch = windows.size();
  std::vector<Matrix> teacher(len, Matrix(batch, 1));
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t t = 0; t < len; ++t) {
      teacher[t].at(b, 0) = std::clamp(windows[b][t], 0.0, 1.0);
    }
  }
  nn::NoGradGuard no_grad;
  GeneratorOut out = run_generator(teacher, codes, /*with_noise=*/false);
  double mse = 0.0;
  for (std::size_t t = 0; t < len; ++t) {
    for (std::size_t b = 0; b < batch; ++b) {
      double err = out.outputs[t]->value[b] -
                   std::clamp(windows[b][t + 1], 0.0, 1.0);
      mse += err * err;
    }
  }
  return mse / static_cast<double>(len * batch);
}

std::vector<Matrix> InfoRnnGan::snapshot_generator() const {
  std::vector<Matrix> snap;
  for (const auto& p : g_rnn_->parameters()) snap.push_back(p->value);
  for (const auto& p : g_head_->parameters()) snap.push_back(p->value);
  return snap;
}

void InfoRnnGan::restore_generator(const std::vector<Matrix>& snapshot) {
  std::size_t i = 0;
  for (const auto& p : g_rnn_->parameters()) p->value = snapshot.at(i++);
  for (const auto& p : g_head_->parameters()) p->value = snapshot.at(i++);
  MECSC_CHECK(i == snapshot.size());
}

double InfoRnnGan::predict_next(const std::vector<double>& history,
                                std::size_t cluster) {
  return predict_next_batch({history}, {cluster}).front();
}

std::vector<double> InfoRnnGan::predict_next_batch(
    const std::vector<std::vector<double>>& histories,
    const std::vector<std::size_t>& clusters) {
  MECSC_CHECK_MSG(histories.size() == clusters.size(),
                  "histories/clusters size mismatch");
  if (histories.empty()) return {};
  for (std::size_t c : clusters) {
    MECSC_CHECK_MSG(c < config_.num_codes, "cluster id out of range");
  }
  const std::size_t len = config_.seq_len;
  const std::size_t batch = histories.size();
  std::vector<Matrix> teacher(len, Matrix(batch, 1));
  for (std::size_t b = 0; b < batch; ++b) {
    const auto& history = histories[b];
    for (std::size_t t = 0; t < len; ++t) {
      // Right-align the history; zero-pad in front when it is shorter.
      std::ptrdiff_t idx = static_cast<std::ptrdiff_t>(history.size()) -
                           static_cast<std::ptrdiff_t>(len) +
                           static_cast<std::ptrdiff_t>(t);
      double v = idx >= 0 ? history[static_cast<std::size_t>(idx)] : 0.0;
      teacher[t].at(b, 0) = std::clamp(v, 0.0, 1.0);
    }
  }
  // Zero noise at inference: the point forecast is the generator's mean
  // continuation, not one sampled trajectory. No tape either — this is
  // a pure forward pass. The residual head can overshoot [0,1] slightly;
  // demand is defined on the normalized unit interval, so clamp.
  nn::NoGradGuard no_grad;
  GeneratorOut out = run_generator(teacher, clusters, /*with_noise=*/false);
  const Matrix& last = out.outputs.back()->value;
  std::vector<double> result(batch);
  for (std::size_t b = 0; b < batch; ++b) {
    result[b] = std::clamp(last[b], 0.0, 1.0);
  }
  return result;
}

std::size_t InfoRnnGan::generator_parameter_count() const {
  return g_rnn_->parameter_count() + g_head_->parameter_count();
}

std::size_t InfoRnnGan::discriminator_parameter_count() const {
  return d_rnn_->parameter_count() + d_head_->parameter_count() +
         q_head_->parameter_count();
}

}  // namespace mecsc::gan

