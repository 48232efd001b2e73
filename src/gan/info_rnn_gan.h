#ifndef MECSC_GAN_INFO_RNN_GAN_H
#define MECSC_GAN_INFO_RNN_GAN_H

#include <cstddef>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "nn/layers.h"
#include "nn/optimizer.h"

namespace mecsc::gan {

/// Hyper-parameters of the Info-RNN-GAN (paper §V.B, Fig. 2).
struct InfoRnnGanConfig {
  /// Noise vector z^t dimension.
  std::size_t noise_dim = 8;
  /// Latent-code dimension |C| — the one-hot encoding of the user's
  /// location cluster (the paper one-hot encodes locations and feeds
  /// them as the latent C).
  std::size_t num_codes = 8;
  /// Bi-LSTM hidden width (per direction) of generator & discriminator.
  std::size_t hidden = 24;
  /// Unrolled sequence length (one "monitoring period" T of Eq. 23).
  std::size_t seq_len = 24;
  /// λ weight of the mutual-information lower bound L1 (Eq. 24/26).
  double lambda_info = 1.0;
  /// Weight of the supervised teacher-forcing term added to the
  /// generator loss: MSE between the generated step and the true next
  /// value. A purely adversarial generator only has to produce
  /// *plausible* sequences; prediction additionally needs *accurate
  /// continuations* of the conditioning history, which is what this term
  /// (standard in conditional sequence GANs) enforces. Set to 0 for the
  /// literal Eq. 26 objective.
  double lambda_supervised = 20.0;
  double lr_generator = 3e-3;
  double lr_discriminator = 3e-3;
  double grad_clip = 5.0;
  std::size_t batch_size = 16;
  /// Recurrent core of generator and discriminator. The paper uses
  /// Bi-LSTM; Bi-GRU is a lighter alternative compared in
  /// `bench_ablation_rnn`.
  nn::RnnKind rnn = nn::RnnKind::kLstm;
};

/// One training step's losses.
struct GanStepStats {
  double d_loss = 0.0;        // discriminator BCE (real=1, fake=0)
  double g_adv_loss = 0.0;    // generator adversarial BCE (fake=1)
  double info_loss = 0.0;     // −L1 term: CE of Q recovering the code
  double supervised_loss = 0.0;  // teacher-forcing MSE of the generator
};

/// The paper's Info-RNN-GAN demand model.
///
/// * Generator G: per-step input [z^t, one-hot c, previous demand]
///   → two-direction LSTM → linear+sigmoid head → demand in [0,1].
///   Conditioning on the previous observed demand (teacher forcing)
///   turns the generative model into a usable next-slot predictor while
///   preserving the adversarial + mutual-information loss structure
///   (DESIGN.md §2 records this substitution).
/// * Discriminator D: per-step input = demand value → Bi-LSTM trunk →
///   per-step real/fake logit. The BCE is averaged over the T steps,
///   matching Eq. 23's (1/T) Σ_t form.
/// * Q head: shares D's trunk, per-step softmax over codes; its
///   cross-entropy against the true one-hot code is the variational
///   lower bound L1 on the mutual information I(c; G(z,c)) (Eq. 25);
///   both G and Q minimise it with weight λ (Eq. 26).
///
/// All demands handled here are normalized to [0,1]; the predictor
/// adapter owns the scaling.
class InfoRnnGan {
 public:
  InfoRnnGan(InfoRnnGanConfig config, std::uint64_t seed);

  const InfoRnnGanConfig& config() const noexcept { return config_; }

  /// One adversarial step (one D update + one G/Q update) on a batch of
  /// real windows. `windows[b]` has seq_len+1 values (the leading value
  /// is the teacher-forcing input of step 0); `codes[b]` is the cluster
  /// id of window b.
  GanStepStats train_step(const std::vector<std::vector<double>>& windows,
                          const std::vector<std::size_t>& codes);

  /// Trains for `steps` batches sampled from per-cluster series (each
  /// series must be longer than seq_len+1; shorter ones are skipped).
  /// Series index doubles as the latent code. Returns the stats of the
  /// last step.
  GanStepStats train(const std::vector<std::vector<double>>& cluster_series,
                     std::size_t steps);

  /// As `train`, but with an explicit latent code per series — used when
  /// several users' series share one location-cluster code (the paper's
  /// per-request prediction with per-hotspot latents).
  ///
  /// Adversarial training can drift late in a run; every
  /// `validation_interval` steps the generator's teacher-forced MSE on a
  /// fixed validation batch is evaluated and the best generator weights
  /// seen are restored at the end (GAN checkpointing).
  GanStepStats train_with_codes(const std::vector<std::vector<double>>& series,
                                const std::vector<std::size_t>& codes,
                                std::size_t steps);

  /// Steps between validation checkpoints during train/train_with_codes.
  static constexpr std::size_t kValidationInterval = 25;

  /// Predicts the next normalized demand after `history` for a cluster.
  /// Uses the last seq_len values (zero-padded in front when shorter).
  double predict_next(const std::vector<double>& history, std::size_t cluster);

  /// Batched `predict_next`: one fused zero-noise forward pass over all
  /// (history, cluster) pairs at once, so every per-step matmul runs at
  /// batch = histories.size() instead of 1. Bit-identical to calling
  /// predict_next per pair (row-major kernels process batch rows
  /// independently and inference is deterministic); the win is purely
  /// throughput. `histories[i]` pairs with `clusters[i]`.
  std::vector<double> predict_next_batch(
      const std::vector<std::vector<double>>& histories,
      const std::vector<std::size_t>& clusters);

  std::size_t generator_parameter_count() const;
  std::size_t discriminator_parameter_count() const;

 private:
  struct GeneratorOut {
    std::vector<nn::Var> outputs;  // per step, batch × 1
  };

  /// Runs G over a window batch; `teacher` holds the per-step previous
  /// demand (batch × 1 each). `with_noise = false` feeds z = 0 (mean
  /// forecast at inference time).
  GeneratorOut run_generator(const std::vector<nn::Matrix>& teacher,
                             const std::vector<std::size_t>& codes,
                             bool with_noise = true);
  /// Runs D+Q over a demand sequence (per-step batch × 1 vars).
  struct DiscriminatorOut {
    std::vector<nn::Var> logits;    // per step, batch × 1
    std::vector<nn::Var> q_logits;  // per step, batch × num_codes
  };
  DiscriminatorOut run_discriminator(const std::vector<nn::Var>& demand_seq);

  nn::Matrix one_hot_batch(const std::vector<std::size_t>& codes) const;

  /// Teacher-forced zero-noise MSE of the generator on validation
  /// windows (checkpoint criterion).
  double validation_mse(const std::vector<std::vector<double>>& windows,
                        const std::vector<std::size_t>& codes);
  std::vector<nn::Matrix> snapshot_generator() const;
  void restore_generator(const std::vector<nn::Matrix>& snapshot);

  InfoRnnGanConfig config_;
  common::Rng rng_;

  // Generator.
  std::unique_ptr<nn::BiRnn> g_rnn_;
  std::unique_ptr<nn::Linear> g_head_;
  // Discriminator trunk + heads.
  std::unique_ptr<nn::BiRnn> d_rnn_;
  std::unique_ptr<nn::Linear> d_head_;
  std::unique_ptr<nn::Linear> q_head_;

  std::unique_ptr<nn::Adam> g_opt_;  // updates G (+ Q via info term)
  std::unique_ptr<nn::Adam> d_opt_;
};

}  // namespace mecsc::gan

#endif  // MECSC_GAN_INFO_RNN_GAN_H
