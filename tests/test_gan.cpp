// Tests for the Info-RNN-GAN: construction, loss structure, training
// behaviour on controlled series, and mode-separation across latent codes.
#include <gtest/gtest.h>

#include <cmath>

#include "gan/info_rnn_gan.h"

namespace mecsc::gan {
namespace {

InfoRnnGanConfig tiny_config() {
  InfoRnnGanConfig c;
  c.noise_dim = 4;
  c.num_codes = 2;
  c.hidden = 8;
  c.seq_len = 8;
  c.batch_size = 8;
  return c;
}

TEST(InfoRnnGan, ConstructionAndParameterCounts) {
  InfoRnnGan gan(tiny_config(), 1);
  EXPECT_GT(gan.generator_parameter_count(), 0u);
  EXPECT_GT(gan.discriminator_parameter_count(), 0u);
  // Generator input = noise + codes + 1 teacher value.
  // BiLSTM: 2 directions × ((in+h)·4h + 4h); head: 2h·1 + 1.
  std::size_t in = 4 + 2 + 1;
  std::size_t h = 8;
  std::size_t expected_g =
      2 * ((in + h) * 4 * h + 4 * h) + (2 * h * 1 + 1);
  EXPECT_EQ(gan.generator_parameter_count(), expected_g);
}

TEST(InfoRnnGan, RejectsBadConfig) {
  InfoRnnGanConfig c = tiny_config();
  c.hidden = 0;
  EXPECT_THROW(InfoRnnGan(c, 1), std::exception);
  c = tiny_config();
  c.lambda_info = -1.0;
  EXPECT_THROW(InfoRnnGan(c, 1), std::exception);
}

TEST(InfoRnnGan, TrainStepValidatesWindows) {
  InfoRnnGan gan(tiny_config(), 2);
  std::vector<std::vector<double>> bad{{0.1, 0.2}};  // too short
  EXPECT_THROW(gan.train_step(bad, {0}), std::exception);
  EXPECT_THROW(gan.train_step({}, {}), std::exception);
}

TEST(InfoRnnGan, TrainStepProducesFiniteLosses) {
  InfoRnnGanConfig c = tiny_config();
  InfoRnnGan gan(c, 3);
  std::vector<std::vector<double>> windows;
  std::vector<std::size_t> codes;
  for (std::size_t b = 0; b < c.batch_size; ++b) {
    std::vector<double> w(c.seq_len + 1);
    for (std::size_t t = 0; t <= c.seq_len; ++t) {
      w[t] = 0.5 + 0.3 * std::sin(0.7 * static_cast<double>(t + b));
    }
    windows.push_back(std::move(w));
    codes.push_back(b % 2);
  }
  GanStepStats s = gan.train_step(windows, codes);
  EXPECT_TRUE(std::isfinite(s.d_loss));
  EXPECT_TRUE(std::isfinite(s.g_adv_loss));
  EXPECT_TRUE(std::isfinite(s.info_loss));
  EXPECT_GT(s.d_loss, 0.0);
}

TEST(InfoRnnGan, PredictionsInUnitInterval) {
  InfoRnnGan gan(tiny_config(), 4);
  std::vector<double> history{0.2, 0.4, 0.9, 0.1};
  for (std::size_t code = 0; code < 2; ++code) {
    double p = gan.predict_next(history, code);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
  EXPECT_THROW(gan.predict_next(history, 99), std::exception);
}

TEST(InfoRnnGan, PredictHandlesShortAndLongHistories) {
  InfoRnnGan gan(tiny_config(), 5);
  EXPECT_NO_THROW(gan.predict_next({}, 0));
  std::vector<double> longh(100, 0.5);
  EXPECT_NO_THROW(gan.predict_next(longh, 1));
}

TEST(InfoRnnGan, LearnsConstantLevelSeries) {
  // Train on a cluster whose demand is constant 0.8; after training the
  // generator's next-step prediction given a 0.8-history should be far
  // from its untrained output and near the level.
  InfoRnnGanConfig c = tiny_config();
  c.num_codes = 1;
  InfoRnnGan gan(c, 6);
  std::vector<double> history(c.seq_len, 0.8);
  std::vector<std::vector<double>> series{std::vector<double>(200, 0.8)};
  gan.train(series, 120);
  double trained = gan.predict_next(history, 0);
  EXPECT_NEAR(trained, 0.8, 0.2);
}

TEST(InfoRnnGan, InfoLossDecreasesWithTraining) {
  // The Q head should learn to recover the latent code from generated
  // sequences: CE starts near log(2) for 2 codes and drops.
  InfoRnnGanConfig c = tiny_config();
  c.lambda_info = 2.0;
  c.lambda_supervised = 0.0;  // isolate the Eq. 26 objective
  InfoRnnGan gan(c, 7);
  // Two clearly different clusters.
  std::vector<std::vector<double>> series{
      std::vector<double>(200, 0.15),
      std::vector<double>(200, 0.85),
  };
  GanStepStats first = gan.train(series, 1);
  GanStepStats last = gan.train(series, 200);
  EXPECT_LT(last.info_loss, first.info_loss);
  EXPECT_LT(last.info_loss, 0.4);  // well below log(2) ≈ 0.693
}

TEST(InfoRnnGan, CodesSeparateGeneratedLevels) {
  // After training on one low and one high cluster, the latent code
  // must steer the generated level (no mode collapse onto one level).
  InfoRnnGanConfig c = tiny_config();
  c.lambda_info = 2.0;
  InfoRnnGan gan(c, 8);
  std::vector<std::vector<double>> series{
      std::vector<double>(200, 0.15),
      std::vector<double>(200, 0.85),
  };
  gan.train(series, 250);
  std::vector<double> low_hist(c.seq_len, 0.15);
  std::vector<double> high_hist(c.seq_len, 0.85);
  double low = gan.predict_next(low_hist, 0);
  double high = gan.predict_next(high_hist, 1);
  EXPECT_LT(low, high);
  EXPECT_GT(high - low, 0.2);
}

TEST(InfoRnnGan, TrainRejectsAllShortSeries) {
  InfoRnnGan gan(tiny_config(), 11);
  std::vector<std::vector<double>> series{{0.1, 0.2, 0.3}};
  EXPECT_THROW(gan.train(series, 5), std::exception);
}

TEST(InfoRnnGan, GruCoreTrainsAndPredicts) {
  InfoRnnGanConfig c = tiny_config();
  c.rnn = nn::RnnKind::kGru;
  InfoRnnGan gan(c, 31);
  std::vector<std::vector<double>> series{std::vector<double>(100, 0.7)};
  gan.train(series, 60);
  std::vector<double> history(c.seq_len, 0.7);
  double pred = gan.predict_next(history, 0);
  EXPECT_NEAR(pred, 0.7, 0.25);
  // GRU core is lighter than the LSTM default.
  InfoRnnGan lstm(tiny_config(), 31);
  EXPECT_LT(gan.generator_parameter_count(), lstm.generator_parameter_count());
}

TEST(InfoRnnGan, DeterministicGivenSeed) {
  InfoRnnGanConfig c = tiny_config();
  std::vector<std::vector<double>> series{std::vector<double>(100, 0.5)};
  InfoRnnGan a(c, 42);
  InfoRnnGan b(c, 42);
  GanStepStats sa = a.train(series, 10);
  GanStepStats sb = b.train(series, 10);
  EXPECT_DOUBLE_EQ(sa.d_loss, sb.d_loss);
  EXPECT_DOUBLE_EQ(sa.g_adv_loss, sb.g_adv_loss);
  std::vector<double> h(c.seq_len, 0.5);
  // Prediction consumes RNG (noise); same call order → same value.
  EXPECT_DOUBLE_EQ(a.predict_next(h, 0), b.predict_next(h, 0));
}

}  // namespace
}  // namespace mecsc::gan
