// Tests for the demand predictors: oracle, last-value, ARMA (Eq. 27) and
// the GAN adapter.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "net/generators.h"
#include "gan/info_rnn_gan.h"
#include "predict/gan_predictor.h"
#include "predict/predictor.h"
#include "workload/trace.h"

namespace mecsc::predict {
namespace {

TEST(OraclePredictor, ReturnsTruth) {
  workload::DemandMatrix m(2, 3);
  m.set(0, 1, 5.0);
  m.set(1, 1, 7.0);
  OraclePredictor p(&m);
  auto v = p.predict(1);
  EXPECT_DOUBLE_EQ(v[0], 5.0);
  EXPECT_DOUBLE_EQ(v[1], 7.0);
  EXPECT_THROW(p.predict(3), std::exception);
  EXPECT_EQ(p.name(), "oracle");
}

TEST(LastValuePredictor, FallbackThenEcho) {
  LastValuePredictor p({1.0, 2.0});
  auto v0 = p.predict(0);
  EXPECT_DOUBLE_EQ(v0[0], 1.0);
  p.observe(0, {9.0, 8.0});
  auto v1 = p.predict(1);
  EXPECT_DOUBLE_EQ(v1[0], 9.0);
  EXPECT_DOUBLE_EQ(v1[1], 8.0);
  EXPECT_THROW(p.observe(1, {1.0}), std::exception);
}

TEST(ArmaPredictor, DefaultWeightsSatisfyEq27) {
  ArmaPredictor p(4, {0.0});
  const auto& w = p.weights();
  ASSERT_EQ(w.size(), 4u);
  double sum = 0.0;
  for (std::size_t i = 0; i < w.size(); ++i) {
    sum += w[i];
    if (i > 0) EXPECT_LE(w[i], w[i - 1]);
    EXPECT_GE(w[i], 0.0);
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
  // Linear decay: 4/10, 3/10, 2/10, 1/10.
  EXPECT_NEAR(w[0], 0.4, 1e-12);
  EXPECT_NEAR(w[3], 0.1, 1e-12);
}

TEST(ArmaPredictor, RejectsBadWeights) {
  EXPECT_THROW(ArmaPredictor({0.2, 0.5, 0.3}, {0.0}), std::exception);  // not nonincreasing
  EXPECT_THROW(ArmaPredictor({0.6, 0.6}, {0.0}), std::exception);       // sum != 1
  EXPECT_THROW(ArmaPredictor(std::vector<double>{}, {0.0}), std::exception);
  EXPECT_THROW(ArmaPredictor(2, std::vector<double>{}), std::exception);
}

TEST(ArmaPredictor, ExactWeightedPrediction) {
  ArmaPredictor p({0.5, 0.3, 0.2}, {0.0});
  p.observe(0, {10.0});
  p.observe(1, {20.0});
  p.observe(2, {30.0});
  // Most recent (30) gets 0.5, then 20 gets 0.3, then 10 gets 0.2.
  EXPECT_NEAR(p.predict(3)[0], 0.5 * 30.0 + 0.3 * 20.0 + 0.2 * 10.0, 1e-12);
}

TEST(ArmaPredictor, PartialHistoryRenormalizes) {
  ArmaPredictor p({0.5, 0.3, 0.2}, {7.0});
  EXPECT_DOUBLE_EQ(p.predict(0)[0], 7.0);  // no history -> fallback
  p.observe(0, {10.0});
  EXPECT_NEAR(p.predict(1)[0], 10.0, 1e-12);  // single obs, weight renorm
  p.observe(1, {20.0});
  EXPECT_NEAR(p.predict(2)[0], (0.5 * 20.0 + 0.3 * 10.0) / 0.8, 1e-12);
}

TEST(ArmaPredictor, WindowSlides) {
  ArmaPredictor p(2, {0.0});
  for (int t = 0; t < 10; ++t) p.observe(t, {static_cast<double>(t)});
  // Only the last two observations (8, 9) matter: (2/3)*9 + (1/3)*8.
  EXPECT_NEAR(p.predict(10)[0], (2.0 / 3.0) * 9.0 + (1.0 / 3.0) * 8.0, 1e-12);
}

TEST(ArmaPredictor, ConvergesOnConstantSeries) {
  ArmaPredictor p(5, {0.0});
  for (int t = 0; t < 20; ++t) p.observe(t, {42.0});
  EXPECT_NEAR(p.predict(20)[0], 42.0, 1e-9);
}

TEST(Mae, KnownValue) {
  EXPECT_DOUBLE_EQ(mean_absolute_error({1.0, 2.0}, {2.0, 0.0}), 1.5);
  EXPECT_THROW(mean_absolute_error({1.0}, {1.0, 2.0}), std::exception);
}

class GanPredictorFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    common::Rng rng(5);
    net::GtItmParams gp;
    gp.num_stations = 30;
    topo_ = std::make_unique<net::Topology>(net::generate_gtitm_like(gp, rng));
    workload::WorkloadParams wp;
    wp.num_requests = 12;
    wp.num_clusters = 3;
    wp.horizon = 80;
    workload_ = workload::make_workload(*topo_, wp, rng, /*bursty=*/true);
    common::Rng drng(7);
    demands_ = std::make_unique<workload::DemandMatrix>(workload::realize_demands(
        workload_.requests, workload_.processes, 80, drng));
    common::Rng trng(9);
    trace_ = std::make_unique<workload::Trace>(workload::Trace::from_demands(
        workload_.requests, *demands_, wp.num_clusters, 0.5, trng));
  }

  GanPredictorOptions tiny_options() const {
    GanPredictorOptions o;
    o.gan.noise_dim = 4;
    o.gan.hidden = 6;
    o.gan.seq_len = 8;
    o.gan.batch_size = 4;
    o.train_steps = 20;
    return o;
  }

  std::unique_ptr<net::Topology> topo_;
  workload::Workload workload_;
  std::unique_ptr<workload::DemandMatrix> demands_;
  std::unique_ptr<workload::Trace> trace_;
};

TEST_F(GanPredictorFixture, ConstructsTrainsAndPredicts) {
  GanDemandPredictor p(workload_.requests, *trace_, tiny_options(), 42);
  EXPECT_EQ(p.name(), "info-rnn-gan");
  EXPECT_GT(p.scale(), 0.0);
  auto v = p.predict(0);
  ASSERT_EQ(v.size(), workload_.requests.size());
  for (double d : v) {
    EXPECT_GE(d, 0.0);
    EXPECT_LE(d, p.scale());
  }
}

TEST_F(GanPredictorFixture, ObserveUpdatesHistory) {
  GanDemandPredictor p(workload_.requests, *trace_, tiny_options(), 43);
  auto before = p.predict(0);
  std::vector<double> truth(workload_.requests.size(), 30.0);
  for (int t = 0; t < 5; ++t) p.observe(t, truth);
  auto after = p.predict(5);
  ASSERT_EQ(after.size(), before.size());
  // Predictions remain valid (bounded by scale) after observations.
  for (double d : after) {
    EXPECT_GE(d, 0.0);
    EXPECT_LE(d, p.scale());
  }
}

TEST_F(GanPredictorFixture, ScaleCoversTraceMaximum) {
  GanDemandPredictor p(workload_.requests, *trace_, tiny_options(), 44);
  double max_demand = 0.0;
  for (const auto& row : trace_->rows()) {
    max_demand = std::max(max_demand, row.demand);
  }
  EXPECT_GE(p.scale(), max_demand);
}

TEST_F(GanPredictorFixture, RejectsSizeMismatchOnObserve) {
  GanDemandPredictor p(workload_.requests, *trace_, tiny_options(), 45);
  EXPECT_THROW(p.observe(0, {1.0}), std::exception);
}

TEST_F(GanPredictorFixture, PredictionsTrackClusterScale) {
  // A request whose cluster demand history sits high should not be
  // predicted at (near) zero once the model has real observations.
  GanDemandPredictor p(workload_.requests, *trace_, tiny_options(), 47);
  std::vector<double> truth(workload_.requests.size());
  for (std::size_t l = 0; l < truth.size(); ++l) {
    truth[l] = workload_.requests[l].basic_demand + 10.0;
  }
  for (std::size_t t = 0; t < 8; ++t) p.observe(t, truth);
  auto pred = p.predict(8);
  double mean_pred = 0.0;
  for (double v : pred) mean_pred += v;
  mean_pred /= static_cast<double>(pred.size());
  double mean_truth = 0.0;
  for (double v : truth) mean_truth += v;
  mean_truth /= static_cast<double>(truth.size());
  EXPECT_GT(mean_pred, 0.25 * mean_truth);
  EXPECT_LT(mean_pred, 2.5 * mean_truth);
}

}  // namespace
}  // namespace mecsc::predict
