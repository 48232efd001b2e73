#include "predict/gan_predictor.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "obs/metrics.h"

namespace mecsc::predict {

GanDemandPredictor::GanDemandPredictor(const std::vector<workload::Request>& requests,
                                       const workload::Trace& trace,
                                       GanPredictorOptions options,
                                       std::uint64_t seed) {
  MECSC_CHECK_MSG(!requests.empty(), "no requests");
  MECSC_CHECK_MSG(options.scale_headroom >= 1.0, "headroom must be >= 1");

  // The GAN's latent dimension must cover every cluster in the trace.
  options.gan.num_codes = std::max(options.gan.num_codes, trace.num_clusters());

  cluster_of_request_.reserve(requests.size());
  fallback_.reserve(requests.size());
  for (const auto& r : requests) {
    MECSC_CHECK_MSG(r.location_cluster < trace.num_clusters(),
                    "request cluster outside trace clusters");
    cluster_of_request_.push_back(r.location_cluster);
    fallback_.push_back(r.basic_demand);
  }

  // Global normalization scale from the trace (with headroom).
  double max_demand = 0.0;
  for (const auto& row : trace.rows()) max_demand = std::max(max_demand, row.demand);
  for (double f : fallback_) max_demand = std::max(max_demand, f);
  scale_ = std::max(1e-9, max_demand * options.scale_headroom);

  // One gap-filled training series per user, labelled with the user's
  // location-cluster code.
  std::vector<std::vector<double>> series;
  std::vector<std::size_t> codes;
  series.reserve(requests.size());
  codes.reserve(requests.size());
  for (std::size_t l = 0; l < requests.size(); ++l) {
    std::vector<double> s = trace.user_series(requests[l].id);
    for (auto& v : s) v /= scale_;
    series.push_back(std::move(s));
    codes.push_back(cluster_of_request_[l]);
  }

  gan_ = std::make_unique<gan::InfoRnnGan>(options.gan, seed);
  gan_->train_with_codes(series, codes, options.train_steps);

  // Seed each request's run-time history with its historical series so
  // the first predictions are informed rather than zero-padded.
  history_ = std::move(series);
}

double GanDemandPredictor::sanitize_prediction(double raw_norm,
                                               const std::vector<double>& history,
                                               double scale, double basic_demand) {
  if (std::isfinite(raw_norm)) {
    double v = raw_norm * scale;
    return v > 0.0 ? v : basic_demand;
  }
  if (history.empty()) return basic_demand;
  double sum = 0.0;
  for (double h : history) sum += h;
  return std::max(0.0, sum / static_cast<double>(history.size()) * scale);
}

std::vector<double> GanDemandPredictor::predict(std::size_t) {
  const std::size_t n = cluster_of_request_.size();
  // One fused forward pass per chunk instead of one per request: every
  // per-step matmul then runs at batch = chunk size. Chunking bounds the
  // packed teacher matrices to kChunk × seq_len doubles; the forecasts
  // are bit-identical to the sequential path at any chunk size.
  constexpr std::size_t kChunk = 1024;
  std::vector<double> out(n);
  for (std::size_t begin = 0; begin < n; begin += kChunk) {
    const std::size_t end = std::min(n, begin + kChunk);
    std::vector<std::vector<double>> histories(history_.begin() + begin,
                                               history_.begin() + end);
    std::vector<std::size_t> clusters(cluster_of_request_.begin() + begin,
                                      cluster_of_request_.begin() + end);
    std::vector<double> norm = gan_->predict_next_batch(histories, clusters);
    for (std::size_t l = begin; l < end; ++l) {
      if (!std::isfinite(norm[l - begin])) MECSC_COUNT("fault.predictor_nan", 1.0);
      out[l] = sanitize_prediction(norm[l - begin], history_[l], scale_, fallback_[l]);
    }
  }
  return out;
}

void GanDemandPredictor::observe(std::size_t, const std::vector<double>& demands) {
  MECSC_CHECK_MSG(demands.size() == history_.size(), "demand size mismatch");
  std::size_t keep = 4 * gan_->config().seq_len;
  for (std::size_t l = 0; l < demands.size(); ++l) {
    // A non-finite observation (should not happen; defensive against a
    // faulted upstream) is recorded as "no demand" rather than poisoning
    // the history ring.
    double norm =
        std::isfinite(demands[l]) ? std::clamp(demands[l] / scale_, 0.0, 1.0) : 0.0;
    history_[l].push_back(norm);
    if (history_[l].size() > keep) history_[l].erase(history_[l].begin());
  }
}

}  // namespace mecsc::predict
