// Traced benchmark command: the workloads of perfbench_e2e, run with
// MECSC_TELEMETRY=summary, with
//  * spans around every call into the program (construction, GAN
//    training, each SlotEngine::step and its decide / score / observe
//    phases, predict and observe through a timing proxy, the serve submit
//    loop, replay_trace), kept in memory and written out at the end;
//  * a phase probe that re-times demand classing, the fractional solve of
//    the tier the algorithm reports and the rounding on each slot's own
//    inputs (θ before the slot, last_demands()), once with telemetry on
//    and once off, on solver instances kept across slots;
//  * the program's own solver counters (mcf.*, lag.*, agg.*, fault.*).
// It prints the per-layer metrics. This is the only target that calls
// inner layers (core::), so their signature changes can break it but not
// the end-to-end command.
//
//   perfbench_traced --workload flat-400|gan-fig6|serve-30k --seed N --seconds S --out DIR

#include <algorithm>
#include <cmath>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>

#include "checks.h"
#include "common/rng.h"
#include "core/aggregation.h"
#include "core/assignment.h"
#include "core/fractional_solver.h"
#include "core/lagrangian_solver.h"
#include "core/rounding.h"
#include "harness.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "serve/trace_io.h"

namespace {

using namespace perfbench;
namespace core = mecsc::core;
namespace obs = mecsc::obs;
using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct SpanRec {
  const char* name;
  double start_ms;
  double end_ms;
  int parent;
  std::int64_t slot;
};

// Sums of program counters, read by name from the process registry.
struct Counters {
  double augmentations = 0, arcs_scanned = 0, lag_iterations = 0,
         fallbacks = 0, spill = 0, class_sum = 0, class_slots = 0;

  static Counters read() {
    Counters c;
    for (const auto& [key, v] : obs::default_registry().counters_snapshot()) {
      if (key == "mcf.augmentations") c.augmentations = v;
      if (key == "mcf.arcs_scanned") c.arcs_scanned = v;
      if (key == "fault.solver_fallbacks") c.fallbacks = v;
      if (key == "agg.spill_requests") c.spill = v;
    }
    for (const auto& h : obs::default_registry().histograms_snapshot()) {
      if (h.key == "lag.iterations") c.lag_iterations = h.sum;
      if (h.key == "agg.classes_per_slot") {
        c.class_sum = h.sum;
        c.class_slots = static_cast<double>(h.count);
      }
    }
    return c;
  }
  Counters minus(const Counters& b) const {
    return {augmentations - b.augmentations, arcs_scanned - b.arcs_scanned,
            lag_iterations - b.lag_iterations, fallbacks - b.fallbacks,
            spill - b.spill, class_sum - b.class_sum, class_slots - b.class_slots};
  }
  void add(const Counters& b) {
    augmentations += b.augmentations;
    arcs_scanned += b.arcs_scanned;
    lag_iterations += b.lag_iterations;
    fallbacks += b.fallbacks;
    spill += b.spill;
    class_sum += b.class_sum;
    class_slots += b.class_slots;
  }
};

// One copy of the decide() phases, kept across slots so the solvers' warm
// state follows the algorithm's own.
struct ProbeState {
  explicit ProbeState(const core::CachingProblem& p)
      : frac(p), lag(p, core::lagrangian_options_from_env()), rng(0x5eed) {}
  core::DemandClassing classing;
  core::FractionalSolver frac;
  core::LagrangianSolver lag;
  mecsc::common::Rng rng;
};

// The probed phases (plus predict) must account for decide(): the median
// per-slot ratio of their sum to the measured decide time stays within
// 1 ± kProbeTolerance.
constexpr double kProbeTolerance = 0.1;

struct PhaseMs {
  double classing = 0, solve = 0, round = 0;
  double sum() const { return classing + solve + round; }
};

class Tracer final : public Hooks {
 public:
  explicit Tracer(std::string workload) : workload_(std::move(workload)) {}

  void open(const char* name, std::int64_t slot) override {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, now_ms(), 0.0, parent, slot});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    if (is_construct(name) && !construct_rss_.has_value()) construct_rss_ = current_rss_mb();
  }

  void close() override {
    SpanRec& s = spans_[stack_.back()];
    s.end_ms = now_ms();
    stack_.pop_back();
    last_closed_ = static_cast<int>(&s - spans_.data());
    if (is_construct(s.name) && construct_rss_.has_value() && !scenario_rss_mb_.has_value()) {
      scenario_rss_mb_ = current_rss_mb() - *construct_rss_;
    }
  }

  std::unique_ptr<mecsc::predict::DemandPredictor> wrap_predictor(
      std::unique_ptr<mecsc::predict::DemandPredictor> predictor) override;

  void before_step(std::size_t, const mecsc::algorithms::OnlineCachingAlgorithm& algo) override {
    theta_ = algo.bandit().thetas();
  }

  void after_step(std::size_t t, const mecsc::sim::SlotRecord& rec,
                  const core::Assignment& decision,
                  const mecsc::algorithms::OnlineCachingAlgorithm& algo,
                  const core::CachingProblem& problem) override {
    add_phase_spans(rec, t);
    const bool aggregated = algo.last_num_classes() > 0;
    PhaseMs on = probe(t, algo.last_demands(), algo.last_solver_tier(), aggregated, problem);
    double predict = 0.0;
    for (std::size_t i = static_cast<std::size_t>(last_step_) + 1; i < spans_.size(); ++i) {
      if (std::string_view(spans_[i].name) == "predict") predict += spans_[i].end_ms - spans_[i].start_ms;
    }
    if (rec.decision_time_ms > 0.0) coverage_.push_back((on.sum() + predict) / rec.decision_time_ms);
    // A station overloaded under the very demands the slot was decided on.
    if (core::capacity_violation(problem, decision, algo.last_demands()) > 0.0) ++overloaded_slots_;
    if (in_serve_pass_) return;
    if (t == 0) decide_first_ms_ = rec.decision_time_ms;
    score_ms_.push_back(rec.timeline ? rec.timeline->ms_of("sim.score") : 0.0);
    observe_ms_.push_back(rec.timeline ? rec.timeline->ms_of("sim.observe") : 0.0);
    classes_.push_back(static_cast<double>(algo.last_num_classes()));
    if (algo.last_fallback_depth() > 0) ++fallback_slots_;
    ++slots_;
  }

  void after_serve_join(const mecsc::serve::SlotService& service, double wall_s) override {
    const Counters now = Counters::read();
    serve_counters_.add(now.minus(baseline_));
    const auto& records = service.slot_records();
    if (records.empty()) return;
    if (!decide_first_ms_.has_value()) decide_first_ms_ = records.front().decision_time_ms;
    double busy = 0.0;
    for (std::size_t t = 0; t < records.size(); ++t) {
      const auto& tl = records[t].timeline;
      const double score = tl ? tl->ms_of("sim.score") : 0.0;
      const double observe = tl ? tl->ms_of("sim.observe") : 0.0;
      score_ms_.push_back(score);
      observe_ms_.push_back(observe);
      if (t > 0) busy += records[t].decision_time_ms + score + observe;
      ++slots_;
    }
    if (records.size() > 1) {
      const double per_slot = wall_s * 1e3 / static_cast<double>(records.size() - 1);
      serve_overhead_ms_.push_back(per_slot - busy / static_cast<double>(records.size() - 1));
    }
  }

  void after_serve_round(const mecsc::serve::ServeOptions& opt, const std::string& path) override;

  // Per-layer metrics, in BENCHMARK.json order.
  std::vector<Metric> metrics() const;
  std::string info() const;
  void write_spans(const std::string& path) const;
  std::vector<std::string> errors;

 private:
  static bool is_construct(const char* name) {
    const std::string_view n(name);
    return n == "scenario.build" || n == "serve.construct";
  }
  double now_ms() const { return ms_between(t0_, Clock::now()); }

  // The step span that just closed gets its timeline's phases as children
  // (laid end to end from the step's start), and the proxy's predict /
  // observe spans are moved under the phase they ran in.
  void add_phase_spans(const mecsc::sim::SlotRecord& rec, std::size_t t) {
    last_step_ = last_closed_;
    if (last_step_ < 0 || !rec.timeline) return;
    const int step = last_step_;
    double cursor = spans_[step].start_ms;
    int decide = -1, observe = -1;
    for (const auto& e : rec.timeline->events()) {
      spans_.push_back({e.name, cursor, cursor + e.ms, step, static_cast<std::int64_t>(t)});
      cursor += e.ms;
      const std::string_view n(e.name);
      if (n == "algo.decide") decide = static_cast<int>(spans_.size()) - 1;
      if (n == "sim.observe") observe = static_cast<int>(spans_.size()) - 1;
    }
    for (int i = step + 1; i < static_cast<int>(spans_.size()); ++i) {
      if (spans_[i].parent != step) continue;
      const std::string_view n(spans_[i].name);
      if (n == "predict" && decide >= 0) spans_[i].parent = decide;
      if (n == "predictor.observe" && observe >= 0) spans_[i].parent = observe;
    }
  }

  PhaseMs probe(std::size_t t, const std::vector<double>& demands,
                core::SolverTier tier, bool aggregated,
                const core::CachingProblem& problem);

  std::string workload_;
  Clock::time_point t0_ = Clock::now();
  std::vector<SpanRec> spans_;
  std::vector<int> stack_;
  int last_closed_ = -1;
  int last_step_ = -1;
  std::optional<double> construct_rss_;
  std::optional<double> scenario_rss_mb_;
  std::vector<double> theta_;

  // Probe: [0] telemetry on, [1] off; rebuilt when the problem changes.
  const core::CachingProblem* probe_problem_ = nullptr;
  std::optional<ProbeState> probe_state_[2];
  obs::Registry probe_registry_;
  PhaseMs probe_total_[2];
  std::size_t probed_slots_ = 0;
  std::vector<double> coverage_;

  bool in_serve_pass_ = false;
  std::optional<double> decide_first_ms_;
  std::vector<double> score_ms_, observe_ms_, classes_, serve_overhead_ms_;
  std::size_t slots_ = 0;
  std::size_t fallback_slots_ = 0;
  std::size_t overloaded_slots_ = 0;
  Counters baseline_, serve_counters_;
  std::vector<double> trace_bytes_per_slot_, checkpoint_bytes_;
  std::size_t replay_mismatch_slots_ = 0;

  friend class TimedPredictor;
};

// Times predict()/observe() of the wrapped predictor as spans.
class TimedPredictor final : public mecsc::predict::DemandPredictor {
 public:
  TimedPredictor(std::unique_ptr<mecsc::predict::DemandPredictor> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}
  std::string name() const override { return inner_->name(); }
  std::vector<double> predict(std::size_t t) override {
    Scope span(tracer_, "predict", static_cast<std::int64_t>(t));
    return inner_->predict(t);
  }
  void observe(std::size_t t, const std::vector<double>& demands) override {
    Scope span(tracer_, "predictor.observe", static_cast<std::int64_t>(t));
    inner_->observe(t, demands);
  }

 private:
  std::unique_ptr<mecsc::predict::DemandPredictor> inner_;
  Tracer& tracer_;
};

std::unique_ptr<mecsc::predict::DemandPredictor> Tracer::wrap_predictor(
    std::unique_ptr<mecsc::predict::DemandPredictor> predictor) {
  return std::make_unique<TimedPredictor>(std::move(predictor), *this);
}

PhaseMs Tracer::probe(std::size_t t, const std::vector<double>& demands,
                      core::SolverTier tier, bool aggregated,
                      const core::CachingProblem& problem) {
  if (probe_problem_ != &problem) {
    probe_problem_ = &problem;
    for (auto& s : probe_state_) s.emplace(problem);
  }
  // The probe's own counters go to a private registry, so the program's
  // counters count decide() alone.
  obs::ScopedRegistry scoped(&probe_registry_);
  core::RoundingOptions ropt;
  ropt.gamma = mecsc::algorithms::OlOptions{}.gamma;
  ropt.epsilon = mecsc::algorithms::OlOptions{}.epsilon.at(t);
  PhaseMs result[2];
  // Alternate which pass runs first, so cache warmth left by the first
  // pass does not favour one side of the overhead comparison.
  for (int i = 0; i < 2; ++i) {
    const int pass = (i + static_cast<int>(t % 2)) % 2;
    obs::set_level(pass == 0 ? obs::Level::kSummary : obs::Level::kOff);
    ProbeState& st = *probe_state_[pass];
    PhaseMs& ms = result[pass];
    auto t0 = Clock::now();
    if (aggregated) st.classing.build(problem, demands, core::AggregationOptions{});
    auto t1 = Clock::now();
    core::FractionalSolution frac;
    core::SolveReport report;
    bool solved = false;
    if (tier == core::SolverTier::kLagrangian) {
      core::LagrangianOutcome out = aggregated ? st.lag.solve_classes(st.classing, theta_)
                                               : st.lag.solve(demands, theta_);
      if (out.converged) {
        frac = std::move(out.solution);
        solved = true;
      }
    }
    if (!solved) {
      frac = aggregated ? st.frac.solve_classes(st.classing, theta_, &report)
                        : st.frac.solve_degraded(demands, theta_, &report);
    }
    auto t2 = Clock::now();
    const core::Assignment a =
        aggregated ? core::round_assignment_aggregated(problem, frac, st.classing, demands,
                                                       theta_, ropt, st.rng)
                   : core::round_assignment(problem, frac, demands, theta_, ropt, st.rng);
    if (a.station_of_request.size() != demands.size()) errors.push_back("probe rounding lost requests");
    auto t3 = Clock::now();
    ms.classing = ms_between(t0, t1);
    ms.solve = ms_between(t1, t2);
    ms.round = ms_between(t2, t3);
    probe_total_[pass].classing += ms.classing;
    probe_total_[pass].solve += ms.solve;
    probe_total_[pass].round += ms.round;
  }
  obs::set_level(obs::Level::kSummary);
  ++probed_slots_;
  return result[0];
}

void Tracer::after_serve_round(const mecsc::serve::ServeOptions& opt, const std::string& path) {
  namespace fs = std::filesystem;
  trace_bytes_per_slot_.push_back(static_cast<double>(fs::file_size(path)) /
                                  static_cast<double>(opt.horizon));
  const std::string ckpt = path + ".ckpt";
  if (fs::exists(ckpt)) checkpoint_bytes_.push_back(static_cast<double>(fs::file_size(ckpt)));

  // Batch pass over the recorded slots through the same entry points the
  // service uses, so each slot's θ and demand snapshot reach the probe.
  in_serve_pass_ = true;
  std::unique_ptr<mecsc::sim::Scenario> scenario;
  {
    Scope span(*this, "probe.scenario");
    scenario = std::make_unique<mecsc::sim::Scenario>(mecsc::serve::scenario_params(opt));
  }
  const core::CachingProblem& problem = scenario->problem();
  mecsc::algorithms::OlOptions ol;
  ol.aggregate = scenario->aggregate_mode();
  ol.solver = scenario->solver_tier();
  mecsc::algorithms::OnlineCachingAlgorithm algo("OL_GD", problem, ol, scenario->algorithm_seed(0));
  mecsc::sim::SlotEngine engine(problem);
  mecsc::serve::TraceReader reader(path);
  mecsc::serve::SlotTraceRecord rec;
  std::vector<double> snapshot(problem.num_requests());
  while (reader.next(rec)) {
    std::fill(snapshot.begin(), snapshot.end(), 0.0);
    for (const auto& [l, rho] : rec.demands) {
      if (l < snapshot.size()) snapshot[l] = rho;
    }
    before_step(rec.slot, algo);
    algo.set_live_demands(snapshot);
    mecsc::sim::SlotRecord out;
    {
      Scope span(*this, "engine.step", rec.slot);
      out = engine.step(rec.slot, algo, snapshot, rec.unit_delays);
    }
    after_step(rec.slot, out, engine.last_decision(), algo, problem);
    const auto& mine = engine.last_decision().station_of_request;
    bool same = mine.size() == rec.station_of_request.size() && out.avg_delay_ms == rec.avg_delay_ms;
    for (std::size_t l = 0; same && l < mine.size(); ++l) same = mine[l] == rec.station_of_request[l];
    if (!same) ++replay_mismatch_slots_;
  }
  in_serve_pass_ = false;
  if (replay_mismatch_slots_ > 0) {
    errors.push_back("probe pass diverged from the trace on " +
                     std::to_string(replay_mismatch_slots_) + " slots");
  }
  scenario.reset();
  baseline_ = Counters::read();
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

std::vector<Metric> Tracer::metrics() const {
  auto span_ms = [&](std::string_view name, bool first_only) {
    std::vector<double> d;
    for (const auto& s : spans_) {
      if (name == s.name) d.push_back(s.end_ms - s.start_ms);
    }
    if (d.empty()) return 0.0;
    return first_only ? d.front() : mean(d);
  };
  const bool serve = workload_ == "serve-30k";
  const Counters c = serve ? serve_counters_ : Counters::read();
  const double slots = static_cast<double>(std::max<std::size_t>(slots_, 1));
  const double probed = static_cast<double>(std::max<std::size_t>(probed_slots_, 1));
  const double classes = serve ? (c.class_slots > 0 ? c.class_sum / c.class_slots : 0.0) : mean(classes_);
  const double on = probe_total_[0].sum();
  const double off = probe_total_[1].sum();
  return {
      {"scenario.build_s", span_ms(serve ? "serve.construct" : "scenario.build", true) / 1e3, "s"},
      {"scenario.rss_mb", scenario_rss_mb_.value_or(0.0), "MB"},
      {"gan.train_s", span_ms("gan.construct", true) / 1e3, "s"},
      {"decide.first_ms", decide_first_ms_.value_or(0.0), "ms"},
      {"predict.ms_per_slot", span_ms("predict", false), "ms"},
      {"classing.ms_per_slot", probe_total_[0].classing / probed, "ms"},
      {"classing.classes_per_slot", classes, "classes"},
      {"solve.ms_per_slot", probe_total_[0].solve / probed, "ms"},
      {"mcf.augmentations_per_slot", c.augmentations / slots, "count"},
      {"mcf.arcs_scanned_per_slot", c.arcs_scanned / slots, "count"},
      {"lag.iterations_per_slot", c.lag_iterations / slots, "count"},
      {"solve.fallback_slots", serve ? c.fallbacks : static_cast<double>(fallback_slots_), "slots"},
      {"round.ms_per_slot", probe_total_[0].round / probed, "ms"},
      {"round.spill_requests_per_slot", c.spill / slots, "requests"},
      {"round.overloaded_slots", static_cast<double>(overloaded_slots_), "slots"},
      {"score.ms_per_slot", mean(score_ms_), "ms"},
      {"observe.ms_per_slot", mean(observe_ms_), "ms"},
      {"serve.submit_ms_per_slot", span_ms("serve.submit", false), "ms"},
      {"serve.overhead_ms_per_slot", mean(serve_overhead_ms_), "ms"},
      {"serve.trace_bytes_per_slot", mean(trace_bytes_per_slot_), "bytes"},
      {"serve.checkpoint_bytes", mean(checkpoint_bytes_), "bytes"},
      {"trace.overhead_pct", off > 0.0 ? 100.0 * (on / off - 1.0) : 0.0, "%"},
  };
}

std::string Tracer::info() const {
  const double p50 = quantile(coverage_, 0.5);
  return ", \"probed_slots\": " + std::to_string(probed_slots_) +
         ", \"probe_over_decide_p10\": " + json_number(quantile(coverage_, 0.1)) +
         ", \"probe_over_decide_p50\": " + json_number(p50) +
         ", \"probe_over_decide_p90\": " + json_number(quantile(coverage_, 0.9)) +
         ", \"probe_agrees\": " + (std::abs(p50 - 1.0) <= kProbeTolerance ? "true" : "false") +
         ", \"spans\": " + std::to_string(spans_.size());
}

void Tracer::write_spans(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRec& s = spans_[i];
    out << "{\"id\": " << i << ", \"name\": \"" << s.name << "\", \"start_ms\": "
        << json_number(s.start_ms) << ", \"end_ms\": " << json_number(s.end_ms)
        << ", \"parent\": " << s.parent << ", \"slot\": " << s.slot << "}\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  Tracer tracer(args.workload);
  perfbench::Result res;
  try {
    res = perfbench::run_workload(args, tracer);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << args.workload << " aborted: " << e.what() << "\n";
    return 1;
  }
  const std::vector<perfbench::Metric> metrics = tracer.metrics();
  const std::vector<std::string> broken_checks = perfbench::checks::self_test();
  for (const std::string& b : broken_checks) res.errors.push_back("self-test: " + b);
  for (const std::string& e : tracer.errors) res.errors.push_back(e);
  for (const std::string& e : res.errors) std::cerr << "perfbench: " << e << "\n";
  std::filesystem::create_directories(args.out_dir);
  const std::string spans = args.out_dir + "/spans-" + args.workload + "-seed" +
                            std::to_string(args.seed) + ".jsonl";
  tracer.write_spans(spans);
  std::cerr << "perfbench: spans written to " << spans << "\n";
  perfbench::print_report(args, res,
                          res.failed == 0 && broken_checks.empty() && tracer.errors.empty(),
                          metrics, tracer.info());
  return 0;
}
