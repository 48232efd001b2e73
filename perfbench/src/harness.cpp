#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <unistd.h>

#include "checks.h"
#include "common/simd.h"
#include "core/solver_tier.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "predict/gan_predictor.h"
#include "serve/replay.h"
#include "serve/trace_io.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point g_process_start = Clock::now();

double seconds_since(Clock::time_point from) {
  return std::chrono::duration<double>(Clock::now() - from).count();
}

double proc_status_mb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t n = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, n, key) == 0) return std::atof(line.c_str() + n) / 1024.0;
  }
  return 0.0;
}

// Workload sizes. A round is one horizon of slots; a run repeats whole
// rounds until --seconds have passed since its first slot was decided.
//
// Each workload runs one fixed problem instance (topology, population,
// demand and delay sample paths come from a constant scenario seed):
// across instances the figures differ by 10-50% (mean delay, decide
// time), far more than a regression bound could absorb. --seed drives
// what varies from run to run on that instance: the algorithm's random
// draws (and the GAN's training draws) in the batch workloads, and the
// order in which the benchmark submits each slot's events in serve-30k
// (the snapshots, and so the decisions, are the same for every seed).
constexpr std::uint64_t kFlatScenarioSeed = 1;
constexpr std::uint64_t kGanScenarioSeed = 4000;  // bench_fig6's first replication
constexpr std::uint64_t kServeScenarioSeed = 1;
constexpr std::size_t kStations = 100;
constexpr std::size_t kFlatRequests = 400;
constexpr std::size_t kFlatHorizon = 8;
constexpr std::size_t kGanRequests = 100;     // Fig. 6 population
constexpr std::size_t kGanHorizon = 500;
constexpr std::size_t kGanTrainSteps = 400;   // bench_fig6's default
// 30k rather than the 100k the class path was built for: at 100k the
// decide time is bound by DRAM latency, which on a shared host varies
// more between processes than any bound could absorb (README.md).
constexpr std::size_t kServeRequests = 30000;
constexpr std::size_t kServeHorizon = 100;    // slots per served round
constexpr std::size_t kServeCheckpointEvery = 10;

std::string tier_name(mecsc::core::SolverTier tier) {
  return mecsc::core::solver_tier_name(tier);
}

// Counter / histogram reads from the process registry (zero when absent).
double counter_value(const char* name) {
  for (const auto& [key, value] : mecsc::obs::default_registry().counters_snapshot()) {
    if (key == name) return value;
  }
  return 0.0;
}

std::pair<double, double> histogram_sum_count(const char* name) {
  for (const auto& h : mecsc::obs::default_registry().histograms_snapshot()) {
    if (h.key == name) return {h.sum, static_cast<double>(h.count)};
  }
  return {0.0, 0.0};
}

struct LoadStats {
  double sum = 0.0;
  double worst = 0.0;
  std::size_t slots = 0;
  void add(double v) {
    sum += v;
    worst = std::max(worst, v);
    ++slots;
  }
};

// ---- Batch workloads: flat-400 and gan-fig6 ----------------------------

// One round runs the instance's whole horizon with a fresh algorithm (and,
// for gan-fig6, a freshly trained predictor), so every round repeats the
// same operations; rounds repeat until --seconds have passed since the
// first slot was decided.
Result run_batch(const Args& args, Hooks& hooks, bool gan) {
  Result res;
  mecsc::sim::ScenarioParams p;
  p.num_stations = kStations;
  p.bursty = true;
  p.workload.num_requests = gan ? kGanRequests : kFlatRequests;
  p.horizon = gan ? kGanHorizon : kFlatHorizon;
  p.seed = gan ? kGanScenarioSeed : kFlatScenarioSeed;
  std::unique_ptr<mecsc::sim::Scenario> scenario;
  {
    Scope span(hooks, "scenario.build");
    scenario = std::make_unique<mecsc::sim::Scenario>(p);
  }
  const mecsc::core::CachingProblem& problem = scenario->problem();

  mecsc::algorithms::OlOptions opt;
  opt.theta_prior = scenario->theta_prior();
  opt.aggregate = scenario->aggregate_mode();
  opt.solver = scenario->solver_tier();

  LoadStats load;
  double classes = 0.0;
  std::vector<std::string> tiers;
  bool aggregated = false;
  Clock::time_point measure_start{};
  for (;;) {
    std::unique_ptr<mecsc::algorithms::CachingAlgorithm> algo;
    if (gan) {
      std::unique_ptr<mecsc::predict::DemandPredictor> predictor;
      {
        Scope span(hooks, "gan.construct");
        mecsc::predict::GanPredictorOptions gopt;
        gopt.train_steps = kGanTrainSteps;
        predictor = std::make_unique<mecsc::predict::GanDemandPredictor>(
            scenario->workload().requests, scenario->trace(), gopt,
            scenario->algorithm_seed(2 * args.seed + 1));
      }
      algo = mecsc::algorithms::make_ol_with_predictor(
          "OL_GAN", problem, hooks.wrap_predictor(std::move(predictor)), opt,
          scenario->algorithm_seed(2 * args.seed));
    } else {
      algo = mecsc::algorithms::make_ol_gd(problem, scenario->demands(), opt,
                                           scenario->algorithm_seed(2 * args.seed));
    }
    auto& ol = dynamic_cast<mecsc::algorithms::OnlineCachingAlgorithm&>(*algo);
    mecsc::sim::SlotEngine engine(problem);

    for (std::size_t t = 0; t < p.horizon; ++t) {
      const std::vector<double> truth = scenario->demands().slot(t);
      const std::vector<double>& delays = scenario->simulator().unit_delays(t);
      ++res.attempted;
      hooks.before_step(t, ol);
      mecsc::sim::SlotRecord rec;
      bool ok = true;
      const Clock::time_point begin = Clock::now();
      try {
        Scope span(hooks, "engine.step", static_cast<std::int64_t>(t));
        rec = engine.step(t, *algo, truth, delays);
      } catch (const std::exception& e) {
        ok = false;
        res.fail("slot " + std::to_string(t) + ": decide threw: " + e.what());
      }
      const double wall = seconds_since(begin);
      if (t == 0) {
        if (res.rounds == 0) {
          res.setup_s = seconds_since_start();
          measure_start = Clock::now();
        }
      } else {
        res.slot_wall_s += wall;
        ++res.timed_slots;
        if (ok) res.decide_ms.push_back(rec.decision_time_ms);
      }
      if (!ok) continue;
      const mecsc::core::Assignment& a = engine.last_decision();
      hooks.after_step(t, rec, a, ol, problem);
      std::string err = checks::decision(problem, a.station_of_request, a.cached);
      if (err.empty()) {
        err = checks::delay(problem, a.station_of_request, a.cached, truth,
                            delays, rec.avg_delay_ms);
      }
      if (err.empty() && gan) err = checks::forecast(ol.last_demands());
      if (!err.empty()) {
        res.fail("round " + std::to_string(res.rounds) + " slot " + std::to_string(t) + ": " + err);
      } else {
        res.delay_sum_ms += rec.avg_delay_ms;
        ++res.delay_slots;
      }
      load.add(checks::load_factor(problem, truth));
      classes += static_cast<double>(ol.last_num_classes());
      aggregated |= ol.last_num_classes() > 0;
      const std::string tier = tier_name(ol.last_solver_tier());
      if (std::find(tiers.begin(), tiers.end(), tier) == tiers.end()) tiers.push_back(tier);
      if (ol.last_fallback_depth() > 0) ++res.fallback_slots;
    }
    if (res.rounds++ == 0) res.peak_rss_mb = peak_rss_mb();
    if (seconds_since(measure_start) >= args.seconds) break;
  }
  for (const std::string& tier : tiers) {
    res.solver_tier += (res.solver_tier.empty() ? "" : "+") + tier;
  }
  res.aggregation = aggregated ? "on" : "off";
  res.classes_per_slot = load.slots > 0 ? classes / static_cast<double>(load.slots) : 0.0;
  res.load_mean = load.slots > 0 ? load.sum / static_cast<double>(load.slots) : 0.0;
  res.load_worst = load.worst;
  return res;
}

// ---- serve-30k --------------------------------------------------------

// Checks one served round's trace record by record (one decision held at
// a time) against the problem, the events the benchmark sent and the
// service's own slot records.
void check_serve_trace(const std::string& path,
                       const mecsc::serve::SlotService& service,
                       const std::vector<std::uint32_t>& sent_per_slot,
                       Result& res, LoadStats& load) {
  const mecsc::core::CachingProblem& problem = service.scenario().problem();
  const auto& records = service.slot_records();
  const std::size_t nr = problem.num_requests();
  const std::size_t ns = problem.num_stations();
  mecsc::serve::TraceReader reader(path);
  const mecsc::serve::TraceConfig& cfg = reader.config();
  res.solver_tier = tier_name(static_cast<mecsc::core::SolverTier>(cfg.solver));
  res.aggregation =
      static_cast<mecsc::core::AggregateMode>(cfg.aggregate) == mecsc::core::AggregateMode::kOn
          ? "on"
          : "off";
  mecsc::serve::SlotTraceRecord rec;
  std::vector<double> demands(nr);
  std::vector<std::size_t> stations(nr);
  std::vector<std::vector<bool>> cached(problem.num_services(), std::vector<bool>(ns));
  std::size_t index = 0;
  while (reader.next(rec)) {
    const std::string where = "round " + std::to_string(res.rounds) + " slot " +
                              std::to_string(index) + ": ";
    if (rec.slot != index || index >= records.size()) {
      res.fail(where + "trace record out of order (slot " + std::to_string(rec.slot) + ")");
      ++index;
      continue;
    }
    std::fill(demands.begin(), demands.end(), 0.0);
    for (const auto& [l, rho] : rec.demands) {
      if (l < nr) demands[l] = rho;
    }
    std::string err;
    if (rec.station_of_request.size() != nr) err = "trace decision has wrong size";
    if (err.empty()) {
      for (std::size_t l = 0; l < nr; ++l) stations[l] = rec.station_of_request[l];
      for (std::size_t k = 0; k < cached.size(); ++k) {
        for (std::size_t i = 0; i < ns; ++i) {
          const std::size_t bit = k * ns + i;
          cached[k][i] = bit / 8 < rec.cached_bits.size() &&
                         (rec.cached_bits[bit / 8] >> (bit % 8)) & 1U;
        }
      }
      err = checks::decision(problem, stations, cached);
    }
    if (err.empty()) {
      err = checks::delay(problem, stations, cached, demands, rec.unit_delays,
                          records[index].avg_delay_ms);
    }
    if (err.empty() && rec.avg_delay_ms != records[index].avg_delay_ms) {
      err = "trace objective differs from the service's slot record";
    }
    if (err.empty()) err = checks::ingest(sent_per_slot[index], rec.ingested, rec.shed);
    if (!err.empty()) {
      res.fail(where + err);
    } else {
      res.delay_sum_ms += records[index].avg_delay_ms;
      ++res.delay_slots;
    }
    load.add(checks::load_factor(problem, demands));
    ++index;
  }
  if (!reader.saw_footer()) res.fail("round " + std::to_string(res.rounds) + ": trace not sealed");
  if (index != records.size()) {
    res.fail("round " + std::to_string(res.rounds) + ": trace holds " +
             std::to_string(index) + " records for " +
             std::to_string(records.size()) + " slots");
  }
}

Result run_serve(const Args& args, Hooks& hooks) {
  Result res;
  namespace fs = std::filesystem;
  fs::create_directories(args.out_dir);
  std::string tmpl = (fs::path(args.out_dir) / "serve-XXXXXX").string();
  if (mkdtemp(tmpl.data()) == nullptr) throw std::runtime_error("mkdtemp failed in " + args.out_dir);
  const fs::path tmp_dir = tmpl;

  mecsc::serve::ServeOptions opt;
  opt.seed = kServeScenarioSeed;
  opt.num_stations = kStations;
  opt.num_requests = kServeRequests;
  opt.horizon = kServeHorizon;
  opt.paced = true;
  opt.producers = 0;  // the benchmark's own thread is the only producer
  opt.slot_ms = 1000;  // paced slots: only the decide deadline
  opt.trace_out = (tmp_dir / "serve.trace").string();
  opt.checkpoint_every = kServeCheckpointEvery;

  // Every slot's events are submitted in one seeded order of request ids.
  std::vector<std::uint32_t> order(kServeRequests);
  for (std::size_t l = 0; l < order.size(); ++l) order[l] = static_cast<std::uint32_t>(l);
  std::shuffle(order.begin(), order.end(), std::mt19937_64(args.seed));

  LoadStats load;
  double class_sum = 0.0;
  double class_slots = 0.0;
  Clock::time_point measure_start{};
  try {
    for (;;) {
      std::unique_ptr<mecsc::serve::SlotService> service;
      {
        Scope span(hooks, "serve.construct");
        service = std::make_unique<mecsc::serve::SlotService>(opt);
      }
      service->start();
      const mecsc::workload::DemandMatrix& demands = service->scenario().demands();
      std::vector<std::uint32_t> sent(opt.horizon, 0);
      std::uint64_t sent_total = 0;
      std::uint64_t lost = 0;
      Clock::time_point first_commit{};
      for (std::size_t t = 0; t < opt.horizon; ++t) {
        while (service->open_slot() < static_cast<std::int64_t>(t)) std::this_thread::yield();
        {
          Scope span(hooks, "serve.submit", static_cast<std::int64_t>(t));
          for (const std::uint32_t l : order) {
            const double rho = demands.at(l, t);
            if (rho <= 0.0) continue;
            if (service->submit(l, static_cast<std::uint32_t>(t), rho)) {
              ++sent[t];
            } else {
              ++lost;
            }
          }
          sent_total += sent[t];
        }
        service->producer_done(t);
        if (t == 0) {
          while (service->committed() == nullptr) std::this_thread::yield();
          first_commit = Clock::now();
          if (res.rounds == 0) {
            res.setup_s = seconds_since_start();
            measure_start = first_commit;
          }
        }
      }
      mecsc::serve::ServeReport report;
      {
        Scope span(hooks, "serve.join");
        report = service->join();
      }
      const double serving_wall = seconds_since(first_commit);
      res.slot_wall_s += serving_wall;
      if (res.rounds == 0) res.peak_rss_mb = peak_rss_mb();
      hooks.after_serve_join(*service, serving_wall);

      const auto& records = service->slot_records();
      res.attempted += opt.horizon;
      if (records.size() != opt.horizon) {
        res.fail("served " + std::to_string(records.size()) + " of " +
                 std::to_string(opt.horizon) + " slots");
      }
      for (std::size_t t = 1; t < records.size(); ++t) {
        res.decide_ms.push_back(records[t].decision_time_ms);
      }
      res.timed_slots += records.empty() ? 0 : records.size() - 1;
      const std::string ingest = checks::ingest(sent_total, report.ingested, report.shed + lost);
      if (!ingest.empty()) res.fail("round " + std::to_string(res.rounds) + ": " + ingest);
      check_serve_trace(opt.trace_out, *service, sent, res, load);
      service.reset();

      // Bit-for-bit replay of the round's trace. Telemetry is switched on
      // for the replay only, so the classes the algorithm solved over can
      // be read back from the program's own counters.
      const bool telemetry_was_on = mecsc::obs::enabled();
      if (!telemetry_was_on) mecsc::obs::set_level(mecsc::obs::Level::kSummary);
      const auto [class_sum0, class_n0] = histogram_sum_count("agg.classes_per_slot");
      const double fallbacks0 = counter_value("fault.solver_fallbacks");
      mecsc::serve::ReplayResult replay;
      {
        Scope span(hooks, "serve.replay");
        replay = mecsc::serve::replay_trace(opt.trace_out);
      }
      const auto [class_sum1, class_n1] = histogram_sum_count("agg.classes_per_slot");
      class_sum += class_sum1 - class_sum0;
      class_slots += class_n1 - class_n0;
      res.fallback_slots += static_cast<std::size_t>(counter_value("fault.solver_fallbacks") - fallbacks0);
      if (!telemetry_was_on) mecsc::obs::set_level(mecsc::obs::Level::kOff);
      if (!replay.bit_identical || !replay.sealed ||
          replay.slots_compared != opt.horizon) {
        res.fail("round " + std::to_string(res.rounds) + ": replay " +
                 (replay.bit_identical ? "identical" : "diverged") + ", " +
                 std::to_string(replay.slots_compared) + " slots compared, " +
                 (replay.sealed ? "sealed" : "not sealed") + " " + replay.detail);
      }
      hooks.after_serve_round(opt, opt.trace_out);
      fs::remove(opt.trace_out);
      fs::remove(opt.trace_out + ".ckpt");
      ++res.rounds;
      if (seconds_since(measure_start) >= args.seconds) break;
    }
  } catch (...) {
    fs::remove_all(tmp_dir);
    throw;
  }
  fs::remove_all(tmp_dir);
  res.classes_per_slot = class_slots > 0.0 ? class_sum / class_slots : 0.0;
  res.load_mean = load.slots > 0 ? load.sum / static_cast<double>(load.slots) : 0.0;
  res.load_worst = load.worst;
  return res;
}

}  // namespace

double seconds_since_start() { return seconds_since(g_process_start); }

double peak_rss_mb() { return proc_status_mb("VmHWM:"); }
double current_rss_mb() { return proc_status_mb("VmRSS:"); }

void Result::fail(const std::string& what) {
  ++failed;
  if (errors.size() < 8) errors.push_back(what);
}

Args parse_args(int argc, char** argv) {
  Args args;
  auto usage = [&](const std::string& why) {
    std::cerr << argv[0] << ": " << why
              << "\nusage: " << argv[0]
              << " --workload NAME --seed N --seconds S [--out DIR]\n";
    std::exit(2);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--out") {
        args.out_dir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
    usage("unknown workload '" + args.workload + "'");
  }
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"flat-400", "gan-fig6", "serve-30k"};
  return names;
}

Result run_workload(const Args& args, Hooks& hooks) {
  Result res;
  if (args.workload == "flat-400") {
    res = run_batch(args, hooks, /*gan=*/false);
  } else if (args.workload == "gan-fig6") {
    res = run_batch(args, hooks, /*gan=*/true);
  } else if (args.workload == "serve-30k") {
    res = run_serve(args, hooks);
  } else {
    throw std::invalid_argument("unknown workload " + args.workload);
  }
  res.simd_mode = mecsc::common::simd::mode_name();
  return res;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

}  // namespace

void print_report(const Args& args, const Result& res, bool correct,
                  const std::vector<Metric>& metrics,
                  const std::string& extra_info) {
  std::ostringstream info;
  info << "{\"perfbench-info\": {\"workload\": " << json_string(args.workload)
       << ", \"seed\": " << args.seed
       << ", \"simd\": " << json_string(res.simd_mode)
       << ", \"solver_tier\": " << json_string(res.solver_tier)
       << ", \"aggregation\": " << json_string(res.aggregation)
       << ", \"classes_per_slot\": " << json_number(res.classes_per_slot)
       << ", \"fallback_slots\": " << res.fallback_slots
       << ", \"load_factor_mean\": " << json_number(res.load_mean)
       << ", \"load_factor_worst\": " << json_number(res.load_worst)
       << ", \"rounds\": " << res.rounds
       << ", \"decide_samples\": " << res.decide_ms.size()
       << ", \"decide_ms_p90\": " << json_number(quantile(res.decide_ms, 0.9))
       << ", \"decide_ms_p99\": " << json_number(quantile(res.decide_ms, 0.99))
       << ", \"timed_slots\": " << res.timed_slots
       << ", \"delay_slots\": " << res.delay_slots << extra_info
       << ", \"errors\": [";
  for (std::size_t i = 0; i < res.errors.size(); ++i) {
    info << (i ? ", " : "") << json_string(res.errors[i]);
  }
  info << "]}}";
  std::cout << info.str() << "\n";

  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << res.attempted << ", \"failed\": " << res.failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << json_string(metrics[i].name)
        << ": {\"value\": " << json_number(metrics[i].value)
        << ", \"unit\": " << json_string(metrics[i].unit) << "}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

}  // namespace perfbench
