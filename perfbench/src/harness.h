#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

// Workload runners shared by the end-to-end and the traced benchmark
// commands. They reach the program only through its entry points
// (sim::Scenario, sim::SlotEngine, algorithms::OnlineCachingAlgorithm and
// its factories, predict::GanDemandPredictor, serve::SlotService,
// serve::TraceReader, serve::replay_trace); the traced command observes
// them through Hooks.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "algorithms/ol_gd.h"
#include "predict/predictor.h"
#include "serve/service.h"
#include "sim/scenario.h"
#include "sim/slot_engine.h"

namespace perfbench {

namespace mecsc = ::mecsc;

/// Seconds since the process started (taken at static initialisation).
double seconds_since_start();

/// VmHWM / VmRSS of this process in MB (0 when /proc is unreadable).
double peak_rss_mb();
double current_rss_mb();

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string out_dir = ".bench_out";  ///< Span files and temporary traces.
};

/// Parses --workload/--seed/--seconds/--out; exits with code 2 on error.
Args parse_args(int argc, char** argv);

/// Observation points for the traced command. The end-to-end command
/// runs with this no-op base class.
class Hooks {
 public:
  virtual ~Hooks() = default;
  /// Opens / closes a span around one call into the program.
  virtual void open(const char* /*name*/, std::int64_t /*slot*/) {}
  virtual void close() {}
  /// Lets the traced command wrap the GAN predictor in a timing proxy.
  virtual std::unique_ptr<mecsc::predict::DemandPredictor> wrap_predictor(
      std::unique_ptr<mecsc::predict::DemandPredictor> predictor) {
    return predictor;
  }
  /// Called around each SlotEngine::step of the batch workloads.
  virtual void before_step(std::size_t /*t*/,
                           const mecsc::algorithms::OnlineCachingAlgorithm&) {}
  virtual void after_step(std::size_t /*t*/, const mecsc::sim::SlotRecord&,
                          const mecsc::core::Assignment& /*decision*/,
                          const mecsc::algorithms::OnlineCachingAlgorithm&,
                          const mecsc::core::CachingProblem&) {}
  /// Called once per served round, after the service joined and before it
  /// is destroyed.
  virtual void after_serve_join(const mecsc::serve::SlotService&,
                                double /*serving_wall_s*/) {}
  /// Called once per served round after its checks and replay, with the
  /// still-present trace file.
  virtual void after_serve_round(const mecsc::serve::ServeOptions&,
                                 const std::string& /*trace_path*/) {}
};

/// RAII span over Hooks::open/close.
class Scope {
 public:
  Scope(Hooks& hooks, const char* name, std::int64_t slot = -1)
      : hooks_(hooks) {
    hooks_.open(name, slot);
  }
  ~Scope() { hooks_.close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Hooks& hooks_;
};

/// What one workload run measured and checked.
struct Result {
  std::uint64_t attempted = 0;   ///< Slots attempted.
  std::uint64_t failed = 0;      ///< Slots that threw, failed a check or lost events.
  std::vector<std::string> errors;  ///< First few check failures.
  double setup_s = 0.0;          ///< Process start to first decided slot.
  double slot_wall_s = 0.0;      ///< Wall time of the slots after the first.
  std::size_t timed_slots = 0;   ///< Slots after the first.
  std::vector<double> decide_ms; ///< decide() time of the slots after the first.
  double delay_sum_ms = 0.0;     ///< Σ realised Eq. 3 delay over all slots.
  std::size_t delay_slots = 0;
  double peak_rss_mb = 0.0;      ///< VmHWM at the end of the first round.
  std::size_t rounds = 0;        ///< Whole rounds run.

  // Operating point.
  std::string simd_mode;
  std::string solver_tier;       ///< Tier(s) the algorithm reported.
  std::string aggregation;       ///< "on" when decide() solved over classes.
  double classes_per_slot = 0.0;
  std::size_t fallback_slots = 0;
  double load_mean = 0.0;        ///< Σρ·C_unit / ΣC, mean over slots.
  double load_worst = 0.0;       ///< ... at the worst slot.

  void fail(const std::string& what);
};

/// Runs the named workload for about `args.seconds` of slots. Throws
/// std::invalid_argument for an unknown workload name.
Result run_workload(const Args& args, Hooks& hooks);

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Median / quantile of a sample (linear interpolation; 0 when empty).
double quantile(std::vector<double> values, double q);

/// JSON number with all significant digits.
std::string json_number(double v);

/// One `"name": {"value": v, "unit": "u"}` metric entry.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Prints the operating point and sample counts as one JSON line tagged
/// "perfbench-info", then the result line the benchmark contract reads:
/// {"correct", "attempted", "failed", "metrics"}. `extra` adds fields to
/// the info line.
void print_report(const Args& args, const Result& res, bool correct,
                  const std::vector<Metric>& metrics,
                  const std::string& extra_info = {});

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H
