// Fault-churn sweep (DESIGN.md §9): OL_GD vs Greedy_GD under BS outage
// churn, capacity derating, censored bandit feedback and flash crowds.
// Sweeps an MTBF scale factor (1.0 = the FaultOptions defaults; smaller
// means stations fail more often) and reports, per severity level,
//   - station-slot availability (the x-axis of the delay-vs-availability
//     curve),
//   - mean realised delay (shed penalty included) and shed fraction,
//   - recovery: mean delay over the fault-free tail window after the
//     fault window closes, and its delta vs the no-fault baseline.
// Values are means over MECSC_TOPOLOGIES replications. Results are
// printed as tables and written to BENCH_fault.json. Every level sets
// its fault mode explicitly, so MECSC_FAULTS cannot flatten the sweep.
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "algorithms/baselines.h"
#include "algorithms/ol_gd.h"
#include "bench_util.h"
#include "common/stats.h"
#include "fault/fault_plan.h"
#include "sim/replication.h"
#include "sim/scenario.h"

using namespace mecsc;

namespace {

struct LevelResult {
  std::string name;
  double mtbf_scale = 0.0;  // 0 = faults off
  common::RunningStats availability;
  common::RunningStats mean_delay;      // shed penalty included
  common::RunningStats recovery_delay;  // fault-free tail window
  common::RunningStats shed_fraction;   // shed / (requests * slots)
  common::RunningStats outage_station_slots;
  common::RunningStats greedy_delay;  // Greedy_GD mean delay, same plan
};

void write_json(const std::vector<LevelResult>& levels, double baseline_recovery) {
  std::ofstream out("BENCH_fault.json");
  out << "{\n  " << bench::json_meta()
      << ",\n  \"baseline_recovery_delay_ms\": " << baseline_recovery
      << ",\n  \"levels\": [\n";
  for (std::size_t i = 0; i < levels.size(); ++i) {
    const auto& l = levels[i];
    const double rec = l.recovery_delay.mean();
    const double delta =
        baseline_recovery > 0.0
            ? 100.0 * (rec - baseline_recovery) / baseline_recovery
            : 0.0;
    out << "    {\"name\": \"" << l.name << "\", \"mtbf_scale\": " << l.mtbf_scale
        << ", \"availability\": " << l.availability.mean()
        << ", \"mean_delay_ms\": " << l.mean_delay.mean()
        << ", \"greedy_mean_delay_ms\": " << l.greedy_delay.mean()
        << ", \"shed_fraction\": " << l.shed_fraction.mean()
        << ", \"outage_station_slots\": " << l.outage_station_slots.mean()
        << ", \"recovery_delay_ms\": " << rec
        << ", \"recovery_delta_pct\": " << delta << "}"
        << (i + 1 < levels.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  const std::size_t topologies =
      bench::env_size("MECSC_TOPOLOGIES", quick ? 2 : 6);
  const std::size_t slots = bench::env_size("MECSC_SLOTS", quick ? 30 : 100);
  const std::size_t stations =
      bench::env_size("MECSC_STATIONS", quick ? 20 : 100);
  const std::size_t requests =
      bench::env_size("MECSC_REQUESTS", quick ? 20 : 100);

  bench::print_header(
      "OL_GD / Greedy_GD under fault churn: delay vs availability",
      "DESIGN.md §9; BENCH_fault.json (" + std::to_string(stations) +
          " stations, " + std::to_string(slots) + " slots, " +
          std::to_string(topologies) + " topologies)");

  // Faults live in the first two thirds of the horizon; the final fifth
  // is the fault-free recovery window the recovery stat averages over.
  const std::size_t fault_end = (2 * slots) / 3;
  const std::size_t recovery_start = (4 * slots) / 5;

  struct Level {
    const char* name;
    double mtbf_scale;  // 0 = off
  };
  const std::vector<Level> sweep = {
      {"no faults", 0.0}, {"mild (2x MTBF)", 2.0}, {"default", 1.0},
      {"harsh (MTBF/2)", 0.5}, {"severe (MTBF/4)", 0.25}};

  std::vector<LevelResult> results;
  for (const Level& lvl : sweep) {
    LevelResult agg;
    agg.name = lvl.name;
    agg.mtbf_scale = lvl.mtbf_scale;

    struct RepResult {
      sim::RunResult ol, gr;
      double availability = 1.0;
      std::size_t outage_slots = 0;
    };
    sim::run_replications(
        topologies,
        [&](std::size_t rep) {
          sim::ScenarioParams p;
          p.num_stations = stations;
          p.horizon = slots;
          p.workload.num_requests = requests;
          p.seed = 1000 + rep;
          p.fault.mode = fault::FaultMode::kOff;
          if (lvl.mtbf_scale > 0.0) {
            p.fault.mode = fault::FaultMode::kChurn;
            p.fault.macro.mtbf_slots *= lvl.mtbf_scale;
            p.fault.micro.mtbf_slots *= lvl.mtbf_scale;
            p.fault.femto.mtbf_slots *= lvl.mtbf_scale;
            p.fault.last_fault_slot = fault_end;
          }
          sim::Scenario s(p);

          algorithms::OlOptions opt;
          opt.theta_prior = s.theta_prior();
          auto ol = algorithms::make_ol_gd(s.problem(), s.demands(), opt,
                                           s.algorithm_seed(0));
          auto gr = algorithms::make_greedy_gd(s.problem(), s.demands(),
                                               s.historical_delay_estimates());
          RepResult r;
          r.ol = s.simulator().run(*ol);
          r.gr = s.simulator().run(*gr);
          if (const fault::FaultInjector* inj = s.fault_injector()) {
            r.availability = inj->plan().availability();
            r.outage_slots = inj->plan().total_outage_slots();
          }
          return r;
        },
        [&](std::size_t, RepResult& r) {
          agg.availability.add(r.availability);
          agg.mean_delay.add(r.ol.mean_delay_ms());
          agg.greedy_delay.add(r.gr.mean_delay_ms());
          agg.outage_station_slots.add(static_cast<double>(r.outage_slots));

          common::RunningStats rec;
          std::size_t shed = 0;
          for (std::size_t t = 0; t < r.ol.slots.size(); ++t) {
            shed += r.ol.slots[t].fault_shed_requests;
            if (t >= recovery_start) rec.add(r.ol.slots[t].avg_delay_ms);
          }
          agg.recovery_delay.add(rec.mean());
          agg.shed_fraction.add(static_cast<double>(shed) /
                                static_cast<double>(requests * slots));
          std::cout << "." << std::flush;
        });
    std::cout << " " << lvl.name << "\n";
    results.push_back(std::move(agg));
  }

  const double baseline_recovery = results.front().recovery_delay.mean();

  common::Table table({"severity", "availability", "mean delay (ms)",
                       "Greedy_GD (ms)", "shed %", "recovery (ms)",
                       "recovery vs no-fault"});
  for (const auto& l : results) {
    const double rec = l.recovery_delay.mean();
    const double delta =
        baseline_recovery > 0.0
            ? 100.0 * (rec - baseline_recovery) / baseline_recovery
            : 0.0;
    table.add_row({l.name, common::fmt(100.0 * l.availability.mean(), 2) + "%",
                   common::fmt(l.mean_delay.mean(), 2),
                   common::fmt(l.greedy_delay.mean(), 2),
                   common::fmt(100.0 * l.shed_fraction.mean(), 2) + "%",
                   common::fmt(rec, 2), common::fmt(delta, 1) + "%"});
  }
  bench::print_table("Delay vs availability under MTBF scaling", table);

  write_json(results, baseline_recovery);
  std::cout << "\nwrote BENCH_fault.json\n";

  // Shape checks: churn must cost delay while shedding stays partial,
  // and the fault-free tail must return near the no-fault baseline.
  const LevelResult& worst = results.back();
  const bool delay_rises = worst.mean_delay.mean() > results.front().mean_delay.mean();
  const bool sheds_partial = worst.shed_fraction.mean() < 1.0;
  const double worst_delta =
      baseline_recovery > 0.0
          ? (worst.recovery_delay.mean() - baseline_recovery) / baseline_recovery
          : 0.0;
  std::cout << "Shape check: churn raises mean delay ("
            << (delay_rises ? "OK" : "MISMATCH") << "), sheds < 100% ("
            << (sheds_partial ? "OK" : "MISMATCH")
            << "), recovery within 25% of no-fault ("
            << (worst_delta < 0.25 ? "OK" : "MISMATCH") << ")\n";

  bench::dump_telemetry();
  return (sheds_partial && worst_delta < 0.25) ? 0 : 1;
}
