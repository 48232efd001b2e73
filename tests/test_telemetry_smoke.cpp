// End-to-end telemetry smoke test: runs a tiny scenario under
// MECSC_TELEMETRY=full with OL_GD on the flow tier, exports the default
// registry as JSONL, and asserts the dump carries the solver series
// (flow solves and augmentations), OL_GD explore/exploit counts, and
// finite per-slot delays. (CI's bench_perf dump checks the simplex
// oracle's series.)

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "algorithms/ol_gd.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "sim/scenario.h"
#include "sim/simulator.h"

namespace mecsc {
namespace {

/// Splits a JSONL dump into lines.
std::vector<std::string> lines_of(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream in(s);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) out.push_back(line);
  }
  return out;
}

/// Extracts the number following `"key":` in `line` (nan when absent).
double number_after(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  auto pos = line.find(needle);
  if (pos == std::string::npos) return std::nan("");
  return std::strtod(line.c_str() + pos + needle.size(), nullptr);
}

/// Value of the counter/gauge series named `series` (nan when absent).
double series_value(const std::vector<std::string>& lines,
                    const std::string& series) {
  const std::string needle = "\"series\":\"" + series + "\"";
  for (const auto& l : lines) {
    if (l.find(needle) != std::string::npos) return number_after(l, "value");
  }
  return std::nan("");
}

TEST(TelemetrySmoke, FullDumpCarriesSolverAndSlotSeries) {
  obs::set_level(obs::Level::kFull);
  obs::default_registry().clear();

  sim::ScenarioParams p;
  p.num_stations = 12;
  p.horizon = 6;
  p.workload.num_requests = 10;
  p.seed = 5;
  sim::Scenario s(p);

  algorithms::OlOptions opt;
  opt.theta_prior = s.theta_prior();
  opt.solver = core::SolverTier::kFlow;  // routes through the flow solver
  auto ol = algorithms::make_ol_gd(s.problem(), s.demands(), opt,
                                   s.algorithm_seed(0));
  sim::RunResult r = s.simulator().run(*ol);
  ASSERT_EQ(r.slots.size(), p.horizon);

  // decision_time_ms is derived from the slot timeline's algo.decide
  // span — the two sources must agree exactly.
  for (const auto& rec : r.slots) {
    ASSERT_NE(rec.timeline, nullptr);
    EXPECT_DOUBLE_EQ(rec.decision_time_ms, rec.timeline->ms_of("algo.decide"));
  }

  std::ostringstream out;
  obs::write_jsonl(obs::default_registry(), out);
  auto lines = lines_of(out.str());
  ASSERT_FALSE(lines.empty());

  // The flow solver ran and augmented.
  const double solves = series_value(lines, "frac.solves");
  const double augmentations = series_value(lines, "mcf.augmentations");
  EXPECT_TRUE(std::isfinite(solves)) << "frac.solves series missing";
  EXPECT_TRUE(std::isfinite(augmentations)) << "mcf.augmentations series missing";
  EXPECT_GE(solves, static_cast<double>(p.horizon));
  EXPECT_GT(augmentations, 0.0);

  // OL_GD explore/exploit accounting covers every request of every slot.
  const double explore = series_value(lines, "olgd.explore_requests");
  const double exploit = series_value(lines, "olgd.exploit_requests");
  EXPECT_TRUE(std::isfinite(explore)) << "olgd.explore_requests missing";
  EXPECT_TRUE(std::isfinite(exploit)) << "olgd.exploit_requests missing";
  EXPECT_GE(explore, 0.0);
  EXPECT_DOUBLE_EQ(explore + exploit,
                   static_cast<double>(p.horizon * p.workload.num_requests));

  // One structured slot event per slot, each with a finite delay.
  std::size_t slot_events = 0;
  for (const auto& l : lines) {
    if (l.find("\"type\":\"slot\"") == std::string::npos) continue;
    ++slot_events;
    const double delay = number_after(l, "avg_delay_ms");
    EXPECT_TRUE(std::isfinite(delay)) << l;
    EXPECT_GE(delay, 0.0) << l;
    EXPECT_TRUE(std::isfinite(number_after(l, "decision_time_ms"))) << l;
  }
  EXPECT_EQ(slot_events, p.horizon);

  // Per-slot phase timings were aggregated into span histograms.
  const std::string dump = out.str();
  EXPECT_NE(dump.find("span.algo.decide"), std::string::npos);
  EXPECT_NE(dump.find("span.sim.score"), std::string::npos);
  EXPECT_NE(dump.find("span.frac.solve"), std::string::npos);

  obs::default_registry().clear();
  obs::set_level(obs::Level::kOff);
}

}  // namespace
}  // namespace mecsc
