#include "checks.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "algorithms/ol_gd.h"
#include "sim/scenario.h"
#include "sim/slot_engine.h"

namespace perfbench::checks {

namespace {

double access_ms(const core::CachingProblem& problem, std::size_t home,
                 std::size_t station) {
  if (!problem.options().include_access_latency) return 0.0;
  return problem.topology().path_latency_ms(home, station);
}

}  // namespace

std::string decision(const core::CachingProblem& problem,
                     const std::vector<std::size_t>& station_of_request,
                     const std::vector<std::vector<bool>>& cached) {
  const std::size_t ns = problem.num_stations();
  if (station_of_request.size() != problem.num_requests()) {
    return "decision places " + std::to_string(station_of_request.size()) +
           " requests, problem has " + std::to_string(problem.num_requests());
  }
  if (cached.size() != problem.num_services()) return "cached set has wrong service count";
  for (const auto& row : cached) {
    if (row.size() != ns) return "cached set has wrong station count";
  }
  for (std::size_t l = 0; l < station_of_request.size(); ++l) {
    const std::size_t i = station_of_request[l];
    if (i >= ns) return "request " + std::to_string(l) + " on out-of-range station";
    const std::size_t k = problem.requests()[l].service_id;
    if (!cached[k][i]) {
      return "request " + std::to_string(l) + " served at station " +
             std::to_string(i) + " where service " + std::to_string(k) +
             " is not cached";
    }
  }
  return {};
}

double recomputed_delay(const core::CachingProblem& problem,
                        const std::vector<std::size_t>& station_of_request,
                        const std::vector<std::vector<bool>>& cached,
                        const std::vector<double>& demands,
                        const std::vector<double>& unit_delays) {
  const std::size_t ns = problem.num_stations();
  const double c_unit = problem.options().c_unit_mhz;
  std::vector<double> load(ns, 0.0);
  for (std::size_t l = 0; l < demands.size(); ++l) {
    load[station_of_request[l]] += demands[l] * c_unit;
  }
  std::vector<double> unit(ns);
  for (std::size_t i = 0; i < ns; ++i) {
    const double cap = problem.station_capacity_mhz(i);
    const double congestion = cap > 0.0 && load[i] > cap ? load[i] / cap : 1.0;
    unit[i] = unit_delays[i] * congestion;
  }
  const bool wireless = problem.options().include_wireless_delay;
  double total = 0.0;
  for (std::size_t l = 0; l < demands.size(); ++l) {
    const std::size_t i = station_of_request[l];
    const double rho = demands[l];
    const double tx = wireless ? rho * problem.tx_unit_ms(l) : 0.0;
    total += rho * unit[i] + access_ms(problem, problem.requests()[l].home_station, i) + tx;
  }
  for (std::size_t k = 0; k < cached.size(); ++k) {
    for (std::size_t i = 0; i < ns; ++i) {
      if (cached[k][i]) total += problem.instantiation_delay_ms(i, k);
    }
  }
  return total / static_cast<double>(demands.size());
}

double delay_lower_bound(const core::CachingProblem& problem,
                         const std::vector<double>& demands,
                         const std::vector<double>& unit_delays) {
  const std::size_t ns = problem.num_stations();
  // Path latencies per (home, station), looked up once per slot.
  std::vector<double> path(ns * ns);
  for (std::size_t h = 0; h < ns; ++h) {
    for (std::size_t i = 0; i < ns; ++i) path[h * ns + i] = access_ms(problem, h, i);
  }
  const bool wireless = problem.options().include_wireless_delay;
  double total = 0.0;
  for (std::size_t l = 0; l < demands.size(); ++l) {
    const double rho = demands[l];
    const double* row = &path[problem.requests()[l].home_station * ns];
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < ns; ++i) best = std::min(best, rho * unit_delays[i] + row[i]);
    total += best + (wireless ? rho * problem.tx_unit_ms(l) : 0.0);
  }
  return total / static_cast<double>(demands.size());
}

std::string delay(const core::CachingProblem& problem,
                  const std::vector<std::size_t>& station_of_request,
                  const std::vector<std::vector<bool>>& cached,
                  const std::vector<double>& demands,
                  const std::vector<double>& unit_delays, double reported) {
  const double mine =
      recomputed_delay(problem, station_of_request, cached, demands, unit_delays);
  std::ostringstream out;
  out.precision(17);
  if (!std::isfinite(reported) ||
      std::abs(mine - reported) > 1e-9 * std::max(std::abs(mine), 1e-300)) {
    out << "reported delay " << reported << " ms, recomputed " << mine << " ms";
    return out.str();
  }
  const double bound = delay_lower_bound(problem, demands, unit_delays);
  if (reported < bound * (1.0 - 1e-12)) {
    out << "reported delay " << reported << " ms below the lower bound " << bound;
    return out.str();
  }
  return {};
}

std::string forecast(const std::vector<double>& demands) {
  for (std::size_t l = 0; l < demands.size(); ++l) {
    if (!std::isfinite(demands[l]) || demands[l] < 0.0) {
      return "forecast for request " + std::to_string(l) + " is " +
             std::to_string(demands[l]);
    }
  }
  return {};
}

std::string ingest(std::uint64_t submitted, std::uint64_t ingested,
                   std::uint64_t shed) {
  if (submitted == ingested && shed == 0) return {};
  return "submitted " + std::to_string(submitted) + " events, ingested " +
         std::to_string(ingested) + ", shed " + std::to_string(shed);
}

double load_factor(const core::CachingProblem& problem,
                   const std::vector<double>& demands) {
  double need = 0.0;
  for (double rho : demands) need += rho * problem.options().c_unit_mhz;
  return need / problem.topology().total_capacity_mhz();
}

std::vector<std::string> self_test() {
  std::vector<std::string> bad;
  mecsc::sim::ScenarioParams p;
  p.num_stations = 12;
  p.horizon = 2;
  p.bursty = true;
  p.workload.num_requests = 40;
  p.history_horizon = 4;
  p.seed = 99;
  mecsc::sim::Scenario scenario(p);
  const core::CachingProblem& problem = scenario.problem();
  mecsc::algorithms::OlOptions opt;
  opt.aggregate = scenario.aggregate_mode();
  opt.solver = scenario.solver_tier();
  auto algo = mecsc::algorithms::make_ol_gd(problem, scenario.demands(), opt,
                                            scenario.algorithm_seed(0));
  mecsc::sim::SlotEngine engine(problem);
  const std::vector<double> truth = scenario.demands().slot(0);
  const std::vector<double>& delays = scenario.simulator().unit_delays(0);
  const mecsc::sim::SlotRecord rec = engine.step(0, *algo, truth, delays);
  const core::Assignment& a = engine.last_decision();

  if (!decision(problem, a.station_of_request, a.cached).empty()) {
    bad.push_back("decision check rejects a genuine decision");
  }
  if (!delay(problem, a.station_of_request, a.cached, truth, delays,
             rec.avg_delay_ms).empty()) {
    bad.push_back("delay check rejects a genuine objective");
  }
  // A request moved to a station where its service is not cached.
  core::Assignment moved = a;
  const std::size_t k = problem.requests()[0].service_id;
  for (std::size_t i = 0; i < problem.num_stations(); ++i) {
    if (!moved.cached[k][i]) {
      moved.station_of_request[0] = i;
      break;
    }
  }
  if (moved.station_of_request[0] == a.station_of_request[0] ||
      decision(problem, moved.station_of_request, moved.cached).empty()) {
    bad.push_back("decision check accepts a request on an uncached station");
  }
  if (delay(problem, a.station_of_request, a.cached, truth, delays,
            rec.avg_delay_ms * (1.0 + 1e-7)).empty()) {
    bad.push_back("delay check accepts a perturbed objective");
  }
  if (delay(problem, a.station_of_request, a.cached, truth, delays,
            0.5 * delay_lower_bound(problem, truth, delays)).empty()) {
    bad.push_back("delay check accepts an objective below the lower bound");
  }
  if (!ingest(10, 10, 0).empty() || ingest(10, 9, 0).empty() ||
      ingest(10, 10, 1).empty()) {
    bad.push_back("ingest check misses a dropped or shed event");
  }
  std::vector<double> fc = truth;
  if (!forecast(fc).empty()) bad.push_back("forecast check rejects genuine demands");
  fc[3] = -1.0;
  if (forecast(fc).empty()) bad.push_back("forecast check accepts a negative forecast");
  fc[3] = std::numeric_limits<double>::quiet_NaN();
  if (forecast(fc).empty()) bad.push_back("forecast check accepts a NaN forecast");
  return bad;
}

}  // namespace perfbench::checks
