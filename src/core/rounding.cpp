#include "core/rounding.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/error.h"
#include "obs/metrics.h"

namespace mecsc::core {

std::vector<std::vector<std::size_t>> candidate_sets(const FractionalSolution& frac,
                                                     double gamma) {
  MECSC_CHECK_MSG(gamma > 0.0 && gamma <= 1.0, "gamma out of (0,1]");
  std::vector<std::vector<std::size_t>> candi(frac.x.size());
  for (std::size_t l = 0; l < frac.x.size(); ++l) {
    const auto& row = frac.x[l];
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (row[i] >= gamma) candi[l].push_back(i);
    }
    if (candi[l].empty()) {
      std::size_t best =
          static_cast<std::size_t>(std::max_element(row.begin(), row.end()) - row.begin());
      candi[l].push_back(best);
    }
  }
  return candi;
}

namespace {

/// Samples a candidate station with probability proportional to x*.
/// `weights` is caller-owned scratch: this runs once per request, so a
/// per-call allocation would mean |R| mallocs on the timed slot path.
std::size_t sample_candidate(const std::vector<double>& x_row,
                             const std::vector<std::size_t>& candidates,
                             std::vector<double>& weights, common::Rng& rng) {
  weights.clear();
  weights.reserve(candidates.size());
  for (std::size_t i : candidates) weights.push_back(x_row[i]);
  return candidates[rng.weighted_index(weights)];
}

/// Cost of serving request l at station i under estimate θ — the repair
/// pass greedily minimizes this.
double serve_cost(const CachingProblem& p, std::size_t l, std::size_t i,
                  double rho, const std::vector<double>& theta) {
  return rho * theta[i] + p.access_latency_ms(l, i);
}

/// Shared rounding core. `row_of` maps each request to its row in
/// `frac.x` / the candidate sets: null means the identity (per-request
/// fractional solution); non-null means `frac` is class-level and every
/// member request rounds against its class's row (uniform de-aggregation
/// x_li := x_{class(l),i}).
Assignment round_impl(const CachingProblem& problem,
                      const FractionalSolution& frac,
                      const std::vector<std::uint32_t>* row_of,
                      const std::vector<double>& demands,
                      const std::vector<double>& theta,
                      const RoundingOptions& options, common::Rng& rng) {
  const std::size_t nr = problem.num_requests();
  const std::size_t ns = problem.num_stations();
  MECSC_CHECK(demands.size() == nr && theta.size() == ns);
  if (row_of == nullptr) {
    MECSC_CHECK(frac.x.size() == nr);
  } else {
    MECSC_CHECK(row_of->size() == nr);
  }
  MECSC_CHECK_MSG(options.epsilon >= 0.0 && options.epsilon <= 1.0,
                  "epsilon out of [0,1]");
  auto row = [&](std::size_t l) {
    return row_of == nullptr ? l : static_cast<std::size_t>((*row_of)[l]);
  };

  auto candi = candidate_sets(frac, options.gamma);
  if (obs::enabled()) {
    obs::Histogram& sizes =
        obs::current().histogram("olgd.candidate_set_size");
    for (const auto& c : candi) sizes.observe(static_cast<double>(c.size()));
  }

  Assignment a;
  a.station_of_request.assign(nr, 0);

  std::vector<bool> explored(nr, false);
  std::vector<double> sample_weights;
  bool slot_explores = options.per_slot_coin && rng.uniform() >= 1.0 - options.epsilon;
  for (std::size_t l = 0; l < nr; ++l) {
    bool explore = options.per_slot_coin
                       ? slot_explores
                       : rng.uniform() >= 1.0 - options.epsilon;
    explored[l] = explore;
    if (!explore) {
      a.station_of_request[l] =
          sample_candidate(frac.x[row(l)], candi[row(l)], sample_weights, rng);
      continue;
    }
    // Exploration: uniformly random *up* station outside the candidate
    // set (Algorithm 1 line 9; station liveness is public knowledge, so
    // no exploration budget is burned probing a known outage); when
    // every up station is a candidate, fall back to a uniform station.
    std::vector<std::size_t> others;
    others.reserve(ns);
    for (std::size_t i = 0; i < ns; ++i) {
      if (!problem.station_up(i)) continue;
      const auto& cl = candi[row(l)];
      if (std::find(cl.begin(), cl.end(), i) == cl.end()) {
        others.push_back(i);
      }
    }
    a.station_of_request[l] =
        others.empty() ? rng.index(ns) : others[rng.index(others.size())];
  }
  if (obs::enabled()) {
    double explores = 0.0;
    for (bool e : explored) explores += e ? 1.0 : 0.0;
    obs::Registry& reg = obs::current();
    reg.counter("olgd.explore_requests").add(explores);
    reg.counter("olgd.exploit_requests")
        .add(static_cast<double>(nr) - explores);
  }

  // Capacity repair: rounding (and exploration) can overload a station
  // even when the fractional solution is feasible. Move the overloaded
  // stations' requests — least-committed (smallest x*) first — to the
  // cheapest station with room.
  std::vector<double> load(ns, 0.0);
  std::vector<double> cap(ns);
  for (std::size_t i = 0; i < ns; ++i) cap[i] = problem.station_capacity_mhz(i);
  for (std::size_t l = 0; l < nr; ++l) {
    load[a.station_of_request[l]] += problem.resource_demand_mhz(demands[l]);
  }
  // Requests at each overloaded station, collected in ONE pass over all
  // requests (a per-station rescan is O(overloaded · |R|) — measurably
  // superlinear at the 1M-request scale). Safe to precollect: repair
  // only ever moves a request to a station with room, and a station that
  // starts overloaded never has room, so no list gains or loses members
  // before its station is processed.
  double spilled = 0.0;
  std::vector<std::vector<std::size_t>> members_of_overloaded(ns);
  bool any_overloaded = false;
  for (std::size_t i = 0; i < ns; ++i) any_overloaded |= load[i] > cap[i];
  if (any_overloaded) {
    for (std::size_t l = 0; l < nr; ++l) {
      const std::size_t i = a.station_of_request[l];
      if (load[i] > cap[i]) members_of_overloaded[i].push_back(l);
    }
  }
  for (std::size_t i = 0; i < ns; ++i) {
    if (load[i] <= cap[i]) continue;
    std::vector<std::size_t>& here = members_of_overloaded[i];
    std::sort(here.begin(), here.end(), [&](std::size_t a_l, std::size_t b_l) {
      return frac.x[row(a_l)][i] < frac.x[row(b_l)][i];
    });
    for (std::size_t l : here) {
      if (load[i] <= cap[i]) break;
      double res = problem.resource_demand_mhz(demands[l]);
      // Cheapest alternative with room; prefer candidates.
      const auto& cl = candi[row(l)];
      std::size_t best = ns;
      double best_cost = std::numeric_limits<double>::infinity();
      bool best_is_candidate = false;
      for (std::size_t j = 0; j < ns; ++j) {
        if (j == i || cap[j] <= 0.0 || load[j] + res > cap[j]) continue;
        bool is_candi = std::find(cl.begin(), cl.end(), j) != cl.end();
        double c = serve_cost(problem, l, j, demands[l], theta);
        if ((is_candi && !best_is_candidate) ||
            (is_candi == best_is_candidate && c < best_cost)) {
          best = j;
          best_cost = c;
          best_is_candidate = is_candi;
        }
      }
      if (best == ns) continue;  // nowhere to move this one; try others
      a.station_of_request[l] = best;
      load[i] -= res;
      load[best] += res;
      spilled += 1.0;
    }
  }
  // De-aggregation spill: members of one class land on one station with
  // the class's full weight, so aggregated rounding leans harder on the
  // repair pass. The counter makes that visible.
  if (row_of != nullptr) MECSC_COUNT("agg.spill_requests", spilled);

  // Local improvement on the exploit branch: randomized rounding leaves
  // per-request variance, and independently sampled requests of one
  // service can scatter across stations, each paying the instantiation
  // delay. A 1-opt pass (moves restricted to each request's candidate
  // set, capacity respected, instantiation sharing accounted) tightens
  // the decision toward the fractional optimum without touching the
  // exploration picks, which must stay random for the bandit feedback.
  // Only the per-(service, station) user COUNT matters to the cost
  // deltas below; keeping member lists here once cost an erase(find(…))
  // scan of ~|R|/cells entries per accepted move — a hidden superlinear
  // term in |R| on the timed slot path.
  std::vector<std::uint32_t> users_of(problem.num_services() * ns, 0);
  auto cell = [ns](std::size_t k, std::size_t i) { return k * ns + i; };
  for (std::size_t l = 0; l < nr; ++l) {
    ++users_of[cell(problem.requests()[l].service_id, a.station_of_request[l])];
  }
  for (int pass = 0; pass < 2; ++pass) {
    bool improved = false;
    for (std::size_t l = 0; l < nr; ++l) {
      if (explored[l]) continue;
      std::size_t from = a.station_of_request[l];
      std::size_t k = problem.requests()[l].service_id;
      double res = problem.resource_demand_mhz(demands[l]);
      double base_cost = serve_cost(problem, l, from, demands[l], theta);
      // Leaving `from` saves its instantiation delay iff l is the last
      // user of service k there.
      double leave_saving = users_of[cell(k, from)] == 1
                                ? problem.instantiation_delay_ms(from, k)
                                : 0.0;
      std::size_t best_to = from;
      double best_delta = -1e-9;
      for (std::size_t j : candi[row(l)]) {
        if (j == from || cap[j] <= 0.0 || load[j] + res > cap[j]) continue;
        double open_cost = users_of[cell(k, j)] == 0
                               ? problem.instantiation_delay_ms(j, k)
                               : 0.0;
        double delta = serve_cost(problem, l, j, demands[l], theta) + open_cost -
                       base_cost - leave_saving;
        if (delta < best_delta) {
          best_delta = delta;
          best_to = j;
        }
      }
      if (best_to == from) continue;
      --users_of[cell(k, from)];
      ++users_of[cell(k, best_to)];
      load[from] -= res;
      load[best_to] += res;
      a.station_of_request[l] = best_to;
      improved = true;
    }
    if (!improved) break;
  }

  a.cached = derive_cached(problem, a.station_of_request);
  return a;
}

}  // namespace

Assignment round_assignment(const CachingProblem& problem,
                            const FractionalSolution& frac,
                            const std::vector<double>& demands,
                            const std::vector<double>& theta,
                            const RoundingOptions& options, common::Rng& rng) {
  return round_impl(problem, frac, nullptr, demands, theta, options, rng);
}

Assignment round_assignment_aggregated(const CachingProblem& problem,
                                       const FractionalSolution& class_frac,
                                       const DemandClassing& classing,
                                       const std::vector<double>& demands,
                                       const std::vector<double>& theta,
                                       const RoundingOptions& options,
                                       common::Rng& rng) {
  MECSC_CHECK_MSG(class_frac.x.size() == classing.num_classes(),
                  "fractional solution is not class-level");
  MECSC_CHECK_MSG(classing.num_requests() == problem.num_requests(),
                  "classing was built for a different problem");
  const std::vector<std::uint32_t>* row_of =
      classing.singletons() ? nullptr : &classing.class_of_request();
  return round_impl(problem, class_frac, row_of, demands, theta, options, rng);
}

}  // namespace mecsc::core
