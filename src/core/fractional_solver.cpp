#include "core/fractional_solver.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace mecsc::core {

namespace {

/// Re-pricing rounds of the facility-location amortization (see solve).
constexpr std::size_t kRounds = 3;
/// Tolerance of the full-arc-set reduced-cost optimality certificate
/// (per-unit costs are O(1) after the /res normalisation).
constexpr double kDualTol = 1e-7;

}  // namespace

void FractionalSolver::import_warm_state(const FractionalWarmState& state) const {
  const std::size_t ns = problem_->num_stations();
  bool ok = state.station_price.empty() || state.station_price.size() == ns;
  for (const auto& arcs : state.warm_arcs) {
    if (!ok) break;
    for (std::uint32_t i : arcs) {
      if (i >= ns) {
        ok = false;
        break;
      }
    }
  }
  if (!ok) {
    // Stale snapshot (wrong station universe): cold start. Silently
    // accepting it would index arcs past the working-set mask.
    MECSC_COUNT("frac.warm_state_rejected", 1.0);
    s_.warm.clear();
    s_.station_price.clear();
    return;
  }
  s_.warm = state.warm_arcs;
  s_.station_price = state.station_price;
}

FractionalSolution FractionalSolver::solve(const std::vector<double>& demands,
                                           const std::vector<double>& theta) const {
  s_.singletons.build_singletons(*problem_, demands);
  return solve_classes(s_.singletons, theta, nullptr);
}

FractionalSolution FractionalSolver::solve_degraded(
    const std::vector<double>& demands, const std::vector<double>& theta,
    SolveReport* report) const {
  SolveReport local;
  s_.singletons.build_singletons(*problem_, demands);
  return solve_classes(s_.singletons, theta, report != nullptr ? report : &local);
}

FractionalSolution FractionalSolver::solve_classes(const DemandClassing& classing,
                                                   const std::vector<double>& theta,
                                                   SolveReport* report) const {
  MECSC_SPAN("frac.solve");
  MECSC_COUNT("frac.solves", 1.0);
  const CachingProblem& p = *problem_;
  const std::size_t nc = classing.num_classes();
  const std::size_t ns = p.num_stations();
  const std::size_t nk = p.num_services();
  MECSC_CHECK_MSG(classing.num_requests() == p.num_requests(),
                  "classing was built for a different problem");
  MECSC_CHECK_MSG(theta.size() == ns, "theta vector size mismatch");

  Scratch& s = s_;

  // One column per demand class; its resource demand is the members'
  // summed demand, so station capacity sees exactly the per-request load.
  s.res.resize(nc);
  s.svc.resize(nc);
  s.home.resize(nc);
  s.service_demand.assign(nk, 0.0);
  double total_flow = 0.0;
  const auto& classes = classing.classes();
  for (std::size_t c = 0; c < nc; ++c) {
    const DemandClass& cls = classes[c];
    double res = p.resource_demand_mhz(cls.rho_sum);
    s.res[c] = res;
    s.svc[c] = cls.service;
    s.home[c] = cls.home_station;
    s.service_demand[cls.service] += res;
    total_flow += res;
  }

  // Round-invariant part of the (column, station) serving cost — the
  // member-summed Eq. 3 row (DemandClass::serving_cost); the per-round
  // amortized instantiation price is added on top. Aggregation therefore
  // loses nothing in the cost model, only the within-class freedom to
  // split members differently.
  s.base_cost.resize(nc * ns);
  const bool inc_access = p.options().include_access_latency;
  for (std::size_t c = 0; c < nc; ++c) {
    const DemandClass cls = classes[c];
    double* row = &s.base_cost[c * ns];
    for (std::size_t i = 0; i < ns; ++i) {
      const double access =
          inc_access ? p.topology().path_latency_ms(cls.home_station, i) : 0.0;
      row[i] = cls.serving_cost(theta[i], access);
    }
  }

  return flow_solve(nc, total_flow,
                    static_cast<double>(classing.num_requests()), report);
}

FractionalSolution FractionalSolver::flow_solve(std::size_t n, double total_flow,
                                                double objective_divisor,
                                                SolveReport* report) const {
  const CachingProblem& p = *problem_;
  const std::size_t ns = p.num_stations();
  const std::size_t nk = p.num_services();
  Scratch& s = s_;

  // Network-access latency of column e at station i (a class's members
  // share one home station).
  const bool inc_access = p.options().include_access_latency;
  auto col_access = [&](std::size_t e, std::size_t i) {
    return inc_access ? p.topology().path_latency_ms(s.home[e], i) : 0.0;
  };

  // inst_base[k][i]: demand base used to amortize d_ins[i][k].
  s.inst_base.resize(nk * ns);
  for (std::size_t k = 0; k < nk; ++k) {
    std::fill_n(&s.inst_base[k * ns], ns, s.service_demand[k]);
  }

  // Per-unit cost of the (e, i) arc under the current amortization base.
  auto arc_cost = [&](std::size_t e, std::size_t i) {
    std::size_t k = s.svc[e];
    double res = s.res[e];
    double base = std::max(s.inst_base[k * ns + i], res);
    double amortized = p.instantiation_delay_ms(i, k) * res / base;
    return (s.base_cost[e * ns + i] + amortized) / res;
  };

  // --- Working-set construction -------------------------------------
  // Each column keeps arcs to its `width` most attractive stations plus
  // whatever stations served it on the previous solve; the optimality
  // certificate below adds anything this misses. Attractiveness is
  // cost MINUS the station's previous dual price: at a transportation
  // optimum the basic arcs of column e minimise c_ei - price_i, so
  // ranking by that key (with last solve's prices as the congestion
  // estimate) lands the initial set on the likely optimal support
  // instead of piling every column onto the same few cheap-but-
  // saturated stations.
  s.work.resize(n);
  s.work_edge.resize(n);
  s.warm.resize(n);
  s.in_work.assign(n * ns, 0);
  s.station_price.resize(ns, 0.0);

  auto grow_column = [&](std::size_t e, std::size_t target) {
    auto& w = s.work[e];
    if (w.size() >= target) return;
    s.cand.clear();
    const char* mask = &s.in_work[e * ns];
    for (std::size_t i = 0; i < ns; ++i) {
      if (!mask[i]) {
        s.cand.emplace_back(arc_cost(e, i) - s.station_price[i],
                            static_cast<std::uint32_t>(i));
      }
    }
    std::size_t need = std::min(target, ns) - w.size();
    need = std::min(need, s.cand.size());
    std::partial_sort(s.cand.begin(), s.cand.begin() + need, s.cand.end());
    for (std::size_t j = 0; j < need; ++j) {
      std::uint32_t i = s.cand[j].second;
      w.push_back(i);
      s.in_work[e * ns + i] = 1;
    }
  };

  std::size_t width = std::min(ns, std::max<std::size_t>(12, ns / 8));
  for (std::size_t e = 0; e < n; ++e) {
    s.work[e].clear();
    if (s.res[e] <= 0.0) continue;
    // Warm arcs first (they carried flow last slot, so they are likely
    // basic again), then fill to `width` with the cheapest stations.
    for (std::uint32_t i : s.warm[e]) {
      if (!s.in_work[e * ns + i]) {
        s.work[e].push_back(i);
        s.in_work[e * ns + i] = 1;
      }
    }
    grow_column(e, width);
  }

  auto expand_width = [&](std::size_t target) {
    for (std::size_t e = 0; e < n; ++e) {
      if (s.res[e] > 0.0) grow_column(e, target);
    }
  };

  // Cheap necessary condition: the union of working stations must have
  // enough capacity for the aggregate demand, else a shortfall solve is
  // guaranteed.
  auto union_capacity = [&]() {
    double cap = 0.0;
    for (std::size_t i = 0; i < ns; ++i) {
      for (std::size_t e = 0; e < n; ++e) {
        if (s.in_work[e * ns + i]) {
          cap += p.station_capacity_mhz(i);
          break;
        }
      }
    }
    return cap;
  };
  while (width < ns && union_capacity() < 1.05 * total_flow) {
    width = std::min(ns, width * 2);
    expand_width(width);
    MECSC_COUNT("frac.width_expansions", 1.0);
  }

  // --- Flow network --------------------------------------------------
  // Node layout: 0 = source, 1..n = columns, n+1..n+ns = stations,
  // n+ns+1 = sink.
  const std::size_t src = 0;
  const std::size_t sink = n + ns + 1;
  if (s.mcf.num_nodes() != n + ns + 2) s.mcf = flow::MinCostFlow(n + ns + 2);

  s.sink_edge.resize(ns);
  auto rebuild_graph = [&]() {
    s.mcf.clear_edges();
    for (std::size_t e = 0; e < n; ++e) {
      if (s.res[e] <= 0.0) continue;  // handled after the flow solve
      s.mcf.add_edge(src, 1 + e, s.res[e], 0.0);
      auto& w = s.work[e];
      auto& we = s.work_edge[e];
      we.resize(w.size());
      for (std::size_t j = 0; j < w.size(); ++j) {
        we[j] = s.mcf.add_edge(1 + e, 1 + n + w[j], s.res[e], arc_cost(e, w[j]));
      }
    }
    for (std::size_t i = 0; i < ns; ++i) {
      s.sink_edge[i] =
          s.mcf.add_edge(1 + n + i, sink, p.station_capacity_mhz(i), 0.0);
    }
  };

  double best_objective = std::numeric_limits<double>::infinity();
  bool have_best = false;
  // Degraded mode: set once the flow solver accepts a shortfall (only
  // possible when `report` is non-null).
  bool shortfall = false;

  // Successive approximation of the facility-location term: solve the
  // transportation LP with instantiation delay amortized per unit of
  // flow, then re-price each (service, station) instance by the demand
  // it actually attracted (a thin instance gets an honest, high per-unit
  // opening price next round), and keep the best solution under the true
  // Eq. 3 objective. Three rounds close most of the gap to the exact LP
  // (see tests/test_core.cpp and bench_lp_vs_flow).
  bool graph_dirty = true;
  for (std::size_t round = 0; round < kRounds; ++round) {
    if (!graph_dirty) {
      // Same arc set, new amortization: update costs in place and rewind
      // the residual capacities — no allocation, no graph rebuild.
      for (std::size_t e = 0; e < n; ++e) {
        if (s.res[e] <= 0.0) continue;
        auto& w = s.work[e];
        for (std::size_t j = 0; j < w.size(); ++j) {
          s.mcf.set_cost(s.work_edge[e][j], arc_cost(e, w[j]));
        }
      }
      s.mcf.reset();
    }

    // Solve-and-certify: route on the working set, then verify the
    // result against every pruned-out arc with the final duals and add
    // what the pruning missed. Intermediate rounds skip the certificate:
    // their only job is to compute the next amortization base (a
    // heuristic re-pricing), so the working-set optimum is good enough
    // there; the last round — whose arc set contains everything earlier
    // rounds routed on — is certified, so the solution the caller
    // receives is exactly the full-network optimum for its cost vector.
    const bool certify = round + 1 == kRounds;
    for (;;) {
      if (graph_dirty) {
        rebuild_graph();
        graph_dirty = false;
      }
      if (certify) MECSC_COUNT("mcf.pruning_rounds", 1.0);
      flow::FlowResult fr = s.mcf.solve(src, sink, total_flow);
      if (fr.flow < total_flow - 1e-6 * std::max(1.0, total_flow)) {
        if (width < ns) {
          width = std::min(ns, width * 2);
          expand_width(width);
          MECSC_COUNT("frac.width_expansions", 1.0);
          graph_dirty = true;
          continue;
        }
        if (report == nullptr) {
          throw common::Infeasible(
              "flow solver could not route all demand: capacity short");
        }
        // Degraded mode: keep what was routed; the leftovers are placed
        // greedily during extraction below.
        report->degraded = true;
        report->unrouted_mhz = total_flow - fr.flow;
        MECSC_COUNT("fault.degraded_solves", 1.0);
        shortfall = true;
      }
      // Certificate duals (also persisted as the congestion estimate for
      // the next solve's working-set ranking). A station with no inbound
      // flow is often unreachable in the residual network, where the
      // truncated-Dijkstra update inflates its raw potential by
      // dist(sink) per pass; its only binding dual constraint is the
      // residual station→sink arc (price >= pot(sink)), so pot(sink) is
      // the tightest feasible price and avoids a storm of spurious
      // violations.
      const double psink = s.mcf.potential(sink);
      for (std::size_t i = 0; i < ns; ++i) {
        s.station_price[i] = s.mcf.edge_flow(s.sink_edge[i]) > 1e-12
                                 ? s.mcf.potential(1 + n + i)
                                 : psink;
      }
      if (shortfall || !certify) break;
      // Scan pruned arcs for negative reduced cost. Only the two most
      // violated arcs per column are added per iteration: the optimal
      // support is sparse (a transportation basis has ~2 arcs per
      // column), so adding every violated arc would balloon the working
      // set and make each subsequent Dijkstra pass pay for arcs that will
      // never carry flow.
      s.violations.clear();
      for (std::size_t e = 0; e < n; ++e) {
        if (s.res[e] <= 0.0) continue;
        const double pe = s.mcf.potential(1 + e);
        const char* mask = &s.in_work[e * ns];
        double rc1 = -kDualTol, rc2 = -kDualTol;  // two smallest reduced costs
        std::uint32_t i1 = ns, i2 = ns;
        for (std::size_t i = 0; i < ns; ++i) {
          if (mask[i]) continue;
          double rc = arc_cost(e, i) + pe - s.station_price[i];
          if (rc < rc2) {
            if (rc < rc1) {
              rc2 = rc1;
              i2 = i1;
              rc1 = rc;
              i1 = static_cast<std::uint32_t>(i);
            } else {
              rc2 = rc;
              i2 = static_cast<std::uint32_t>(i);
            }
          }
        }
        if (i1 < ns) {
          s.violations.emplace_back(static_cast<std::uint32_t>(e), i1);
        }
        if (i2 < ns) {
          s.violations.emplace_back(static_cast<std::uint32_t>(e), i2);
        }
      }
      if (s.violations.empty()) break;
      MECSC_COUNT("frac.violated_arcs_added",
                  static_cast<double>(s.violations.size()));
      for (auto [e, i] : s.violations) {
        s.work[e].push_back(i);
        s.in_work[e * ns + i] = 1;
      }
      graph_dirty = true;
    }

    // Extract x / y and re-price from realised per-instance demand.
    s.x.assign(n * ns, 0.0);
    s.y.assign(nk * ns, 0.0);
    s.attracted.assign(nk * ns, 0.0);
    if (shortfall) {
      // Track per-station load so the greedy leftover placement can find
      // residual capacity.
      s.station_load.resize(ns);
      for (std::size_t i = 0; i < ns; ++i) {
        s.station_load[i] = s.mcf.edge_flow(s.sink_edge[i]);
      }
    }
    double xcost = 0.0;  // sum over x of the true (non-amortized) cost
    for (std::size_t e = 0; e < n; ++e) {
      std::size_t k = s.svc[e];
      if (s.res[e] <= 0.0) {
        // Zero-demand column: pin to its cheapest *up* station (no
        // capacity use, no instantiation pressure). Down stations are
        // skipped so shed/idle requests never ride out a slot on an
        // outaged host.
        std::size_t best_i = 0;
        double best_cost = std::numeric_limits<double>::infinity();
        for (std::size_t i = 0; i < ns; ++i) {
          if (!p.station_up(i)) continue;
          double c = col_access(e, i);
          if (c < best_cost) {
            best_cost = c;
            best_i = i;
          }
        }
        s.x[e * ns + best_i] = 1.0;
        s.y[k * ns + best_i] = std::max(s.y[k * ns + best_i], 1.0);
        xcost += s.base_cost[e * ns + best_i];
        continue;
      }
      auto& w = s.work[e];
      double placed = 0.0;
      for (std::size_t j = 0; j < w.size(); ++j) {
        double xei =
            std::clamp(s.mcf.edge_flow(s.work_edge[e][j]) / s.res[e], 0.0, 1.0);
        if (xei <= 0.0) continue;
        std::size_t i = w[j];
        s.x[e * ns + i] = xei;
        s.y[k * ns + i] = std::max(s.y[k * ns + i], xei);
        s.attracted[k * ns + i] += xei * s.res[e];
        xcost += xei * s.base_cost[e * ns + i];
        placed += xei;
      }
      if (shortfall && placed < 1.0 - 1e-9) {
        // Greedy repair of the unrouted fraction: cheapest up station
        // with room for it, else the up station with the most residual
        // capacity (capacity violated, but Σx = 1 is preserved and the
        // overload is scored honestly by the true-cost objective).
        double leftover = 1.0 - placed;
        double extra = leftover * s.res[e];
        std::size_t best_i = ns;
        double best_cost = std::numeric_limits<double>::infinity();
        std::size_t spill_i = ns;
        double spill_room = -std::numeric_limits<double>::infinity();
        for (std::size_t i = 0; i < ns; ++i) {
          double cap = p.station_capacity_mhz(i);
          if (cap <= 0.0) continue;  // down station: never a repair host
          double room = cap - s.station_load[i];
          if (room > spill_room) {
            spill_room = room;
            spill_i = i;
          }
          if (room + 1e-9 < extra) continue;
          double c = arc_cost(e, i);
          if (c < best_cost) {
            best_cost = c;
            best_i = i;
          }
        }
        if (best_i == ns) best_i = spill_i;
        if (best_i == ns) best_i = 0;  // whole network down: arbitrary host
        s.station_load[best_i] += extra;
        double xei = s.x[e * ns + best_i] + leftover;
        s.x[e * ns + best_i] = xei;
        s.y[k * ns + best_i] = std::max(s.y[k * ns + best_i], xei);
        s.attracted[k * ns + best_i] += extra;
        xcost += leftover * s.base_cost[e * ns + best_i];
      }
    }
    double ycost = 0.0;
    for (std::size_t k = 0; k < nk; ++k) {
      for (std::size_t i = 0; i < ns; ++i) {
        double yki = s.y[k * ns + i];
        if (yki > 0.0) ycost += yki * p.instantiation_delay_ms(i, k);
      }
    }
    double objective = (xcost + ycost) / objective_divisor;

    bool improved =
        !have_best || objective < best_objective - 1e-9 * (1.0 + objective);
    if (improved) {
      best_objective = objective;
      s.x_best = s.x;
      s.y_best = s.y;
      have_best = true;
    } else if (round > 0) {
      break;  // re-pricing converged (or started oscillating): stop early
    }
    if (shortfall) break;  // capacity is round-invariant: re-pricing can't help
    MECSC_COUNT("frac.repricing_rounds", 1.0);
    std::swap(s.inst_base, s.attracted);
  }

  // Remember which stations carried each column's flow — next solve's
  // warm arcs (demands and θ drift slowly between slots, so the same
  // arcs tend to be basic again).
  for (std::size_t e = 0; e < n; ++e) {
    s.warm[e].clear();
    const double* row = &s.x_best[e * ns];
    for (std::size_t i = 0; i < ns; ++i) {
      if (row[i] > 1e-12) s.warm[e].push_back(static_cast<std::uint32_t>(i));
    }
  }

  if (obs::enabled()) {
    std::size_t working_arcs = 0;
    for (std::size_t e = 0; e < n; ++e) working_arcs += s.work[e].size();
    obs::current()
        .histogram("frac.working_arcs")
        .observe(static_cast<double>(working_arcs));
  }

  FractionalSolution out;
  out.objective = best_objective;
  out.x.assign(n, std::vector<double>(ns));
  for (std::size_t e = 0; e < n; ++e) {
    std::copy_n(&s.x_best[e * ns], ns, out.x[e].begin());
  }
  out.y.assign(nk, std::vector<double>(ns));
  for (std::size_t k = 0; k < nk; ++k) {
    std::copy_n(&s.y_best[k * ns], ns, out.y[k].begin());
  }
  return out;
}

double FractionalSolver::objective(const FractionalSolution& sol,
                                   const std::vector<double>& demands,
                                   const std::vector<double>& theta) const {
  const CachingProblem& p = *problem_;
  const std::size_t nr = p.num_requests();
  const std::size_t ns = p.num_stations();
  MECSC_CHECK(sol.x.size() == nr && demands.size() == nr && theta.size() == ns);
  double total = 0.0;
  for (std::size_t l = 0; l < nr; ++l) {
    for (std::size_t i = 0; i < ns; ++i) {
      double xli = sol.x[l][i];
      if (xli <= 0.0) continue;
      total += xli * (demands[l] * (theta[i] + p.tx_unit_ms(l)) +
                      p.access_latency_ms(l, i));
    }
  }
  for (std::size_t k = 0; k < p.num_services(); ++k) {
    for (std::size_t i = 0; i < ns; ++i) {
      double yki = sol.y[k][i];
      if (yki <= 0.0) continue;
      total += yki * p.instantiation_delay_ms(i, k);
    }
  }
  return total / static_cast<double>(nr);
}

}  // namespace mecsc::core
