#include "core/lagrangian_solver.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/env.h"
#include "common/error.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace mecsc::core {

namespace {

/// Feasibility slack: instances whose aggregate demand exceeds this
/// fraction of aggregate capacity are handed to the flow tier's degraded
/// path up front — the Lagrangian dual of an infeasible instance is
/// unbounded (λ → ∞) and would burn the whole iteration cap discovering
/// that.
constexpr double kFeasibleFraction = 0.999;
/// Dual-improvement patience: halve the Polyak step scale after this
/// many iterations without a better dual bound.
constexpr std::size_t kStalePatience = 10;
/// Bounds of the adaptive step scale.
constexpr double kMinStepScale = 1e-4;
constexpr double kMaxStepScale = 2.0;

}  // namespace

LagrangianOptions lagrangian_options_from_env() {
  LagrangianOptions o;
  o.max_iterations = common::env_size_or("MECSC_LAG_ITERS", o.max_iterations);
  if (o.max_iterations == 0) o.max_iterations = 1;
  double gap = common::env_double_or("MECSC_LAG_GAP", o.target_gap);
  if (gap > 0.0) o.target_gap = gap;
  return o;
}

void LagrangianSolver::import_warm_state(const LagrangianWarmState& state) const {
  const std::size_t ns = problem_->num_stations();
  const bool lambda_ok =
      state.lambda.empty() || state.lambda.size() == ns;
  bool finite_ok = true;
  for (double l : state.lambda) {
    if (!(l >= 0.0) || !std::isfinite(l)) {
      finite_ok = false;
      break;
    }
  }
  if (!lambda_ok || !finite_ok) {
    // Stale snapshot (topology change, corrupt prices): cold start
    // instead of pricing the wrong stations.
    MECSC_COUNT("lag.warm_state_rejected", 1.0);
    s_.lambda.clear();
    s_.step_scale = 1.0;
    return;
  }
  s_.lambda = state.lambda;
  s_.step_scale = std::clamp(state.step_scale, kMinStepScale, kMaxStepScale);
}

LagrangianOutcome LagrangianSolver::solve(const std::vector<double>& demands,
                                          const std::vector<double>& theta) const {
  s_.singletons.build_singletons(*problem_, demands);
  return solve_classes(s_.singletons, theta);
}

LagrangianOutcome LagrangianSolver::solve_classes(
    const DemandClassing& classing, const std::vector<double>& theta) const {
  MECSC_SPAN("lag.solve");
  MECSC_COUNT("lag.solves", 1.0);
  const CachingProblem& p = *problem_;
  const std::size_t nc = classing.num_classes();
  const std::size_t ns = p.num_stations();
  const std::size_t nk = p.num_services();
  MECSC_CHECK_MSG(classing.num_requests() == p.num_requests(),
                  "classing was built for a different problem");
  MECSC_CHECK_MSG(theta.size() == ns, "theta vector size mismatch");

  Scratch& s = s_;
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

  // The member-summed cost row shared with FractionalSolver, so the
  // tiers' objectives compare.
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

  return run(nc, total_flow, static_cast<double>(classing.num_requests()));
}

LagrangianOutcome LagrangianSolver::run(std::size_t n, double total_flow,
                                        double objective_divisor) const {
  const CachingProblem& p = *problem_;
  const std::size_t ns = p.num_stations();
  const std::size_t nk = p.num_services();
  Scratch& s = s_;
  LagrangianOutcome out;

  double total_cap = 0.0;
  for (std::size_t i = 0; i < ns; ++i) total_cap += p.station_capacity_mhz(i);
  if (total_flow > kFeasibleFraction * total_cap) {
    // Capacity-short (or within rounding of it): the dual is unbounded
    // and the flow tier's greedy-repair degraded path is the right tool.
    MECSC_COUNT("lag.infeasible_bailouts", 1.0);
    return out;
  }

  // Amortized cost ĉ_ei = base + d_ins[i][k]·res_e / max(demand_k, res_e)
  // — the flow tier's round-0 amortization, frozen for the whole ascent
  // (re-pricing would move the dual's target mid-climb). The reported
  // solution is re-scored with the true Eq. 3 cost below.
  s.cost.resize(n * ns);
  for (std::size_t e = 0; e < n; ++e) {
    const std::size_t k = s.svc[e];
    const double res = s.res[e];
    const double* brow = &s.base_cost[e * ns];
    double* crow = &s.cost[e * ns];
    if (res <= 0.0) {
      std::copy_n(brow, ns, crow);
      continue;
    }
    const double base = std::max(s.service_demand[k], res);
    for (std::size_t i = 0; i < ns; ++i) {
      crow[i] = brow[i] + p.instantiation_delay_ms(i, k) * res / base;
    }
  }

  if (s.lambda.size() != ns) {
    s.lambda.assign(ns, 0.0);
    s.step_scale = 1.0;
  }
  s.load.resize(ns);
  s.room.resize(ns);
  s.pick.resize(n);
  s.x.assign(n * ns, 0.0);

  double best_dual = -std::numeric_limits<double>::infinity();
  double best_primal = std::numeric_limits<double>::infinity();
  bool have_primal = false;
  std::size_t stale = 0;

  for (std::size_t iter = 0; iter < options_.max_iterations; ++iter) {
    out.iterations = iter + 1;
    // --- Decomposed subproblem: per-column argmin over stations -------
    // (embarrassingly parallel over columns; kept serial for bitwise
    // determinism across MECSC_WORKERS settings).
    std::fill(s.load.begin(), s.load.end(), 0.0);
    double dual = 0.0;
    for (std::size_t i = 0; i < ns; ++i) dual -= s.lambda[i] * p.station_capacity_mhz(i);
    for (std::size_t e = 0; e < n; ++e) {
      const double res = s.res[e];
      if (res <= 0.0) {
        s.pick[e] = 0;  // zero-demand columns are pinned during extraction
        continue;
      }
      const double* crow = &s.cost[e * ns];
      double best = std::numeric_limits<double>::infinity();
      std::uint32_t best_i = 0;
      for (std::size_t i = 0; i < ns; ++i) {
        // Down stations (zero effective capacity) never serve — the flow
        // tier excludes them, and admitting them here would only burn
        // iterations pricing them back out.
        if (!p.station_up(i)) continue;
        const double v = crow[i] + s.lambda[i] * res;
        if (v < best) {
          best = v;
          best_i = static_cast<std::uint32_t>(i);
        }
      }
      s.pick[e] = best_i;
      s.load[best_i] += res;
      dual += best;
    }
    if (dual > best_dual + 1e-12 * (1.0 + std::abs(dual))) {
      best_dual = dual;
      stale = 0;
    } else if (++stale >= kStalePatience) {
      s.step_scale = std::max(kMinStepScale, s.step_scale * 0.5);
      stale = 0;
    }

    // --- Primal repair: pour overload into residual room --------------
    // Start from the argmin assignment; stations over capacity shed
    // their surplus in ascending station order, columns leaving in the
    // order they were assigned, each fraction landing on the cheapest
    // (amortized cost + current price) stations with room. Always
    // succeeds: total_flow <= kFeasibleFraction·total_cap.
    double primal = 0.0;
    for (std::size_t i = 0; i < ns; ++i) {
      s.room[i] = p.station_capacity_mhz(i) - std::min(s.load[i], p.station_capacity_mhz(i));
    }
    std::fill(s.x.begin(), s.x.end(), 0.0);
    for (std::size_t e = 0; e < n; ++e) {
      const double res = s.res[e];
      if (res <= 0.0) continue;
      const std::size_t i = s.pick[e];
      const double cap = p.station_capacity_mhz(i);
      if (s.load[i] <= cap) {
        s.x[e * ns + i] = 1.0;
        primal += s.cost[e * ns + i];
        continue;
      }
      // Overloaded host: keep the column's pro-rata share of the
      // capacity, spill the rest. Pro-rata (rather than first-come)
      // keeps the repair independent of column order within a station.
      const double keep_frac = cap / s.load[i];
      double xkeep = keep_frac;
      s.x[e * ns + i] = xkeep;
      primal += xkeep * s.cost[e * ns + i];
      double spill = (1.0 - keep_frac) * res;  // MHz still to place
      while (spill > 1e-12) {
        // Cheapest station with room under the current prices.
        std::size_t best_j = ns;
        double best_c = std::numeric_limits<double>::infinity();
        const double* crow = &s.cost[e * ns];
        for (std::size_t j = 0; j < ns; ++j) {
          if (j == i || s.room[j] <= 1e-12) continue;
          const double v = crow[j] + s.lambda[j] * res;
          if (v < best_c) {
            best_c = v;
            best_j = j;
          }
        }
        if (best_j == ns) break;
        const double take = std::min(spill, s.room[best_j]);
        const double frac = take / res;
        s.room[best_j] -= take;
        s.x[e * ns + best_j] += frac;
        primal += frac * crow[best_j];
        spill -= take;
      }
      if (spill > 1e-12) {
        // Numerically out of room (feasibility slack guarantees this is
        // a rounding-error sliver): keep Σ_i x_ei = 1 by returning the
        // remainder to the pick station, scored honestly.
        const double frac = spill / res;
        s.x[e * ns + i] += frac;
        primal += frac * s.cost[e * ns + i];
      }
    }

    const bool improved = !have_primal || primal < best_primal - 1e-12 * (1.0 + std::abs(primal));
    if (improved) {
      best_primal = primal;
      s.x_best = s.x;
      have_primal = true;
    }

    // --- Gap check and subgradient step --------------------------------
    const double denom = std::max(std::abs(best_dual), 1e-9);
    out.gap = (best_primal - best_dual) / denom;
    out.dual_bound = best_dual;
    if (out.gap <= options_.target_gap) {
      out.converged = true;
      break;
    }
    double norm2 = 0.0;
    for (std::size_t i = 0; i < ns; ++i) {
      const double g = s.load[i] - p.station_capacity_mhz(i);
      norm2 += g * g;
    }
    if (norm2 <= 0.0) {
      // Subgradient vanished: λ is dual-optimal; if the gap still has
      // not closed the primal repair is the binding error — stop.
      out.converged = out.gap <= options_.target_gap;
      break;
    }
    const double step = s.step_scale * std::max(best_primal - dual, 1e-9) / norm2;
    for (std::size_t i = 0; i < ns; ++i) {
      const double g = s.load[i] - p.station_capacity_mhz(i);
      s.lambda[i] = std::max(0.0, s.lambda[i] + step * g);
    }
  }

  MECSC_GAUGE_SET("lag.gap", out.gap);
  MECSC_HISTOGRAM("lag.iterations", static_cast<double>(out.iterations));
  if (!out.converged || !have_primal) {
    out.converged = false;
    return out;
  }

  // --- Extract the best round as a FractionalSolution, scored with the
  // true (non-amortized) Eq. 3 objective exactly like the flow tier.
  FractionalSolution sol;
  sol.x.assign(n, std::vector<double>(ns, 0.0));
  sol.y.assign(nk, std::vector<double>(ns, 0.0));
  double xcost = 0.0;
  for (std::size_t e = 0; e < n; ++e) {
    const std::size_t k = s.svc[e];
    if (s.res[e] <= 0.0) {
      // Zero-demand column: pin to its cheapest up station (no capacity
      // use), matching the flow tier's treatment.
      const bool inc_access = p.options().include_access_latency;
      std::size_t best_i = 0;
      double best_cost = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < ns; ++i) {
        if (!p.station_up(i)) continue;
        double c = inc_access ? p.topology().path_latency_ms(s.home[e], i) : 0.0;
        if (c < best_cost) {
          best_cost = c;
          best_i = i;
        }
      }
      sol.x[e][best_i] = 1.0;
      sol.y[k][best_i] = std::max(sol.y[k][best_i], 1.0);
      xcost += s.base_cost[e * ns + best_i];
      continue;
    }
    const double* row = &s.x_best[e * ns];
    for (std::size_t i = 0; i < ns; ++i) {
      const double xei = row[i];
      if (xei <= 0.0) continue;
      sol.x[e][i] = xei;
      sol.y[k][i] = std::max(sol.y[k][i], xei);
      xcost += xei * s.base_cost[e * ns + i];
    }
  }
  double ycost = 0.0;
  for (std::size_t k = 0; k < nk; ++k) {
    for (std::size_t i = 0; i < ns; ++i) {
      const double yki = sol.y[k][i];
      if (yki > 0.0) ycost += yki * p.instantiation_delay_ms(i, k);
    }
  }
  sol.objective = (xcost + ycost) / objective_divisor;
  out.solution = std::move(sol);
  return out;
}

}  // namespace mecsc::core
