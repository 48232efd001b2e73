#include "core/lp_formulation.h"

#include "common/error.h"

namespace mecsc::core {

LpFormulation::LpFormulation(const CachingProblem& problem,
                             const std::vector<double>& demands,
                             const std::vector<double>& theta)
    : num_requests_(problem.num_requests()),
      num_stations_(problem.num_stations()),
      num_services_(problem.num_services()) {
  MECSC_CHECK_MSG(demands.size() == num_requests_, "demand vector size mismatch");
  MECSC_CHECK_MSG(theta.size() == num_stations_, "theta vector size mismatch");

  const double inv_r = 1.0 / static_cast<double>(num_requests_);

  // Variables: x_{li} first (request-major), then y_{ki} (service-major).
  // Objective = (1/|R|) (Σ x_li (ρ_l θ_i + access_li) + Σ y_ki d_ins_ik).
  for (std::size_t l = 0; l < num_requests_; ++l) {
    for (std::size_t i = 0; i < num_stations_; ++i) {
      double coef = demands[l] * (theta[i] + problem.tx_unit_ms(l)) +
                    problem.access_latency_ms(l, i);
      model_.add_variable(inv_r * coef,
                          "x_" + std::to_string(l) + "_" + std::to_string(i));
    }
  }
  for (std::size_t k = 0; k < num_services_; ++k) {
    for (std::size_t i = 0; i < num_stations_; ++i) {
      model_.add_variable(inv_r * problem.instantiation_delay_ms(i, k),
                          "y_" + std::to_string(k) + "_" + std::to_string(i));
    }
  }

  // Constraint (4): Σ_i x_li = 1 for every request.
  for (std::size_t l = 0; l < num_requests_; ++l) {
    lp::Constraint c;
    c.relation = lp::Relation::kEqual;
    c.rhs = 1.0;
    c.name = "assign_" + std::to_string(l);
    for (std::size_t i = 0; i < num_stations_; ++i) {
      c.terms.emplace_back(x_var(l, i), 1.0);
    }
    model_.add_constraint(std::move(c));
  }

  // Constraint (5): Σ_l x_li ρ_l C_unit <= C(bs_i).
  for (std::size_t i = 0; i < num_stations_; ++i) {
    lp::Constraint c;
    c.relation = lp::Relation::kLessEqual;
    c.rhs = problem.station_capacity_mhz(i);
    c.name = "cap_" + std::to_string(i);
    for (std::size_t l = 0; l < num_requests_; ++l) {
      c.terms.emplace_back(x_var(l, i), problem.resource_demand_mhz(demands[l]));
    }
    model_.add_constraint(std::move(c));
  }

  // Constraint (6): y_{k(l),i} >= x_li  <=>  x_li - y_ki <= 0.
  for (std::size_t l = 0; l < num_requests_; ++l) {
    std::size_t k = problem.requests()[l].service_id;
    for (std::size_t i = 0; i < num_stations_; ++i) {
      lp::Constraint c;
      c.relation = lp::Relation::kLessEqual;
      c.rhs = 0.0;
      c.terms.emplace_back(x_var(l, i), 1.0);
      c.terms.emplace_back(y_var(k, i), -1.0);
      model_.add_constraint(std::move(c));
    }
  }
}

std::size_t LpFormulation::x_var(std::size_t request, std::size_t station) const {
  MECSC_CHECK(request < num_requests_ && station < num_stations_);
  return request * num_stations_ + station;
}

std::size_t LpFormulation::y_var(std::size_t service, std::size_t station) const {
  MECSC_CHECK(service < num_services_ && station < num_stations_);
  return num_requests_ * num_stations_ + service * num_stations_ + station;
}

FractionalSolution LpFormulation::solve(const lp::SimplexSolver& solver) const {
  lp::SimplexWorkspace workspace;
  return solve(solver, workspace);
}

FractionalSolution LpFormulation::solve(const lp::SimplexSolver& solver,
                                        lp::SimplexWorkspace& workspace) const {
  lp::Solution sol = solver.solve(model_, workspace);
  switch (sol.status) {
    case lp::SolveStatus::kOptimal:
      break;
    case lp::SolveStatus::kInfeasible:
      throw common::Infeasible("per-slot caching LP is infeasible");
    case lp::SolveStatus::kUnbounded:
      throw common::NumericalError(
          "per-slot caching LP reported unbounded — its feasible region is a "
          "polytope, so this indicates numerical breakdown");
    case lp::SolveStatus::kIterationLimit:
      throw common::NumericalError(
          "simplex hit its pivot limit before reaching optimality");
  }
  FractionalSolution out;
  out.objective = sol.objective;
  out.x.assign(num_requests_, std::vector<double>(num_stations_, 0.0));
  out.y.assign(num_services_, std::vector<double>(num_stations_, 0.0));
  for (std::size_t l = 0; l < num_requests_; ++l) {
    for (std::size_t i = 0; i < num_stations_; ++i) {
      out.x[l][i] = sol.x[x_var(l, i)];
    }
  }
  for (std::size_t k = 0; k < num_services_; ++k) {
    for (std::size_t i = 0; i < num_stations_; ++i) {
      out.y[k][i] = sol.x[y_var(k, i)];
    }
  }
  return out;
}

}  // namespace mecsc::core
