#ifndef MECSC_LP_SIMPLEX_H
#define MECSC_LP_SIMPLEX_H

#include <cstddef>
#include <vector>

#include "lp/model.h"

namespace mecsc::lp {

/// Termination status of an LP solve.
enum class SolveStatus { kOptimal, kInfeasible, kUnbounded, kIterationLimit };

/// Result of an LP solve. `x` is sized to the model's variable count and
/// only meaningful when `status == kOptimal`.
struct Solution {
  SolveStatus status = SolveStatus::kIterationLimit;
  double objective = 0.0;
  std::vector<double> x;
  std::size_t iterations = 0;
  /// True when the solve started from a previous basis instead of
  /// phase 1 (see SimplexWorkspace).
  bool warm_started = false;
};

/// Options for the simplex solver.
struct SimplexOptions {
  /// Pivot tolerance: entries smaller in magnitude are treated as zero.
  double eps = 1e-9;
  /// Hard cap on total pivots across both phases (0 = automatic:
  /// 50 * (rows + cols)).
  std::size_t max_iterations = 0;
  /// After this many consecutive degenerate pivots the solver switches to
  /// Bland's rule, which guarantees termination.
  std::size_t bland_after = 64;
};

/// Caller-owned scratch memory for SimplexSolver (DESIGN.md
/// "Performance").
///
/// Holds the flat row-major tableau, the objective row, and the basis —
/// every buffer a repeated solve needs. Passing the same workspace to
/// `SimplexSolver::solve` across solves means steady-state solves of
/// same-shaped models allocate nothing, and enables warm starting: the
/// optimal basis of the previous solve is remembered, and when the next
/// model has the same shape the solver re-pivots onto that basis and
/// skips phase 1 entirely (per-slot caching LPs change costs and demand
/// coefficients smoothly, so the previous basis is usually still feasible
/// — when it is not, the solver falls back to a cold two-phase solve).
///
/// Ownership/thread-safety contract: the workspace is plain mutable
/// state. One workspace per thread; sharing one across concurrent solves
/// is a data race. The solver itself stays const/stateless.
class SimplexWorkspace {
 public:
  SimplexWorkspace() = default;

 private:
  friend class SimplexSolver;

  // Flat tableau: m rows of (cols + 1) entries, rhs last in each row.
  std::vector<double> a;
  std::vector<double> obj;       // cols+1 reduced costs, -z last
  std::vector<double> cost;      // per-column phase costs
  std::vector<std::size_t> basis;
  std::vector<char> blocked;     // columns barred from entering
  std::vector<char> row_done;    // warm-start crash: rows already assigned

  // Warm-start state: optimal basis of the previous solve, plus the
  // tableau shape it belongs to (a basis is meaningless for a model of a
  // different shape).
  std::vector<std::size_t> warm_basis;
  std::size_t warm_m_ = 0;
  std::size_t warm_cols_ = 0;
  bool has_warm_ = false;
};

/// Dense two-phase primal simplex for `Model` (min c^T x, Ax {<=,=,>=} b,
/// x >= 0).
///
/// Phase 1 minimises the sum of artificial variables to find a basic
/// feasible solution; phase 2 optimises the true objective. Pivoting uses
/// Dantzig's rule with an automatic switch to Bland's rule under
/// degeneracy, so the solver terminates on every input.
///
/// The tableau is one contiguous row-major buffer (`SimplexWorkspace::a`)
/// and the pivot loop runs over raw row pointers, so eliminating a row is
/// a single stride-1 sweep. Callers on a hot path should pass a
/// `SimplexWorkspace` to reuse memory and warm-start from the previous
/// basis; the workspace-less overload allocates a fresh one per call.
///
/// This is the exact path for the paper's per-slot LP relaxation (Eq. 3
/// s.t. 4-6, 8); the scalable flow-based path in `core::FractionalSolver`
/// is validated against it in tests and in the `bench_lp_vs_flow`
/// ablation. Dense tableau storage makes it suitable for models up to a
/// few thousand rows/columns.
class SimplexSolver {
 public:
  explicit SimplexSolver(SimplexOptions options = {}) : options_(options) {}

  /// Solves the model with a private workspace. Never throws on
  /// infeasible/unbounded input; those are reported via
  /// `Solution::status`.
  Solution solve(const Model& model) const;

  /// Solves the model reusing `workspace` buffers and, when the shape
  /// matches the previous solve, warm-starting from its optimal basis.
  Solution solve(const Model& model, SimplexWorkspace& workspace) const;

 private:
  SimplexOptions options_;
};

}  // namespace mecsc::lp

#endif  // MECSC_LP_SIMPLEX_H
