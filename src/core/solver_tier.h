#ifndef MECSC_CORE_SOLVER_TIER_H
#define MECSC_CORE_SOLVER_TIER_H

#include <cstddef>

namespace mecsc::core {

/// Per-slot LP solver tier (DESIGN.md §16). The per-slot placement LP is
/// a generalized assignment problem; two solvers trade exactness for
/// per-column cost:
///   * flow — the certified min-cost-flow transportation solve
///     (FractionalSolver): exact for its cost vector, the library
///     default and the quality anchor;
///   * lagrangian — Lagrangian decomposition of the station capacity
///     constraints (LagrangianSolver): each demand class solves an
///     independent argmin over stations under dual prices λ, with
///     subgradient ascent on λ and a duality-gap stopping rule that
///     falls back to the exact flow path when the gap won't close.
/// The dense simplex (LpFormulation + lp::SimplexSolver) is not a tier:
/// it is the test and A5 oracle for small instances.
///
/// The values are part of the trace format (TraceConfig::solver), so
/// they are explicit and never reused; value 2 was the retired simplex
/// tier.
enum class SolverTier {
  /// Resolve from the MECSC_SOLVER environment variable
  /// ("flow" | "lagrangian" | "auto"); unset, empty or unparsable values
  /// mean kFlow. The library default, so every bench and example
  /// honours the env switch without code changes.
  kEnv = 0,
  /// The certified min-cost-flow transportation solve (exact, default).
  kFlow = 1,
  /// Lagrangian decomposition with subgradient ascent and gap-based
  /// fallback to the flow tier.
  kLagrangian = 3,
  /// Pick per slot by column count: lagrangian when the slot's LP has at
  /// least LagrangianOptions::auto_threshold columns (demand classes
  /// when aggregation is active, requests otherwise), flow below it.
  kAuto = 4,
};

/// Maps kEnv to the MECSC_SOLVER environment variable (defaulting to
/// kFlow); explicit tiers pass through unchanged, so code-level settings
/// always win over the environment.
SolverTier resolve_solver_tier(SolverTier configured);

/// Human-readable tier name ("flow", "lagrangian", "auto", "env") —
/// telemetry labels and bench tables.
const char* solver_tier_name(SolverTier tier);

}  // namespace mecsc::core

#endif  // MECSC_CORE_SOLVER_TIER_H
