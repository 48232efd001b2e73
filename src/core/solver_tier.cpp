#include "core/solver_tier.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace mecsc::core {

SolverTier resolve_solver_tier(SolverTier configured) {
  if (configured != SolverTier::kEnv) return configured;
  const char* v = std::getenv("MECSC_SOLVER");
  if (v == nullptr || *v == '\0') return SolverTier::kFlow;
  if (std::strcmp(v, "flow") == 0) return SolverTier::kFlow;
  if (std::strcmp(v, "lagrangian") == 0) return SolverTier::kLagrangian;
  std::fprintf(stderr,
               "mecsc: ignoring MECSC_SOLVER=\"%s\" — expected flow or "
               "lagrangian\n",
               v);
  return SolverTier::kFlow;
}

const char* solver_tier_name(SolverTier tier) {
  switch (tier) {
    case SolverTier::kEnv:
      return "env";
    case SolverTier::kFlow:
      return "flow";
    case SolverTier::kLagrangian:
      return "lagrangian";
  }
  return "?";
}

}  // namespace mecsc::core
