#include "common/env_catalog.h"

#include <algorithm>
#include <cstdio>

namespace mecsc::common {

const std::vector<EnvVar>& env_catalog() {
  static const std::vector<EnvVar> catalog = {
      {"MECSC_AGGREGATE", "enum: off|on", "off",
       "Demand-class aggregation of the per-slot solve (DESIGN.md §11)."},
      {"MECSC_FAULTS", "enum: off|churn", "off",
       "Fault-injection mode override for scenarios and benches "
       "(DESIGN.md §9)."},
      {"MECSC_GAN_STEPS", "size_t", "per bench (400)",
       "GAN predictor training steps in the OL_GAN benches."},
      {"MECSC_LAG_GAP", "double", "0.01",
       "Relative duality-gap target of the Lagrangian solver tier; a "
       "solve that misses it falls back to the exact flow path "
       "(DESIGN.md §16)."},
      {"MECSC_LAG_ITERS", "size_t", "200",
       "Subgradient-ascent iteration cap per Lagrangian solve "
       "(DESIGN.md §16)."},
      {"MECSC_REQUESTS", "size_t", "per bench (100)",
       "Requests per topology replication in the bench harnesses."},
      {"MECSC_SLOTS", "size_t", "per bench (100-400)",
       "Run-horizon time slots in the bench harnesses."},
      {"MECSC_SOLVER", "enum: flow|lagrangian", "flow",
       "Per-slot LP solver tier (DESIGN.md §16)."},
      {"MECSC_STATIONS", "size_t", "per bench (100)",
       "Base stations in the bench harnesses."},
      {"MECSC_TELEMETRY", "enum: off|summary|full", "off",
       "Telemetry level: summary = counters/gauges, full = + histograms "
       "and spans."},
      {"MECSC_TELEMETRY_OUT", "path", "unset (stdout, JSONL)",
       "Telemetry export file; format from extension (.prom, .csv, else "
       "JSONL)."},
      {"MECSC_TOPOLOGIES", "size_t", "per bench (3-8)",
       "Topology replications each bench averages over (paper: 80)."},
      {"MECSC_WORKERS", "size_t", "hardware concurrency",
       "Replication worker threads; results are bitwise independent of "
       "the value."},
  };
  return catalog;
}

std::string env_catalog_table() {
  const auto& vars = env_catalog();
  std::size_t name_w = 4, type_w = 4, def_w = 7;
  for (const EnvVar& v : vars) {
    name_w = std::max(name_w, std::string(v.name).size());
    type_w = std::max(type_w, std::string(v.type).size());
    def_w = std::max(def_w, std::string(v.default_value).size());
  }
  std::string out;
  char line[512];
  std::snprintf(line, sizeof(line), "  %-*s  %-*s  %-*s  %s\n",
                static_cast<int>(name_w), "name", static_cast<int>(type_w),
                "type", static_cast<int>(def_w), "default", "effect");
  out += line;
  for (const EnvVar& v : vars) {
    std::snprintf(line, sizeof(line), "  %-*s  %-*s  %-*s  %s\n",
                  static_cast<int>(name_w), v.name, static_cast<int>(type_w),
                  v.type, static_cast<int>(def_w), v.default_value, v.effect);
    out += line;
  }
  return out;
}

}  // namespace mecsc::common
