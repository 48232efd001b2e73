#include "common/env_catalog.h"

#include <algorithm>
#include <cstdio>

namespace mecsc::common {

const std::vector<EnvVar>& env_catalog() {
  static const std::vector<EnvVar> catalog = {
      {"MECSC_AGGREGATE", "enum: off|auto|on", "off",
       "Demand-class aggregation of the per-slot solve (DESIGN.md §11); "
       "auto aggregates only at >= 1024 requests."},
      {"MECSC_CHECKPOINT_EVERY", "size_t", "0 (off)",
       "Durable decision-state checkpoint every N slots in mecsc_serve; "
       "requires a trace, restored by --resume (DESIGN.md §15)."},
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
      {"MECSC_PREDICT_BATCH", "size_t", "1024",
       "Max histories per fused GAN inference pass; results are bitwise "
       "independent of the value (DESIGN.md \"SIMD & batching\")."},
      {"MECSC_REQUESTS", "size_t", "per bench (100)",
       "Requests per topology replication in the bench harnesses."},
      {"MECSC_SERVE_QUEUE_CAP", "size_t", "65536",
       "Ingest-queue cells per shard in mecsc_serve (rounded up to a "
       "power of two); a full shard sheds load (DESIGN.md §14)."},
      {"MECSC_SERVE_RETRY_CAP", "size_t", "64",
       "Bounded submit retries (yield, then exponential backoff) before "
       "a full shard sheds the event (DESIGN.md §15)."},
      {"MECSC_SERVE_SHARDS", "size_t", "8",
       "Ingest-queue shards in mecsc_serve; events shard by the "
       "request's home station (DESIGN.md §14)."},
      {"MECSC_SERVE_SLOT_MS", "size_t", "100",
       "Wall-clock slot length of mecsc_serve in milliseconds; doubles "
       "as the decide-latency deadline (DESIGN.md §14)."},
      {"MECSC_SIMD", "enum: off|auto", "auto",
       "SIMD kernel dispatch: off forces the scalar reference path; auto "
       "uses AVX2 when compiled in and the CPU supports it (DESIGN.md "
       "\"SIMD & batching\")."},
      {"MECSC_SLOTS", "size_t", "per bench (100-400)",
       "Run-horizon time slots in the bench harnesses."},
      {"MECSC_SOLVER", "enum: flow|lagrangian|auto", "flow",
       "Per-slot LP solver tier (DESIGN.md §16); auto picks lagrangian "
       "at >= 4096 LP columns, flow below."},
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
      {"MECSC_TRACE_OUT", "path", "unset (no trace)",
       "Binary decision-trace output file of mecsc_serve; replayable "
       "bit-for-bit with --verify (DESIGN.md §14)."},
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
