// mecsc_trace — trace inspector (DESIGN.md "Crash tolerance &
// recovery").
//
// Dumps everything about a serve trace that can be known without
// replaying it: the header recipe, a per-record table (slot, decision
// flags, file offset, payload size, checksum), the seal status, and —
// for a torn or corrupt trace — the salvage point where the
// checksum-valid prefix ends. The fast first look at a crashed daemon's
// trace before deciding whether to --resume or --verify --salvage.
//
//   mecsc_trace run.trace             # summary + record table
//   mecsc_trace --summary run.trace   # recipe and seal status only
//
// Exit codes: 0 sealed, 2 usage, 3 torn/corrupt/unreadable.

#include <cstdio>
#include <cstring>
#include <string>

#include "serve/trace_io.h"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: mecsc_trace [--summary] TRACE\n"
               "  --summary   recipe and seal status only (no record table)\n"
               "exit codes: 0 sealed, 2 usage, 3 torn or corrupt\n");
}

// Names the *resolved* core::AggregateMode value the trace stores
// (kEnv = 0 never appears in a recorded config, and 2 is the retired
// auto mode).
const char* aggregate_name(std::uint8_t mode) {
  switch (mode) {
    case 1: return "off";
    case 3: return "on";
    default: return "?";
  }
}

// Names the resolved core::SolverTier value the trace stores (v3; 2 and
// 4 are the retired simplex and auto tiers).
const char* solver_name(std::uint8_t tier) {
  switch (tier) {
    case 1: return "flow";
    case 3: return "lagrangian";
    default: return "?";
  }
}

std::string flag_names(std::uint32_t flags) {
  std::string out;
  auto add = [&out](const char* name) {
    if (!out.empty()) out += ",";
    out += name;
  };
  if (flags & mecsc::serve::kSlotFlagRecommit) add("recommit");
  if (flags & mecsc::serve::kSlotFlagDegradedHint) add("degraded");
  if (flags & mecsc::serve::kSlotFlagFaults) add("faults");
  if (out.empty()) out = "-";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool summary_only = false;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--summary") == 0) {
      summary_only = true;
    } else if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      usage();
      return 0;
    } else if (arg[0] == '-') {
      std::fprintf(stderr, "mecsc_trace: unknown flag \"%s\"\n", arg);
      usage();
      return 2;
    } else if (path.empty()) {
      path = arg;
    } else {
      std::fprintf(stderr, "mecsc_trace: exactly one trace file expected\n");
      usage();
      return 2;
    }
  }
  if (path.empty()) {
    usage();
    return 2;
  }

  mecsc::serve::TraceInspection insp;
  try {
    insp = mecsc::serve::inspect_trace(path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mecsc_trace: %s\n", e.what());
    return 3;
  }

  const mecsc::serve::TraceConfig& cfg = insp.config;
  std::printf("trace    %s (%llu bytes, format v%u)\n", path.c_str(),
              static_cast<unsigned long long>(insp.file_bytes), insp.version);
  std::printf("recipe   seed %llu, %u stations, %u requests, %u services, "
              "%u slots x %u ms\n",
              static_cast<unsigned long long>(cfg.seed), cfg.num_stations,
              cfg.num_requests, cfg.num_services, cfg.horizon, cfg.slot_ms);
  std::printf("         %s demands, aggregate %s, solver %s, faults %s, "
              "algo seed %llu, shed penalty %.3f ms\n",
              cfg.bursty != 0 ? "bursty" : "constant",
              aggregate_name(cfg.aggregate), solver_name(cfg.solver),
              cfg.faults != 0 ? "churn" : "off",
              static_cast<unsigned long long>(cfg.algo_seed),
              cfg.shed_penalty_ms);

  if (!summary_only && !insp.records.empty()) {
    std::printf("%8s  %-18s  %10s  %8s  %16s\n", "slot", "flags", "offset",
                "payload", "checksum");
    for (const mecsc::serve::TraceRecordInfo& rec : insp.records) {
      std::printf("%8u  %-18s  %10llu  %8llu  %016llx\n", rec.slot,
                  flag_names(rec.flags).c_str(),
                  static_cast<unsigned long long>(rec.offset),
                  static_cast<unsigned long long>(rec.payload_bytes),
                  static_cast<unsigned long long>(rec.checksum));
    }
  }

  std::printf("records  %zu checksum-valid\n", insp.salvage_records);
  if (insp.sealed) {
    std::printf("status   sealed (footer present, count matches)\n");
    return 0;
  }
  std::printf("status   NOT sealed: %s\n",
              insp.tail_error.empty() ? "footer missing"
                                      : insp.tail_error.c_str());
  std::printf("salvage  truncate at offset %llu keeps %zu record(s), "
              "discards %llu byte(s)\n",
              static_cast<unsigned long long>(insp.salvage_offset),
              insp.salvage_records,
              static_cast<unsigned long long>(insp.file_bytes -
                                              insp.salvage_offset));
  return 3;
}
