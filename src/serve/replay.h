#ifndef MECSC_SERVE_REPLAY_H
#define MECSC_SERVE_REPLAY_H

// Trace replay and bit-identity verification (DESIGN.md "Streaming
// service architecture").
//
// The determinism contract: a trace records the exact demand snapshots
// the live pipeline consumed, the realised unit delays, and the
// decisions it committed, plus the scenario recipe. replay_trace()
// rebuilds the identical problem instance from the recipe, feeds the
// recorded snapshots/delays through the batch decision engine
// (sim::SlotEngine — the same code the daemon ran) with the same
// algorithm seed, and compares the reproduced decisions and slot
// objectives against the recorded ones bit for bit. Any divergence —
// an env knob leaking into the pipeline, a nondeterministic RNG path, a
// drifting serialisation — surfaces as a mismatch with its slot.

#include <cstddef>
#include <string>

#include "serve/service.h"
#include "serve/trace_io.h"

namespace mecsc::serve {

/// Replay behaviour knobs.
struct ReplayOptions {
  /// Salvage mode: instead of aborting on a torn or corrupt tail,
  /// truncate at the last checksum-valid record, replay the intact
  /// prefix, and report exactly what was lost. The recovery path for a
  /// crashed daemon's trace (`mecsc_serve --verify --salvage`).
  bool salvage = false;
};

/// Outcome of replaying one trace.
struct ReplayResult {
  /// Every recorded slot reproduced bitwise (decisions and objective).
  bool bit_identical = false;
  /// The trace carried the footer (clean shutdown).
  bool sealed = false;
  /// Recorded slots compared.
  std::size_t slots_compared = 0;
  /// First diverging slot (npos when none).
  std::size_t first_mismatch_slot = static_cast<std::size_t>(-1);
  /// Human-readable mismatch description ("" when identical).
  std::string detail;
  /// Salvage mode only: true when tail damage was truncated away.
  bool salvaged = false;
  /// Bytes discarded past the last checksum-valid record.
  std::uint64_t lost_bytes = 0;
  /// Why reading stopped before the footer ("" for a sealed trace).
  std::string tail_error;
};

/// The trace header a live run with `options` stamps: the scenario
/// recipe plus the env-resolved aggregate mode and the algorithm seed,
/// both pinned explicitly so replay cannot be skewed by a different
/// environment.
TraceConfig trace_config_for(const ServeOptions& options,
                             const sim::Scenario& scenario);

/// Inverse of trace_config_for: the ServeOptions that rebuild the
/// recorded scenario (pipeline-only knobs take defaults).
ServeOptions options_from_trace(const TraceConfig& config);

/// Replays `path` through the batch decision engine and verifies bit
/// identity. Throws common::InvalidArgument on an unreadable/corrupt
/// trace (unless `options.salvage` truncates the damage away), a trace
/// whose recipe names no live aggregation mode or solver tier (kEnv,
/// the retired simplex tier, or an out-of-range byte), or a trace
/// inconsistent with its own recipe (wrong vector sizes); mere
/// decision divergence is reported in the result, not thrown. Traces
/// recorded under fault churn (records carrying kSlotFlagFaults) replay
/// through the recorded fault state; no fault plan or MECSC_FAULTS
/// environment is needed or consulted.
ReplayResult replay_trace(const std::string& path, ReplayOptions options = {});

}  // namespace mecsc::serve

#endif  // MECSC_SERVE_REPLAY_H
