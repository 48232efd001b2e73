#ifndef MECSC_SERVE_CHECKPOINT_H
#define MECSC_SERVE_CHECKPOINT_H

// Durable decision-state checkpoints of the mecsc::serve daemon
// (DESIGN.md "Crash tolerance & recovery").
//
// Every --checkpoint-every slots the daemon serialises its complete
// cross-slot decision state — bandit pull counts and means, the rounding
// RNG's stream position, both solver warm states (flow arcs/prices,
// Lagrangian duals), the engine's committed decision and caching set,
// the trace byte offset — into a single
// checksummed file, written crash-consistently: the payload goes to a
// temporary sibling file, is fsync'd, and is atomically renamed over the
// previous checkpoint. A crash at any instant therefore leaves either
// the old or the new checkpoint intact, never a torn one.
//
// `mecsc_serve --resume` restores the newest checkpoint, truncates the
// trace's torn tail back to the checkpointed offset, and continues
// serving with decisions bit-for-bit identical to a run that was never
// killed — the twin-trace test in tests/test_serve_crash.cpp holds the
// daemon to exactly that.
//
// Layout: "MECK" magic, format version (3; read_checkpoint refuses any
// other, so a v2 file from before the simplex basis was dropped is
// rejected), u64 payload size, payload, FNV-1a-64 checksum of the
// payload (the trace format's framing, reused).

#include <cstdint>
#include <string>

#include "algorithms/ol_gd.h"
#include "serve/trace_io.h"
#include "sim/slot_engine.h"

namespace mecsc::serve {

/// Complete resume state of a serve run after some slot completed.
struct Checkpoint {
  /// The run's recipe — must byte-match the resuming daemon's options
  /// (same_trace_config), else the restored state would be meaningless.
  TraceConfig config;
  /// Last completed slot; the resumed run continues at slot + 1.
  std::uint32_t slot = 0;
  /// Trace records written through `slot`, and the file size in bytes at
  /// that point — where TraceWriter::resume truncates the torn tail.
  std::uint64_t trace_records = 0;
  std::uint64_t trace_offset = 0;
  /// Running ingest totals (ServeReport continuity across the restart).
  std::uint64_t ingested = 0;
  std::uint64_t shed = 0;
  std::uint64_t ingest_retries = 0;
  std::uint64_t ingest_gave_up = 0;
  /// The algorithm's cross-slot decision state.
  algorithms::OlGdState algo;
  /// The slot engine's cross-slot state.
  sim::SlotEngineState engine;
};

/// Serialises `ckpt` crash-consistently to `path` (tmp file + fsync +
/// atomic rename). Throws common::InvalidArgument on I/O failure.
void write_checkpoint(const std::string& path, const Checkpoint& ckpt);

/// Reads and checksum-verifies a checkpoint. Throws
/// common::InvalidArgument when the file is missing, torn, or corrupt.
Checkpoint read_checkpoint(const std::string& path);

}  // namespace mecsc::serve

#endif  // MECSC_SERVE_CHECKPOINT_H
