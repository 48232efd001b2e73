#ifndef MECSC_SERVE_SERVICE_H
#define MECSC_SERVE_SERVICE_H

// The mecsc::serve slot service (DESIGN.md "Streaming service
// architecture"): a long-running streaming front for the paper's
// per-slot decision pipeline.
//
//   producers ──► MpscRing ──► collector ──► decide worker
//   (synthetic /    (lock-free,  (closes       (predict →
//    trace / API)    bounded)     slot t's      aggregate →
//                                 snapshot)     LP → round,
//                                               observe)
//
// The collector accumulates slot t's demand snapshot from the queue and
// closes it on the wall clock (or, in paced mode, when every producer
// finished the slot); the decide worker consumes closed snapshots
// through sim::SlotEngine — the identical decide → score → observe
// protocol the batch simulator runs — while the collector is already
// accumulating slot t+1, so ingest, decide and observe/feedback overlap.
// Admission control sheds events when the ring backs up, accounted like
// the fault subsystem's admission shedding (the same per-request delay
// penalty folded into the slot objective). Every committed decision is
// published for the query API, optionally appended to a binary trace
// (serve::TraceWriter), and reflected in live serve.* telemetry.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/ol_gd.h"
#include "common/error.h"
#include "fault/fault_injector.h"
#include "serve/checkpoint.h"
#include "serve/ingest_queue.h"
#include "serve/trace_io.h"
#include "sim/scenario.h"
#include "sim/slot_engine.h"

namespace mecsc::serve {

/// Thrown by a resuming SlotService when the checkpoint's recipe does
/// not byte-match the daemon's options, or the trace file does not
/// contain the checkpointed prefix — restoring decision state into a
/// different scenario would be meaningless. The daemon maps this to
/// exit code 4.
class ResumeMismatch : public common::InvalidArgument {
 public:
  using common::InvalidArgument::InvalidArgument;
};

/// Configuration of one service run; `mecsc_serve` sets it from its
/// flags.
struct ServeOptions {
  std::uint64_t seed = 1;           ///< Scenario root seed.
  std::size_t num_stations = 100;   ///< Base stations (max 65535).
  std::size_t num_requests = 400;   ///< Request population.
  std::size_t num_services = 10;    ///< Service catalogue size.
  std::size_t horizon = 100;        ///< Slots to serve before exiting.
  std::size_t slot_ms = 100;        ///< Wall-clock slot length.
  /// Ingest ring cells (rounded up to a power of two).
  std::size_t queue_capacity = 65536;
  std::size_t producers = 2;        ///< Synthetic producer threads.
  bool bursty = true;               ///< Bursty workload (Figs. 6-7 regime).
  /// Data-paced slots: a slot closes when every producer finished it and
  /// the queue drained, instead of on the wall clock. Deterministic —
  /// used by tests, CI and the replay-identity gates; `slot_ms` then
  /// only serves as the decide-latency deadline.
  bool paced = false;
  /// Per-shed-request delay penalty folded into the slot objective —
  /// the same accounting fault::FaultInjector applies to admission-shed
  /// requests (fault::FaultOptions::shed_penalty_ms).
  double shed_penalty_ms = 250.0;
  /// Producer push retries before an event is shed (wall mode).
  /// Retries back off exponentially — yields first, then escalating
  /// microsleeps — so a transiently full ring costs retries, not shed
  /// events. Paced producers retry until the collector catches up and
  /// never shed.
  std::size_t submit_retries = 64;
  /// Checkpoint the full decision state every N completed slots
  /// (0 = off). Requires a trace (checkpoints store trace offsets for
  /// crash-consistent resume).
  std::size_t checkpoint_every = 0;
  /// Checkpoint file ("" = `trace_out` + ".ckpt").
  std::string checkpoint_path;
  /// Restore state from `checkpoint_path` and continue serving at the
  /// checkpointed slot + 1 (the trace's torn tail is truncated back to
  /// the checkpointed offset). Throws ResumeMismatch on a recipe or
  /// trace mismatch.
  bool resume = false;
  /// Paced mode only: keep each slot open at least this many wall-clock
  /// ms even after every producer finished it. Snapshot contents are
  /// unchanged (producers are done); this merely slows the slot cadence
  /// so crash tests can land a SIGKILL mid-run deterministically.
  std::size_t paced_min_slot_ms = 0;
  /// Decide-deadline watchdog (wall-clock mode only; paced runs are
  /// deterministic and never degraded). After one over-budget decide the
  /// next slot's decide is hinted straight to the degraded solver; after
  /// two consecutive misses the next slot re-commits the previous
  /// placement without deciding at all. Both events are recorded in the
  /// trace's per-record flags, so replay stays bit-identical.
  bool watchdog = true;
  std::string trace_out;            ///< Trace file ("" = off).
  std::string prom_out;             ///< Live Prometheus dump path ("" = off).
};

/// The scenario recipe shared by the daemon and trace replay: both sides
/// must materialise the identical problem instance from a ServeOptions,
/// or replayed decisions could not be compared bit-for-bit.
sim::ScenarioParams scenario_params(const ServeOptions& options);

/// The latest decision committed by the decide worker, published
/// atomically for the query API.
struct CommittedDecision {
  std::size_t slot = 0;  ///< Slot the decision was committed for.
  std::vector<std::size_t> station_of_request;  ///< Routing per request.
  std::vector<std::vector<bool>> cached;        ///< cached[k][i].
};

/// End-of-run summary.
struct ServeReport {
  std::size_t slots_served = 0;
  std::uint64_t ingested = 0;       ///< Events folded into snapshots.
  std::uint64_t shed = 0;           ///< Events shed by admission control.
  std::uint64_t ingest_retries = 0; ///< Producer pushes retried (backoff).
  std::uint64_t ingest_gave_up = 0; ///< Events shed after the retry cap.
  double mean_delay_ms = 0.0;       ///< Mean realised slot objective.
  double p99_decide_ms = 0.0;       ///< p99 decide() wall-clock.
  double max_decide_ms = 0.0;
  std::size_t deadline_misses = 0;  ///< Slots whose decide() ran past slot_ms.
  std::size_t watchdog_recommits = 0;  ///< Slots re-committed by the watchdog.
  std::size_t watchdog_degraded = 0;   ///< Slots decided under a degraded hint.
  bool stopped_early = false;       ///< True when a stop request cut the run.
};

/// The streaming decision service. Lifecycle: construct → start() →
/// (submit / queries / request_stop) → join(). One run per instance.
class SlotService {
 public:
  /// Materialises the scenario (topology, workload, demand sample paths,
  /// problem) and the pipeline state; throws common::InvalidArgument on
  /// degenerate configs (0 slots, > 65535 stations, ...).
  explicit SlotService(ServeOptions options);
  ~SlotService();
  SlotService(const SlotService&) = delete;
  SlotService& operator=(const SlotService&) = delete;

  const ServeOptions& options() const noexcept { return options_; }
  const sim::Scenario& scenario() const noexcept { return *scenario_; }

  /// Launches the collector, decide worker and (when options_.producers
  /// > 0) the synthetic producers.
  void start();

  /// Asks the pipeline to stop after the slot currently being ingested:
  /// the collector closes it, the decide worker finishes it, the trace
  /// is sealed. Safe to call from a signal-triggered thread.
  void request_stop() noexcept { stop_.store(true, std::memory_order_release); }

  /// True until join() completes.
  bool running() const noexcept { return running_.load(std::memory_order_acquire); }

  /// Waits for the pipeline to finish (horizon served or stop
  /// requested), seals the trace, and returns the run summary.
  ServeReport join();

  /// External producer API: contributes `demand` units for `request` to
  /// slot `slot`'s snapshot. Returns false when the event was shed
  /// (ring full after the configured retries). Thread-safe; callers
  /// must not submit a given request id concurrently from two threads.
  bool submit(std::uint32_t request, std::uint32_t slot, double demand);

  /// Marks one producer done with slot `slot` (paced-mode close
  /// condition). Synthetic producers call this internally.
  void producer_done(std::size_t slot);

  /// Slot currently open for ingest (-1 before start()).
  std::int64_t open_slot() const noexcept {
    return open_slot_.load(std::memory_order_acquire);
  }

  /// Latest committed decision (null until the first slot commits).
  std::shared_ptr<const CommittedDecision> committed() const {
    std::lock_guard<std::mutex> lock(committed_mu_);
    return committed_;
  }

  /// Answers one line-delimited JSON query (see DESIGN.md §14):
  ///   {"q":"request","id":L} → serving station of request L
  ///   {"q":"service","id":K} → stations caching service K
  ///   {"q":"stats"}          → live counters
  /// Always returns a single JSON line (an {"error":...} object for
  /// malformed queries). Thread-safe.
  std::string handle_query(const std::string& line) const;

  /// Per-slot records of the run (valid after join()).
  const std::vector<sim::SlotRecord>& slot_records() const noexcept {
    return slot_records_;
  }

  /// First slot this run serves (> 0 after a resume).
  std::size_t start_slot() const noexcept { return start_slot_; }

  /// Producer pushes retried against a full ring so far.
  std::uint64_t ingest_retries() const noexcept {
    return ingest_retries_.load(std::memory_order_relaxed);
  }
  /// Events shed after exhausting the retry cap so far.
  std::uint64_t ingest_gave_up() const noexcept {
    return ingest_gave_up_.load(std::memory_order_relaxed);
  }

 private:
  struct SlotBatch {
    std::size_t slot = 0;
    std::vector<double> snapshot;
    std::uint32_t ingested = 0;
    std::uint32_t shed = 0;
    double ingest_wall_ms = 0.0;  ///< Wall-clock the slot spent open.
    std::size_t queue_depth = 0;  ///< Queue backlog at close.
  };

  void collector_loop();
  void decide_loop();
  void producer_loop(std::size_t producer_index);
  void commit(std::size_t slot);
  void export_prometheus() const;
  void resume_from_checkpoint();
  void write_slot_checkpoint(std::size_t t);

  ServeOptions options_;
  std::unique_ptr<sim::Scenario> scenario_;
  std::unique_ptr<MpscRing> queue_;
  std::unique_ptr<algorithms::OnlineCachingAlgorithm> algorithm_;
  std::unique_ptr<sim::SlotEngine> engine_;
  std::unique_ptr<TraceWriter> trace_;

  std::atomic<bool> stop_{false};
  std::atomic<bool> running_{false};
  // Producers the paced close condition waits for: options_.producers, or
  // 1 when an external driver feeds submit()/producer_done() itself.
  std::size_t producer_count_ = 1;
  std::atomic<std::int64_t> open_slot_{-1};
  std::vector<std::atomic<std::uint32_t>> producers_done_;  // per slot
  std::vector<std::atomic<std::uint32_t>> shed_per_slot_;
  std::atomic<std::uint64_t> ingested_total_{0};
  std::atomic<std::uint64_t> shed_total_{0};
  std::atomic<std::uint64_t> ingest_retries_{0};
  std::atomic<std::uint64_t> ingest_gave_up_{0};

  // Resume / checkpoint state. served_* are decide-side tallies (only
  // slots whose decision committed), so a checkpoint never counts a
  // slot the resumed run will re-ingest.
  std::size_t start_slot_ = 0;
  std::uint64_t served_ingested_ = 0;
  std::uint64_t served_shed_ = 0;

  // Watchdog state (decide worker only).
  std::size_t watchdog_streak_ = 0;
  std::size_t watchdog_recommits_ = 0;
  std::size_t watchdog_degraded_ = 0;

  // One-deep handoff between collector and decide worker: the pipeline
  // overlap is exactly "collector accumulates t+1 while decide runs t";
  // a deeper buffer would only hide a decide path that cannot keep up.
  std::mutex handoff_mu_;
  std::condition_variable handoff_push_cv_;
  std::condition_variable handoff_pop_cv_;
  std::optional<SlotBatch> pending_;
  bool ingest_finished_ = false;

  mutable std::mutex committed_mu_;
  std::shared_ptr<const CommittedDecision> committed_;
  std::vector<sim::SlotRecord> slot_records_;
  std::size_t deadline_misses_ = 0;
  bool stopped_early_ = false;

  std::vector<std::thread> threads_;
  bool joined_ = false;
  ServeReport report_;  // cached by join()
};

}  // namespace mecsc::serve

#endif  // MECSC_SERVE_SERVICE_H
