#ifndef MECSC_SERVE_INGEST_QUEUE_H
#define MECSC_SERVE_INGEST_QUEUE_H

// Lock-free ingest queue of the mecsc::serve subsystem (DESIGN.md
// "Streaming service architecture").
//
// Requests enter the service through this queue: producers (network
// front-ends, synthetic generators, trace replayers) push IngestEvents
// into one ring, and the single collector thread drains it when
// accumulating a slot's demand snapshot.
//
// The ring is a bounded MPSC queue in the style of Vyukov's bounded
// MPMC queue: every cell carries a sequence counter, producers claim
// cells with one CAS on the enqueue cursor, and the (single) consumer
// releases cells by bumping their sequence one lap forward. No locks,
// no allocation after construction; a full ring rejects the push, which
// is the backpressure signal the admission layer turns into load
// shedding.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace mecsc::serve {

/// One ingested demand contribution: request `request` adds `demand`
/// data units to slot `slot`'s snapshot.
struct IngestEvent {
  std::uint32_t request = 0;  ///< Request id (index into the problem's R).
  std::uint32_t slot = 0;     ///< Slot the producer stamps the event with.
  double demand = 0.0;        ///< Demand units contributed (ρ share).
};

/// Bounded lock-free multi-producer single-consumer ring.
class MpscRing {
 public:
  /// Capacity is rounded up to the next power of two (min 4).
  explicit MpscRing(std::size_t capacity);
  MpscRing(const MpscRing&) = delete;
  MpscRing& operator=(const MpscRing&) = delete;

  /// Producer side: claims a cell and publishes `ev`. Returns false when
  /// the ring is full (never blocks, never spuriously fails when space
  /// is available).
  bool try_push(const IngestEvent& ev) noexcept;

  /// Consumer side (single consumer only): pops the oldest event.
  bool try_pop(IngestEvent& out) noexcept;

  /// Rounded-up cell count.
  std::size_t capacity() const noexcept { return mask_ + 1; }

  /// Approximate number of queued events (exact when quiescent).
  std::size_t approx_size() const noexcept;

 private:
  struct Cell {
    std::atomic<std::uint64_t> seq;
    IngestEvent ev;
  };

  std::unique_ptr<Cell[]> cells_;
  std::size_t mask_ = 0;
  alignas(64) std::atomic<std::uint64_t> enqueue_{0};
  alignas(64) std::atomic<std::uint64_t> dequeue_{0};
};

}  // namespace mecsc::serve

#endif  // MECSC_SERVE_INGEST_QUEUE_H
