#include "serve/ingest_queue.h"

namespace mecsc::serve {

namespace {

std::size_t round_up_pow2(std::size_t v) {
  std::size_t p = 4;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

MpscRing::MpscRing(std::size_t capacity) {
  const std::size_t cap = round_up_pow2(capacity);
  mask_ = cap - 1;
  cells_ = std::make_unique<Cell[]>(cap);
  for (std::size_t i = 0; i < cap; ++i) {
    cells_[i].seq.store(i, std::memory_order_relaxed);
  }
}

bool MpscRing::try_push(const IngestEvent& ev) noexcept {
  std::uint64_t pos = enqueue_.load(std::memory_order_relaxed);
  for (;;) {
    Cell& cell = cells_[pos & mask_];
    const std::uint64_t seq = cell.seq.load(std::memory_order_acquire);
    const std::int64_t diff =
        static_cast<std::int64_t>(seq) - static_cast<std::int64_t>(pos);
    if (diff == 0) {
      // Cell is free for lap `pos`; claim it with one CAS on the cursor.
      if (enqueue_.compare_exchange_weak(pos, pos + 1,
                                         std::memory_order_relaxed)) {
        cell.ev = ev;
        cell.seq.store(pos + 1, std::memory_order_release);
        return true;
      }
      // CAS reloaded `pos`; retry with the fresh cursor.
    } else if (diff < 0) {
      // The cell still holds last lap's event: the ring is full.
      return false;
    } else {
      // Another producer claimed `pos` between our loads.
      pos = enqueue_.load(std::memory_order_relaxed);
    }
  }
}

bool MpscRing::try_pop(IngestEvent& out) noexcept {
  const std::uint64_t pos = dequeue_.load(std::memory_order_relaxed);
  Cell& cell = cells_[pos & mask_];
  const std::uint64_t seq = cell.seq.load(std::memory_order_acquire);
  const std::int64_t diff =
      static_cast<std::int64_t>(seq) - static_cast<std::int64_t>(pos + 1);
  if (diff < 0) return false;  // next cell not yet published
  out = cell.ev;
  // Release the cell for the producers' next lap.
  cell.seq.store(pos + mask_ + 1, std::memory_order_release);
  dequeue_.store(pos + 1, std::memory_order_relaxed);
  return true;
}

std::size_t MpscRing::approx_size() const noexcept {
  const std::uint64_t e = enqueue_.load(std::memory_order_relaxed);
  const std::uint64_t d = dequeue_.load(std::memory_order_relaxed);
  return e >= d ? static_cast<std::size_t>(e - d) : 0;
}

}  // namespace mecsc::serve
