// Tests for the serve ingest queue: Vyukov-style MPSC ring semantics
// (FIFO, bounded, exact delivery under producer contention). The stress
// tests here are the ones CI additionally runs under ThreadSanitizer.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "serve/ingest_queue.h"

namespace mecsc::serve {
namespace {

TEST(MpscRing, FifoSingleThreaded) {
  MpscRing ring(8);
  EXPECT_EQ(ring.capacity(), 8u);
  for (std::uint32_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(ring.try_push({i, 0, static_cast<double>(i)}));
  }
  EXPECT_EQ(ring.approx_size(), 5u);
  IngestEvent ev;
  for (std::uint32_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(ring.try_pop(ev));
    EXPECT_EQ(ev.request, i);
    EXPECT_DOUBLE_EQ(ev.demand, static_cast<double>(i));
  }
  EXPECT_FALSE(ring.try_pop(ev));
  EXPECT_EQ(ring.approx_size(), 0u);
}

TEST(MpscRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(MpscRing(1).capacity(), 4u);
  EXPECT_EQ(MpscRing(5).capacity(), 8u);
  EXPECT_EQ(MpscRing(64).capacity(), 64u);
}

TEST(MpscRing, FullRingRejectsWithoutBlocking) {
  MpscRing ring(4);
  for (std::uint32_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(ring.try_push({i, 0, 1.0}));
  }
  EXPECT_FALSE(ring.try_push({99, 0, 1.0}));
  IngestEvent ev;
  ASSERT_TRUE(ring.try_pop(ev));
  EXPECT_EQ(ev.request, 0u);
  // The freed cell is reusable immediately.
  EXPECT_TRUE(ring.try_push({99, 0, 1.0}));
  EXPECT_FALSE(ring.try_push({100, 0, 1.0}));
}

// The load-bearing property: N producers × M events each, a concurrent
// consumer, and every single event arrives exactly once — no losses, no
// duplicates — even though producers contend on full rings.
TEST(MpscRing, StressExactDeliveryUnderContention) {
  constexpr std::size_t kProducers = 4;
  constexpr std::uint32_t kPerProducer = 20000;
  MpscRing ring(256);  // small on purpose: constant full-ring pressure

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ring, p] {
      for (std::uint32_t i = 0; i < kPerProducer; ++i) {
        const std::uint32_t payload =
            static_cast<std::uint32_t>(p) * kPerProducer + i;
        while (!ring.try_push({payload, 0, 1.0})) {
          std::this_thread::yield();
        }
      }
    });
  }

  std::vector<std::uint8_t> seen(kProducers * kPerProducer, 0);
  std::size_t received = 0;
  IngestEvent ev;
  while (received < kProducers * kPerProducer) {
    if (ring.try_pop(ev)) {
      ASSERT_LT(ev.request, seen.size());
      ASSERT_EQ(seen[ev.request], 0) << "duplicate delivery of " << ev.request;
      seen[ev.request] = 1;
      ++received;
    } else {
      std::this_thread::yield();
    }
  }
  for (std::thread& t : producers) t.join();
  EXPECT_FALSE(ring.try_pop(ev));  // nothing left behind
  for (std::size_t i = 0; i < seen.size(); ++i) {
    ASSERT_EQ(seen[i], 1) << "event " << i << " lost";
  }
}

// Per-producer FIFO: one producer's events arrive in submission order
// even with another producer interleaving.
TEST(MpscRing, PerProducerOrderPreserved) {
  MpscRing ring(64);
  constexpr std::uint32_t kEach = 5000;
  std::thread a([&ring] {
    for (std::uint32_t i = 0; i < kEach; ++i) {
      while (!ring.try_push({i, 0, 1.0})) std::this_thread::yield();
    }
  });
  std::thread b([&ring] {
    for (std::uint32_t i = 0; i < kEach; ++i) {
      while (!ring.try_push({kEach + i, 1, 1.0})) std::this_thread::yield();
    }
  });
  std::uint32_t next_a = 0;
  std::uint32_t next_b = kEach;
  std::size_t received = 0;
  IngestEvent ev;
  while (received < 2 * kEach) {
    if (!ring.try_pop(ev)) {
      std::this_thread::yield();
      continue;
    }
    if (ev.slot == 0) {
      ASSERT_EQ(ev.request, next_a++);
    } else {
      ASSERT_EQ(ev.request, next_b++);
    }
    ++received;
  }
  a.join();
  b.join();
}

}  // namespace
}  // namespace mecsc::serve
