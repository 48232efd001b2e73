// Streaming-service bench (DESIGN.md §14): exercises the mecsc::serve
// subsystem end to end and enforces its acceptance gates.
//
//   1. Raw ingest throughput: multiple producers push demand events
//      through the service's lock-free MpscRing against a concurrently
//      draining consumer. Gate: >= 1M events/s.
//   2. Pipelined slot service at the paper's 100-station scale: a paced
//      run through the full predict -> aggregate -> LP -> round path.
//      Gate: p99 decide latency below the slot deadline.
//   3. Record/replay determinism: the run's trace replayed through the
//      batch decision engine. Gate: bit-for-bit identical decisions.
//
// Results are printed as tables and written to BENCH_serve.json.
// `--quick` shrinks event counts and the horizon for the CTest
// perf-smoke label; every gate stays enforced.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/table.h"
#include "serve/ingest_queue.h"
#include "serve/replay.h"
#include "serve/service.h"

namespace {

using Clock = std::chrono::steady_clock;
using mecsc::serve::IngestEvent;
using mecsc::serve::MpscRing;
using mecsc::serve::ReplayResult;
using mecsc::serve::ServeOptions;
using mecsc::serve::ServeReport;
using mecsc::serve::SlotService;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Slot deadline of the part-2 latency gate. Service re-caching slots
/// are coarse (the paper's t indexes periods, not frames), and a full
/// 400-request x 100-station LP+rounding decide measures ~1 s on a
/// laptop core; 2 s keeps the gate meaningful (~2x headroom) without
/// tripping on machine noise.
constexpr std::size_t kSlotDeadlineMs = 2000;

/// Part 1: events/second through the ingest ring under contention, at
/// the service's default ring size.
double ingest_throughput(std::size_t producers, std::size_t events_total) {
  MpscRing queue(ServeOptions{}.queue_capacity);
  const std::size_t per_producer = events_total / producers;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(producers);
  for (std::size_t p = 0; p < producers; ++p) {
    threads.emplace_back([&queue, &go, per_producer] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (std::size_t i = 0; i < per_producer; ++i) {
        const IngestEvent ev{static_cast<std::uint32_t>(i & 0x3FF),
                             static_cast<std::uint32_t>(i >> 10), 1.0};
        while (!queue.try_push(ev)) std::this_thread::yield();
      }
    });
  }
  const std::size_t expected = per_producer * producers;
  const auto start = Clock::now();
  go.store(true, std::memory_order_release);
  std::size_t drained = 0;
  IngestEvent ev;
  while (drained < expected) {
    if (queue.try_pop(ev)) {
      ++drained;
    } else {
      std::this_thread::yield();
    }
  }
  const auto stop = Clock::now();
  for (std::thread& t : threads) t.join();
  return static_cast<double>(drained) / seconds_between(start, stop);
}

void write_json(double events_per_sec, const ServeReport& report,
                const ServeOptions& options, const ReplayResult& replay,
                bool quick) {
  std::ofstream out("BENCH_serve.json");
  out << "{\n  " << mecsc::bench::json_meta() << ",\n  \"quick\": "
      << (quick ? "true" : "false") << ",\n  \"ingest\": {\"events_per_sec\": "
      << events_per_sec << "},\n  \"service\": {\"stations\": "
      << options.num_stations << ", \"requests\": " << options.num_requests
      << ", \"slots_served\": " << report.slots_served
      << ", \"ingested\": " << report.ingested << ", \"shed\": " << report.shed
      << ", \"mean_delay_ms\": " << report.mean_delay_ms
      << ", \"p99_decide_ms\": " << report.p99_decide_ms
      << ", \"max_decide_ms\": " << report.max_decide_ms
      << ", \"deadline_ms\": " << options.slot_ms
      << ", \"deadline_misses\": " << report.deadline_misses
      << "},\n  \"replay\": {\"bit_identical\": "
      << (replay.bit_identical ? "true" : "false")
      << ", \"sealed\": " << (replay.sealed ? "true" : "false")
      << ", \"slots_compared\": " << replay.slots_compared << "}\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  mecsc::bench::print_header(
      std::string("Streaming decision service: lock-free ingest, pipelined "
                  "slots, trace replay") +
          (quick ? " [--quick]" : ""),
      "DESIGN.md §14; BENCH_serve.json");

  std::vector<std::string> gate_failures;

  // --- 1. Ingest throughput (gate: >= 1M events/s). -----------------------
  const std::size_t producers = 4;
  const std::size_t events = quick ? 1'000'000 : 4'000'000;
  const double events_per_sec = ingest_throughput(producers, events);
  {
    mecsc::common::Table table({"producers", "events", "events/s"});
    char rate[64];
    std::snprintf(rate, sizeof(rate), "%.3g", events_per_sec);
    table.add_row({std::to_string(producers), std::to_string(events), rate});
    mecsc::bench::print_table("ingest throughput", table);
  }
  if (events_per_sec < 1e6) {
    gate_failures.push_back("ingest throughput below 1M events/s");
  }

  // --- 2. Pipelined service at 100 stations (gate: p99 < deadline). -------
  ServeOptions options;
  options.seed = 1;
  options.num_stations = 100;
  options.num_requests = quick ? 200 : 400;
  options.num_services = 10;
  options.horizon = quick ? 12 : 60;
  options.slot_ms = kSlotDeadlineMs;
  options.producers = 4;
  options.paced = true;  // deterministic; slot_ms stays the latency deadline
  options.trace_out = "BENCH_serve.trace";
  // Durable checkpoints on: the crash-consistent write path (serialise
  // + fsync + rename, on the decide thread between slots) runs under
  // every gate below, so durability can't silently regress the service.
  options.checkpoint_every = 5;
  ServeReport report;
  {
    SlotService service(options);
    service.start();
    report = service.join();
  }
  {
    mecsc::common::Table table({"slots", "ingested", "shed", "mean delay ms",
                                "p99 decide ms", "deadline ms", "misses"});
    char mean[32], p99[32];
    std::snprintf(mean, sizeof(mean), "%.3f", report.mean_delay_ms);
    std::snprintf(p99, sizeof(p99), "%.3f", report.p99_decide_ms);
    table.add_row({std::to_string(report.slots_served),
                   std::to_string(report.ingested),
                   std::to_string(report.shed), mean, p99,
                   std::to_string(options.slot_ms),
                   std::to_string(report.deadline_misses)});
    mecsc::bench::print_table("pipelined slot service (100 stations)", table);
  }
  if (report.slots_served != options.horizon) {
    gate_failures.push_back("service did not serve the full horizon");
  }
  if (report.p99_decide_ms >= static_cast<double>(options.slot_ms)) {
    gate_failures.push_back("p99 decide latency at/above the slot deadline");
  }

  // --- 3. Replay bit-identity (gate: identical decisions). ----------------
  const ReplayResult replay = mecsc::serve::replay_trace("BENCH_serve.trace");
  {
    mecsc::common::Table table({"slots compared", "sealed", "bit identical"});
    table.add_row({std::to_string(replay.slots_compared),
                   replay.sealed ? "yes" : "no",
                   replay.bit_identical ? "yes" : "no"});
    mecsc::bench::print_table("trace record/replay", table);
  }
  if (!replay.bit_identical || !replay.sealed) {
    gate_failures.push_back("trace replay not bit-identical: " + replay.detail);
  }

  write_json(events_per_sec, report, options, replay, quick);
  std::cout << "\nBENCH_serve.json written\n";
  mecsc::bench::dump_telemetry();

  if (!gate_failures.empty()) {
    for (const std::string& failure : gate_failures) {
      std::cerr << "GATE FAILURE: " << failure << "\n";
    }
    return 1;
  }
  std::cout << "all serve gates passed\n";
  return 0;
}
