// mecsc_serve — the long-running streaming decision daemon (DESIGN.md
// "Streaming service architecture").
//
// Boots a SlotService over a seeded scenario: synthetic producers push
// demand events into the lock-free ingest ring, the wall-clock (or
// paced) slot scheduler closes per-slot snapshots, and the pipelined
// decide path commits caching/routing decisions slot by slot. With
// --queries the daemon answers line-delimited JSON queries on
// stdin/stdout from the latest committed decision; stdout is reserved
// for those responses, all logs go to stderr. SIGINT/SIGTERM drain the
// slot in flight, seal the trace, flush telemetry and exit 0.
//
//   mecsc_serve --slots 200 --trace-out run.trace --prom-out serve.prom
//   mecsc_serve --verify run.trace        # replay bit-identity check
//   mecsc_serve --trace-out run.trace --checkpoint-every 25   # durable
//   mecsc_serve --trace-out run.trace --resume                # after crash
//
// The daemon is configured by its flags alone; unset flags keep the
// ServeOptions defaults.
//
// Exit codes: 0 success, 1 replay divergence or runtime failure,
// 2 usage, 3 corrupt/torn trace, 4 resume/checkpoint mismatch.

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "common/error.h"
#include "serve/replay.h"
#include "serve/service.h"

namespace {

std::atomic<mecsc::serve::SlotService*> g_service{nullptr};
// A stop that arrives while the service is still being built (the
// scenario build takes a while at large horizons) has no service to
// reach yet; it is parked here and honoured once the service exists.
std::atomic<bool> g_stop_pending{false};

void handle_signal(int) {
  // Lock-free atomics only — async-signal-safe. The flag is set before
  // the service is read, so a signal racing the publication in main()
  // is seen by one side or the other.
  g_stop_pending.store(true);
  mecsc::serve::SlotService* service = g_service.load();
  if (service != nullptr) service->request_stop();
}

std::size_t parse_size(const char* flag, const char* value) {
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value, &end, 10);
  if (end == value || *end != '\0') {
    std::fprintf(stderr, "mecsc_serve: %s expects a non-negative integer, got \"%s\"\n",
                 flag, value);
    std::exit(2);
  }
  return static_cast<std::size_t>(parsed);
}

void usage() {
  std::fprintf(stderr,
               "usage: mecsc_serve [options]\n"
               "  --stations N     base stations (default 100)\n"
               "  --requests N     request population (default 400)\n"
               "  --services N     service catalogue size (default 10)\n"
               "  --slots N        horizon in slots (default 100)\n"
               "  --seed N         scenario root seed (default 1)\n"
               "  --slot-ms N      slot length in ms (default 100)\n"
               "  --queue-cap N    ingest ring cells (default 65536)\n"
               "  --producers N    synthetic producer threads (default 2)\n"
               "  --paced          data-paced slots (deterministic; tests/CI)\n"
               "  --constant       constant instead of bursty demands\n"
               "  --trace-out P    record a binary trace\n"
               "  --prom-out P     live Prometheus dump file, rewritten per slot\n"
               "  --queries        answer JSON queries on stdin/stdout\n"
               "  --checkpoint-every N  durable checkpoint every N slots\n"
               "                        (needs --trace-out)\n"
               "  --checkpoint-path P   checkpoint file (default <trace>.ckpt)\n"
               "  --resume         restore the checkpoint, truncate the trace's\n"
               "                   torn tail, continue bit-identically\n"
               "  --retry-cap N    bounded submit retries before shedding\n"
               "                   (default 64)\n"
               "  --paced-min-ms N minimum wall time per paced slot (crash tests)\n"
               "  --no-watchdog    disable the decide-deadline watchdog\n"
               "  --verify P       replay trace P, check bit identity\n"
               "  --salvage        with --verify: truncate a torn/corrupt tail at\n"
               "                   the last checksum-valid record, replay the rest\n"
               "exit codes: 0 ok, 1 divergence/runtime, 2 usage, 3 corrupt trace,\n"
               "            4 resume mismatch\n");
}

}  // namespace

int main(int argc, char** argv) {
  using mecsc::serve::ReplayResult;
  using mecsc::serve::ServeOptions;
  using mecsc::serve::ServeReport;
  using mecsc::serve::SlotService;

  ServeOptions options;
  bool queries = false;
  bool salvage = false;
  std::string verify_path;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "mecsc_serve: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(arg, "--stations") == 0) {
      options.num_stations = parse_size(arg, next(arg));
    } else if (std::strcmp(arg, "--requests") == 0) {
      options.num_requests = parse_size(arg, next(arg));
    } else if (std::strcmp(arg, "--services") == 0) {
      options.num_services = parse_size(arg, next(arg));
    } else if (std::strcmp(arg, "--slots") == 0) {
      options.horizon = parse_size(arg, next(arg));
    } else if (std::strcmp(arg, "--seed") == 0) {
      options.seed = parse_size(arg, next(arg));
    } else if (std::strcmp(arg, "--slot-ms") == 0) {
      options.slot_ms = parse_size(arg, next(arg));
    } else if (std::strcmp(arg, "--queue-cap") == 0) {
      options.queue_capacity = parse_size(arg, next(arg));
    } else if (std::strcmp(arg, "--producers") == 0) {
      options.producers = parse_size(arg, next(arg));
    } else if (std::strcmp(arg, "--paced") == 0) {
      options.paced = true;
    } else if (std::strcmp(arg, "--constant") == 0) {
      options.bursty = false;
    } else if (std::strcmp(arg, "--trace-out") == 0) {
      options.trace_out = next(arg);
    } else if (std::strcmp(arg, "--prom-out") == 0) {
      options.prom_out = next(arg);
    } else if (std::strcmp(arg, "--queries") == 0) {
      queries = true;
    } else if (std::strcmp(arg, "--checkpoint-every") == 0) {
      options.checkpoint_every = parse_size(arg, next(arg));
    } else if (std::strcmp(arg, "--checkpoint-path") == 0) {
      options.checkpoint_path = next(arg);
    } else if (std::strcmp(arg, "--resume") == 0) {
      options.resume = true;
    } else if (std::strcmp(arg, "--retry-cap") == 0) {
      options.submit_retries = parse_size(arg, next(arg));
    } else if (std::strcmp(arg, "--paced-min-ms") == 0) {
      options.paced_min_slot_ms = parse_size(arg, next(arg));
    } else if (std::strcmp(arg, "--no-watchdog") == 0) {
      options.watchdog = false;
    } else if (std::strcmp(arg, "--verify") == 0) {
      verify_path = next(arg);
    } else if (std::strcmp(arg, "--salvage") == 0) {
      salvage = true;
    } else if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "mecsc_serve: unknown flag \"%s\"\n", arg);
      usage();
      return 2;
    }
  }

  if (!verify_path.empty()) {
    try {
      mecsc::serve::ReplayOptions replay_options;
      replay_options.salvage = salvage;
      const ReplayResult result =
          mecsc::serve::replay_trace(verify_path, replay_options);
      if (result.salvaged) {
        std::fprintf(stderr,
                     "mecsc_serve: salvage discarded %llu byte(s) past the "
                     "last checksum-valid record (%s)\n",
                     static_cast<unsigned long long>(result.lost_bytes),
                     result.tail_error.c_str());
      }
      if (result.bit_identical && (result.sealed || result.salvaged)) {
        std::fprintf(stderr,
                     "mecsc_serve: %zu slot(s) replayed bit-for-bit, %s\n",
                     result.slots_compared,
                     result.sealed ? "trace sealed" : "salvaged prefix intact");
        return 0;
      }
      if (!result.sealed && !result.salvaged) {
        std::fprintf(stderr, "mecsc_serve: trace is not sealed (no footer)%s%s\n",
                     result.tail_error.empty() ? "" : ": ",
                     result.tail_error.c_str());
      }
      if (!result.detail.empty()) {
        std::fprintf(stderr, "mecsc_serve: %s\n", result.detail.c_str());
      }
      // Bitwise divergence is exit 1; a trace that replays clean but is
      // torn (unsealed, no salvage requested) is the corrupt-trace code.
      return result.bit_identical ? 3 : 1;
    } catch (const mecsc::common::InvalidArgument& e) {
      std::fprintf(stderr, "mecsc_serve: corrupt trace: %s\n", e.what());
      return 3;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "mecsc_serve: replay failed: %s\n", e.what());
      return 1;
    }
  }

  // Handlers go in before the service is built, so a stop during the
  // build drains, seals the trace and exits 0 like any other stop.
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  try {
    SlotService service(options);
    g_service.store(&service);
    if (g_stop_pending.load()) service.request_stop();

    std::fprintf(stderr,
                 "mecsc_serve: %zu stations, %zu requests, %zu slots x %zu ms, "
                 "%zu-cell ingest ring, %s slots%s\n",
                 service.options().num_stations, service.options().num_requests,
                 service.options().horizon, service.options().slot_ms,
                 service.options().queue_capacity,
                 service.options().paced ? "paced" : "wall-clock",
                 service.options().trace_out.empty()
                     ? ""
                     : (", tracing to " + service.options().trace_out).c_str());

    service.start();

    if (queries) {
      // stdout carries only query responses; EOF on stdin ends the loop.
      std::string line;
      while (std::getline(std::cin, line)) {
        if (line.empty()) continue;
        std::cout << service.handle_query(line) << "\n" << std::flush;
      }
    }

    const ServeReport report = service.join();
    g_service.store(nullptr);

    std::fprintf(stderr,
                 "mecsc_serve: served %zu slot(s)%s, ingested %llu, shed %llu, "
                 "mean delay %.3f ms, decide p99 %.3f ms (max %.3f), "
                 "%zu deadline miss(es), %llu submit retr%s (%llu gave up), "
                 "%zu recommit(s)\n",
                 report.slots_served, report.stopped_early ? " (stopped early)" : "",
                 static_cast<unsigned long long>(report.ingested),
                 static_cast<unsigned long long>(report.shed),
                 report.mean_delay_ms, report.p99_decide_ms, report.max_decide_ms,
                 report.deadline_misses,
                 static_cast<unsigned long long>(report.ingest_retries),
                 report.ingest_retries == 1 ? "y" : "ies",
                 static_cast<unsigned long long>(report.ingest_gave_up),
                 report.watchdog_recommits);
    return 0;
  } catch (const mecsc::serve::ResumeMismatch& e) {
    std::fprintf(stderr, "mecsc_serve: resume mismatch: %s\n", e.what());
    return 4;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mecsc_serve: %s\n", e.what());
    return 1;
  }
}
