// Crash-tolerance tests of the mecsc::serve subsystem (DESIGN.md "Crash
// tolerance & recovery"): checkpoint roundtrip and corruption handling,
// the SIGKILL + --resume twin-trace bit-identity contract, torn-tail
// salvage, a deterministic mutation fuzz over the trace parser (every
// byte flip must yield a typed error — never a crash, hang, or
// unbounded allocation), fault-churn trace replay, the bounded
// submit-retry counters, and the daemon's exit-code contract
// (0 ok, 2 usage, 3 corrupt trace, 4 resume mismatch).
//
// Binary paths come from the MECSC_SERVE_BIN / MECSC_TRACE_BIN compile
// definitions.
#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/error.h"
#include "serve/checkpoint.h"
#include "serve/replay.h"
#include "serve/service.h"
#include "serve/trace_io.h"

namespace {

using mecsc::serve::Checkpoint;
using mecsc::serve::inspect_trace;
using mecsc::serve::kSlotFlagFaults;
using mecsc::serve::read_checkpoint;
using mecsc::serve::ReplayOptions;
using mecsc::serve::ReplayResult;
using mecsc::serve::replay_trace;
using mecsc::serve::ServeOptions;
using mecsc::serve::SlotService;
using mecsc::serve::SlotTraceRecord;
using mecsc::serve::TraceConfig;
using mecsc::serve::TraceInspection;
using mecsc::serve::TraceReader;
using mecsc::serve::trace_well_formed;
using mecsc::serve::write_checkpoint;

std::string daemon_bin() { return MECSC_SERVE_BIN; }
std::string trace_bin() { return MECSC_TRACE_BIN; }

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "mecsc_crash_" + name;
}

int run_command(const std::string& command) {
  const int status = std::system(command.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::vector<SlotTraceRecord> read_records(const std::string& path,
                                          bool* sealed = nullptr) {
  TraceReader reader(path);
  std::vector<SlotTraceRecord> records;
  SlotTraceRecord rec;
  while (reader.next(rec)) records.push_back(rec);
  if (sealed != nullptr) *sealed = reader.saw_footer();
  return records;
}

/// Twin-trace equality: every recorded field except decide_ms, which is
/// wall-clock timing and legitimately differs between the two runs.
void expect_same_records_modulo_timing(const std::string& path_a,
                                       const std::string& path_b) {
  bool sealed_a = false;
  bool sealed_b = false;
  const std::vector<SlotTraceRecord> a = read_records(path_a, &sealed_a);
  const std::vector<SlotTraceRecord> b = read_records(path_b, &sealed_b);
  EXPECT_TRUE(sealed_a);
  EXPECT_TRUE(sealed_b);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t t = 0; t < a.size(); ++t) {
    SCOPED_TRACE("slot " + std::to_string(t));
    EXPECT_EQ(a[t].slot, b[t].slot);
    EXPECT_EQ(a[t].demands, b[t].demands);
    EXPECT_EQ(a[t].unit_delays, b[t].unit_delays);
    EXPECT_EQ(a[t].station_of_request, b[t].station_of_request);
    EXPECT_EQ(a[t].cached_bits, b[t].cached_bits);
    EXPECT_EQ(a[t].ingested, b[t].ingested);
    EXPECT_EQ(a[t].shed, b[t].shed);
    EXPECT_EQ(a[t].shed_penalty_ms, b[t].shed_penalty_ms);
    EXPECT_EQ(a[t].avg_delay_ms, b[t].avg_delay_ms);
    EXPECT_EQ(a[t].flags, b[t].flags);
    EXPECT_EQ(a[t].station_up, b[t].station_up);
    EXPECT_EQ(a[t].feedback_lost, b[t].feedback_lost);
    EXPECT_EQ(a[t].effective_capacity_mhz, b[t].effective_capacity_mhz);
    EXPECT_EQ(a[t].outage_penalty_factor, b[t].outage_penalty_factor);
    EXPECT_EQ(a[t].fault_shed_requests, b[t].fault_shed_requests);
    EXPECT_EQ(a[t].fault_shed_penalty_ms, b[t].fault_shed_penalty_ms);
  }
}

TEST(Checkpoint, RoundtripsEveryField) {
  const std::string path = temp_path("roundtrip.ckpt");
  Checkpoint ckpt;
  ckpt.config.seed = 42;
  ckpt.config.num_stations = 7;
  ckpt.config.num_requests = 19;
  ckpt.config.faults = 1;
  ckpt.config.solver = 3;  // lagrangian (format v3 recipe field)
  ckpt.slot = 14;
  ckpt.trace_records = 15;
  ckpt.trace_offset = 12345;
  ckpt.ingested = 900;
  ckpt.shed = 3;
  ckpt.ingest_retries = 11;
  ckpt.ingest_gave_up = 2;
  ckpt.algo.bandit_theta = {0.5, 1.25, -3.0};
  ckpt.algo.bandit_plays = {4, 0, 9};
  ckpt.algo.bandit_total_plays = 13;
  ckpt.algo.rng_stream = "1234 5678 42";
  ckpt.algo.lag_warm.lambda = {0.0, 0.125, 9.5};  // format v2 dual state
  ckpt.algo.lag_warm.step_scale = 0.75;
  ckpt.engine.has_decision = true;
  ckpt.engine.decision.station_of_request = {0, 2, 1};
  ckpt.engine.decision.cached = {{true, false}, {false, true}};
  ckpt.engine.prev_cached = {{false, true}, {true, true}};

  write_checkpoint(path, ckpt);
  const Checkpoint back = read_checkpoint(path);
  EXPECT_TRUE(mecsc::serve::same_trace_config(ckpt.config, back.config));
  EXPECT_EQ(back.slot, 14u);
  EXPECT_EQ(back.trace_records, 15u);
  EXPECT_EQ(back.trace_offset, 12345u);
  EXPECT_EQ(back.ingested, 900u);
  EXPECT_EQ(back.shed, 3u);
  EXPECT_EQ(back.ingest_retries, 11u);
  EXPECT_EQ(back.ingest_gave_up, 2u);
  EXPECT_EQ(back.algo.bandit_theta, ckpt.algo.bandit_theta);
  EXPECT_EQ(back.algo.bandit_plays, ckpt.algo.bandit_plays);
  EXPECT_EQ(back.algo.bandit_total_plays, 13u);
  EXPECT_EQ(back.algo.rng_stream, "1234 5678 42");
  EXPECT_EQ(back.config.solver, 3);
  EXPECT_EQ(back.algo.lag_warm.lambda, ckpt.algo.lag_warm.lambda);
  EXPECT_EQ(back.algo.lag_warm.step_scale, ckpt.algo.lag_warm.step_scale);
  EXPECT_TRUE(back.engine.has_decision);
  EXPECT_EQ(back.engine.decision.station_of_request,
            ckpt.engine.decision.station_of_request);
  EXPECT_EQ(back.engine.decision.cached, ckpt.engine.decision.cached);
  EXPECT_EQ(back.engine.prev_cached, ckpt.engine.prev_cached);
  std::remove(path.c_str());
}

TEST(Checkpoint, EveryByteFlipIsATypedError) {
  const std::string path = temp_path("fuzz.ckpt");
  const std::string mutant = temp_path("fuzz_mutant.ckpt");
  Checkpoint ckpt;
  ckpt.slot = 3;
  ckpt.algo.bandit_theta = {1.0, 2.0};
  ckpt.algo.bandit_plays = {1, 2};
  ckpt.algo.rng_stream = "99 100";
  ckpt.engine.has_decision = true;
  ckpt.engine.decision.station_of_request = {1};
  ckpt.engine.decision.cached = {{true}};
  write_checkpoint(path, ckpt);

  const std::string bytes = read_file(path);
  ASSERT_FALSE(bytes.empty());
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string corrupted = bytes;
    corrupted[i] = static_cast<char>(corrupted[i] ^ 0xFF);
    write_file(mutant, corrupted);
    // Checksummed end to end: any flip must surface as the typed error,
    // never as a crash, UB, or a silently-wrong checkpoint.
    EXPECT_THROW(read_checkpoint(mutant), mecsc::common::InvalidArgument)
        << "byte " << i;
  }
  // Truncations too (including an empty file).
  for (std::size_t keep = 0; keep < bytes.size(); keep += 7) {
    write_file(mutant, bytes.substr(0, keep));
    EXPECT_THROW(read_checkpoint(mutant), mecsc::common::InvalidArgument)
        << "truncated to " << keep;
  }
  std::remove(path.c_str());
  std::remove(mutant.c_str());
}

// Format v3 dropped the simplex warm-start basis; the version check
// refuses a v2 file instead of misreading its layout.
TEST(Checkpoint, RefusesVersion2) {
  const std::string path = temp_path("v2.ckpt");
  Checkpoint ckpt;
  ckpt.algo.rng_stream = "7 8";
  write_checkpoint(path, ckpt);
  std::string bytes = read_file(path);
  ASSERT_GE(bytes.size(), 6u);
  bytes[4] = 2;  // the little-endian u16 version follows the 4-byte magic
  bytes[5] = 0;
  write_file(path, bytes);
  try {
    (void)read_checkpoint(path);
    ADD_FAILURE() << "a v2 checkpoint was accepted";
  } catch (const mecsc::common::InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported checkpoint version"),
              std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

// The tentpole acceptance test: SIGKILL the daemon mid-run, --resume,
// and the completed trace must carry the exact decisions, snapshots,
// and objectives of a twin run that was never killed.
TEST(CrashResume, SigkillThenResumeMatchesUninterruptedTwin) {
  const std::string trace_a = temp_path("twin_a.trace");
  const std::string trace_b = temp_path("twin_b.trace");
  const std::string args =
      " --stations 18 --requests 50 --services 5 --slots 24 --seed 11"
      " --paced --checkpoint-every 5";

  // Twin A: uninterrupted reference run.
  ASSERT_EQ(run_command(daemon_bin() + args + " --trace-out " + trace_a +
                        " 2>/dev/null"),
            0);

  // Twin B: slowed paced slots so the SIGKILL lands mid-run, after at
  // least one checkpoint (polled below) but far from the end.
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    execl(daemon_bin().c_str(), "mecsc_serve", "--stations", "18",
          "--requests", "50", "--services", "5", "--slots", "24", "--seed",
          "11", "--paced", "--paced-min-ms", "50", "--checkpoint-every", "5",
          "--trace-out", trace_b.c_str(), (char*)nullptr);
    _exit(127);
  }
  const std::string ckpt_b = trace_b + ".ckpt";
  for (int i = 0; i < 2000; ++i) {
    std::ifstream probe(ckpt_b, std::ios::binary);
    if (probe.good()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  ASSERT_EQ(kill(pid, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));  // the kill landed mid-run

  // The torn trace is not sealed, but its checksum-valid prefix holds.
  EXPECT_FALSE(trace_well_formed(trace_b));

  // Resume: restore the checkpoint, truncate the torn tail, finish.
  ASSERT_EQ(run_command(daemon_bin() + args + " --trace-out " + trace_b +
                        " --resume 2>/dev/null"),
            0);

  // Both traces replay bit-for-bit, and agree on every recorded field
  // except the wall-clock decide timing.
  EXPECT_EQ(run_command(daemon_bin() + " --verify " + trace_a + " 2>/dev/null"),
            0);
  EXPECT_EQ(run_command(daemon_bin() + " --verify " + trace_b + " 2>/dev/null"),
            0);
  expect_same_records_modulo_timing(trace_a, trace_b);

  std::remove(trace_a.c_str());
  std::remove(trace_b.c_str());
  std::remove(ckpt_b.c_str());
  std::remove((trace_a + ".ckpt").c_str());
}

// The same twin contract under MECSC_SOLVER=lagrangian: the dual warm
// state (λ, step scale) rides in the checkpoint (format v2), so the
// resumed run's subgradient ascent restarts from the exact prices the
// killed run carried — any drift would surface as a record mismatch.
TEST(CrashResume, SigkillThenResumeBitIdenticalUnderLagrangianTier) {
  setenv("MECSC_SOLVER", "lagrangian", 1);
  const std::string trace_a = temp_path("lag_twin_a.trace");
  const std::string trace_b = temp_path("lag_twin_b.trace");
  const std::string args =
      " --stations 14 --requests 40 --services 4 --slots 20 --seed 17"
      " --paced --checkpoint-every 4";

  ASSERT_EQ(run_command(daemon_bin() + args + " --trace-out " + trace_a +
                        " 2>/dev/null"),
            0);

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Inherits MECSC_SOLVER=lagrangian from the setenv above.
    execl(daemon_bin().c_str(), "mecsc_serve", "--stations", "14",
          "--requests", "40", "--services", "4", "--slots", "20", "--seed",
          "17", "--paced", "--paced-min-ms", "50", "--checkpoint-every", "4",
          "--trace-out", trace_b.c_str(), (char*)nullptr);
    _exit(127);
  }
  const std::string ckpt_b = trace_b + ".ckpt";
  for (int i = 0; i < 2000; ++i) {
    std::ifstream probe(ckpt_b, std::ios::binary);
    if (probe.good()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  ASSERT_EQ(kill(pid, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));

  ASSERT_EQ(run_command(daemon_bin() + args + " --trace-out " + trace_b +
                        " --resume 2>/dev/null"),
            0);

  // Replay pins the recorded tier from the trace recipe (format v3), so
  // --verify exercises the Lagrangian path regardless of the env.
  EXPECT_EQ(run_command(daemon_bin() + " --verify " + trace_a + " 2>/dev/null"),
            0);
  EXPECT_EQ(run_command(daemon_bin() + " --verify " + trace_b + " 2>/dev/null"),
            0);
  expect_same_records_modulo_timing(trace_a, trace_b);

  unsetenv("MECSC_SOLVER");
  std::remove(trace_a.c_str());
  std::remove(trace_b.c_str());
  std::remove(ckpt_b.c_str());
  std::remove((trace_a + ".ckpt").c_str());
}

TEST(CrashResume, MismatchedRecipeIsExitCode4) {
  const std::string trace = temp_path("mismatch.trace");
  ASSERT_EQ(run_command(daemon_bin() +
                        " --stations 12 --requests 30 --services 3 --slots 8"
                        " --seed 2 --paced --checkpoint-every 4 --trace-out " +
                        trace + " 2>/dev/null"),
            0);
  // Same trace, different scenario recipe: the checkpoint must be
  // rejected with the dedicated exit code, not silently diverge.
  EXPECT_EQ(run_command(daemon_bin() +
                        " --stations 13 --requests 30 --services 3 --slots 8"
                        " --seed 2 --paced --checkpoint-every 4 --resume"
                        " --trace-out " +
                        trace + " 2>/dev/null"),
            4);
  std::remove(trace.c_str());
  std::remove((trace + ".ckpt").c_str());
}

TEST(Salvage, TornTailTruncatesAtLastValidRecord) {
  const std::string trace = temp_path("salvage.trace");
  const std::string torn = temp_path("salvage_torn.trace");
  ASSERT_EQ(run_command(daemon_bin() +
                        " --stations 14 --requests 36 --services 4 --slots 10"
                        " --seed 6 --paced --trace-out " +
                        trace + " 2>/dev/null"),
            0);
  const std::string bytes = read_file(trace);
  ASSERT_GT(bytes.size(), 400u);
  // Cut mid-record: drop the footer and tear the last record's payload.
  write_file(torn, bytes.substr(0, bytes.size() - 400));

  const TraceInspection whole = inspect_trace(trace);
  const TraceInspection insp = inspect_trace(torn);
  EXPECT_TRUE(whole.sealed);
  EXPECT_FALSE(insp.sealed);
  EXPECT_LT(insp.salvage_records, whole.salvage_records);
  EXPECT_GT(insp.salvage_records, 0u);
  EXPECT_FALSE(insp.tail_error.empty());
  EXPECT_LE(insp.salvage_offset, insp.file_bytes);

  // Plain verify refuses the torn trace with the corrupt-trace exit
  // code; salvage mode replays the intact prefix and reports the loss.
  EXPECT_EQ(run_command(daemon_bin() + " --verify " + torn + " 2>/dev/null"),
            3);
  EXPECT_EQ(run_command(daemon_bin() + " --verify " + torn +
                        " --salvage 2>/dev/null"),
            0);
  ReplayOptions salvage;
  salvage.salvage = true;
  const ReplayResult result = replay_trace(torn, salvage);
  EXPECT_TRUE(result.bit_identical);
  EXPECT_TRUE(result.salvaged);
  EXPECT_EQ(result.slots_compared, insp.salvage_records);
  EXPECT_GT(result.lost_bytes, 0u);

  // The inspector mirrors the split: sealed trace exit 0, torn exit 3.
  EXPECT_EQ(run_command(trace_bin() + " " + trace + " >/dev/null 2>&1"), 0);
  EXPECT_EQ(run_command(trace_bin() + " " + torn + " >/dev/null 2>&1"), 3);
  EXPECT_EQ(run_command(trace_bin() + " >/dev/null 2>&1"), 2);

  std::remove(trace.c_str());
  std::remove(torn.c_str());
}

// Deterministic mutation fuzz over the trace parser: flip every byte of
// a sealed trace and require a typed outcome from the inspection paths
// (damage report or common::InvalidArgument), never a crash, hang, or
// unbounded allocation. Runs under the sanitizer CI leg, which is what
// turns "no crash" into "no UB".
TEST(TraceFuzz, EveryByteFlipYieldsTypedErrorNeverUB) {
  const std::string trace = temp_path("fuzz.trace");
  const std::string mutant = temp_path("fuzz_mutant.trace");
  ASSERT_EQ(run_command(daemon_bin() +
                        " --stations 8 --requests 16 --services 3 --slots 3"
                        " --seed 4 --paced --trace-out " +
                        trace + " 2>/dev/null"),
            0);
  const std::string bytes = read_file(trace);
  ASSERT_FALSE(bytes.empty());
  const TraceInspection clean = inspect_trace(trace);
  ASSERT_TRUE(clean.sealed);
  ASSERT_FALSE(clean.records.empty());
  const std::uint64_t records_start = clean.records.front().offset;

  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string corrupted = bytes;
    corrupted[i] = static_cast<char>(corrupted[i] ^ 0xFF);
    write_file(mutant, corrupted);
    try {
      const TraceInspection insp = inspect_trace(mutant);
      // Reachable records are bounded by what the file can hold.
      EXPECT_LE(insp.salvage_offset, insp.file_bytes) << "byte " << i;
    } catch (const mecsc::common::InvalidArgument&) {
      // Unreadable header — the typed refusal.
    }
    try {
      std::size_t slots = 0;
      (void)trace_well_formed(mutant, &slots);
    } catch (const mecsc::common::InvalidArgument&) {
    }
    // Replay a strided sample of record-region mutants end to end (a
    // header flip rewrites the recipe, which replay may legitimately
    // follow into building a different-sized scenario — inspection
    // covers those bytes instead).
    if (i >= records_start && i % 97 == 0) {
      try {
        ReplayOptions salvage;
        salvage.salvage = true;
        (void)replay_trace(mutant, salvage);
      } catch (const mecsc::common::InvalidArgument&) {
      }
    }
  }
  std::remove(trace.c_str());
  std::remove(mutant.c_str());
}

// Fault-churn composition: a daemon run under MECSC_FAULTS=churn records
// its realised fault state per slot and the trace replays bit-for-bit
// with no fault plan or environment present.
TEST(FaultChurn, ServeTraceReplaysBitIdentical) {
  const std::string trace = temp_path("churn.trace");
  ASSERT_EQ(run_command("MECSC_FAULTS=churn " + daemon_bin() +
                        " --stations 16 --requests 40 --services 4 --slots 12"
                        " --seed 7 --paced --trace-out " +
                        trace + " 2>/dev/null"),
            0);
  const TraceInspection insp = inspect_trace(trace);
  EXPECT_TRUE(insp.sealed);
  EXPECT_EQ(insp.config.faults, 1u);
  std::size_t fault_slots = 0;
  for (const auto& rec : insp.records) {
    if ((rec.flags & kSlotFlagFaults) != 0) ++fault_slots;
  }
  EXPECT_EQ(fault_slots, insp.records.size());

  // Replay in-process (no MECSC_FAULTS in this test's environment) and
  // through the daemon's --verify.
  const ReplayResult result = replay_trace(trace);
  EXPECT_TRUE(result.bit_identical) << result.detail;
  EXPECT_TRUE(result.sealed);
  EXPECT_EQ(result.slots_compared, 12u);
  EXPECT_EQ(run_command(daemon_bin() + " --verify " + trace + " 2>/dev/null"),
            0);
  std::remove(trace.c_str());
}

// Bounded retry with backoff replaces immediate shedding: with no
// collector draining, a tiny shard queue fills, retries exhaust, and
// the give-up counters account for every event.
TEST(SubmitRetry, BoundedBackoffThenGiveUpIsCounted) {
  ServeOptions options;
  options.num_stations = 6;
  options.num_requests = 24;
  options.num_services = 3;
  options.horizon = 2;
  options.producers = 0;  // external driver: this test is the producer
  options.shards = 1;
  options.queue_capacity = 16;
  options.submit_retries = 3;
  SlotService service(options);

  std::size_t accepted = 0;
  std::size_t shed = 0;
  for (std::uint32_t r = 0; r < 24; ++r) {
    if (service.submit(r, 0, 1.0)) {
      ++accepted;
    } else {
      ++shed;
    }
  }
  EXPECT_EQ(accepted, 16u);
  EXPECT_EQ(shed, 8u);
  EXPECT_EQ(service.ingest_gave_up(), 8u);
  // Every shed event burned the full retry budget.
  EXPECT_GE(service.ingest_retries(), 8u * 3u);

  // The counters flow through to the report.
  service.start();
  service.producer_done(0);
  service.producer_done(1);
  const auto report = service.join();
  EXPECT_EQ(report.ingest_gave_up, 8u);
  EXPECT_GE(report.ingest_retries, 24u);
  EXPECT_EQ(report.shed, 8u);
}

TEST(ExitCodes, UsageAndCorruptTraceContract) {
  EXPECT_EQ(run_command(daemon_bin() + " --bogus-flag 2>/dev/null"), 2);
  // A verify target that is not a trace at all: corrupt-trace code.
  const std::string junk = temp_path("junk.trace");
  write_file(junk, "this is not a trace");
  EXPECT_EQ(run_command(daemon_bin() + " --verify " + junk + " 2>/dev/null"),
            3);
  std::remove(junk.c_str());
  // Checkpointing without a trace is a usage-level refusal (exit 1 from
  // the constructor's typed error).
  EXPECT_EQ(run_command(daemon_bin() +
                        " --paced --slots 2 --checkpoint-every 1 2>/dev/null"),
            1);
}

// A recipe byte naming no live aggregation mode or solver tier — kEnv
// (0), the retired simplex tier (2), or a value past the enum — is a
// corrupt trace: replay refuses it with the typed error and --verify
// exits 3.
TEST(ExitCodes, RecipeNamingNoLiveTierOrModeIsCorrupt) {
  const std::string trace = temp_path("recipe.trace");
  const std::string patched = temp_path("recipe_patched.trace");
  ASSERT_EQ(run_command(daemon_bin() +
                        " --stations 8 --requests 16 --services 3 --slots 2"
                        " --seed 4 --paced --trace-out " +
                        trace + " 2>/dev/null"),
            0);
  const std::string bytes = read_file(trace);
  const TraceConfig cfg = inspect_trace(trace).config;
  const std::string recipe = mecsc::serve::serialize_trace_config(cfg);
  const std::size_t header = bytes.find(recipe);
  ASSERT_NE(header, std::string::npos);
  // File offset of one recipe byte: the one index where the canonical
  // encodings of `cfg` and of `cfg` with that field flipped differ.
  auto offset_of = [&](std::uint8_t TraceConfig::*field) {
    TraceConfig other = cfg;
    other.*field = static_cast<std::uint8_t>(~(cfg.*field));
    const std::string flipped = mecsc::serve::serialize_trace_config(other);
    std::size_t i = 0;
    while (recipe[i] == flipped[i]) ++i;
    return header + i;
  };
  const struct {
    std::uint8_t TraceConfig::*field;
    std::uint8_t value;
  } cases[] = {{&TraceConfig::solver, 0},
               {&TraceConfig::solver, 2},
               {&TraceConfig::solver, 9},
               {&TraceConfig::aggregate, 0},
               {&TraceConfig::aggregate, 4}};
  for (const auto& c : cases) {
    SCOPED_TRACE(std::string(c.field == &TraceConfig::solver ? "solver" : "aggregate") +
                 " byte " + std::to_string(c.value));
    std::string bad = bytes;
    bad[offset_of(c.field)] = static_cast<char>(c.value);
    write_file(patched, bad);
    EXPECT_THROW(replay_trace(patched), mecsc::common::InvalidArgument);
    EXPECT_EQ(run_command(daemon_bin() + " --verify " + patched + " 2>/dev/null"),
              3);
  }
  // The untouched trace still verifies.
  EXPECT_EQ(run_command(daemon_bin() + " --verify " + trace + " 2>/dev/null"), 0);
  std::remove(trace.c_str());
  std::remove(patched.c_str());
}

}  // namespace
