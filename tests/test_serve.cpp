// Tests for the serve subsystem's pipeline and trace machinery: paced
// end-to-end runs, slot-snapshot determinism across producer counts, the
// binary trace round-trip, replay bit-identity, the query API, and the
// admission-control shed accounting.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "serve/replay.h"
#include "serve/service.h"
#include "serve/trace_io.h"

namespace mecsc::serve {
namespace {

ServeOptions small_options(std::uint64_t seed, std::size_t producers = 2) {
  ServeOptions options;
  options.seed = seed;
  options.num_stations = 15;
  options.num_requests = 30;
  options.num_services = 4;
  options.horizon = 8;
  options.slot_ms = 100;
  options.queue_capacity = 1024;
  options.producers = producers;
  options.bursty = true;
  options.paced = true;  // deterministic close condition
  return options;
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "mecsc_" + name;
}

std::vector<SlotTraceRecord> read_all(const std::string& path,
                                      TraceConfig* config = nullptr) {
  TraceReader reader(path);
  if (config != nullptr) *config = reader.config();
  std::vector<SlotTraceRecord> records;
  SlotTraceRecord rec;
  while (reader.next(rec)) records.push_back(rec);
  EXPECT_TRUE(reader.saw_footer());
  return records;
}

TEST(SlotService, PacedRunServesEverySlotLossless) {
  ServeOptions options = small_options(11);
  SlotService service(options);
  // Count the nonzero demand events the synthetic producers will emit.
  std::uint64_t expected = 0;
  const auto& demands = service.scenario().demands();
  for (std::size_t t = 0; t < options.horizon; ++t) {
    for (std::size_t l = 0; l < service.scenario().problem().num_requests();
         ++l) {
      if (demands.at(l, t) > 0.0) ++expected;
    }
  }
  service.start();
  const ServeReport report = service.join();
  EXPECT_EQ(report.slots_served, options.horizon);
  EXPECT_EQ(report.shed, 0u);  // paced producers are lossless
  EXPECT_EQ(report.ingested, expected);
  EXPECT_FALSE(report.stopped_early);
  EXPECT_EQ(service.slot_records().size(), options.horizon);
  for (const auto& record : service.slot_records()) {
    EXPECT_GT(record.avg_delay_ms, 0.0);
    EXPECT_EQ(record.fault_shed_requests, 0u);
  }
}

// The slot-boundary determinism contract: the same scenario produces the
// same snapshots and decisions regardless of how many producers feed the
// ingest ring, and so of the order their events are drained in.
TEST(SlotService, SnapshotsAndDecisionsIndependentOfProducerCount) {
  const std::string trace_a = temp_path("producers1.trace");
  const std::string trace_b = temp_path("producers3.trace");
  {
    ServeOptions options = small_options(23, 1);
    options.trace_out = trace_a;
    SlotService service(options);
    service.start();
    service.join();
  }
  {
    ServeOptions options = small_options(23, 3);
    options.trace_out = trace_b;
    SlotService service(options);
    service.start();
    service.join();
  }
  const auto a = read_all(trace_a);
  const auto b = read_all(trace_b);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t t = 0; t < a.size(); ++t) {
    EXPECT_EQ(a[t].demands, b[t].demands) << "slot " << t;
    EXPECT_EQ(a[t].station_of_request, b[t].station_of_request) << "slot " << t;
    EXPECT_EQ(a[t].cached_bits, b[t].cached_bits) << "slot " << t;
    EXPECT_EQ(a[t].avg_delay_ms, b[t].avg_delay_ms) << "slot " << t;
  }
  std::remove(trace_a.c_str());
  std::remove(trace_b.c_str());
}

// In a lossless paced run the closed snapshots must equal the scenario's
// demand matrix bitwise — the premise that makes live == batch.
TEST(SlotService, PacedSnapshotsEqualScenarioDemandsBitwise) {
  const std::string trace = temp_path("snapshots.trace");
  ServeOptions options = small_options(31);
  options.trace_out = trace;
  SlotService service(options);
  service.start();
  service.join();
  const auto records = read_all(trace);
  ASSERT_EQ(records.size(), options.horizon);
  const auto& demands = service.scenario().demands();
  const std::size_t n = service.scenario().problem().num_requests();
  for (std::size_t t = 0; t < records.size(); ++t) {
    std::vector<double> dense(n, 0.0);
    for (const auto& [id, demand] : records[t].demands) dense[id] = demand;
    for (std::size_t l = 0; l < n; ++l) {
      EXPECT_EQ(dense[l], demands.at(l, t)) << "slot " << t << " request " << l;
    }
  }
  std::remove(trace.c_str());
}

TEST(TraceIo, RoundTripIsBitwise) {
  const std::string path = temp_path("roundtrip.trace");
  TraceConfig config;
  config.seed = 42;
  config.num_stations = 7;
  config.num_requests = 9;
  config.num_services = 3;
  config.horizon = 2;
  config.slot_ms = 50;
  config.bursty = 1;
  config.aggregate = 2;
  config.algo_seed = 0xdeadbeefcafeULL;
  config.shed_penalty_ms = 125.5;

  std::vector<SlotTraceRecord> written(2);
  written[0].slot = 0;
  written[0].demands = {{1, 0.1}, {4, 1e-300}, {8, 3.75}};
  written[0].unit_delays = {1.5, 2.25, 0.0, 7.875, 1e-9, 40.0, 3.125};
  written[0].station_of_request = {0, 1, 2, 3, 4, 5, 6, 0, 1};
  written[0].cached_bits = {0xAB, 0xCD, 0x01};
  written[0].ingested = 9;
  written[0].shed = 2;
  written[0].shed_penalty_ms = 500.0;
  written[0].avg_delay_ms = 12.625;
  written[0].decide_ms = 0.875;
  written[1].slot = 1;
  written[1].demands = {};  // an all-zero snapshot is representable
  written[1].unit_delays = std::vector<double>(7, 2.0);
  written[1].station_of_request = std::vector<std::uint16_t>(9, 3);
  written[1].cached_bits = {0x00, 0x10, 0x00};
  written[1].avg_delay_ms = 4.5;

  {
    TraceWriter writer(path, config);
    for (const auto& rec : written) writer.append(rec);
    EXPECT_EQ(writer.records_written(), 2u);
  }  // destructor seals

  TraceConfig got;
  const auto records = read_all(path, &got);
  EXPECT_EQ(got.seed, config.seed);
  EXPECT_EQ(got.num_stations, config.num_stations);
  EXPECT_EQ(got.num_requests, config.num_requests);
  EXPECT_EQ(got.num_services, config.num_services);
  EXPECT_EQ(got.horizon, config.horizon);
  EXPECT_EQ(got.slot_ms, config.slot_ms);
  EXPECT_EQ(got.bursty, config.bursty);
  EXPECT_EQ(got.aggregate, config.aggregate);
  EXPECT_EQ(got.algo_seed, config.algo_seed);
  EXPECT_EQ(got.shed_penalty_ms, config.shed_penalty_ms);
  ASSERT_EQ(records.size(), written.size());
  for (std::size_t t = 0; t < records.size(); ++t) {
    EXPECT_EQ(records[t].slot, written[t].slot);
    EXPECT_EQ(records[t].demands, written[t].demands);
    EXPECT_EQ(records[t].unit_delays, written[t].unit_delays);
    EXPECT_EQ(records[t].station_of_request, written[t].station_of_request);
    EXPECT_EQ(records[t].cached_bits, written[t].cached_bits);
    EXPECT_EQ(records[t].ingested, written[t].ingested);
    EXPECT_EQ(records[t].shed, written[t].shed);
    EXPECT_EQ(records[t].shed_penalty_ms, written[t].shed_penalty_ms);
    EXPECT_EQ(records[t].avg_delay_ms, written[t].avg_delay_ms);
    EXPECT_EQ(records[t].decide_ms, written[t].decide_ms);
  }
  EXPECT_TRUE(trace_well_formed(path));
  std::remove(path.c_str());
}

TEST(TraceIo, TruncatedTraceIsNotWellFormed) {
  const std::string path = temp_path("truncated.trace");
  {
    TraceConfig config;
    config.num_stations = 3;
    TraceWriter writer(path, config);
    SlotTraceRecord rec;
    rec.unit_delays = {1.0, 2.0, 3.0};
    writer.append(rec);
  }
  ASSERT_TRUE(trace_well_formed(path));
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  // Chop the footer (and a little more): an unsealed trace must be
  // detected — this is what the graceful-shutdown test keys on.
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 15));
  out.close();
  EXPECT_FALSE(trace_well_formed(path));
}

TEST(Replay, LiveTraceReplaysBitForBit) {
  const std::string path = temp_path("replay.trace");
  ServeOptions options = small_options(47);
  options.trace_out = path;
  {
    SlotService service(options);
    service.start();
    service.join();
  }
  const ReplayResult result = replay_trace(path);
  EXPECT_TRUE(result.bit_identical) << result.detail;
  EXPECT_TRUE(result.sealed);
  EXPECT_EQ(result.slots_compared, options.horizon);
  EXPECT_EQ(result.detail, "");
  std::remove(path.c_str());
}

TEST(Replay, DetectsDivergingDecision) {
  const std::string path = temp_path("tampered.trace");
  ServeOptions options = small_options(53);
  options.trace_out = path;
  {
    SlotService service(options);
    service.start();
    service.join();
  }
  TraceConfig config;
  auto records = read_all(path, &config);
  ASSERT_GE(records.size(), 4u);
  // Rewrite slot 3 with one request routed elsewhere (checksums stay
  // valid — only the comparator can catch this).
  records[3].station_of_request[0] =
      static_cast<std::uint16_t>((records[3].station_of_request[0] + 1) %
                                 config.num_stations);
  {
    TraceWriter writer(path, config);
    for (const auto& rec : records) writer.append(rec);
  }
  const ReplayResult result = replay_trace(path);
  EXPECT_FALSE(result.bit_identical);
  EXPECT_EQ(result.first_mismatch_slot, 3u);
  EXPECT_NE(result.detail.find("slot 3"), std::string::npos) << result.detail;
  std::remove(path.c_str());
}

TEST(SlotService, QueryApiAnswersFromCommittedDecision) {
  ServeOptions options = small_options(61);
  SlotService service(options);
  EXPECT_NE(service.handle_query("{\"q\":\"stats\"}").find("\"q\":\"stats\""),
            std::string::npos);
  EXPECT_NE(service.handle_query("{\"q\":\"request\",\"id\":0}").find("error"),
            std::string::npos);  // nothing committed yet
  service.start();
  service.join();

  const auto decision = service.committed();
  ASSERT_NE(decision, nullptr);
  EXPECT_EQ(decision->slot, options.horizon - 1);

  const std::string request = service.handle_query("{\"q\":\"request\",\"id\":5}");
  EXPECT_NE(request.find("\"id\":5"), std::string::npos) << request;
  EXPECT_NE(request.find("\"station\":"), std::string::npos) << request;
  const std::string service_q = service.handle_query("{\"q\":\"service\",\"id\":1}");
  EXPECT_NE(service_q.find("\"stations\":["), std::string::npos) << service_q;
  const std::string stats = service.handle_query("{\"q\":\"stats\"}");
  EXPECT_NE(stats.find("\"ingested\":"), std::string::npos) << stats;

  EXPECT_NE(service.handle_query("{\"q\":\"request\",\"id\":99999}").find("error"),
            std::string::npos);
  EXPECT_NE(service.handle_query("{\"q\":\"teapot\"}").find("error"),
            std::string::npos);
  EXPECT_NE(service.handle_query("not json at all").find("error"),
            std::string::npos);
}

TEST(SlotService, AdmissionShedsWhenRingBacksUp) {
  ServeOptions options = small_options(67, 0);
  options.paced = false;       // bounded retries, not lossless spinning
  options.queue_capacity = 4;  // minimum ring
  options.submit_retries = 0;
  SlotService service(options);  // never started: nothing drains
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(service.submit(i, 0, 1.0));
  }
  EXPECT_FALSE(service.submit(4, 0, 1.0));
  EXPECT_FALSE(service.submit(5, 0, 1.0));
  const ServeReport report = service.join();
  EXPECT_EQ(report.shed, 2u);
}

}  // namespace
}  // namespace mecsc::serve
