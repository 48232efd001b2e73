#include "serve/service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/error.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "serve/query.h"
#include "serve/replay.h"

namespace mecsc::serve {

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

}  // namespace

sim::ScenarioParams scenario_params(const ServeOptions& options) {
  sim::ScenarioParams params;
  params.num_stations = options.num_stations;
  params.horizon = options.horizon;
  params.bursty = options.bursty;
  params.workload.num_requests = options.num_requests;
  params.workload.num_services = options.num_services;
  params.seed = options.seed;
  return params;
}

SlotService::SlotService(ServeOptions options) : options_(std::move(options)) {
  MECSC_CHECK_MSG(options_.horizon >= 1, "serve horizon must be >= 1 slot");
  MECSC_CHECK_MSG(options_.slot_ms >= 1, "slot length must be >= 1 ms");
  MECSC_CHECK_MSG(options_.queue_capacity >= 1,
                  "ingest ring capacity must be >= 1");
  MECSC_CHECK_MSG(options_.num_stations >= 1 && options_.num_stations <= 65535,
                  "serve supports 1..65535 stations (trace format limit)");
  MECSC_CHECK_MSG(options_.shed_penalty_ms >= 0.0,
                  "shed penalty must be non-negative");

  if (options_.checkpoint_every > 0 || options_.resume) {
    MECSC_CHECK_MSG(!options_.trace_out.empty(),
                    "checkpointing requires a trace (checkpoints store trace "
                    "offsets); set --trace-out");
    if (options_.checkpoint_path.empty()) {
      options_.checkpoint_path = options_.trace_out + ".ckpt";
    }
  }

  scenario_ = std::make_unique<sim::Scenario>(scenario_params(options_));

  queue_ = std::make_unique<MpscRing>(options_.queue_capacity);

  algorithms::OlOptions ol_options;
  ol_options.aggregate = scenario_->aggregate_mode();
  ol_options.solver = scenario_->solver_tier();
  algorithm_ = std::make_unique<algorithms::OnlineCachingAlgorithm>(
      "OL_GD", scenario_->problem(), ol_options, scenario_->algorithm_seed(0));
  engine_ = std::make_unique<sim::SlotEngine>(scenario_->problem());
  // Fault-churn composition: the engine runs the injector's per-slot
  // effects exactly like the batch simulator, and every slot's realised
  // fault state is recorded into the trace (kSlotFlagFaults), so replay
  // stays bit-for-bit without the plan.
  if (scenario_->mutable_fault_injector() != nullptr) {
    engine_->set_fault_injector(scenario_->mutable_fault_injector());
  }

  producer_count_ = options_.producers > 0 ? options_.producers : 1;
  producers_done_ =
      std::vector<std::atomic<std::uint32_t>>(options_.horizon);
  shed_per_slot_ = std::vector<std::atomic<std::uint32_t>>(options_.horizon);

  if (options_.resume) {
    resume_from_checkpoint();
  } else if (!options_.trace_out.empty()) {
    trace_ = std::make_unique<TraceWriter>(
        options_.trace_out, trace_config_for(options_, *scenario_));
  }
}

void SlotService::resume_from_checkpoint() {
  const Checkpoint ckpt = read_checkpoint(options_.checkpoint_path);
  const TraceConfig expected = trace_config_for(options_, *scenario_);
  if (!same_trace_config(ckpt.config, expected)) {
    throw ResumeMismatch(
        "checkpoint recipe does not match the daemon's options (seed, sizes, "
        "slot length, aggregation and fault modes must all be identical): " +
        options_.checkpoint_path);
  }
  // The trace on disk must still contain the checkpointed prefix intact
  // — anything past it (torn tail from the crash) is discarded below.
  TraceInspection insp = inspect_trace(options_.trace_out);
  if (!same_trace_config(insp.config, ckpt.config) ||
      insp.salvage_offset < ckpt.trace_offset ||
      insp.salvage_records < ckpt.trace_records) {
    throw ResumeMismatch(
        "trace file does not contain the checkpointed prefix: " +
        options_.trace_out);
  }
  trace_ = TraceWriter::resume(options_.trace_out,
                               static_cast<std::size_t>(ckpt.trace_records),
                               ckpt.trace_offset);
  algorithm_->import_state(ckpt.algo);
  engine_->import_state(ckpt.engine);
  start_slot_ = static_cast<std::size_t>(ckpt.slot) + 1;
  MECSC_CHECK_MSG(start_slot_ <= options_.horizon,
                  "checkpoint is beyond the configured horizon");
  served_ingested_ = ckpt.ingested;
  served_shed_ = ckpt.shed;
  ingested_total_.store(ckpt.ingested, std::memory_order_relaxed);
  shed_total_.store(ckpt.shed, std::memory_order_relaxed);
  ingest_retries_.store(ckpt.ingest_retries, std::memory_order_relaxed);
  ingest_gave_up_.store(ckpt.ingest_gave_up, std::memory_order_relaxed);
  // Replay the fault plan's begin_slot side effects up to the resume
  // point: the injector itself is stateless per slot (the plan is
  // pre-materialised), so nothing to fast-forward there.
}

void SlotService::write_slot_checkpoint(std::size_t t) {
  Checkpoint ckpt;
  ckpt.config = trace_config_for(options_, *scenario_);
  ckpt.slot = static_cast<std::uint32_t>(t);
  ckpt.trace_records = trace_->records_written();
  ckpt.trace_offset = trace_->byte_offset();
  ckpt.ingested = served_ingested_;
  ckpt.shed = served_shed_;
  ckpt.ingest_retries = ingest_retries_.load(std::memory_order_relaxed);
  ckpt.ingest_gave_up = ingest_gave_up_.load(std::memory_order_relaxed);
  ckpt.algo = algorithm_->export_state();
  ckpt.engine = engine_->export_state();
  write_checkpoint(options_.checkpoint_path, ckpt);
}

SlotService::~SlotService() {
  if (!threads_.empty() && !joined_) {
    request_stop();
    join();
  }
}

void SlotService::start() {
  MECSC_CHECK_MSG(threads_.empty() && !joined_, "start() may run only once");
  running_.store(true, std::memory_order_release);
  threads_.emplace_back([this] { decide_loop(); });
  threads_.emplace_back([this] { collector_loop(); });
  for (std::size_t p = 0; p < options_.producers; ++p) {
    threads_.emplace_back([this, p] { producer_loop(p); });
  }
}

bool SlotService::submit(std::uint32_t request, std::uint32_t slot,
                         double demand) {
  const auto& requests = scenario_->problem().requests();
  MECSC_CHECK_MSG(request < requests.size(), "submit: request id out of range");
  const IngestEvent ev{request, slot, demand};
  if (options_.paced) {
    // Paced producers are lossless: the collector is guaranteed to catch
    // up, so a full ring is only transient backpressure.
    while (!queue_->try_push(ev)) {
      if (stop_.load(std::memory_order_acquire)) break;
      std::this_thread::yield();
    }
    if (!stop_.load(std::memory_order_acquire)) return true;
    // Fall through to one last attempt so a stopping run still counts
    // the event as shed rather than silently dropping it.
  }
  // Bounded retry with exponential backoff: the first attempts only
  // yield (a drain pass usually frees cells within microseconds), later
  // ones sleep with doubling pauses capped at 64 µs. Only after the cap
  // (ServeOptions::submit_retries) is the event shed.
  for (std::size_t attempt = 0; attempt <= options_.submit_retries; ++attempt) {
    if (queue_->try_push(ev)) {
      if (attempt > 0) {
        ingest_retries_.fetch_add(attempt, std::memory_order_relaxed);
      }
      return true;
    }
    if (attempt < options_.submit_retries) {
      if (attempt < 8) {
        std::this_thread::yield();
      } else {
        const std::size_t shift = std::min<std::size_t>(attempt - 8, 6);
        std::this_thread::sleep_for(std::chrono::microseconds(1ULL << shift));
      }
    }
  }
  ingest_retries_.fetch_add(options_.submit_retries, std::memory_order_relaxed);
  ingest_gave_up_.fetch_add(1, std::memory_order_relaxed);
  if (slot < shed_per_slot_.size()) {
    shed_per_slot_[slot].fetch_add(1, std::memory_order_relaxed);
  }
  shed_total_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void SlotService::producer_done(std::size_t slot) {
  if (slot < producers_done_.size()) {
    producers_done_[slot].fetch_add(1, std::memory_order_release);
  }
}

void SlotService::producer_loop(std::size_t producer_index) {
  const core::CachingProblem& problem = scenario_->problem();
  const workload::DemandMatrix& demands = scenario_->demands();
  const std::size_t n = problem.num_requests();
  // Static request partition: exactly one producer owns each request id,
  // so a (request, slot) pair is submitted at most once and snapshot
  // accumulation is exact regardless of drain order.
  const std::size_t lo = producer_index * n / producer_count_;
  const std::size_t hi = (producer_index + 1) * n / producer_count_;
  for (std::size_t t = start_slot_; t < options_.horizon; ++t) {
    while (open_slot_.load(std::memory_order_acquire) <
           static_cast<std::int64_t>(t)) {
      if (stop_.load(std::memory_order_acquire)) return;
      std::this_thread::yield();
    }
    if (stop_.load(std::memory_order_acquire)) return;
    for (std::size_t l = lo; l < hi; ++l) {
      const double demand = demands.at(l, t);
      if (demand <= 0.0) continue;
      submit(static_cast<std::uint32_t>(l), static_cast<std::uint32_t>(t),
             demand);
    }
    producer_done(t);
  }
}

void SlotService::collector_loop() {
  const std::size_t n = scenario_->problem().num_requests();
  const auto slot_len = std::chrono::milliseconds(options_.slot_ms);
  // Folds every event queued so far into the open slot's snapshot.
  auto drain_into = [&](SlotBatch& batch) {
    IngestEvent ev;
    while (queue_->try_pop(ev)) {
      if (ev.request < n) {
        batch.snapshot[ev.request] += ev.demand;
        ++batch.ingested;
      }
    }
  };
  bool stopping = false;
  for (std::size_t t = start_slot_; t < options_.horizon && !stopping; ++t) {
    SlotBatch batch;
    batch.slot = t;
    batch.snapshot.assign(n, 0.0);
    const auto opened = Clock::now();
    const auto deadline = opened + slot_len;
    const auto min_deadline =
        opened + std::chrono::milliseconds(options_.paced_min_slot_ms);
    open_slot_.store(static_cast<std::int64_t>(t), std::memory_order_release);
    for (;;) {
      drain_into(batch);
      stopping = stop_.load(std::memory_order_acquire);
      bool close = stopping;
      if (options_.paced) {
        // Data-paced close: every producer finished the slot. Their
        // done-flags release-order after their pushes, so one final
        // drain below observes every event of the slot. The optional
        // minimum-dwell deadline (paced_min_slot_ms) delays the close
        // without changing the snapshot — producers are already done.
        bool done = producers_done_[t].load(std::memory_order_acquire) >=
                    producer_count_;
        if (done && options_.paced_min_slot_ms > 0) {
          done = Clock::now() >= min_deadline;
        }
        close = close || done;
      } else {
        close = close || Clock::now() >= deadline;
      }
      if (close) {
        drain_into(batch);
        break;
      }
      if (options_.paced) {
        std::this_thread::yield();
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
    batch.ingest_wall_ms = ms_between(opened, Clock::now());
    batch.queue_depth = queue_->approx_size();
    batch.shed = shed_per_slot_[t].load(std::memory_order_relaxed);
    ingested_total_.fetch_add(batch.ingested, std::memory_order_relaxed);
    {
      std::unique_lock<std::mutex> lock(handoff_mu_);
      handoff_push_cv_.wait(lock, [this] { return !pending_.has_value(); });
      pending_ = std::move(batch);
      if (stopping && t + 1 < options_.horizon) stopped_early_ = true;
    }
    handoff_pop_cv_.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(handoff_mu_);
    ingest_finished_ = true;
  }
  handoff_pop_cv_.notify_one();
}

void SlotService::decide_loop() {
  const core::CachingProblem& problem = scenario_->problem();
  const std::size_t n = problem.num_requests();
  obs::Registry& registry = obs::default_registry();
  for (;;) {
    SlotBatch batch;
    {
      std::unique_lock<std::mutex> lock(handoff_mu_);
      handoff_pop_cv_.wait(
          lock, [this] { return pending_.has_value() || ingest_finished_; });
      if (!pending_.has_value()) break;
      batch = std::move(*pending_);
      pending_.reset();
    }
    handoff_push_cv_.notify_one();

    const std::size_t t = batch.slot;
    const std::vector<double>& delays =
        scenario_->simulator().unit_delays(t);

    // Decide-deadline watchdog (wall-clock mode only): one over-budget
    // decide hints the next slot straight to the degraded solver; two
    // consecutive misses re-commit the previous placement without
    // deciding at all, so a stuck solver can never stall ingest. The
    // chosen mode is recorded in the trace flags — replay honours them,
    // which keeps the bit-identity contract under wall-clock timing.
    std::uint32_t slot_flags = 0;
    bool recommit = false;
    const bool watchdog_active = options_.watchdog && !options_.paced;
    if (watchdog_active && watchdog_streak_ > 0) {
      if (watchdog_streak_ >= 2 && engine_->has_decision()) {
        recommit = true;
        slot_flags |= kSlotFlagRecommit;
      } else {
        algorithm_->set_decide_hint(2);
        slot_flags |= kSlotFlagDegradedHint;
        ++watchdog_degraded_;
      }
    }

    if (!recommit) algorithm_->set_live_demands(batch.snapshot);
    sim::SlotRecord record =
        engine_->step(t, *algorithm_, batch.snapshot, delays, !recommit);

    // Fault-side shed accounting as the engine recorded it — captured
    // before the serve-side fold below so the trace keeps the two
    // contributions separate (replay folds each side exactly once).
    const auto fault_shed_requests =
        static_cast<std::uint32_t>(record.fault_shed_requests);
    const double fault_shed_penalty_ms = record.fault_shed_penalty_ms;

    if (batch.shed > 0) {
      // Admission-control shedding, accounted exactly as the fault
      // subsystem's shedding path: the per-request penalty folds into
      // the slot objective pre-averaging.
      fault::SlotFaultSummary shed_summary;
      shed_summary.shed_requests = batch.shed;
      shed_summary.shed_penalty_ms =
          static_cast<double>(batch.shed) * options_.shed_penalty_ms;
      record.fault_shed_requests += shed_summary.shed_requests;
      record.fault_shed_penalty_ms += shed_summary.shed_penalty_ms;
      const double per_request =
          shed_summary.shed_penalty_ms / static_cast<double>(n == 0 ? 1 : n);
      record.avg_delay_ms += per_request;
      record.avg_delay_incremental_ms += per_request;
    }

    commit(t);
    served_ingested_ += batch.ingested;
    served_shed_ += batch.shed;

    if (trace_ != nullptr) {
      SlotTraceRecord tr;
      tr.slot = static_cast<std::uint32_t>(t);
      for (std::size_t l = 0; l < n; ++l) {
        if (batch.snapshot[l] != 0.0) {
          tr.demands.emplace_back(static_cast<std::uint32_t>(l),
                                  batch.snapshot[l]);
        }
      }
      tr.unit_delays = delays;
      const core::Assignment& decision = engine_->last_decision();
      tr.station_of_request.reserve(n);
      for (std::size_t station : decision.station_of_request) {
        tr.station_of_request.push_back(static_cast<std::uint16_t>(station));
      }
      tr.cached_bits = pack_cached_bits(decision.cached);
      tr.ingested = batch.ingested;
      tr.shed = batch.shed;
      tr.shed_penalty_ms =
          static_cast<double>(batch.shed) * options_.shed_penalty_ms;
      tr.avg_delay_ms = record.avg_delay_ms;
      tr.decide_ms = record.decision_time_ms;
      tr.flags = slot_flags;
      const fault::FaultInjector* injector = scenario_->fault_injector();
      if (injector != nullptr) {
        // Realised fault state of the slot — everything step_recorded
        // needs to reproduce the engine's fault arithmetic at replay
        // without the plan.
        tr.flags |= kSlotFlagFaults;
        const fault::SlotFaults& sf = injector->plan().slot(t);
        tr.station_up.assign(sf.station_up.begin(), sf.station_up.end());
        tr.feedback_lost.assign(sf.feedback_lost.begin(),
                                sf.feedback_lost.end());
        tr.effective_capacity_mhz = injector->effective_capacities();
        tr.outage_penalty_factor =
            injector->plan().options().outage_penalty_factor;
        tr.fault_shed_requests = fault_shed_requests;
        tr.fault_shed_penalty_ms = fault_shed_penalty_ms;
      }
      trace_->append(tr);
      trace_->flush();
      if (options_.checkpoint_every > 0 &&
          (t + 1) % options_.checkpoint_every == 0) {
        write_slot_checkpoint(t);
      }
    }

    // Live serve.* telemetry — written directly (not via the gated
    // MECSC_* macros): these gauges are the service's operational
    // surface, not optional debug instrumentation.
    const double slot_ms = static_cast<double>(options_.slot_ms);
    registry.gauge("serve.ingest_rate_rps")
        .set(batch.ingest_wall_ms > 0.0
                 ? static_cast<double>(batch.ingested) * 1000.0 /
                       batch.ingest_wall_ms
                 : 0.0);
    registry.gauge("serve.queue_depth")
        .set(static_cast<double>(batch.queue_depth));
    registry.gauge("serve.slot_deadline_margin_ms")
        .set(slot_ms - record.decision_time_ms);
    const double offered = static_cast<double>(batch.ingested) +
                           static_cast<double>(batch.shed);
    registry.gauge("serve.shed_fraction")
        .set(offered > 0.0 ? static_cast<double>(batch.shed) / offered : 0.0);
    registry.counter("serve.slots").inc();
    registry.counter("serve.ingested").add(static_cast<double>(batch.ingested));
    registry.counter("serve.shed").add(static_cast<double>(batch.shed));
    registry.histogram("serve.decide_ms").observe(record.decision_time_ms);
    registry.gauge("serve.ingest_retries")
        .set(static_cast<double>(
            ingest_retries_.load(std::memory_order_relaxed)));
    registry.gauge("serve.ingest_gave_up")
        .set(static_cast<double>(
            ingest_gave_up_.load(std::memory_order_relaxed)));
    const bool missed = record.decision_time_ms > slot_ms;
    if (missed) {
      ++deadline_misses_;
      registry.counter("serve.deadline_misses").inc();
    }
    if (watchdog_active) {
      if (recommit) {
        // A re-commit costs ~no decide time; retry a (hinted) decide
        // next slot rather than re-committing forever.
        watchdog_streak_ = 1;
        ++watchdog_recommits_;
        registry.counter("serve.watchdog_recommits").inc();
      } else if (missed) {
        ++watchdog_streak_;
      } else {
        watchdog_streak_ = 0;
      }
    }
    export_prometheus();

    slot_records_.push_back(std::move(record));
  }
  engine_->end_run();
}

void SlotService::commit(std::size_t slot) {
  auto decision = std::make_shared<CommittedDecision>();
  decision->slot = slot;
  decision->station_of_request = engine_->last_decision().station_of_request;
  decision->cached = engine_->last_decision().cached;
  std::lock_guard<std::mutex> lock(committed_mu_);
  committed_ = std::move(decision);
}

void SlotService::export_prometheus() const {
  if (options_.prom_out.empty()) return;
  std::ofstream out(options_.prom_out, std::ios::trunc);
  if (out.good()) obs::write_prometheus(obs::default_registry(), out);
}

ServeReport SlotService::join() {
  if (joined_) return report_;
  for (std::thread& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
  threads_.clear();
  if (trace_ != nullptr) trace_->close();
  export_prometheus();
  running_.store(false, std::memory_order_release);
  joined_ = true;

  ServeReport report;
  report.slots_served = slot_records_.size();
  report.ingested = ingested_total_.load(std::memory_order_relaxed);
  report.shed = shed_total_.load(std::memory_order_relaxed);
  report.ingest_retries = ingest_retries_.load(std::memory_order_relaxed);
  report.ingest_gave_up = ingest_gave_up_.load(std::memory_order_relaxed);
  report.deadline_misses = deadline_misses_;
  report.watchdog_recommits = watchdog_recommits_;
  report.watchdog_degraded = watchdog_degraded_;
  report.stopped_early = stopped_early_;
  if (!slot_records_.empty()) {
    double delay_sum = 0.0;
    std::vector<double> decide_ms;
    decide_ms.reserve(slot_records_.size());
    for (const sim::SlotRecord& record : slot_records_) {
      delay_sum += record.avg_delay_ms;
      decide_ms.push_back(record.decision_time_ms);
    }
    report.mean_delay_ms = delay_sum / static_cast<double>(decide_ms.size());
    std::sort(decide_ms.begin(), decide_ms.end());
    std::size_t p99_index = static_cast<std::size_t>(
        std::ceil(0.99 * static_cast<double>(decide_ms.size())));
    if (p99_index > 0) --p99_index;
    p99_index = std::min(p99_index, decide_ms.size() - 1);
    report.p99_decide_ms = decide_ms[p99_index];
    report.max_decide_ms = decide_ms.back();
  }
  report_ = report;
  return report;
}

std::string SlotService::handle_query(const std::string& line) const {
  const auto q = query::string_field(line, "q");
  if (!q.has_value()) {
    return query::error_line("missing \"q\" field (request | service | stats)");
  }
  const core::CachingProblem& problem = scenario_->problem();
  std::ostringstream out;
  if (*q == "stats") {
    const auto decision = committed();
    out << "{\"q\":\"stats\",\"open_slot\":" << open_slot()
        << ",\"committed_slot\":"
        << (decision ? static_cast<std::int64_t>(decision->slot) : -1)
        << ",\"ingested\":" << ingested_total_.load(std::memory_order_relaxed)
        << ",\"shed\":" << shed_total_.load(std::memory_order_relaxed)
        << ",\"queue_depth\":" << queue_->approx_size() << "}";
    return out.str();
  }
  const auto id = query::uint_field(line, "id");
  if (!id.has_value()) return query::error_line("missing \"id\" field");
  const auto decision = committed();
  if (decision == nullptr) {
    return query::error_line("no decision committed yet");
  }
  if (*q == "request") {
    if (*id >= decision->station_of_request.size()) {
      return query::error_line("request id out of range");
    }
    const std::size_t l = static_cast<std::size_t>(*id);
    out << "{\"q\":\"request\",\"id\":" << l
        << ",\"slot\":" << decision->slot
        << ",\"station\":" << decision->station_of_request[l]
        << ",\"service\":" << problem.requests()[l].service_id
        << ",\"home\":" << problem.requests()[l].home_station << "}";
    return out.str();
  }
  if (*q == "service") {
    if (*id >= decision->cached.size()) {
      return query::error_line("service id out of range");
    }
    out << "{\"q\":\"service\",\"id\":" << *id
        << ",\"slot\":" << decision->slot << ",\"stations\":[";
    bool first = true;
    const std::vector<bool>& row = decision->cached[*id];
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (!row[i]) continue;
      if (!first) out << ",";
      out << i;
      first = false;
    }
    out << "]}";
    return out.str();
  }
  return query::error_line("unknown query \"" + *q + "\"");
}

}  // namespace mecsc::serve
