#include "serve/trace_io.h"

#include <filesystem>

#include "common/error.h"

namespace mecsc::serve {

namespace {

using wire::Cursor;
using wire::fnv1a;
using wire::put;
using wire::put_bytes;

constexpr std::uint32_t kHeaderMagic = 0x5443454DU;  // "MECT" little-endian
constexpr std::uint32_t kRecordMagic = 0x544F4C53U;  // "SLOT"
constexpr std::uint32_t kFooterMagic = 0x444E4554U;  // "TEND"
// v3: the TraceConfig carries the env-resolved solver tier (the tier is
// part of the decision recipe, like the aggregation mode).
constexpr std::uint16_t kVersion = 3;

std::string serialize_record(const SlotTraceRecord& r) {
  std::string buf;
  buf.reserve(96 + r.demands.size() * 12 + r.unit_delays.size() * 8 +
              r.station_of_request.size() * 2 + r.cached_bits.size() +
              r.faults.station_up.size() + r.faults.feedback_lost.size() +
              r.faults.effective_capacity_mhz.size() * 8);
  put(buf, r.slot);
  put(buf, static_cast<std::uint32_t>(r.demands.size()));
  for (const auto& [id, demand] : r.demands) {
    put(buf, id);
    put(buf, demand);
  }
  put(buf, static_cast<std::uint32_t>(r.unit_delays.size()));
  put_bytes(buf, r.unit_delays.data(), r.unit_delays.size() * sizeof(double));
  put(buf, static_cast<std::uint32_t>(r.station_of_request.size()));
  put_bytes(buf, r.station_of_request.data(),
            r.station_of_request.size() * sizeof(std::uint16_t));
  put(buf, static_cast<std::uint32_t>(r.cached_bits.size()));
  put_bytes(buf, r.cached_bits.data(), r.cached_bits.size());
  put(buf, r.ingested);
  put(buf, r.shed);
  put(buf, r.shed_penalty_ms);
  put(buf, r.avg_delay_ms);
  put(buf, r.decide_ms);
  put(buf, r.flags);
  if (r.flags & kSlotFlagFaults) {
    const fault::SlotFaultState& f = r.faults;
    put(buf, static_cast<std::uint32_t>(f.station_up.size()));
    put_bytes(buf, f.station_up.data(), f.station_up.size());
    put(buf, static_cast<std::uint32_t>(f.feedback_lost.size()));
    put_bytes(buf, f.feedback_lost.data(), f.feedback_lost.size());
    put(buf, static_cast<std::uint32_t>(f.effective_capacity_mhz.size()));
    put_bytes(buf, f.effective_capacity_mhz.data(),
              f.effective_capacity_mhz.size() * sizeof(double));
    put(buf, f.outage_penalty_factor);
    put(buf, f.shed_requests);
    put(buf, f.shed_penalty_ms);
  }
  return buf;
}

// Reads a `count` prefix and validates it against the bytes remaining
// (element size `elem`) before any allocation — a bit-flipped count must
// fail cleanly, not resize a vector to 4 billion entries.
bool take_count(Cursor& c, std::size_t elem, std::uint32_t& n) {
  if (!c.take(n)) return false;
  return static_cast<std::size_t>(n) <= c.remaining() / elem;
}

bool parse_record(Cursor& c, SlotTraceRecord& r) {
  std::uint32_t n = 0;
  if (!c.take(r.slot)) return false;
  if (!take_count(c, sizeof(std::uint32_t) + sizeof(double), n)) return false;
  r.demands.resize(n);
  for (auto& [id, demand] : r.demands) {
    if (!c.take(id) || !c.take(demand)) return false;
  }
  if (!take_count(c, sizeof(double), n)) return false;
  r.unit_delays.resize(n);
  if (!c.take(r.unit_delays.data(), n * sizeof(double))) return false;
  if (!take_count(c, sizeof(std::uint16_t), n)) return false;
  r.station_of_request.resize(n);
  if (!c.take(r.station_of_request.data(), n * sizeof(std::uint16_t))) {
    return false;
  }
  if (!take_count(c, 1, n)) return false;
  r.cached_bits.resize(n);
  if (!c.take(r.cached_bits.data(), n)) return false;
  if (!(c.take(r.ingested) && c.take(r.shed) && c.take(r.shed_penalty_ms) &&
        c.take(r.avg_delay_ms) && c.take(r.decide_ms) && c.take(r.flags))) {
    return false;
  }
  r.faults = fault::SlotFaultState{};
  if (r.flags & kSlotFlagFaults) {
    fault::SlotFaultState& f = r.faults;
    if (!take_count(c, 1, n)) return false;
    f.station_up.resize(n);
    if (!c.take(f.station_up.data(), n)) return false;
    if (!take_count(c, 1, n)) return false;
    f.feedback_lost.resize(n);
    if (!c.take(f.feedback_lost.data(), n)) return false;
    if (!take_count(c, sizeof(double), n)) return false;
    f.effective_capacity_mhz.resize(n);
    if (!c.take(f.effective_capacity_mhz.data(), n * sizeof(double))) {
      return false;
    }
    if (!(c.take(f.outage_penalty_factor) && c.take(f.shed_requests) &&
          c.take(f.shed_penalty_ms))) {
      return false;
    }
  }
  return c.remaining() == 0;  // trailing garbage is corruption, not slack
}

}  // namespace

std::string serialize_trace_config(const TraceConfig& cfg) {
  std::string buf;
  put(buf, cfg.seed);
  put(buf, cfg.num_stations);
  put(buf, cfg.num_requests);
  put(buf, cfg.num_services);
  put(buf, cfg.horizon);
  put(buf, cfg.slot_ms);
  put(buf, cfg.bursty);
  put(buf, cfg.aggregate);
  put(buf, cfg.faults);
  put(buf, cfg.solver);
  put(buf, cfg.algo_seed);
  put(buf, cfg.shed_penalty_ms);
  return buf;
}

bool parse_trace_config(wire::Cursor& c, TraceConfig& out) {
  return c.take(out.seed) && c.take(out.num_stations) &&
         c.take(out.num_requests) && c.take(out.num_services) &&
         c.take(out.horizon) && c.take(out.slot_ms) && c.take(out.bursty) &&
         c.take(out.aggregate) && c.take(out.faults) && c.take(out.solver) &&
         c.take(out.algo_seed) && c.take(out.shed_penalty_ms);
}

bool same_trace_config(const TraceConfig& a, const TraceConfig& b) {
  return serialize_trace_config(a) == serialize_trace_config(b);
}

TraceWriter::TraceWriter(const std::string& path, const TraceConfig& config)
    : out_(path, std::ios::binary | std::ios::trunc) {
  MECSC_CHECK_MSG(out_.good(), "cannot open trace file for writing: " + path);
  std::string buf;
  put(buf, kHeaderMagic);
  put(buf, kVersion);
  buf += serialize_trace_config(config);
  out_.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  bytes_ = buf.size();
}

TraceWriter::TraceWriter(ResumeTag, const std::string& path,
                         std::size_t keep_records, std::uint64_t resume_offset) {
  std::error_code ec;
  const std::uintmax_t current = std::filesystem::file_size(path, ec);
  MECSC_CHECK_MSG(!ec, "cannot stat trace file for resume: " + path);
  MECSC_CHECK_MSG(current >= resume_offset,
                  "trace file shorter than the checkpoint's resume offset: " +
                      path);
  // Drop the torn tail (and any footer) past the checkpointed prefix,
  // then continue appending in place.
  std::filesystem::resize_file(path, resume_offset, ec);
  MECSC_CHECK_MSG(!ec, "cannot truncate trace file for resume: " + path);
  out_.open(path, std::ios::binary | std::ios::in | std::ios::out |
                      std::ios::ate);
  MECSC_CHECK_MSG(out_.good(), "cannot reopen trace file for resume: " + path);
  records_ = keep_records;
  bytes_ = resume_offset;
}

std::unique_ptr<TraceWriter> TraceWriter::resume(const std::string& path,
                                                 std::size_t keep_records,
                                                 std::uint64_t resume_offset) {
  return std::unique_ptr<TraceWriter>(
      new TraceWriter(ResumeTag{}, path, keep_records, resume_offset));
}

TraceWriter::~TraceWriter() { close(); }

void TraceWriter::append(const SlotTraceRecord& record) {
  MECSC_CHECK_MSG(!closed_, "append on a closed trace");
  const std::string payload = serialize_record(record);
  std::string buf;
  put(buf, kRecordMagic);
  put(buf, static_cast<std::uint64_t>(payload.size()));
  buf += payload;
  put(buf, fnv1a(payload.data(), payload.size()));
  out_.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  bytes_ += buf.size();
  ++records_;
}

void TraceWriter::flush() { out_.flush(); }

void TraceWriter::close() {
  if (closed_) return;
  std::string buf;
  put(buf, kFooterMagic);
  put(buf, static_cast<std::uint64_t>(records_));
  out_.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  out_.flush();
  out_.close();
  closed_ = true;
}

TraceReader::TraceReader(const std::string& path)
    : in_(path, std::ios::binary) {
  MECSC_CHECK_MSG(in_.good(), "cannot open trace file: " + path);
  in_.seekg(0, std::ios::end);
  file_bytes_ = static_cast<std::uint64_t>(in_.tellg());
  in_.seekg(0, std::ios::beg);
  std::uint32_t magic = 0;
  std::uint16_t version = 0;
  in_.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  in_.read(reinterpret_cast<char*>(&version), sizeof(version));
  MECSC_CHECK_MSG(in_.good() && magic == kHeaderMagic,
                  "not a mecsc serve trace: " + path);
  MECSC_CHECK_MSG(version == kVersion, "unsupported trace version");
  std::string cfg(serialize_trace_config(config_).size(), '\0');
  in_.read(cfg.data(), static_cast<std::streamsize>(cfg.size()));
  MECSC_CHECK_MSG(in_.good(), "truncated trace header: " + path);
  Cursor c(cfg.data(), cfg.size());
  MECSC_CHECK_MSG(parse_trace_config(c, config_), "truncated trace header");
  good_offset_ = sizeof(magic) + sizeof(version) + cfg.size();
}

RecordStatus TraceReader::next_status(SlotTraceRecord& out, std::string* error) {
  auto fail = [&](RecordStatus status, const std::string& why) {
    stopped_ = true;
    if (error != nullptr) *error = why;
    return status;
  };
  if (saw_footer_) return fail(RecordStatus::kFooter, "");
  if (stopped_) return fail(RecordStatus::kCorrupt, "reader already stopped");
  std::uint32_t magic = 0;
  in_.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  if (!in_.good()) {
    return fail(RecordStatus::kTruncated, "file ends without a footer");
  }
  if (magic == kFooterMagic) {
    std::uint64_t count = 0;
    in_.read(reinterpret_cast<char*>(&count), sizeof(count));
    if (!in_.good()) {
      return fail(RecordStatus::kTruncated, "file ends inside the footer");
    }
    if (count != records_) {
      return fail(RecordStatus::kCorrupt,
                  "footer record count disagrees with the records present");
    }
    saw_footer_ = true;
    return RecordStatus::kFooter;
  }
  if (magic != kRecordMagic) {
    return fail(RecordStatus::kCorrupt, "corrupt trace record marker");
  }
  std::uint64_t size = 0;
  in_.read(reinterpret_cast<char*>(&size), sizeof(size));
  if (!in_.good()) {
    return fail(RecordStatus::kTruncated, "file ends inside a record header");
  }
  // Bound the payload by the bytes actually left in the file before
  // allocating — a torn/bit-flipped size field must not trigger a
  // multi-gigabyte allocation.
  const std::uint64_t pos = static_cast<std::uint64_t>(in_.tellg());
  if (size > file_bytes_ - pos) {
    return fail(RecordStatus::kTruncated, "record payload exceeds the file");
  }
  std::string payload(static_cast<std::size_t>(size), '\0');
  in_.read(payload.data(), static_cast<std::streamsize>(size));
  std::uint64_t checksum = 0;
  in_.read(reinterpret_cast<char*>(&checksum), sizeof(checksum));
  if (!in_.good()) {
    return fail(RecordStatus::kTruncated, "record cut off mid-write");
  }
  if (fnv1a(payload.data(), payload.size()) != checksum) {
    return fail(RecordStatus::kCorrupt, "trace record checksum mismatch");
  }
  Cursor c(payload.data(), payload.size());
  if (!parse_record(c, out)) {
    return fail(RecordStatus::kCorrupt, "corrupt trace record body");
  }
  ++records_;
  good_offset_ = static_cast<std::uint64_t>(in_.tellg());
  return RecordStatus::kRecord;
}

bool TraceReader::next(SlotTraceRecord& out) {
  std::string error;
  switch (next_status(out, &error)) {
    case RecordStatus::kRecord:
      return true;
    case RecordStatus::kFooter:
    case RecordStatus::kTruncated:
      return false;
    case RecordStatus::kCorrupt:
      MECSC_CHECK_MSG(false, error.empty() ? "corrupt trace record" : error);
  }
  return false;
}

TraceInspection inspect_trace(const std::string& path) {
  TraceReader reader(path);
  TraceInspection insp;
  insp.config = reader.config();
  insp.version = kVersion;
  insp.file_bytes = reader.file_bytes();
  SlotTraceRecord rec;
  for (;;) {
    const std::uint64_t offset = reader.last_good_offset();
    std::string error;
    const RecordStatus status = reader.next_status(rec, &error);
    if (status == RecordStatus::kRecord) {
      TraceRecordInfo info;
      info.slot = rec.slot;
      info.flags = rec.flags;
      info.offset = offset;
      // Record framing is marker(4) + size(8) + payload + checksum(8).
      info.payload_bytes = reader.last_good_offset() - offset - 20;
      insp.records.push_back(info);
      continue;
    }
    if (status == RecordStatus::kFooter) {
      insp.sealed = true;
    } else {
      insp.tail_error = error;
    }
    break;
  }
  insp.salvage_offset = reader.last_good_offset();
  insp.salvage_records = reader.records_read();
  // Second pass for the per-record checksums: cheap (sequential read)
  // and keeps the reader's hot path free of bookkeeping.
  if (!insp.records.empty()) {
    std::ifstream in(path, std::ios::binary);
    for (TraceRecordInfo& info : insp.records) {
      in.seekg(static_cast<std::streamoff>(info.offset + 12 +
                                           info.payload_bytes));
      std::uint64_t checksum = 0;
      in.read(reinterpret_cast<char*>(&checksum), sizeof(checksum));
      info.checksum = checksum;
    }
  }
  return insp;
}

std::vector<std::uint8_t> pack_cached_bits(
    const std::vector<std::vector<bool>>& cached) {
  const std::size_t services = cached.size();
  const std::size_t stations = services == 0 ? 0 : cached.front().size();
  std::vector<std::uint8_t> bits((services * stations + 7) / 8, 0);
  for (std::size_t k = 0; k < services; ++k) {
    for (std::size_t i = 0; i < stations; ++i) {
      if (cached[k][i]) {
        const std::size_t bit = k * stations + i;
        bits[bit / 8] |= static_cast<std::uint8_t>(1U << (bit % 8));
      }
    }
  }
  return bits;
}

bool trace_well_formed(const std::string& path, std::size_t* slots_out) {
  try {
    TraceReader reader(path);
    SlotTraceRecord rec;
    while (reader.next(rec)) {
    }
    if (slots_out != nullptr) *slots_out = reader.records_read();
    return reader.saw_footer();
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace mecsc::serve
