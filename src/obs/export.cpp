#include "obs/export.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <ostream>

#include "obs/telemetry.h"

namespace mecsc::obs {

namespace {

/// JSON-escapes the metric key (keys are library-chosen and plain, but
/// labels could in principle carry anything).
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

/// Prints a double as a JSON-safe token (NaN/inf are not valid JSON).
/// max_digits10 keeps the round-trip exact — big counters (arcs
/// scanned, iterations) must not collapse to 6 significant digits.
void put_number(std::ostream& out, double v) {
  if (std::isfinite(v)) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out << buf;
  } else {
    out << "null";
  }
}

/// Prometheus series names cannot contain '.', '{' appears only in the
/// canonical label suffix which Prometheus shares, so only dots need
/// rewriting: `lp.simplex.iterations` → `lp_simplex_iterations`.
std::string prom_name(const std::string& key) {
  std::string out = key;
  for (char& c : out) {
    if (c == '.') c = '_';
  }
  return out;
}

}  // namespace

void write_jsonl(const Registry& registry, std::ostream& out) {
  for (const auto& event : registry.events_snapshot()) {
    out << event << '\n';
  }
  for (const auto& [key, value] : registry.counters_snapshot()) {
    out << "{\"type\":\"counter\",\"series\":\"" << json_escape(key)
        << "\",\"value\":";
    put_number(out, value);
    out << "}\n";
  }
  for (const auto& [key, value] : registry.gauges_snapshot()) {
    out << "{\"type\":\"gauge\",\"series\":\"" << json_escape(key)
        << "\",\"value\":";
    put_number(out, value);
    out << "}\n";
  }
  for (const auto& h : registry.histograms_snapshot()) {
    out << "{\"type\":\"histogram\",\"series\":\"" << json_escape(h.key)
        << "\",\"count\":" << h.count << ",\"sum\":";
    put_number(out, h.sum);
    out << ",\"min\":";
    put_number(out, h.count > 0 ? h.min : 0.0);
    out << ",\"max\":";
    put_number(out, h.count > 0 ? h.max : 0.0);
    out << ",\"p50\":";
    put_number(out, h.p50);
    out << ",\"p90\":";
    put_number(out, h.p90);
    out << ",\"p99\":";
    put_number(out, h.p99);
    out << "}\n";
  }
  out.flush();
}

void write_prometheus(const Registry& registry, std::ostream& out) {
  for (const auto& [key, value] : registry.counters_snapshot()) {
    std::string name = prom_name(key);
    std::size_t brace = name.find('{');
    out << "# TYPE " << name.substr(0, brace) << " counter\n"
        << name << ' ' << value << '\n';
  }
  for (const auto& [key, value] : registry.gauges_snapshot()) {
    std::string name = prom_name(key);
    std::size_t brace = name.find('{');
    out << "# TYPE " << name.substr(0, brace) << " gauge\n"
        << name << ' ' << value << '\n';
  }
  for (const auto& h : registry.histograms_snapshot()) {
    std::string name = prom_name(h.key);
    out << "# TYPE " << name << " summary\n"
        << name << "_count " << h.count << '\n'
        << name << "_sum " << h.sum << '\n'
        << name << "{quantile=\"0.5\"} " << h.p50 << '\n'
        << name << "{quantile=\"0.9\"} " << h.p90 << '\n'
        << name << "{quantile=\"0.99\"} " << h.p99 << '\n';
  }
  out.flush();
}

void write_csv(const Registry& registry, std::ostream& out) {
  out << "kind,series,count,value_or_sum,min,max,p50,p90,p99\n";
  for (const auto& [key, value] : registry.counters_snapshot()) {
    out << "counter," << key << ",," << value << ",,,,,\n";
  }
  for (const auto& [key, value] : registry.gauges_snapshot()) {
    out << "gauge," << key << ",," << value << ",,,,,\n";
  }
  for (const auto& h : registry.histograms_snapshot()) {
    out << "histogram," << h.key << ',' << h.count << ',' << h.sum << ','
        << (h.count > 0 ? h.min : 0.0) << ',' << (h.count > 0 ? h.max : 0.0)
        << ',' << h.p50 << ',' << h.p90 << ',' << h.p99 << "\n";
  }
  out.flush();
}

ExportFormat format_for_path(const std::string& path) {
  auto ends_with = [&](const char* suffix) {
    std::string s(suffix);
    return path.size() >= s.size() &&
           path.compare(path.size() - s.size(), s.size(), s) == 0;
  };
  if (ends_with(".prom") || ends_with(".txt")) return ExportFormat::kPrometheus;
  if (ends_with(".csv")) return ExportFormat::kCsv;
  return ExportFormat::kJsonl;
}

bool dump(const Registry& registry, std::ostream& fallback) {
  if (!enabled() || registry.empty()) return false;
  const char* path_env = std::getenv("MECSC_TELEMETRY_OUT");
  if (path_env != nullptr && *path_env != '\0') {
    std::string path(path_env);
    std::ofstream file(path);
    if (!file) {
      std::cerr << "mecsc: cannot open MECSC_TELEMETRY_OUT=" << path
                << " for writing; dumping to fallback stream\n";
    } else {
      switch (format_for_path(path)) {
        case ExportFormat::kPrometheus:
          write_prometheus(registry, file);
          break;
        case ExportFormat::kCsv:
          write_csv(registry, file);
          break;
        case ExportFormat::kJsonl:
          write_jsonl(registry, file);
          break;
      }
      return true;
    }
  }
  write_jsonl(registry, fallback);
  return true;
}

}  // namespace mecsc::obs
