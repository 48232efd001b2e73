#ifndef MECSC_OBS_EXPORT_H
#define MECSC_OBS_EXPORT_H

// Structured exporters for a metrics Registry (DESIGN.md
// "Observability"): JSONL events+series, Prometheus text exposition,
// and CSV. Format selection and output destination for the end-of-run
// dump follow MECSC_TELEMETRY / MECSC_TELEMETRY_OUT.

#include <iosfwd>
#include <string>

#include "obs/metrics.h"

namespace mecsc::obs {

/// One JSON object per line: first every recorded event (full mode
/// fills these), then one line per counter / gauge / histogram series.
void write_jsonl(const Registry& registry, std::ostream& out);

/// Prometheus text exposition format (# TYPE comments, histograms as
/// _count/_sum plus quantile gauges).
void write_prometheus(const Registry& registry, std::ostream& out);

/// `kind,series,count,value_or_sum,min,max,p50,p90,p99` rows.
void write_csv(const Registry& registry, std::ostream& out);

/// Export format of `dump`.
enum class ExportFormat {
  kJsonl,       ///< One JSON object per line (events + series).
  kPrometheus,  ///< Prometheus text exposition format.
  kCsv,         ///< One `kind,series,...` row per series.
};

/// Derives the format from the output path's extension: `.prom`/`.txt`
/// → Prometheus, `.csv` → CSV, anything else → JSONL.
ExportFormat format_for_path(const std::string& path);

/// End-of-run dump honouring the environment: no-op when telemetry is
/// off or the registry is empty; otherwise writes to MECSC_TELEMETRY_OUT
/// (format by extension) or, when unset, JSONL to `fallback`. Returns
/// true when anything was written.
bool dump(const Registry& registry, std::ostream& fallback);

}  // namespace mecsc::obs

#endif  // MECSC_OBS_EXPORT_H
