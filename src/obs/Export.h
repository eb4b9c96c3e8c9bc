//===- obs/Export.h - Metric exporters --------------------------*- C++ -*-===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Three views of a MetricsRegistry snapshot:
///
///  * renderMetricsTable — human-readable tables (support/TablePrinter),
///    printed by `twpp ... --metrics-table` and test diagnostics.
///  * exportMetricsJson / exportMetricsJsonLines — machine-readable form.
///    The single-object export backs `twpp --metrics-out`; the
///    line-per-record form is what the BENCH_*.json perf trajectory files
///    accumulate (one labeled record per metric per bench checkpoint).
///  * exportMetricsProm — Prometheus text exposition
///    (`twpp --metrics-format=prom`), for scrape endpoints.
///
//===----------------------------------------------------------------------===//

#ifndef TWPP_OBS_EXPORT_H
#define TWPP_OBS_EXPORT_H

#include "obs/Metrics.h"

#include <string>

namespace twpp::obs {

/// Renders every counter, gauge and span as aligned tables.
std::string renderMetricsTable(const MetricsRegistry &Registry);

/// One JSON object: {"schema": "twpp-metrics-v1", "counters": {...},
/// "gauges": {...}, "spans": {...}}.
std::string exportMetricsJson(const MetricsRegistry &Registry);

/// JSON-lines form: one {"label", "kind", "name", ...} object per line for
/// every metric in the registry, labeled \p Label.
std::string exportMetricsJsonLines(const MetricsRegistry &Registry,
                                   const std::string &Label);

/// Writes exportMetricsJson(\p Registry) to \p Path. \returns true on
/// success.
bool writeMetricsJsonFile(const std::string &Path,
                          const MetricsRegistry &Registry);

/// Prometheus text-exposition form (`--metrics-format=prom`), groundwork
/// for the archive-daemon's scrape endpoint: counters/gauges map to
/// twpp_-prefixed series and phase spans to path-labelled series with
/// label values escaped per the exposition spec.
std::string exportMetricsProm(const MetricsRegistry &Registry);

} // namespace twpp::obs

#endif // TWPP_OBS_EXPORT_H
