//===- obs/Metrics.h - Pipeline telemetry primitives ------------*- C++ -*-===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Always-compiled, cheap-when-disabled telemetry for the compaction
/// pipeline: Counter and Gauge primitives plus per-path span timings in a
/// process-global MetricsRegistry. Collection is off by default (library
/// consumers pay one relaxed atomic load per instrumentation site) and is
/// toggled by setMetricsEnabled() (which every metrics sink calls).
///
/// The core is header-only on purpose: support/ (LZW) sits below every
/// other library yet is instrumented, so the primitives must not force a
/// link dependency. Only the exporters (obs/Export.h) live in twpp_obs.
///
/// Instrumentation sites cache handles so the per-event cost is one branch
/// plus one relaxed fetch_add:
///
///   static obs::Counter &Calls = obs::metrics().counter("partition.calls");
///   Calls.add();
///
//===----------------------------------------------------------------------===//

#ifndef TWPP_OBS_METRICS_H
#define TWPP_OBS_METRICS_H

#include "support/Stats.h"

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace twpp::obs {

namespace detail {

/// The global collection switch. Relaxed loads keep disabled
/// instrumentation within noise in hot loops.
inline std::atomic<bool> EnabledFlag{false};

} // namespace detail

/// True when telemetry collection is on.
inline bool enabled() {
  return detail::EnabledFlag.load(std::memory_order_relaxed);
}

/// Turns collection on or off at runtime.
inline void setMetricsEnabled(bool On) {
  detail::EnabledFlag.store(On, std::memory_order_relaxed);
}

/// Monotonically increasing event count. Thread-safe; no-op when disabled.
class Counter {
public:
  void add(uint64_t Delta = 1) {
    if (enabled())
      Value.fetch_add(Delta, std::memory_order_relaxed);
  }

  uint64_t value() const { return Value.load(std::memory_order_relaxed); }

  void reset() { Value.store(0, std::memory_order_relaxed); }

private:
  std::atomic<uint64_t> Value{0};
};

/// Point-in-time signed value (sizes, dictionary occupancy). set() records
/// the latest observation; add() adjusts it.
class Gauge {
public:
  void set(int64_t NewValue) {
    if (enabled())
      Value.store(NewValue, std::memory_order_relaxed);
  }

  void add(int64_t Delta) {
    if (enabled())
      Value.fetch_add(Delta, std::memory_order_relaxed);
  }

  int64_t value() const { return Value.load(std::memory_order_relaxed); }

  void reset() { Value.store(0, std::memory_order_relaxed); }

private:
  std::atomic<int64_t> Value{0};
};

/// Accumulated timing of one span path (see obs/PhaseSpan.h).
struct SpanStats {
  uint64_t Count = 0;
  double TotalUs = 0;  ///< Wall time including child spans.
  double SelfUs = 0;   ///< Wall time excluding child spans.
  RunningStats DurationsUs; ///< Per-invocation totals.
};

/// Process-global metric table. Registration returns references that stay
/// valid for the process lifetime (metrics are never destroyed by reset()),
/// so call sites may cache them in function-local statics.
class MetricsRegistry {
public:
  Counter &counter(const std::string &Name) {
    std::lock_guard<std::mutex> Lock(M);
    auto &Slot = Counters[Name];
    if (!Slot)
      Slot = std::make_unique<Counter>();
    return *Slot;
  }

  Gauge &gauge(const std::string &Name) {
    std::lock_guard<std::mutex> Lock(M);
    auto &Slot = Gauges[Name];
    if (!Slot)
      Slot = std::make_unique<Gauge>();
    return *Slot;
  }

  /// Folds one finished span into the per-path accumulator.
  void recordSpan(const std::string &Path, double TotalUs, double SelfUs) {
    std::lock_guard<std::mutex> Lock(M);
    SpanStats &S = Spans[Path];
    ++S.Count;
    S.TotalUs += TotalUs;
    S.SelfUs += SelfUs;
    S.DurationsUs.add(TotalUs);
  }

  /// Ordered snapshots for the exporters.
  std::vector<std::pair<std::string, uint64_t>> counterSnapshot() const {
    std::lock_guard<std::mutex> Lock(M);
    std::vector<std::pair<std::string, uint64_t>> Out;
    Out.reserve(Counters.size());
    for (const auto &[Name, C] : Counters)
      Out.emplace_back(Name, C->value());
    return Out;
  }

  std::vector<std::pair<std::string, int64_t>> gaugeSnapshot() const {
    std::lock_guard<std::mutex> Lock(M);
    std::vector<std::pair<std::string, int64_t>> Out;
    Out.reserve(Gauges.size());
    for (const auto &[Name, G] : Gauges)
      Out.emplace_back(Name, G->value());
    return Out;
  }

  struct SpanSnapshot {
    std::string Path;
    SpanStats Stats;
  };
  std::vector<SpanSnapshot> spanSnapshot() const {
    std::lock_guard<std::mutex> Lock(M);
    std::vector<SpanSnapshot> Out;
    Out.reserve(Spans.size());
    for (const auto &[Path, S] : Spans)
      Out.push_back({Path, S});
    return Out;
  }

  /// Zeroes every metric in place (references stay valid) and clears the
  /// span table. Used between bench checkpoints and by tests.
  void reset() {
    std::lock_guard<std::mutex> Lock(M);
    for (auto &[Name, C] : Counters)
      C->reset();
    for (auto &[Name, G] : Gauges)
      G->reset();
    Spans.clear();
  }

private:
  mutable std::mutex M;
  std::map<std::string, std::unique_ptr<Counter>> Counters;
  std::map<std::string, std::unique_ptr<Gauge>> Gauges;
  std::map<std::string, SpanStats> Spans;
};

/// The process-global registry.
inline MetricsRegistry &metrics() {
  static MetricsRegistry Registry;
  return Registry;
}

} // namespace twpp::obs

#endif // TWPP_OBS_METRICS_H
