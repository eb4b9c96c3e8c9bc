//===- obs/PhaseSpan.h - RAII hierarchical phase timers ---------*- C++ -*-===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// RAII wall-time spans over the steady clock. A span covers one pipeline
/// phase; spans nest, and the registry accumulates per-path call counts,
/// total time and self time (total minus child spans), so a run of the
/// full pipeline yields a breakdown like
///
///   compact            1x   12.3ms   (self 0.1ms)
///   compact/partition  1x    4.0ms
///   compact/dbb        1x    5.2ms
///   compact/twpp       1x    3.0ms
///
/// When event tracing (obs/Trace.h) is on, every span additionally emits
/// a Begin/End pair into the calling thread's ring, so the same
/// instrumentation feeds both the aggregate span table and the timeline.
/// Spans may carry one numeric arg ("function": 12) that surfaces in the
/// exported trace.
///
/// parallelFor workers lose the calling thread's span stack; ScopedRoot
/// re-installs the captured path as the worker-side root so a worker's
/// spans aggregate under "compact/dbb/pool" instead of a bare "pool"
/// (see support/Parallel.cpp).
///
/// When both collection and tracing are disabled a span costs two
/// relaxed atomic loads, reads no clock and records nothing.
///
//===----------------------------------------------------------------------===//

#ifndef TWPP_OBS_PHASESPAN_H
#define TWPP_OBS_PHASESPAN_H

#include "obs/Metrics.h"
#include "obs/Trace.h"

#include <chrono>
#include <string>
#include <string_view>
#include <utility>

namespace twpp::obs {

/// Times the enclosing scope and records it under the hierarchical path
/// formed by every live enclosing span on this thread.
class PhaseSpan {
public:
  explicit PhaseSpan(std::string_view Name) : PhaseSpan(Name, nullptr, 0) {}

  /// Span with one numeric arg, carried into the trace export only (the
  /// aggregate span table keys by path, which must stay low-cardinality).
  PhaseSpan(std::string_view Name, const char *ArgName, int64_t ArgValue) {
    bool Metrics = enabled();
    Tracing = tracingEnabled();
    if (!Metrics && !Tracing)
      return;
    Active = true;
    RecordMetrics = Metrics;
    Parent = currentSpan();
    if (Parent)
      Path = Parent->Path + "/" + std::string(Name);
    else if (externalRoot().empty())
      Path = std::string(Name);
    else
      Path = externalRoot() + "/" + std::string(Name);
    currentSpan() = this;
    if (Tracing)
      traceBegin(Name, ArgName, ArgValue);
    Start = Clock::now();
  }

  ~PhaseSpan() {
    if (!Active)
      return;
    double TotalUs =
        std::chrono::duration<double, std::micro>(Clock::now() - Start)
            .count();
    if (Tracing)
      traceEnd();
    if (RecordMetrics)
      metrics().recordSpan(Path, TotalUs, TotalUs - ChildUs);
    if (Parent)
      Parent->ChildUs += TotalUs;
    currentSpan() = Parent;
  }

  PhaseSpan(const PhaseSpan &) = delete;
  PhaseSpan &operator=(const PhaseSpan &) = delete;

  /// Full hierarchical path ("compact/dbb"); empty when inactive.
  const std::string &path() const { return Path; }

  /// The path of the innermost live span on this thread (the external
  /// root when none is open) — what parallelFor captures to parent its
  /// workers' spans.
  static std::string currentPath() {
    if (PhaseSpan *Top = currentSpan())
      return Top->Path;
    return externalRoot();
  }

  /// Installs \p Root as this thread's span-path root for the guard's
  /// lifetime: spans opened with no live parent prefix their path with
  /// it. Used by parallelFor workers to nest their spans under the
  /// calling phase ("compact/dbb"). Nesting guards restores the previous
  /// root.
  class ScopedRoot {
  public:
    explicit ScopedRoot(std::string Root)
        : Saved(std::exchange(externalRoot(), std::move(Root))) {}
    ~ScopedRoot() { externalRoot() = std::move(Saved); }
    ScopedRoot(const ScopedRoot &) = delete;
    ScopedRoot &operator=(const ScopedRoot &) = delete;

  private:
    std::string Saved;
  };

private:
  static PhaseSpan *&currentSpan() {
    thread_local PhaseSpan *Top = nullptr;
    return Top;
  }

  static std::string &externalRoot() {
    thread_local std::string Root;
    return Root;
  }

  using Clock = std::chrono::steady_clock;

  /// Set only when the span is active: a disabled span reads no clock.
  Clock::time_point Start;
  std::string Path;
  PhaseSpan *Parent = nullptr;
  double ChildUs = 0;
  bool Active = false;
  bool RecordMetrics = false;
  bool Tracing = false;
};

} // namespace twpp::obs

#endif // TWPP_OBS_PHASESPAN_H
