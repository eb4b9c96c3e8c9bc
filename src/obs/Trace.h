//===- obs/Trace.h - Event-tracing flight recorder --------------*- C++ -*-===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An always-compiled, cheap-when-disabled event-tracing flight recorder
/// for the pipeline's own execution. Where obs/Metrics.h aggregates (how
/// much), the recorder keeps a timeline (when): each thread writes into
/// its own fixed-capacity ring buffer with no locks on the hot path, the
/// oldest events are overwritten — a true flight recorder — and an export
/// drains every ring into Chrome trace-event JSON that chrome://tracing
/// and Perfetto load directly.
///
/// Event kinds mirror the trace-event format:
///
///   * Begin/End   — duration slices, emitted by obs::PhaseSpan;
///   * Instant     — point events ("archive encoded");
///   * Counter     — sampled values (queue depth, stage bytes).
///
/// Like the metrics core, the recorder is header-only on purpose:
/// support/ (LZW, parallelFor) sits below every other library yet emits
/// events, so recording must not force a link dependency. Only the JSON
/// exporter (exportTraceJson) lives in twpp_obs (obs/Trace.cpp).
///
/// When tracing is disabled every record call costs one relaxed atomic
/// load and touches no memory: rings are created lazily on a thread's
/// first recorded event, so a disabled run allocates nothing.
///
//===----------------------------------------------------------------------===//

#ifndef TWPP_OBS_TRACE_H
#define TWPP_OBS_TRACE_H

#include "obs/Metrics.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace twpp::obs {

namespace trace_detail {

/// The global recording switch, independent of the metrics switch so a
/// trace can be captured without paying span-table aggregation and vice
/// versa.
inline std::atomic<bool> TracingFlag{false};

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Copies \p Text into the fixed buffer \p Dst, truncating; always
/// NUL-terminates. Never allocates.
template <size_t N> void copyName(char (&Dst)[N], std::string_view Text) {
  size_t Len = Text.size() < N - 1 ? Text.size() : N - 1;
  if (Len != 0) // an empty view may hold a null pointer, which memcpy rejects
    std::memcpy(Dst, Text.data(), Len);
  Dst[Len] = '\0';
}

} // namespace trace_detail

/// The live ring-overflow counter's name. Defined here (not obs/Names.h)
/// so the ring's push path needs no extra include; obs/Names.h declares
/// names::TraceDroppedEvents with the same spelling and the obs tests
/// pin the two together.
constexpr const char *droppedEventsMetricName() {
  return "trace.dropped_events";
}

/// True when event recording is on.
inline bool tracingEnabled() {
  return trace_detail::TracingFlag.load(std::memory_order_relaxed);
}

/// Turns recording on or off at runtime.
inline void setTracingEnabled(bool On) {
  trace_detail::TracingFlag.store(On, std::memory_order_relaxed);
}

/// One recorded event. Names are stored inline (truncated, never
/// allocated) so pushing a record writes only into the pre-allocated ring.
struct TraceRecord {
  enum class Kind : uint8_t {
    Begin,      ///< Duration slice opens ("ph":"B").
    End,        ///< Duration slice closes ("ph":"E").
    Instant,    ///< Point event ("ph":"i").
    Counter,    ///< Counter sample ("ph":"C").
  };

  static constexpr size_t NameCapacity = 48;
  static constexpr size_t ArgNameCapacity = 16;

  uint64_t TsNs = 0; ///< Steady-clock nanoseconds.
  int64_t Value = 0; ///< Counter sample or slice arg value.
  Kind K = Kind::Instant;
  bool HasArg = false;           ///< Value/ArgName are meaningful.
  char Name[NameCapacity];       ///< Event name (slice, counter).
  char ArgName[ArgNameCapacity]; ///< Arg key for Begin/Instant events.
};

/// One thread's fixed-capacity ring. Single writer (the owning thread);
/// snapshots are taken only while no thread is recording (the exporters
/// run after parallelFor workers have joined).
class TraceRing {
public:
  TraceRing(uint32_t Tid, std::string Name, size_t Capacity)
      : Tid(Tid), ThreadName(std::move(Name)),
        Slots(Capacity < 2 ? 2 : Capacity) {}

  void push(TraceRecord::Kind K, std::string_view Name, const char *ArgName,
            int64_t Value, bool HasArg) {
    uint64_t Seq = Head.load(std::memory_order_relaxed);
    if (Seq >= Slots.size()) {
      // This push overwrites the oldest surviving event. Publish the
      // overflow live (trace.dropped_events) so ring sizing is observable
      // without exporting a trace; Counter::add is a no-op relaxed load
      // when metric collection is off.
      static Counter &Dropped = metrics().counter(droppedEventsMetricName());
      Dropped.add();
    }
    TraceRecord &R = Slots[Seq % Slots.size()];
    R.TsNs = trace_detail::nowNs();
    R.Value = Value;
    R.K = K;
    R.HasArg = HasArg;
    trace_detail::copyName(R.Name, Name);
    trace_detail::copyName(R.ArgName, ArgName ? std::string_view(ArgName)
                                              : std::string_view());
    Head.store(Seq + 1, std::memory_order_release);
  }

  uint32_t tid() const { return Tid; }
  const std::string &threadName() const { return ThreadName; }
  void setThreadName(std::string Name) { ThreadName = std::move(Name); }
  size_t capacity() const { return Slots.size(); }

  /// Total events ever pushed (monotonic; exceeds capacity after wrap).
  uint64_t pushCount() const { return Head.load(std::memory_order_acquire); }

  /// The surviving window, oldest first. Quiescence is the caller's
  /// contract (see class comment).
  std::vector<TraceRecord> drainOrdered() const {
    uint64_t Seq = pushCount();
    uint64_t First = Seq > Slots.size() ? Seq - Slots.size() : 0;
    std::vector<TraceRecord> Out;
    Out.reserve(Seq - First);
    for (uint64_t I = First; I != Seq; ++I)
      Out.push_back(Slots[I % Slots.size()]);
    return Out;
  }

  /// Incremental consumption (obs/SelfProfile): copies the records with
  /// sequence numbers in [\p Cursor, head) that still survive in the
  /// ring and advances \p Cursor to head. Records already overwritten by
  /// wraparound are skipped and added to \p Lost. After the copy the
  /// window is re-validated against the head: entries the owning thread
  /// may have overwritten mid-copy are discarded into \p Lost rather
  /// than returned torn. Reading a ring while its owner records is
  /// benign for these POD slots, but consumers that need an exact
  /// window should drain at quiescent points (the contract snapshot()
  /// documents).
  std::vector<TraceRecord> drainFrom(uint64_t &Cursor, uint64_t &Lost) const {
    uint64_t Seq = pushCount();
    uint64_t First = Seq > Slots.size() ? Seq - Slots.size() : 0;
    if (Cursor < First) {
      Lost += First - Cursor;
      Cursor = First;
    }
    std::vector<TraceRecord> Out;
    Out.reserve(static_cast<size_t>(Seq - Cursor));
    uint64_t Begin = Cursor;
    for (uint64_t I = Begin; I != Seq; ++I)
      Out.push_back(Slots[I % Slots.size()]);
    // Re-validate: pushes racing the copy above may have recycled the
    // slots we started from.
    uint64_t NewSeq = pushCount();
    uint64_t NewFirst = NewSeq > Slots.size() ? NewSeq - Slots.size() : 0;
    if (NewFirst > Begin) {
      uint64_t Torn = std::min<uint64_t>(NewFirst - Begin, Out.size());
      Out.erase(Out.begin(), Out.begin() + static_cast<size_t>(Torn));
      Lost += Torn;
    }
    Cursor = Seq;
    return Out;
  }

  /// Zeroes the ring in place and optionally resizes it. Caller must
  /// guarantee the owning thread is not recording.
  void reset(size_t NewCapacity) {
    if (NewCapacity >= 2 && NewCapacity != Slots.size())
      Slots.assign(NewCapacity, TraceRecord());
    Head.store(0, std::memory_order_release);
  }

private:
  uint32_t Tid;
  std::string ThreadName;
  std::vector<TraceRecord> Slots;
  std::atomic<uint64_t> Head{0};
};

/// Process-global registry of per-thread rings. Rings are created on a
/// thread's first recorded event and never destroyed (thread-local
/// cached pointers stay valid for the process lifetime); reset() zeroes
/// them in place.
class TraceRecorder {
public:
  /// Default per-thread ring capacity (events); ~80 bytes per slot.
  /// Overridable with setRingCapacity().
  static constexpr size_t DefaultRingCapacity = 1 << 16;

  /// The calling thread's ring, created (and named) on first use.
  TraceRing &ringForCurrentThread() {
    TraceRing *&Cached = cachedRing();
    if (!Cached) {
      std::lock_guard<std::mutex> Lock(M);
      uint32_t Tid = static_cast<uint32_t>(Rings.size());
      std::string Name = pendingThreadName();
      if (Name.empty())
        Name = Tid == 0 ? "main" : "thread-" + std::to_string(Tid);
      Rings.push_back(std::make_unique<TraceRing>(Tid, std::move(Name),
                                                  Capacity));
      Cached = Rings.back().get();
    }
    return *Cached;
  }

  /// Names the calling thread in exports. Applied retroactively if the
  /// ring already exists, or remembered for its creation.
  void nameCurrentThread(std::string Name) {
    if (TraceRing *Ring = cachedRing()) {
      std::lock_guard<std::mutex> Lock(M);
      Ring->setThreadName(std::move(Name));
      return;
    }
    pendingThreadName() = std::move(Name);
  }

  /// Capacity for rings created after this call; reset() applies it to
  /// existing rings too.
  void setRingCapacity(size_t NewCapacity) {
    std::lock_guard<std::mutex> Lock(M);
    if (NewCapacity >= 2)
      Capacity = NewCapacity;
  }

  struct ThreadSnapshot {
    uint32_t Tid = 0;
    std::string Name;
    uint64_t Dropped = 0; ///< Events overwritten by ring wraparound.
    std::vector<TraceRecord> Records;
  };

  /// Drains every ring, oldest events first per thread. Call only while
  /// no thread is recording (workers joined, spans closed or about to be
  /// synthesized closed by the exporter).
  std::vector<ThreadSnapshot> snapshot() const {
    std::lock_guard<std::mutex> Lock(M);
    std::vector<ThreadSnapshot> Out;
    Out.reserve(Rings.size());
    for (const auto &Ring : Rings) {
      ThreadSnapshot S;
      S.Tid = Ring->tid();
      S.Name = Ring->threadName();
      S.Records = Ring->drainOrdered();
      uint64_t Pushed = Ring->pushCount();
      S.Dropped = Pushed - S.Records.size();
      Out.push_back(std::move(S));
    }
    return Out;
  }

  /// Stable handle to one live ring, for incremental consumers
  /// (obs/SelfProfile) that keep per-ring drain cursors across calls.
  struct RingRef {
    uint32_t Tid = 0;
    std::string Name;
    TraceRing *Ring = nullptr; ///< Valid for the process lifetime.
  };

  /// Every ring created so far, in tid order. Rings are never destroyed,
  /// so the pointers outlive the call; new threads may add rings later,
  /// which callers discover by calling again (tids are dense, so the
  /// vector only ever grows at the tail).
  std::vector<RingRef> rings() const {
    std::lock_guard<std::mutex> Lock(M);
    std::vector<RingRef> Out;
    Out.reserve(Rings.size());
    for (const auto &Ring : Rings)
      Out.push_back(RingRef{Ring->tid(), Ring->threadName(), Ring.get()});
    return Out;
  }

  /// Zeroes every ring in place and re-applies the current capacity.
  /// Same quiescence contract as snapshot().
  void reset() {
    std::lock_guard<std::mutex> Lock(M);
    for (auto &Ring : Rings)
      Ring->reset(Capacity);
  }

private:
  static TraceRing *&cachedRing() {
    thread_local TraceRing *Ring = nullptr;
    return Ring;
  }
  static std::string &pendingThreadName() {
    thread_local std::string Name;
    return Name;
  }

  mutable std::mutex M;
  std::vector<std::unique_ptr<TraceRing>> Rings;
  size_t Capacity = DefaultRingCapacity;
};

/// The process-global recorder.
inline TraceRecorder &traceRecorder() {
  static TraceRecorder Recorder;
  return Recorder;
}

//===----------------------------------------------------------------------===//
// Recording helpers — the call-site API. Each is a no-op (one relaxed
// load) when tracing is disabled.
//===----------------------------------------------------------------------===//

/// Opens a duration slice on this thread, optionally with one numeric
/// arg ("function": 12). Pair with traceEnd().
inline void traceBegin(std::string_view Name, const char *ArgName = nullptr,
                       int64_t ArgValue = 0) {
  if (!tracingEnabled())
    return;
  traceRecorder().ringForCurrentThread().push(TraceRecord::Kind::Begin, Name,
                                              ArgName, ArgValue,
                                              ArgName != nullptr);
}

/// Closes the innermost open slice on this thread.
inline void traceEnd() {
  if (!tracingEnabled())
    return;
  traceRecorder().ringForCurrentThread().push(TraceRecord::Kind::End, {},
                                              nullptr, 0, false);
}

/// Thread-scoped point event.
inline void traceInstant(std::string_view Name, const char *ArgName = nullptr,
                         int64_t ArgValue = 0) {
  if (!tracingEnabled())
    return;
  traceRecorder().ringForCurrentThread().push(TraceRecord::Kind::Instant,
                                              Name, ArgName, ArgValue,
                                              ArgName != nullptr);
}

/// Samples a counter track (queue depth, stage bytes).
inline void traceCounter(std::string_view Name, int64_t Value) {
  if (!tracingEnabled())
    return;
  traceRecorder().ringForCurrentThread().push(TraceRecord::Kind::Counter,
                                              Name, nullptr, Value, true);
}

/// Names the calling thread in trace exports ("mem-poller").
inline void setCurrentThreadName(std::string Name) {
  if (!tracingEnabled())
    return;
  traceRecorder().nameCurrentThread(std::move(Name));
}

//===----------------------------------------------------------------------===//
// Exporters — implemented in obs/Trace.cpp (twpp_obs), so recording call
// sites below the obs library never link against them.
//===----------------------------------------------------------------------===//

/// Drains every ring into one Chrome trace-event JSON document
/// ({"traceEvents": [...], ...}) loadable by chrome://tracing and
/// Perfetto. Per tid, B/E events are re-balanced against ring wraparound:
/// orphaned E events (whose B was overwritten) are dropped and unclosed
/// B events get a synthetic E at the thread's last timestamp.
std::string exportTraceJson(const TraceRecorder &Recorder);

/// Writes exportTraceJson(\p Recorder) to \p Path. \returns true on
/// success.
bool writeTraceJsonFile(const std::string &Path,
                        const TraceRecorder &Recorder);

} // namespace twpp::obs

#endif // TWPP_OBS_TRACE_H
