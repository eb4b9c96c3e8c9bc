//===- obs/Memory.h - Allocation tracking and RSS sampling ------*- C++ -*-===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Memory observability: a scoped allocation tracker plus process-level
/// RSS sampling. Mirrors the metrics/tracing split of obs/Metrics.h and
/// obs/Trace.h:
///
///  - The tracker core (MemAccount, MemTracker, MemScope, memAlloc /
///    memFree) is header-only so layers below obs (support/) can record
///    without linking twpp_obs.
///  - The RSS poller, gauge publication and trace counter emission live in
///    Memory.cpp (twpp_obs) because they need threads and the exporters.
///
/// Tracking is off by default. It is enabled per process with
/// setMemTrackingEnabled(true) (what --metrics-out and the benches do);
/// when disabled every hook costs one relaxed atomic load. MemAccount
/// itself works either way: the memory audit binds a MemScope to a private
/// instance so its tallies stay out of the process-wide ones.
///
/// Attribution model: instrumented sites either record against a fixed tag
/// (memAlloc/memFree with a memtags:: constant) when the stage owns the
/// structure, or against the innermost MemScope (memAllocCurrent /
/// memFreeCurrent) when a shared container cannot know its caller. Scoped
/// records with no open scope are dropped — this is what keeps stage-level
/// tags from double counting the bytes of the containers they already
/// measure via obs::deepSize.
///
//===----------------------------------------------------------------------===//

#ifndef TWPP_OBS_MEMORY_H
#define TWPP_OBS_MEMORY_H

#include "obs/Metrics.h"

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace twpp {
namespace obs {

namespace detail {

inline std::atomic<bool> MemTrackingFlag{false};

} // namespace detail

/// True when allocation tracking is on. One relaxed load: cheap enough for
/// per-allocation call sites.
inline bool memTrackingEnabled() {
  return detail::MemTrackingFlag.load(std::memory_order_relaxed);
}

inline void setMemTrackingEnabled(bool Enabled) {
  detail::MemTrackingFlag.store(Enabled, std::memory_order_relaxed);
}

/// Canonical tags of the instrumented subsystems. Free-form tags are
/// allowed, but sticking to this taxonomy keeps twpp memstat and the trace
/// counter tracks comparable across runs (documented in
/// docs/OBSERVABILITY.md).
namespace memtags {
inline constexpr const char *ArchiveDecode = "archive.decode";
inline constexpr const char *ArchiveEncode = "archive.encode";
inline constexpr const char *DbbTables = "dbb.tables";
inline constexpr const char *TwppTables = "twpp.tables";
inline constexpr const char *StreamState = "stream.state";
inline constexpr const char *SequiturGrammar = "sequitur.grammar";
/// Bytes currently memory-mapped by archive readers (support/Mmap.h).
inline constexpr const char *ArchiveMmap = "archive.mmap";
/// Pooled decode-scratch bytes held by read-path arenas (support/Arena.h).
inline constexpr const char *ArenaDecode = "arena.decode";
} // namespace memtags

/// One tag's running byte ledger. All members are plain atomics so accounts
/// can be fed concurrently from parallelFor workers; recording is NOT
/// gated here — gating happens in the memAlloc/memFree helpers and at
/// call sites that cache an account.
class MemAccount {
public:
  void recordAlloc(uint64_t Bytes) {
    Allocs.fetch_add(1, std::memory_order_relaxed);
    Cumulative.fetch_add(Bytes, std::memory_order_relaxed);
    int64_t Now = Live.fetch_add(static_cast<int64_t>(Bytes),
                                 std::memory_order_relaxed) +
                  static_cast<int64_t>(Bytes);
    int64_t Prev = Peak.load(std::memory_order_relaxed);
    while (Now > Prev &&
           !Peak.compare_exchange_weak(Prev, Now, std::memory_order_relaxed))
      ;
  }

  void recordFree(uint64_t Bytes) {
    Frees.fetch_add(1, std::memory_order_relaxed);
    Live.fetch_sub(static_cast<int64_t>(Bytes), std::memory_order_relaxed);
  }

  /// Bytes currently attributed and not yet freed. Negative only when the
  /// instrumentation is unbalanced — the twpp-mem-negative-live check.
  int64_t liveBytes() const { return Live.load(std::memory_order_relaxed); }

  /// High-water mark of liveBytes() since the last reset.
  int64_t peakBytes() const { return Peak.load(std::memory_order_relaxed); }

  /// Total bytes ever recorded, never decremented.
  uint64_t cumulativeBytes() const {
    return Cumulative.load(std::memory_order_relaxed);
  }

  uint64_t allocCount() const { return Allocs.load(std::memory_order_relaxed); }
  uint64_t freeCount() const { return Frees.load(std::memory_order_relaxed); }

  void reset() {
    Live.store(0, std::memory_order_relaxed);
    Peak.store(0, std::memory_order_relaxed);
    Cumulative.store(0, std::memory_order_relaxed);
    Allocs.store(0, std::memory_order_relaxed);
    Frees.store(0, std::memory_order_relaxed);
  }

private:
  std::atomic<int64_t> Live{0};
  std::atomic<int64_t> Peak{0};
  std::atomic<uint64_t> Cumulative{0};
  std::atomic<uint64_t> Allocs{0};
  std::atomic<uint64_t> Frees{0};
};

/// Registry of tag -> account, mirroring MetricsRegistry: references are
/// stable for the registry's lifetime, so call sites cache them in
/// function-local statics.
class MemTracker {
public:
  struct Snapshot {
    std::string Tag;
    int64_t LiveBytes = 0;
    int64_t PeakBytes = 0;
    uint64_t CumulativeBytes = 0;
    uint64_t Allocs = 0;
    uint64_t Frees = 0;
  };

  MemAccount &account(const std::string &Tag) {
    std::lock_guard<std::mutex> Lock(Mutex);
    auto &Slot = Accounts[Tag];
    if (!Slot)
      Slot = std::make_unique<MemAccount>();
    return *Slot;
  }

  /// Sorted by tag, so exports are deterministic.
  std::vector<Snapshot> snapshot() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    std::vector<Snapshot> Out;
    Out.reserve(Accounts.size());
    for (const auto &[Tag, Account] : Accounts)
      Out.push_back({Tag, Account->liveBytes(), Account->peakBytes(),
                     Account->cumulativeBytes(), Account->allocCount(),
                     Account->freeCount()});
    return Out;
  }

  /// Sum of per-tag live bytes. Tags are independent views, not a strict
  /// partition of the heap, so treat the sum as an upper-bound indicator.
  int64_t totalLiveBytes() const {
    int64_t Total = 0;
    for (const Snapshot &S : snapshot())
      Total += S.LiveBytes;
    return Total;
  }

  /// Sum of per-tag peaks (the peaks need not be simultaneous).
  int64_t totalPeakBytes() const {
    int64_t Total = 0;
    for (const Snapshot &S : snapshot())
      Total += S.PeakBytes;
    return Total;
  }

  uint64_t totalAllocs() const {
    uint64_t Total = 0;
    for (const Snapshot &S : snapshot())
      Total += S.Allocs;
    return Total;
  }

  /// Zeroes every account in place; references stay valid.
  void reset() {
    std::lock_guard<std::mutex> Lock(Mutex);
    for (auto &[Tag, Account] : Accounts)
      Account->reset();
  }

private:
  mutable std::mutex Mutex;
  std::map<std::string, std::unique_ptr<MemAccount>> Accounts;
};

/// The process-global tracker.
inline MemTracker &memTracker() {
  static MemTracker Tracker;
  return Tracker;
}

/// RAII tag scope, mirroring PhaseSpan's thread-local span stack: scoped
/// records (memAllocCurrent/memFreeCurrent) attribute to the innermost open
/// scope's account. A scope resolves its account once at construction, so
/// per-record cost is one thread-local load plus the atomic adds.
class MemScope {
public:
  /// With Nest::IfUnscoped the scope stays inactive when some scope is
  /// already open, letting records flow to the outer measuring context —
  /// the decode entry points use this so audits can capture them into a
  /// caller-owned account.
  enum class Nest { Always, IfUnscoped };

  explicit MemScope(const char *Tag, Nest Nesting = Nest::Always) {
    if (!memTrackingEnabled())
      return;
    if (Nesting == Nest::IfUnscoped && current())
      return;
    Account = &memTracker().account(Tag);
    Parent = current();
    current() = this;
    Active = true;
  }

  /// Binds the scope to a caller-owned account instead of the global
  /// tracker — used by audits that must not pollute process-wide tallies.
  explicit MemScope(MemAccount &Local) {
    if (!memTrackingEnabled())
      return;
    Account = &Local;
    Parent = current();
    current() = this;
    Active = true;
  }

  ~MemScope() {
    if (Active)
      current() = Parent;
  }

  MemScope(const MemScope &) = delete;
  MemScope &operator=(const MemScope &) = delete;

  /// The innermost open scope's account on this thread, or nullptr.
  static MemAccount *currentAccount() {
    MemScope *Scope = current();
    return Scope ? Scope->Account : nullptr;
  }

private:
  static MemScope *&current() {
    thread_local MemScope *Current = nullptr;
    return Current;
  }

  MemAccount *Account = nullptr;
  MemScope *Parent = nullptr;
  bool Active = false;
};

/// Records \p Bytes against the fixed tag \p Tag. Hot call sites should
/// cache the account instead:
///   static obs::MemAccount &A = obs::memTracker().account(Tag);
///   if (obs::memTrackingEnabled()) A.recordAlloc(Bytes);
inline void memAlloc(const char *Tag, uint64_t Bytes) {
  if (!memTrackingEnabled())
    return;
  memTracker().account(Tag).recordAlloc(Bytes);
}

inline void memFree(const char *Tag, uint64_t Bytes) {
  if (!memTrackingEnabled())
    return;
  memTracker().account(Tag).recordFree(Bytes);
}

/// Records \p Bytes against the innermost MemScope; dropped when no scope
/// is open. Shared containers (TimestampSet, the decoders) use this so
/// their bytes land in whichever stage is measuring them.
inline void memAllocCurrent(uint64_t Bytes) {
  if (!memTrackingEnabled())
    return;
  if (MemAccount *Account = MemScope::currentAccount())
    Account->recordAlloc(Bytes);
}

inline void memFreeCurrent(uint64_t Bytes) {
  if (!memTrackingEnabled())
    return;
  if (MemAccount *Account = MemScope::currentAccount())
    Account->recordFree(Bytes);
}

//===----------------------------------------------------------------------===//
// Process-level sampling + publication — implemented in Memory.cpp
// (twpp_obs). Callers below obs/ must not use these.
//===----------------------------------------------------------------------===//

/// Current resident set size in bytes (/proc/self/statm on Linux; 0 when
/// unavailable).
uint64_t currentRssBytes();

/// Process peak RSS in bytes (/proc/self/status VmHWM, getrusage fallback).
uint64_t peakRssBytes();

/// Starts the background RSS poller. Samples every \p IntervalMs, keeps a
/// window high-water mark, and — when tracing is on — emits mem.* counter
/// tracks into the flight recorder. Idempotent.
void startMemPoller(uint64_t IntervalMs = 10);

/// Stops the poller thread. Idempotent.
void stopMemPoller();

/// Returns the highest RSS sample since the last call (folding in the
/// current RSS, so it is never 0 on Linux even if the poller is not
/// running), then resets the window. This is what gives benches a
/// per-stage mem.peak_bytes.
uint64_t takeMemWindowPeakBytes();

/// Publishes the mem.* gauges (names::Mem*) into \p Registry from the
/// tracker and the RSS window. Call just before exporting metrics.
void publishMemMetrics(MetricsRegistry &Registry);

/// Emits one sample of memory counter tracks into the flight recorder:
/// mem.rss_bytes plus a mem.live_bytes/<tag> track per tracker tag, and a
/// peak-RSS instant when a new process high-water is observed. No-op when
/// tracing is disabled.
void sampleMemoryCounters();

} // namespace obs
} // namespace twpp

#endif // TWPP_OBS_MEMORY_H
