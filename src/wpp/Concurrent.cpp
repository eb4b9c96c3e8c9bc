//===- wpp/Concurrent.cpp - Thread-partitioned compacted WPPs -------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//

#include "wpp/Concurrent.h"

#include "obs/Metrics.h"
#include "obs/Names.h"
#include "obs/PhaseSpan.h"

#include <algorithm>
#include <cassert>
#include <map>

using namespace twpp;

std::vector<ThreadAccessTable>
twpp::buildAccessTables(const ConcurrentTrace &Trace) {
  // Group (thread, addr) -> sorted unique reads/writes. The access stream
  // is sorted (Thread, Time, Addr, Kind), so per-address lists come out
  // time-ordered; duplicates (the same access kind twice in one block)
  // collapse because TimestampSet elements are a set.
  std::vector<std::map<Address, std::pair<std::vector<Timestamp>,
                                          std::vector<Timestamp>>>>
      PerThread(Trace.Threads.size());
  for (const AccessEvent &A : Trace.Accesses) {
    auto &Lists = PerThread[A.Thread][A.Addr];
    std::vector<Timestamp> &List =
        A.EventKind == AccessEvent::Kind::Read ? Lists.first : Lists.second;
    if (List.empty() || List.back() != A.Time)
      List.push_back(A.Time);
  }

  std::vector<ThreadAccessTable> Tables(Trace.Threads.size());
  for (size_t T = 0; T != Tables.size(); ++T) {
    Tables[T].Accesses.reserve(PerThread[T].size());
    for (auto &[Addr, Lists] : PerThread[T]) {
      AddressAccess Entry;
      Entry.Addr = Addr;
      if (!Lists.first.empty())
        Entry.Reads = TimestampSet::fromSorted(Lists.first);
      if (!Lists.second.empty())
        Entry.Writes = TimestampSet::fromSorted(Lists.second);
      Tables[T].Accesses.push_back(std::move(Entry));
    }
  }
  return Tables;
}

ConcurrentWpp twpp::compactConcurrentWpp(const ConcurrentTrace &Trace) {
  obs::PhaseSpan Span("compact_concurrent");
  uint32_t ThreadCount = static_cast<uint32_t>(Trace.Threads.size());
  uint32_t FunctionCount = Trace.FunctionCount;

  ConcurrentWpp Out;
  Out.Conc.FunctionCount = FunctionCount;
  Out.Conc.Threads.resize(ThreadCount);
  Out.Body.Functions.resize(static_cast<size_t>(ThreadCount) * FunctionCount);
  for (uint32_t T = 0; T != ThreadCount; ++T) {
    Out.Conc.Threads[T] = {Trace.Threads[T].Id,
                           Trace.Threads[T].Trace.blockEventCount()};
    // Threads are independent single-threaded WPPs, compacted whole.
    TwppWpp Wpp;
    {
      obs::PhaseSpan ThreadSpan("compact_thread", "thread",
                                static_cast<int64_t>(T));
      Wpp = compactWpp(Trace.Threads[T].Trace);
    }
    assert(Wpp.Functions.size() == FunctionCount &&
           "per-thread compaction must cover the shared function space");
    // Thread-major virtual ids: thread T's function F lands at
    // T * FunctionCount + F. The DCG merge offsets node indices by the
    // running node count, so each thread's subforest stays contiguous
    // (threadBody relies on node.Function / FunctionCount to slice it
    // back out).
    uint32_t Base = T * FunctionCount;
    for (uint32_t F = 0; F != FunctionCount; ++F)
      Out.Body.Functions[Base + F] = std::move(Wpp.Functions[F]);
    uint32_t NodeBase = static_cast<uint32_t>(Out.Body.Dcg.Nodes.size());
    for (DcgNode &Node : Wpp.Dcg.Nodes) {
      Node.Function += Base;
      for (uint32_t &Child : Node.Children)
        Child += NodeBase;
      Out.Body.Dcg.Nodes.push_back(std::move(Node));
    }
    for (uint32_t Root : Wpp.Dcg.Roots)
      Out.Body.Dcg.Roots.push_back(Root + NodeBase);
  }
  Out.Conc.Edges = deriveHbEdges(Trace);
  Out.Conc.Accesses = buildAccessTables(Trace);

  if (obs::enabled()) {
    obs::MetricsRegistry &M = obs::metrics();
    M.counter(obs::names::RacesThreadsCompacted).add(ThreadCount);
    M.counter(obs::names::RacesEdgesDerived).add(Out.Conc.Edges.size());
    M.counter(obs::names::RacesEdgeRuns).add(Out.Conc.Edges.runs().size());
  }
  return Out;
}

TwppWpp twpp::threadBody(const ConcurrentWpp &Wpp, uint32_t ThreadIndex) {
  uint32_t FunctionCount = Wpp.Conc.FunctionCount;
  uint32_t Base = ThreadIndex * FunctionCount;
  TwppWpp Out;
  Out.Functions.assign(Wpp.Body.Functions.begin() + Base,
                       Wpp.Body.Functions.begin() + Base + FunctionCount);
  // The thread's DCG nodes are a contiguous index range by construction;
  // find it by function-id ownership and rebase.
  uint32_t Lo = static_cast<uint32_t>(Wpp.Body.Dcg.Nodes.size());
  uint32_t Hi = 0;
  for (uint32_t I = 0; I != Wpp.Body.Dcg.Nodes.size(); ++I) {
    uint32_t Owner = Wpp.Body.Dcg.Nodes[I].Function / FunctionCount;
    if (Owner == ThreadIndex) {
      Lo = std::min(Lo, I);
      Hi = std::max(Hi, I + 1);
    }
  }
  for (uint32_t I = Lo; I < Hi; ++I) {
    DcgNode Node = Wpp.Body.Dcg.Nodes[I];
    assert(Node.Function / FunctionCount == ThreadIndex &&
           "thread subforests must be contiguous");
    Node.Function -= Base;
    for (uint32_t &Child : Node.Children)
      Child -= Lo;
    Out.Dcg.Nodes.push_back(std::move(Node));
  }
  for (uint32_t Root : Wpp.Body.Dcg.Roots) {
    if (Root >= Lo && Root < Hi)
      Out.Dcg.Roots.push_back(Root - Lo);
  }
  return Out;
}

RawTrace twpp::reconstructThreadTrace(const ConcurrentWpp &Wpp,
                                      uint32_t ThreadIndex) {
  RawTrace Trace = reconstructRawTrace(threadBody(Wpp, ThreadIndex));
  Trace.FunctionCount = Wpp.Conc.FunctionCount;
  return Trace;
}
