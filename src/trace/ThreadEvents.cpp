//===- trace/ThreadEvents.cpp - Thread-aware WPP event model --------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//

#include "trace/ThreadEvents.h"

#include <map>
#include <optional>

using namespace twpp;

uint64_t ConcurrentTrace::blockEventCount() const {
  uint64_t Total = 0;
  for (const ThreadTrace &T : Threads)
    Total += T.Trace.blockEventCount();
  return Total;
}

bool ConcurrentTrace::isWellFormed() const {
  std::vector<uint64_t> BlockCounts(Threads.size(), 0);
  for (size_t I = 0; I != Threads.size(); ++I) {
    const ThreadTrace &T = Threads[I];
    if (T.Id != I)
      return false;
    if (T.Trace.FunctionCount != FunctionCount)
      return false;
    if (!T.Trace.isWellFormed())
      return false;
    BlockCounts[I] = T.Trace.blockEventCount();
  }

  // Sync stream: per-thread times monotone and in range; mutex and
  // fork/join discipline.
  std::vector<uint32_t> LastTime(Threads.size(), 0);
  std::map<LockId, std::optional<ThreadId>> Holder;
  std::vector<bool> Forked(Threads.size(), false);
  for (const SyncEvent &S : Syncs) {
    if (S.Thread >= Threads.size())
      return false;
    if (S.Time < LastTime[S.Thread] || S.Time > BlockCounts[S.Thread])
      return false;
    LastTime[S.Thread] = S.Time;
    switch (S.EventKind) {
    case SyncEvent::Kind::Acquire: {
      std::optional<ThreadId> &H = Holder[S.Object];
      if (H)
        return false; // acquire of a held lock
      H = S.Thread;
      break;
    }
    case SyncEvent::Kind::Release: {
      std::optional<ThreadId> &H = Holder[S.Object];
      if (!H || *H != S.Thread)
        return false; // release by a non-holder
      H.reset();
      break;
    }
    case SyncEvent::Kind::Fork:
      if (S.Object >= Threads.size() || S.Object == S.Thread)
        return false;
      if (Forked[S.Object])
        return false; // a thread starts once
      Forked[S.Object] = true;
      break;
    case SyncEvent::Kind::Join:
      if (S.Object >= Threads.size() || S.Object == S.Thread)
        return false;
      break;
    }
  }

  // Access stream: in range and sorted (Thread, Time, Addr, Kind).
  for (size_t I = 0; I != Accesses.size(); ++I) {
    const AccessEvent &A = Accesses[I];
    if (A.Thread >= Threads.size())
      return false;
    if (A.Time < 1 || A.Time > BlockCounts[A.Thread])
      return false;
    if (I > 0) {
      const AccessEvent &P = Accesses[I - 1];
      auto Key = [](const AccessEvent &E) {
        return std::make_tuple(E.Thread, E.Time, E.Addr,
                               static_cast<uint8_t>(E.EventKind));
      };
      if (Key(A) < Key(P))
        return false;
    }
  }
  return true;
}

std::vector<HbEdge> twpp::deriveHbEdges(const ConcurrentTrace &Trace) {
  std::vector<HbEdge> Edges;
  // Last release per lock; the release->next-acquire chain is what makes
  // lock-induced ordering transitive across critical sections.
  std::map<LockId, std::pair<ThreadId, uint32_t>> LastRelease;
  std::vector<uint32_t> BlockCounts(Trace.Threads.size(), 0);
  for (size_t I = 0; I != Trace.Threads.size(); ++I)
    BlockCounts[I] =
        static_cast<uint32_t>(Trace.Threads[I].Trace.blockEventCount());

  for (const SyncEvent &S : Trace.Syncs) {
    switch (S.EventKind) {
    case SyncEvent::Kind::Acquire: {
      auto It = LastRelease.find(S.Object);
      if (It != LastRelease.end() && It->second.first != S.Thread)
        Edges.push_back({HbEdge::Kind::Lock, It->second.first,
                         It->second.second, S.Thread, S.Time});
      break;
    }
    case SyncEvent::Kind::Release:
      LastRelease[S.Object] = {S.Thread, S.Time};
      break;
    case SyncEvent::Kind::Fork:
      Edges.push_back({HbEdge::Kind::Fork, S.Thread, S.Time, S.Object, 0});
      break;
    case SyncEvent::Kind::Join:
      if (S.Object < BlockCounts.size())
        Edges.push_back({HbEdge::Kind::Join, S.Object, BlockCounts[S.Object],
                         S.Thread, S.Time});
      break;
    }
  }
  return Edges;
}

HbEdgeRuns::HbEdgeRuns(const std::vector<HbEdge> &Edges) {
  Owner.reserve(Edges.size());
  for (const HbEdge &E : Edges)
    push_back(E);
}

void HbEdgeRuns::push_back(const HbEdge &E) {
  const uint32_t Index = static_cast<uint32_t>(Owner.size());
  auto [It, Fresh] = Open.try_emplace(
      {static_cast<uint8_t>(E.EdgeKind), E.FromThread, E.ToThread},
      static_cast<uint32_t>(Runs.size()));
  if (!Fresh) {
    HbEdgeRun &R = Runs[It->second];
    const HbEdge Last = R.at(R.Count - 1);
    const uint32_t IndexStep = Index - R.indexAt(R.Count - 1);
    const int64_t FromStep = int64_t{E.FromTime} - Last.FromTime;
    const int64_t ToStep = int64_t{E.ToTime} - Last.ToTime;
    if (R.Count == 1 || (R.IndexStep == IndexStep && R.FromStep == FromStep &&
                         R.ToStep == ToStep)) {
      R.IndexStep = IndexStep;
      R.FromStep = FromStep;
      R.ToStep = ToStep;
      ++R.Count;
      Owner.push_back(It->second);
      return;
    }
    It->second = static_cast<uint32_t>(Runs.size());
  }
  Owner.push_back(static_cast<uint32_t>(Runs.size()));
  Runs.push_back({E, Index, 1, 0, 0, 0});
}

std::vector<HbEdge> HbEdgeRuns::expand() const {
  std::vector<HbEdge> Edges;
  Edges.reserve(size());
  forEach([&Edges](uint32_t, const HbEdge &E) { Edges.push_back(E); });
  return Edges;
}

bool HbEdgeRuns::tile(std::vector<HbEdgeRun> Runs, HbEdgeRuns &Out) {
  Out = HbEdgeRuns();
  uint64_t Total = 0;
  for (const HbEdgeRun &R : Runs) {
    if (R.Count == 0 || (R.Count > 1 && R.IndexStep == 0))
      return false;
    Total += R.Count;
    if (Total > MaxEdges)
      return false;
  }
  constexpr uint32_t Free = UINT32_MAX;
  std::vector<uint32_t> Owner(static_cast<size_t>(Total), Free);
  uint64_t Lowest = 0; // the lowest index no placed run covers
  for (uint32_t Id = 0; Id != Runs.size(); ++Id) {
    HbEdgeRun &R = Runs[Id];
    while (Lowest != Total && Owner[Lowest] != Free)
      ++Lowest;
    R.Index = static_cast<uint32_t>(Lowest);
    if (Lowest + uint64_t{R.Count - 1} * R.IndexStep >= Total)
      return false;
    for (uint32_t K = 0; K != R.Count; ++K) {
      uint32_t &Slot = Owner[R.indexAt(K)];
      if (Slot != Free)
        return false;
      Slot = Id;
    }
  }
  Out.Runs = std::move(Runs);
  Out.Owner = std::move(Owner);
  return true;
}

bool HbEdgeRuns::operator==(const HbEdgeRuns &Other) const {
  if (Runs == Other.Runs)
    return true;
  return size() == Other.size() && expand() == Other.expand();
}
