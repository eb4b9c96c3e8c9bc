//===- verify/ThreadChecks.cpp - Thread/race invariant checks -------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//

#include "verify/ThreadChecks.h"

#include "races/HappensBefore.h"
#include "verify/ArchiveChecks.h"
#include "verify/Checks.h"

#include <algorithm>
#include <string>
#include <string_view>
#include <utility>

using namespace twpp;
using namespace twpp::verify;

namespace {

void checkThreadPartition(const ConcurrencyInfo &Conc, const TwppWpp *Body,
                          DiagnosticEngine &Engine) {
  for (size_t T = 0; T != Conc.Threads.size(); ++T)
    if (Conc.Threads[T].Id != T)
      Engine.report(checks::ThreadPartition, Severity::Error,
                    "thread table row " + std::to_string(T) +
                        " carries id " + std::to_string(Conc.Threads[T].Id) +
                        " (ids must be dense)",
                    "thread table");
  if (!Body)
    return;
  uint64_t Expected =
      static_cast<uint64_t>(Conc.Threads.size()) * Conc.FunctionCount;
  if (Body->Functions.size() != Expected) {
    Engine.report(checks::ThreadPartition, Severity::Error,
                  "merged body holds " +
                      std::to_string(Body->Functions.size()) +
                      " function tables but the thread table implies " +
                      std::to_string(Expected),
                  "thread table");
    return;
  }
  // Per thread, the use-counted uncompacted trace lengths must sum to
  // the recorded block count: the thread's per-function timestamp sets
  // then cover its 1..N block clock exactly (each function's 1..Length
  // partition is checked by the archive family already).
  for (size_t T = 0; T != Conc.Threads.size(); ++T) {
    uint64_t Total = 0;
    for (uint32_t F = 0; F != Conc.FunctionCount; ++F) {
      const TwppFunctionTable &Table =
          Body->Functions[T * Conc.FunctionCount + F];
      for (uint32_t I = 0; I != Table.Traces.size(); ++I)
        Total += Table.UseCounts[I] * expandedTraceLength(Table, I);
    }
    if (Total != Conc.Threads[T].BlockCount)
      Engine.report(checks::ThreadPartition, Severity::Error,
                    "thread " + std::to_string(T) + " records " +
                        std::to_string(Conc.Threads[T].BlockCount) +
                        " block events but its traces account for " +
                        std::to_string(Total),
                    "thread " + std::to_string(T));
  }
}

/// Faults of one kind filed one by one before the rest are summed into
/// one diagnostic: a few bytes of edge runs can describe millions of
/// faulty edges, or of checkpoints ahead of their thread.
constexpr size_t FaultsFiledPerKind = 64;

/// The faults of one kind: the first FaultsFiledPerKind are filed as they
/// come, the rest only counted, and finish() files the count at the first
/// unfiled fault's location.
class FaultKind {
public:
  FaultKind(std::string_view CheckId, std::string RestMessage)
      : CheckId(CheckId), RestMessage(std::move(RestMessage)) {}

  /// \p Describe returns the fault's {message, location}; it runs only
  /// for the faults that are filed and for the first one that is not.
  template <typename Fn> void add(DiagnosticEngine &Engine, Fn &&Describe) {
    if (++Count <= FaultsFiledPerKind) {
      auto [Message, Location] = Describe();
      Engine.report(CheckId, Severity::Error, std::move(Message),
                    std::move(Location));
    } else if (Count == FaultsFiledPerKind + 1) {
      FirstUnfiled = Describe().second;
    }
  }

  void finish(DiagnosticEngine &Engine) {
    if (Count > FaultsFiledPerKind)
      Engine.report(CheckId, Severity::Error,
                    std::to_string(Count - FaultsFiledPerKind) + " more " +
                        RestMessage,
                    FirstUnfiled);
  }

private:
  std::string_view CheckId;
  std::string RestMessage;
  uint64_t Count = 0;
  std::string FirstUnfiled;
};

void checkSyncEdges(const ConcurrencyInfo &Conc, DiagnosticEngine &Engine) {
  FaultKind BadThread(checks::ThreadSyncEdges,
                      "edges reference threads outside the table");
  FaultKind LateSource(checks::ThreadSyncEdges,
                       "edges have a source time past the thread's block "
                       "count");
  FaultKind LateTarget(checks::ThreadSyncEdges,
                       "edges have a target time past the thread's block "
                       "count");
  FaultKind ForkTarget(checks::ThreadSyncEdges,
                       "fork edges target a time other than 0");
  FaultKind SelfEdge(checks::ThreadSyncEdges, "self edges");
  Conc.Edges.forEach([&](uint32_t I, const HbEdge &E) {
    auto At = [I](std::string Message) {
      return std::pair{std::move(Message), "edge " + std::to_string(I)};
    };
    if (E.FromThread >= Conc.Threads.size() ||
        E.ToThread >= Conc.Threads.size()) {
      BadThread.add(Engine, [&] {
        return At("edge references thread " +
                  std::to_string(std::max(E.FromThread, E.ToThread)) +
                  " but the table holds " +
                  std::to_string(Conc.Threads.size()) + " threads");
      });
      return;
    }
    if (E.FromTime > Conc.Threads[E.FromThread].BlockCount)
      LateSource.add(Engine, [&] {
        return At("source time " + std::to_string(E.FromTime) +
                  " exceeds thread " + std::to_string(E.FromThread) +
                  "'s block count " +
                  std::to_string(Conc.Threads[E.FromThread].BlockCount));
      });
    if (E.ToTime > Conc.Threads[E.ToThread].BlockCount)
      LateTarget.add(Engine, [&] {
        return At("target time " + std::to_string(E.ToTime) +
                  " exceeds thread " + std::to_string(E.ToThread) +
                  "'s block count " +
                  std::to_string(Conc.Threads[E.ToThread].BlockCount));
      });
    if (E.EdgeKind == HbEdge::Kind::Fork && E.ToTime != 0)
      ForkTarget.add(Engine, [&] {
        return At("fork edge must target time 0 (before the child's "
                  "first event), not " + std::to_string(E.ToTime));
      });
    if (E.FromThread == E.ToThread)
      SelfEdge.add(Engine, [&] {
        return At("self edge (program order needs no edges)");
      });
  });
  for (FaultKind *Kind :
       {&BadThread, &LateSource, &LateTarget, &ForkTarget, &SelfEdge})
    Kind->finish(Engine);
}

void checkAccessBounds(const ConcurrencyInfo &Conc,
                       DiagnosticEngine &Engine) {
  if (Conc.Accesses.size() != Conc.Threads.size()) {
    Engine.report(checks::ThreadAccessBounds, Severity::Error,
                  "access tables for " +
                      std::to_string(Conc.Accesses.size()) +
                      " threads but the table holds " +
                      std::to_string(Conc.Threads.size()),
                  "access tables");
    return;
  }
  for (size_t T = 0; T != Conc.Accesses.size(); ++T) {
    uint64_t N = Conc.Threads[T].BlockCount;
    const std::vector<AddressAccess> &Accs = Conc.Accesses[T].Accesses;
    for (size_t I = 0; I != Accs.size(); ++I) {
      const AddressAccess &Acc = Accs[I];
      std::string Loc =
          "thread " + std::to_string(T) + " address " + std::to_string(I);
      if (I > 0 && Acc.Addr <= Accs[I - 1].Addr)
        Engine.report(checks::ThreadAccessBounds, Severity::Error,
                      "addresses not strictly ascending", Loc);
      if (Acc.Reads.empty() && Acc.Writes.empty())
        Engine.report(checks::ThreadAccessBounds, Severity::Error,
                      "entry with neither reads nor writes", Loc);
      for (const TimestampSet *Set : {&Acc.Reads, &Acc.Writes}) {
        const std::vector<SeriesRun> &Runs = Set->runs();
        for (size_t R = 1; R < Runs.size(); ++R)
          if (Runs[R].Lo <= Runs[R - 1].Hi) {
            Engine.report(checks::ThreadAccessBounds, Severity::Error,
                          "timestamp run " + std::to_string(R) +
                              " does not start after the previous run",
                          Loc);
            break;
          }
        if (!Set->empty() && Set->max() > N)
          Engine.report(checks::ThreadAccessBounds, Severity::Error,
                        "access timestamp " + std::to_string(Set->max()) +
                            " exceeds the thread's block count " +
                            std::to_string(N),
                        Loc);
      }
    }
  }
}

/// buildHappensBefore starts each checkpoint row as a copy of the
/// previous one and only joins into it, so rows never shrink along
/// program order; what can still go wrong is an edge applied out of
/// order, or a row that knows more of its own thread than has run.
void checkClockMonotone(const ConcurrencyInfo &Conc,
                        DiagnosticEngine &Engine) {
  races::HappensBefore Hb = races::buildHappensBefore(Conc);
  FaultKind Late(checks::RaceClockMonotone,
                 "edges target times before already-applied edges");
  for (uint32_t I : Hb.OutOfOrderEdges)
    Late.add(Engine, [I] {
      return std::pair{"edge " + std::to_string(I) +
                           " targets a time before an already-applied edge "
                           "(clocks would run backwards)",
                       "edge " + std::to_string(I)};
    });
  Late.finish(Engine);

  FaultKind Ahead(checks::RaceClockMonotone,
                  "checkpoints claim knowledge of their thread's own "
                  "future");
  for (size_t T = 0; T != Hb.Threads.size(); ++T) {
    const races::ThreadTimeline &Timeline = Hb.Threads[T];
    for (size_t I = 0; I != Timeline.size(); ++I) {
      uint32_t Own = Timeline.component(I, T);
      if (Own > Timeline.Times[I])
        Ahead.add(Engine, [&] {
          return std::pair{"checkpoint at time " +
                               std::to_string(Timeline.Times[I]) +
                               " claims knowledge of the thread's own "
                               "future (" +
                               std::to_string(Own) + ")",
                           "thread " + std::to_string(T) + " checkpoint " +
                               std::to_string(I)};
        });
    }
  }
  Ahead.finish(Engine);
}

} // namespace

void verify::runConcurrencyChecks(const ConcurrencyInfo &Conc,
                                  const TwppWpp *Body,
                                  DiagnosticEngine &Engine) {
  checkThreadPartition(Conc, Body, Engine);
  checkSyncEdges(Conc, Engine);
  checkAccessBounds(Conc, Engine);
  checkClockMonotone(Conc, Engine);
}
