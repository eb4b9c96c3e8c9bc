//===- tests/WholeProgramSliceOracle.h - Linear-scan slicer -----*- C++ -*-===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reference interprocedural slicer: the same queries as
/// sliceWholeProgram, each answered by walking the flat instance
/// timeline backwards from the query point. Quadratic in the trace
/// length, so it is only fit for the small traces of the tests, where
/// the indexed slicer must match it exactly.
///
//===----------------------------------------------------------------------===//

#ifndef TWPP_TESTS_WHOLEPROGRAMSLICEORACLE_H
#define TWPP_TESTS_WHOLEPROGRAMSLICEORACLE_H

#include "slicing/WholeProgramSlicer.h"

#include <algorithm>
#include <deque>
#include <set>

namespace twpp::oracle {

/// Exact-instance backward slice of \p Var at instance \p InstanceIndex,
/// by linear backward scans over the timeline.
inline GlobalSliceResult sliceWholeProgram(const WholeProgramTrace &Trace,
                                           const Module &M,
                                           size_t InstanceIndex, VarId Var) {
  const auto &Instances = Trace.instances();
  const auto &Frames = Trace.frames();

  GlobalSliceResult Result;
  if (InstanceIndex >= Instances.size())
    return Result;
  std::set<GlobalNode> Slice;
  std::set<std::pair<size_t, VarId>> VisitedQueries;
  std::set<size_t> VisitedInstances;
  // A query searches for the definition of a variable reaching (strictly
  // before) an instance, within that instance's frame.
  std::deque<std::pair<size_t, VarId>> Queries;
  std::deque<size_t> NewInstances;

  auto EnqueueQuery = [&](size_t At, VarId V) {
    if (VisitedQueries.insert({At, V}).second) {
      Queries.push_back({At, V});
      ++Result.QueriesGenerated;
    }
  };
  /// Brings an executed instance into the slice; its own dependencies
  /// are scheduled via NewInstances.
  auto AddInstance = [&](size_t At) {
    Slice.insert({Instances[At].Function, Instances[At].Node});
    if (VisitedInstances.insert(At).second)
      NewInstances.push_back(At);
  };

  /// Most recent instance of frame-local node \p Node before \p At
  /// within the same frame, or -1.
  auto LastFrameInstanceOf = [&](size_t At, BlockId Node) -> int64_t {
    uint32_t Frame = Instances[At].Frame;
    for (size_t J = At; J-- > 0;)
      if (Instances[J].Frame == Frame && Instances[J].Node == Node)
        return static_cast<int64_t>(J);
    return -1;
  };

  Slice.insert(
      {Instances[InstanceIndex].Function, Instances[InstanceIndex].Node});
  EnqueueQuery(InstanceIndex, Var);
  {
    const WholeProgramTrace::Instance &Inst = Instances[InstanceIndex];
    const SliceProgram &P = Trace.bridgeOf(Inst.Function).Program;
    if (BlockId Ctrl = P.stmt(Inst.Node).ControlDep; Ctrl != 0) {
      int64_t CtrlAt = LastFrameInstanceOf(InstanceIndex, Ctrl);
      if (CtrlAt >= 0)
        AddInstance(static_cast<size_t>(CtrlAt));
    }
  }

  while (!Queries.empty() || !NewInstances.empty()) {
    while (!NewInstances.empty()) {
      size_t At = NewInstances.front();
      NewInstances.pop_front();
      const WholeProgramTrace::Instance &Inst = Instances[At];
      const IrSliceProgram &Bridge = Trace.bridgeOf(Inst.Function);
      const SliceStmt &S = Bridge.Program.stmt(Inst.Node);
      for (VarId Use : S.Uses)
        EnqueueQuery(At, Use);
      if (S.ControlDep != 0) {
        int64_t CtrlAt = LastFrameInstanceOf(At, S.ControlDep);
        if (CtrlAt >= 0)
          AddInstance(static_cast<size_t>(CtrlAt));
      }
      // A call instance in the slice pulls in the callee's returned
      // value provenance.
      if (Bridge.Kinds[Inst.Node - 1] == IrSliceProgram::NodeKind::Call &&
          S.Def != NoVar && Inst.CalleeFrame >= 0) {
        int64_t Ret = Frames[Inst.CalleeFrame].ReturnInstance;
        if (Ret >= 0)
          AddInstance(static_cast<size_t>(Ret));
      }
    }
    if (Queries.empty())
      break;
    auto [At, V] = Queries.front();
    Queries.pop_front();

    const WholeProgramTrace::Instance &Inst = Instances[At];
    // Frame-local definition search.
    int64_t Def = -1;
    for (size_t J = At; J-- > 0;) {
      if (Instances[J].Frame != Inst.Frame)
        continue;
      const SliceProgram &P = Trace.bridgeOf(Instances[J].Function).Program;
      if (P.stmt(Instances[J].Node).Def == V) {
        Def = static_cast<int64_t>(J);
        break;
      }
    }
    if (Def >= 0) {
      AddInstance(static_cast<size_t>(Def));
      continue;
    }
    // No local definition: a parameter's value flows from the caller's
    // argument expression at the linked call instance.
    const Function &F = M.Functions[Inst.Function];
    bool IsParam =
        std::find(F.Params.begin(), F.Params.end(), V) != F.Params.end();
    int64_t Caller = Frames[Inst.Frame].CallerInstance;
    if (IsParam && Caller >= 0)
      AddInstance(static_cast<size_t>(Caller));
  }

  Result.Nodes.assign(Slice.begin(), Slice.end());
  return Result;
}

} // namespace twpp::oracle

#endif // TWPP_TESTS_WHOLEPROGRAMSLICEORACLE_H
