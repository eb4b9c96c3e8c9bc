//===- slicing/WholeProgramSlicer.cpp - Interprocedural slicing -----------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//

#include "slicing/WholeProgramSlicer.h"

#include <algorithm>
#include <utility>

using namespace twpp;

template <typename SlotFn>
WholeProgramTrace::TimestampIndex::TimestampIndex(
    const WholeProgramTrace &Trace, SlotFn SlotOf)
    : SlotsOf(Trace.Frames.size() + 1, 0) {
  for (size_t F = 0; F != Trace.Frames.size(); ++F) {
    FunctionId Fn = Trace.Frames[F].Function;
    SlotsOf[F + 1] = SlotsOf[F] + static_cast<uint32_t>(
        Fn < Trace.Bridges.size() ? Trace.Bridges[Fn].Kinds.size() : 0);
  }
  // One counting sort by (frame, slot): filling each bucket from its end
  // while walking backwards keeps it ascending, PostingsOf at its start.
  auto Bucket = [&](uint32_t I) {
    uint32_t Slot = SlotOf(Trace.Instances[I]);
    return Slot == NoVar ? NoVar : SlotsOf[Trace.Instances[I].Frame] + Slot;
  };
  PostingsOf.assign(SlotsOf.back() + 1, 0);
  for (uint32_t I = 0; I != Trace.Instances.size(); ++I)
    if (uint32_t B = Bucket(I); B != NoVar)
      ++PostingsOf[B];
  for (size_t B = 1; B != PostingsOf.size(); ++B)
    PostingsOf[B] += PostingsOf[B - 1];
  Postings.resize(PostingsOf.back());
  for (auto I = static_cast<uint32_t>(Trace.Instances.size()); I-- > 0;)
    if (uint32_t B = Bucket(I); B != NoVar)
      Postings[--PostingsOf[B]] = I;
}

int64_t WholeProgramTrace::TimestampIndex::lastBefore(uint32_t Frame,
                                                      uint32_t Slot,
                                                      size_t At) const {
  if (Slot >= SlotsOf[Frame + 1] - SlotsOf[Frame])
    return -1;
  uint32_t B = SlotsOf[Frame] + Slot;
  auto First = Postings.begin() + PostingsOf[B];
  auto P = std::lower_bound(First, Postings.begin() + PostingsOf[B + 1], At);
  return P == First ? -1 : static_cast<int64_t>(*(P - 1));
}

int64_t WholeProgramTrace::lastDefBefore(size_t At, VarId Var) const {
  const std::vector<VarId> &Vars = DefVars[Instances[At].Function];
  auto Slot = std::lower_bound(Vars.begin(), Vars.end(), Var);
  if (Slot == Vars.end() || *Slot != Var)
    return -1;
  return Defs.lastBefore(Instances[At].Frame,
                         static_cast<uint32_t>(Slot - Vars.begin()), At);
}

WholeProgramTrace WholeProgramTrace::build(const Module &M,
                                           const RawTrace &Trace) {
  WholeProgramTrace Out;
  std::vector<std::vector<uint32_t>> DefSlots; // Per function and node.
  for (const Function &F : M.Functions) {
    const SliceProgram &P =
        Out.Bridges.emplace_back(buildSliceProgram(F)).Program;
    std::vector<VarId> &Vars = Out.DefVars.emplace_back();
    for (const SliceStmt &S : P.Stmts)
      if (S.Def != NoVar)
        Vars.push_back(S.Def);
    std::sort(Vars.begin(), Vars.end());
    Vars.erase(std::unique(Vars.begin(), Vars.end()), Vars.end());
    std::vector<uint32_t> &Slots = DefSlots.emplace_back();
    for (const SliceStmt &S : P.Stmts) {
      auto Slot = std::lower_bound(Vars.begin(), Vars.end(), S.Def);
      Slots.push_back(Slot == Vars.end()
                          ? NoVar
                          : static_cast<uint32_t>(Slot - Vars.begin()));
    }
  }

  // Per open frame: its id and the call instances of its current block
  // still waiting for their Enter event, which lie in [NextCall,
  // BlockEnd) of the timeline (calls run in statement order).
  struct OpenFrame {
    uint32_t Id;
    size_t NextCall = 0, BlockEnd = 0;
  };
  std::vector<OpenFrame> Stack;
  auto KindOf = [&](size_t I) {
    const Instance &Inst = Out.Instances[I];
    return Out.Bridges[Inst.Function].Kinds[Inst.Node - 1];
  };

  for (const TraceEvent &Event : Trace.Events) {
    switch (Event.EventKind) {
    case TraceEvent::Kind::Enter: {
      FrameInfo Info{Event.Id};
      if (!Stack.empty()) {
        OpenFrame &Top = Stack.back();
        while (Top.NextCall != Top.BlockEnd &&
               KindOf(Top.NextCall) != IrSliceProgram::NodeKind::Call)
          ++Top.NextCall;
        if (Top.NextCall != Top.BlockEnd) {
          Info.CallerInstance = static_cast<int64_t>(Top.NextCall);
          Out.Instances[Top.NextCall++].CalleeFrame =
              static_cast<int64_t>(Out.Frames.size());
        }
      }
      Stack.push_back({static_cast<uint32_t>(Out.Frames.size())});
      Out.Frames.push_back(Info);
      break;
    }
    case TraceEvent::Kind::Block: {
      if (Stack.empty())
        break;
      OpenFrame &Top = Stack.back();
      FrameInfo &Frame = Out.Frames[Top.Id];
      if (Frame.Function >= M.Functions.size() || Event.Id == 0 ||
          Event.Id > Out.Bridges[Frame.Function].NodesOfBlock.size())
        break;
      const IrSliceProgram &Bridge = Out.Bridges[Frame.Function];
      // A new block begins: calls of the previous one still pending
      // belong to enters that never came.
      Top.NextCall = Out.Instances.size();
      for (BlockId Node : Bridge.NodesOfBlock[Event.Id - 1]) {
        if (Bridge.Kinds[Node - 1] == IrSliceProgram::NodeKind::Return)
          Frame.ReturnInstance = static_cast<int64_t>(Out.Instances.size());
        Out.Instances.push_back({Top.Id, Frame.Function, Node});
      }
      Top.BlockEnd = Out.Instances.size();
      break;
    }
    case TraceEvent::Kind::Exit:
      if (!Stack.empty())
        Stack.pop_back();
      break;
    }
  }
  Out.Defs = TimestampIndex(
      Out, [&](const Instance &I) { return DefSlots[I.Function][I.Node - 1]; });
  Out.Runs = TimestampIndex(Out, [](const Instance &I) { return I.Node - 1; });
  return Out;
}

bool GlobalSliceResult::contains(GlobalNode Node) const {
  return std::binary_search(Nodes.begin(), Nodes.end(), Node);
}

GlobalSliceResult twpp::sliceWholeProgram(const WholeProgramTrace &Trace,
                                          const Module &M,
                                          size_t InstanceIndex, VarId Var) {
  const auto &Instances = Trace.instances();
  const auto &Frames = Trace.frames();
  GlobalSliceResult Result;
  if (InstanceIndex >= Instances.size())
    return Result;

  // Each instance joins the work once, so each (instance, variable) query
  // is generated once; the slice is the closure, whatever the order.
  std::vector<std::vector<bool>> InSlice(M.Functions.size());
  for (FunctionId F = 0; F != M.Functions.size(); ++F)
    InSlice[F].resize(Trace.bridgeOf(F).Kinds.size());
  std::vector<char> Visited(Instances.size(), false);
  std::vector<size_t> Work;
  auto AddInstance = [&](int64_t At) {
    if (At >= 0 && !std::exchange(Visited[static_cast<size_t>(At)], true))
      Work.push_back(static_cast<size_t>(At));
  };
  // The definition of V reaching (strictly before) At within At's frame;
  // without one, a parameter's value flows from the caller's argument
  // expression at the linked call instance.
  auto Query = [&](size_t At, VarId V) {
    ++Result.QueriesGenerated;
    const WholeProgramTrace::Instance &Inst = Instances[At];
    const std::vector<VarId> &Params = M.Functions[Inst.Function].Params;
    int64_t Def = Trace.lastDefBefore(At, V);
    if (Def < 0 && std::find(Params.begin(), Params.end(), V) != Params.end())
      Def = Frames[Inst.Frame].CallerInstance;
    AddInstance(Def);
  };
  // Brings instance At's node into the slice and, but for the criterion,
  // its uses; control dependences and callee returns join the work.
  auto Visit = [&](size_t At, bool Criterion) {
    const WholeProgramTrace::Instance &Inst = Instances[At];
    const IrSliceProgram &Bridge = Trace.bridgeOf(Inst.Function);
    const SliceStmt &S = Bridge.Program.stmt(Inst.Node);
    InSlice[Inst.Function][Inst.Node - 1] = true;
    if (Criterion)
      Query(At, Var);
    for (auto Use = S.Uses.begin(); !Criterion && Use != S.Uses.end(); ++Use)
      if (std::find(S.Uses.begin(), Use, *Use) == Use &&
          !(At == InstanceIndex && *Use == Var))
        Query(At, *Use);
    if (S.ControlDep != 0)
      AddInstance(Trace.lastRunBefore(At, S.ControlDep));
    if (!Criterion &&
        Bridge.Kinds[Inst.Node - 1] == IrSliceProgram::NodeKind::Call &&
        S.Def != NoVar && Inst.CalleeFrame >= 0)
      AddInstance(Frames[static_cast<size_t>(Inst.CalleeFrame)].ReturnInstance);
  };

  for (Visit(InstanceIndex, true); !Work.empty();) {
    size_t At = Work.back();
    Work.pop_back();
    Visit(At, false);
  }
  for (FunctionId F = 0; F != M.Functions.size(); ++F)
    for (BlockId N = 0; N != InSlice[F].size(); ++N)
      if (InSlice[F][N])
        Result.Nodes.push_back({F, N + 1});
  return Result;
}
