//===- slicing/DynamicSlicer.cpp - Agrawal–Horgan slicing on TWPP ---------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//

#include "slicing/DynamicSlicer.h"

#include <algorithm>
#include <deque>
#include <set>

using namespace twpp;

bool SliceResult::contains(BlockId Stmt) const {
  return std::binary_search(Stmts.begin(), Stmts.end(), Stmt);
}

bool twpp::findLastDefInstance(const SliceProgram &Program,
                               const AnnotatedDynamicCfg &Cfg, VarId Var,
                               Timestamp Time, BlockId &DefStmt,
                               Timestamp &DefTime) {
  // (t, n) -> (t-1, m): walk the trace backwards via the timestamp
  // annotations until a defining statement's instance is met.
  for (Timestamp T = Time; T > 1;) {
    --T;
    size_t Node = Cfg.nodeAt(T);
    if (Node == AnnotatedDynamicCfg::npos)
      return false;
    BlockId Stmt = Cfg.Nodes[Node].Head;
    if (Program.stmt(Stmt).Def == Var) {
      DefStmt = Stmt;
      DefTime = T;
      return true;
    }
  }
  return false;
}

bool twpp::findLastInstanceOf(const AnnotatedDynamicCfg &Cfg, BlockId Stmt,
                              Timestamp Time, Timestamp &InstanceTime) {
  size_t Node = Cfg.nodeIndexOf(Stmt);
  if (Node == AnnotatedDynamicCfg::npos || Time <= 1)
    return false;
  const TimestampSet &Times = Cfg.Nodes[Node].Times;
  // Largest timestamp < Time.
  bool Found = false;
  for (const SeriesRun &Run : Times.runs()) {
    if (Run.Lo >= Time)
      break;
    Timestamp Candidate;
    if (Run.Hi < Time)
      Candidate = Run.Hi;
    else
      Candidate = Run.Lo + ((Time - 1 - Run.Lo) / Run.Step) * Run.Step;
    InstanceTime = Candidate;
    Found = true;
  }
  return Found;
}

namespace {

/// Whether \p Stmt executed at all in the trace.
bool executed(const AnnotatedDynamicCfg &Cfg, BlockId Stmt) {
  size_t Node = Cfg.nodeIndexOf(Stmt);
  return Node != AnnotatedDynamicCfg::npos &&
         !Cfg.Nodes[Node].Times.empty();
}

SliceResult finalize(const std::set<BlockId> &Stmts, uint64_t Queries) {
  SliceResult Result;
  Result.Stmts.assign(Stmts.begin(), Stmts.end());
  Result.QueriesGenerated = Queries;
  return Result;
}

/// The statement-granular traversal of approaches 1 and 2. \p Resolve
/// answers a query (Stmt, V) by passing each defining statement it finds
/// to its third argument.
template <typename ResolveFn>
SliceResult sliceStatements(const SliceProgram &Program,
                            const AnnotatedDynamicCfg &Cfg,
                            BlockId Criterion, VarId Var, ResolveFn Resolve) {
  std::set<BlockId> Slice;
  std::set<std::pair<BlockId, VarId>> VisitedQueries;
  std::deque<std::pair<BlockId, VarId>> Work;
  std::deque<BlockId> NewStmts;
  uint64_t Queries = 0;

  auto Enqueue = [&](BlockId Stmt, VarId V) {
    if (VisitedQueries.insert({Stmt, V}).second) {
      Work.push_back({Stmt, V});
      ++Queries;
    }
  };
  auto AddStmt = [&](BlockId Stmt) {
    if (Slice.insert(Stmt).second)
      NewStmts.push_back(Stmt);
  };
  // Resolves \p Stmt's (exercised) control dependence.
  auto AddControlDep = [&](BlockId Stmt) {
    if (BlockId Ctrl = Program.stmt(Stmt).ControlDep;
        Ctrl != 0 && executed(Cfg, Ctrl))
      AddStmt(Ctrl);
  };

  Slice.insert(Criterion);
  Enqueue(Criterion, Var);
  AddControlDep(Criterion);
  while (!Work.empty() || !NewStmts.empty()) {
    while (!NewStmts.empty()) {
      BlockId Stmt = NewStmts.front();
      NewStmts.pop_front();
      for (VarId Use : Program.stmt(Stmt).Uses)
        Enqueue(Stmt, Use);
      AddControlDep(Stmt);
    }
    if (Work.empty())
      break;
    auto [Stmt, V] = Work.front();
    Work.pop_front();
    Resolve(Stmt, V, AddStmt);
  }
  return finalize(Slice, Queries);
}

} // namespace

SliceResult twpp::sliceApproach1(const SliceProgram &Program,
                                 const AnnotatedDynamicCfg &Cfg,
                                 BlockId Criterion, VarId Var) {
  // Static PDG traversal, restricted to executed (marked) nodes.
  std::vector<DataDepEdge> DataDeps = computeStaticDataDeps(Program);
  return sliceStatements(
      Program, Cfg, Criterion, Var,
      [&](BlockId Stmt, VarId V, auto &AddStmt) {
        for (const DataDepEdge &Edge : DataDeps)
          if (Edge.Use == Stmt && Edge.Var == V && executed(Cfg, Edge.Def))
            AddStmt(Edge.Def);
      });
}

SliceResult twpp::sliceApproach2(const SliceProgram &Program,
                                 const AnnotatedDynamicCfg &Cfg,
                                 BlockId Criterion, VarId Var) {
  // A query carries every timestamp of its statement (node granularity):
  // it finds the defining statements exercised by *any* instance.
  return sliceStatements(
      Program, Cfg, Criterion, Var,
      [&](BlockId Stmt, VarId V, auto &AddStmt) {
        size_t Node = Cfg.nodeIndexOf(Stmt);
        if (Node == AnnotatedDynamicCfg::npos)
          return;
        std::set<BlockId> Defs;
        for (Timestamp T : Cfg.Nodes[Node].Times.toVector()) {
          BlockId DefStmt;
          Timestamp DefTime;
          if (findLastDefInstance(Program, Cfg, V, T, DefStmt, DefTime))
            Defs.insert(DefStmt);
        }
        for (BlockId Def : Defs)
          AddStmt(Def);
      });
}

SliceResult twpp::sliceApproach3(const SliceProgram &Program,
                                 const AnnotatedDynamicCfg &Cfg,
                                 BlockId Criterion, VarId Var,
                                 Timestamp Time) {
  std::set<BlockId> Slice;
  std::set<std::pair<Timestamp, VarId>> VisitedQueries;
  std::set<Timestamp> VisitedInstances;
  // Instance-level queries: find the def of V before timestamp T.
  std::deque<std::pair<Timestamp, VarId>> Work;
  std::deque<Timestamp> NewInstances;
  uint64_t Queries = 0;

  Slice.insert(Criterion);
  auto EnqueueQuery = [&](Timestamp T, VarId V) {
    if (VisitedQueries.insert({T, V}).second) {
      Work.push_back({T, V});
      ++Queries;
    }
  };
  /// Brings the instance (Stmt at T) into the slice and schedules its
  /// dependences.
  auto AddInstance = [&](BlockId Stmt, Timestamp T) {
    Slice.insert(Stmt);
    if (VisitedInstances.insert(T).second)
      NewInstances.push_back(T);
  };

  /// Brings in the last instance before \p T of \p Stmt's control parent.
  auto AddControlDep = [&](BlockId Stmt, Timestamp T) {
    Timestamp CtrlTime;
    if (BlockId Ctrl = Program.stmt(Stmt).ControlDep;
        Ctrl != 0 && findLastInstanceOf(Cfg, Ctrl, T, CtrlTime))
      AddInstance(Ctrl, CtrlTime);
  };

  EnqueueQuery(Time, Var);
  AddControlDep(Criterion, Time);

  while (!Work.empty() || !NewInstances.empty()) {
    while (!NewInstances.empty()) {
      Timestamp T = NewInstances.front();
      NewInstances.pop_front();
      size_t Node = Cfg.nodeAt(T);
      if (Node == AnnotatedDynamicCfg::npos)
        continue;
      BlockId Stmt = Cfg.Nodes[Node].Head;
      for (VarId Use : Program.stmt(Stmt).Uses)
        EnqueueQuery(T, Use);
      AddControlDep(Stmt, T);
    }
    if (Work.empty())
      break;
    auto [T, V] = Work.front();
    Work.pop_front();
    BlockId DefStmt;
    Timestamp DefTime;
    if (findLastDefInstance(Program, Cfg, V, T, DefStmt, DefTime))
      AddInstance(DefStmt, DefTime);
  }
  return finalize(Slice, Queries);
}
