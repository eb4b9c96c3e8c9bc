//===- slicing/IrSliceBridge.cpp - Slice programs from the mini IR --------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//

#include "slicing/IrSliceBridge.h"

#include "slicing/ControlDeps.h"

#include <cassert>
#include <string>

using namespace twpp;

std::vector<BlockId> IrSliceProgram::expandTrace(
    const std::vector<BlockId> &BlockTrace) const {
  std::vector<BlockId> Out;
  for (BlockId Block : BlockTrace) {
    assert(Block >= 1 && Block <= NodesOfBlock.size() &&
           "block id out of range");
    const auto &Nodes = NodesOfBlock[Block - 1];
    Out.insert(Out.end(), Nodes.begin(), Nodes.end());
  }
  return Out;
}

namespace {

std::string labelOf(const Stmt &S) {
  switch (S.StmtKind) {
  case Stmt::Kind::Assign:
    return "assign v" + std::to_string(S.Target);
  case Stmt::Kind::Read:
    return "read v" + std::to_string(S.Target);
  case Stmt::Kind::Print:
    return "print";
  case Stmt::Kind::Call:
    return S.Target == NoVar
               ? "call f" + std::to_string(S.Callee)
               : "v" + std::to_string(S.Target) + " = call f" +
                     std::to_string(S.Callee);
  }
  return "stmt";
}

} // namespace

IrSliceProgram twpp::buildSliceProgram(const Function &F) {
  IrSliceProgram Out;
  Out.NodesOfBlock.resize(F.blockCount());

  // Pass 1: one slice node per statement, plus one per conditional or
  // value-returning terminator.
  auto Push = [&Out](BlockId Block, SliceStmt Node,
                     IrSliceProgram::NodeKind Kind) {
    Out.Program.Stmts.push_back(std::move(Node));
    Out.Kinds.push_back(Kind);
    Out.NodesOfBlock[Block - 1].push_back(
        static_cast<BlockId>(Out.Program.Stmts.size()));
  };
  for (BlockId Block = 1; Block <= F.blockCount(); ++Block) {
    const BasicBlock &B = F.block(Block);
    for (const Stmt &S : B.Stmts) {
      SliceStmt Node;
      Node.Label = labelOf(S);
      Node.Def = S.Target == NoVar ? NoVar : S.Target;
      Node.Uses = stmtUses(F, S);
      Push(Block, std::move(Node),
           S.StmtKind == Stmt::Kind::Call ? IrSliceProgram::NodeKind::Call
                                          : IrSliceProgram::NodeKind::Plain);
    }
    if (B.Term == BasicBlock::Terminator::Branch) {
      SliceStmt Node;
      Node.Label = "branch";
      Node.IsPredicate = true;
      collectExprUses(F, B.CondExpr, Node.Uses);
      Push(Block, std::move(Node), IrSliceProgram::NodeKind::Predicate);
    } else if (B.Term == BasicBlock::Terminator::Return && B.HasRetValue) {
      SliceStmt Node;
      Node.Label = "return";
      collectExprUses(F, B.RetExpr, Node.Uses);
      Push(Block, std::move(Node), IrSliceProgram::NodeKind::Return);
    }
  }
  Out.Program.Succs.resize(Out.Program.Stmts.size());

  // Entry node of a block, skipping through empty blocks (chains of
  // bare jumps). 0 when control only reaches a node-free return.
  auto EntryNode = [&](BlockId Block) -> BlockId {
    std::vector<bool> Seen(F.blockCount(), false);
    while (!Seen[Block - 1]) {
      Seen[Block - 1] = true;
      if (!Out.NodesOfBlock[Block - 1].empty())
        return Out.NodesOfBlock[Block - 1].front();
      const BasicBlock &B = F.block(Block);
      if (B.Term != BasicBlock::Terminator::Jump)
        return 0;
      Block = B.TrueSucc;
    }
    return 0; // cycle of empty blocks (non-terminating program)
  };

  // Pass 2: edges. Intra-block chains, then the last node of each block
  // to every successor block's entry node.
  for (BlockId Block = 1; Block <= F.blockCount(); ++Block) {
    const auto &Nodes = Out.NodesOfBlock[Block - 1];
    for (size_t I = 0; I + 1 < Nodes.size(); ++I)
      Out.Program.Succs[Nodes[I] - 1].push_back(Nodes[I + 1]);
    if (Nodes.empty())
      continue;
    BlockId Last = Nodes.back();
    for (BlockId Succ : F.block(Block).successors())
      if (BlockId Entry = EntryNode(Succ))
        Out.Program.Succs[Last - 1].push_back(Entry);
  }

  annotateControlDeps(Out.Program);
  return Out;
}
