//===- tests/IrSliceBridgeTest.cpp - IR to slice-program bridge ------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//

#include "slicing/IrSliceBridge.h"

#include "dataflow/AnnotatedCfg.h"
#include "lang/Lower.h"
#include "runtime/Interpreter.h"
#include "slicing/DynamicSlicer.h"
#include "trace/UncompactedFile.h"

#include <gtest/gtest.h>

using namespace twpp;

namespace {

Module compile(const std::string &Source) {
  Module M;
  std::string Error;
  bool Ok = compileProgram(Source, M, Error);
  EXPECT_TRUE(Ok) << Error;
  return M;
}

/// The slice node of the \p Ordinal-th statement of \p Block (0-based),
/// or 0 when out of range.
BlockId nodeOf(const IrSliceProgram &Bridge, BlockId Block, size_t Ordinal) {
  if (Block == 0 || Block > Bridge.NodesOfBlock.size())
    return 0;
  const auto &Nodes = Bridge.NodesOfBlock[Block - 1];
  return Ordinal < Nodes.size() ? Nodes[Ordinal] : 0;
}

TEST(IrSliceBridgeTest, NodesAndEdges) {
  Module M = compile("fn main() {"
                     "  read a;"
                     "  b = a + 1;"
                     "  c = 7;"
                     "  if (a > 0) { d = b; } else { d = c; }"
                     "  print d;"
                     "}");
  const Function &Main = M.Functions[M.MainId];
  IrSliceProgram Bridge = buildSliceProgram(Main);

  // Block 1: read a, b=, c=, branch. Block 2: d=b. Block 3: d=c.
  // Block 4: print d.
  ASSERT_EQ(Bridge.Program.stmtCount(), 7u);
  EXPECT_EQ(Bridge.NodesOfBlock[0],
            (std::vector<BlockId>{1, 2, 3, 4}));
  EXPECT_EQ(Bridge.NodesOfBlock[1], (std::vector<BlockId>{5}));
  EXPECT_EQ(Bridge.NodesOfBlock[2], (std::vector<BlockId>{6}));
  EXPECT_EQ(Bridge.NodesOfBlock[3], (std::vector<BlockId>{7}));

  EXPECT_TRUE(Bridge.Program.stmt(4).IsPredicate);
  EXPECT_EQ(Bridge.Program.Succs[3], (std::vector<BlockId>{5, 6}));
  EXPECT_EQ(Bridge.Program.Succs[4], (std::vector<BlockId>{7}));
  EXPECT_EQ(Bridge.Program.Succs[5], (std::vector<BlockId>{7}));

  // Control deps from postdominators: both arms on the branch.
  EXPECT_EQ(Bridge.Program.stmt(5).ControlDep, 4u);
  EXPECT_EQ(Bridge.Program.stmt(6).ControlDep, 4u);
  EXPECT_EQ(Bridge.Program.stmt(7).ControlDep, 0u);

  EXPECT_EQ(nodeOf(Bridge, 1, 0), 1u);
  EXPECT_EQ(nodeOf(Bridge, 1, 3), 4u);
  EXPECT_EQ(nodeOf(Bridge, 1, 9), 0u);
  EXPECT_EQ(nodeOf(Bridge, 9, 0), 0u);
}

TEST(IrSliceBridgeTest, EndToEndSliceExcludesUntakenArm) {
  Module M = compile("fn main() {"
                     "  read a;"
                     "  b = a + 1;"
                     "  c = 7;"
                     "  if (a > 0) { d = b; } else { d = c; }"
                     "  print d;"
                     "}");
  const Function &Main = M.Functions[M.MainId];
  IrSliceProgram Bridge = buildSliceProgram(Main);

  ExecutionResult Result;
  RawTrace Trace = traceExecution(M, {5}, Result); // then-arm taken
  ASSERT_TRUE(Result.Completed);
  std::vector<std::vector<BlockId>> BlockTraces;
  extractFunctionTraces(Trace, Main.Id, BlockTraces);
  ASSERT_EQ(BlockTraces.size(), 1u);

  std::vector<BlockId> StmtTrace = Bridge.expandTrace(BlockTraces[0]);
  EXPECT_EQ(StmtTrace, (std::vector<BlockId>{1, 2, 3, 4, 5, 7}));

  AnnotatedDynamicCfg Cfg = buildAnnotatedCfgFromSequence(StmtTrace);
  VarId D = M.internVar("d");
  SliceResult Slice = sliceApproach3(
      Bridge.Program, Cfg, /*Criterion=*/7, D,
      static_cast<Timestamp>(StmtTrace.size()));
  // c = 7 (node 3) and the untaken else arm (node 6) are out.
  EXPECT_EQ(Slice.Stmts, (std::vector<BlockId>{1, 2, 4, 5, 7}));
}

TEST(IrSliceBridgeTest, LoopProgramSlices) {
  Module M = compile("fn main() {"
                     "  read n;"
                     "  s = 0;"
                     "  junk = 0;"
                     "  i = 0;"
                     "  while (i < n) {"
                     "    s = s + i;"
                     "    junk = junk + 100;"
                     "    i = i + 1;"
                     "  }"
                     "  print s;"
                     "}");
  const Function &Main = M.Functions[M.MainId];
  IrSliceProgram Bridge = buildSliceProgram(Main);

  ExecutionResult Result;
  RawTrace Trace = traceExecution(M, {4}, Result);
  ASSERT_TRUE(Result.Completed);
  std::vector<std::vector<BlockId>> BlockTraces;
  extractFunctionTraces(Trace, Main.Id, BlockTraces);
  std::vector<BlockId> StmtTrace = Bridge.expandTrace(BlockTraces[0]);

  AnnotatedDynamicCfg Cfg = buildAnnotatedCfgFromSequence(StmtTrace);
  VarId S = M.internVar("s");
  // Criterion: the final print (last executed node).
  BlockId PrintNode = StmtTrace.back();
  SliceResult Slice = sliceApproach3(
      Bridge.Program, Cfg, PrintNode, S,
      static_cast<Timestamp>(StmtTrace.size()));

  // The junk accumulator contributes nothing to s.
  VarId Junk = M.internVar("junk");
  for (BlockId Node : Slice.Stmts)
    EXPECT_NE(Bridge.Program.stmt(Node).Def, Junk)
        << "junk node " << Node << " leaked into the slice";
  // But s's chain (read n, i init/increment, s init/accumulate, header)
  // is present: the slice covers more than the criterion itself.
  EXPECT_GE(Slice.Stmts.size(), 6u);
}

TEST(IrSliceBridgeTest, EmptyBlocksAreSkipped) {
  // Nested ifs produce join blocks with no statements; edges must skip
  // through them.
  Module M = compile("fn main() {"
                     "  read a;"
                     "  if (a > 0) { if (a > 10) { a = 10; } }"
                     "  print a;"
                     "}");
  const Function &Main = M.Functions[M.MainId];
  IrSliceProgram Bridge = buildSliceProgram(Main);

  ExecutionResult Result;
  RawTrace Trace = traceExecution(M, {20}, Result);
  ASSERT_TRUE(Result.Completed);
  std::vector<std::vector<BlockId>> BlockTraces;
  extractFunctionTraces(Trace, Main.Id, BlockTraces);
  std::vector<BlockId> StmtTrace = Bridge.expandTrace(BlockTraces[0]);

  // Every node in the expanded trace must be executable in sequence via
  // the bridge CFG (edges skip empty joins).
  for (size_t I = 0; I + 1 < StmtTrace.size(); ++I) {
    const auto &Succs = Bridge.Program.Succs[StmtTrace[I] - 1];
    EXPECT_NE(std::find(Succs.begin(), Succs.end(), StmtTrace[I + 1]),
              Succs.end())
        << "missing edge " << StmtTrace[I] << " -> " << StmtTrace[I + 1];
  }
}

} // namespace
