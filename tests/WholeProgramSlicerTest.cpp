//===- tests/WholeProgramSlicerTest.cpp - interprocedural slicing ----------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//

#include "slicing/WholeProgramSlicer.h"

#include "WholeProgramSliceOracle.h"
#include "lang/Lower.h"
#include "runtime/Interpreter.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <string>

using namespace twpp;

namespace {

Module compile(const std::string &Source) {
  Module M;
  std::string Error;
  bool Ok = compileProgram(Source, M, Error);
  EXPECT_TRUE(Ok) << Error;
  return M;
}

/// First instance (by timeline order) of a node whose label matches.
int64_t findInstance(const WholeProgramTrace &Trace, FunctionId F,
                     const std::string &Label, size_t Skip = 0) {
  for (size_t I = 0; I < Trace.instances().size(); ++I) {
    const auto &Inst = Trace.instances()[I];
    if (Inst.Function != F)
      continue;
    if (Trace.bridgeOf(F).Program.stmt(Inst.Node).Label != Label)
      continue;
    if (Skip == 0)
      return static_cast<int64_t>(I);
    --Skip;
  }
  return -1;
}

/// Index of the last instance of \p Target (any frame), or -1.
int64_t lastInstanceOf(const WholeProgramTrace &Trace, GlobalNode Target) {
  const auto &Instances = Trace.instances();
  for (size_t I = Instances.size(); I-- > 0;)
    if (Instances[I].Function == Target.Function &&
        Instances[I].Node == Target.Node)
      return static_cast<int64_t>(I);
  return -1;
}

TEST(WholeProgramTraceTest, FramesAndLinkage) {
  Module M = compile("fn add(a, b) { s = a + b; return s; }"
                     "fn main() { u = call add(1, 2); print u; }");
  ExecutionResult Result;
  RawTrace Raw = traceExecution(M, {}, Result);
  ASSERT_TRUE(Result.Completed);
  WholeProgramTrace Trace = WholeProgramTrace::build(M, Raw);

  ASSERT_EQ(Trace.frames().size(), 2u); // main + one add call
  const auto &AddFrame = Trace.frames()[1];
  EXPECT_EQ(AddFrame.Function, M.findFunction("add")->Id);
  ASSERT_GE(AddFrame.CallerInstance, 0);
  // The caller instance is main's call node, linked both ways.
  const auto &CallInst =
      Trace.instances()[static_cast<size_t>(AddFrame.CallerInstance)];
  EXPECT_EQ(CallInst.Function, M.MainId);
  EXPECT_EQ(CallInst.CalleeFrame, 1);
  EXPECT_GE(AddFrame.ReturnInstance, 0);
}

TEST(WholeProgramSlicerTest, ValueFlowsThroughCallee) {
  Module M = compile("fn add(a, b) { s = a + b; return s; }"
                     "fn mul(a, b) { p = a * b; return p; }"
                     "fn main() {"
                     "  read x;"
                     "  read y;"
                     "  u = call add(x, y);"
                     "  v = call mul(x, 3);"
                     "  print u;"
                     "  print v;"
                     "}");
  ExecutionResult Result;
  RawTrace Raw = traceExecution(M, {4, 5}, Result);
  ASSERT_TRUE(Result.Completed);
  WholeProgramTrace Trace = WholeProgramTrace::build(M, Raw);

  FunctionId Main = M.MainId;
  FunctionId Add = M.findFunction("add")->Id;
  FunctionId Mul = M.findFunction("mul")->Id;

  int64_t Criterion = findInstance(Trace, Main, "print"); // print u
  ASSERT_GE(Criterion, 0);
  GlobalSliceResult Slice = sliceWholeProgram(
      Trace, M, static_cast<size_t>(Criterion), M.internVar("u"));

  // The slice crosses into add: its assignment and return are included.
  bool HasAddAssign = false, HasAddReturn = false;
  bool HasMulAnything = false, HasPrintV = false;
  for (GlobalNode Node : Slice.Nodes) {
    const std::string &Label =
        Trace.bridgeOf(Node.Function).Program.stmt(Node.Node).Label;
    if (Node.Function == Add && Label.rfind("assign", 0) == 0)
      HasAddAssign = true;
    if (Node.Function == Add && Label == "return")
      HasAddReturn = true;
    if (Node.Function == Mul)
      HasMulAnything = true;
    if (Node.Function == Main && Label.rfind("v3 = call", 0) == 0)
      HasPrintV = true;
  }
  EXPECT_TRUE(HasAddAssign);
  EXPECT_TRUE(HasAddReturn);
  EXPECT_FALSE(HasMulAnything); // the unrelated callee stays out
  EXPECT_FALSE(HasPrintV);

  // Both reads feed add's parameters.
  const IrSliceProgram &MainBridge = Trace.bridgeOf(Main);
  int ReadsInSlice = 0;
  for (GlobalNode Node : Slice.Nodes)
    if (Node.Function == Main &&
        MainBridge.Program.stmt(Node.Node).Label.rfind("read", 0) == 0)
      ++ReadsInSlice;
  EXPECT_EQ(ReadsInSlice, 2);
}

TEST(WholeProgramSlicerTest, OnlyRelevantParameterChains) {
  Module M = compile("fn pick(a, b) { return a; }"
                     "fn main() {"
                     "  read x;"
                     "  read y;"
                     "  u = call pick(x, y);"
                     "  print u;"
                     "}");
  ExecutionResult Result;
  RawTrace Raw = traceExecution(M, {1, 2}, Result);
  ASSERT_TRUE(Result.Completed);
  WholeProgramTrace Trace = WholeProgramTrace::build(M, Raw);
  int64_t Criterion = findInstance(Trace, M.MainId, "print");
  GlobalSliceResult Slice = sliceWholeProgram(
      Trace, M, static_cast<size_t>(Criterion), M.internVar("u"));
  // Argument linkage is call-site granular (documented), so both reads
  // are pulled in even though only 'a' matters; the call and pick's
  // return are certainly present.
  EXPECT_GE(Slice.Nodes.size(), 4u);
  bool HasReturn = false;
  for (GlobalNode Node : Slice.Nodes)
    if (Node.Function == M.findFunction("pick")->Id)
      HasReturn = true;
  EXPECT_TRUE(HasReturn);
}

TEST(WholeProgramSlicerTest, RecursionTerminates) {
  Module M = compile("fn fact(n) {"
                     "  if (n < 2) { return 1; }"
                     "  r = call fact(n - 1);"
                     "  return n * r;"
                     "}"
                     "fn main() { f = call fact(6); print f; }");
  ExecutionResult Result;
  RawTrace Raw = traceExecution(M, {}, Result);
  ASSERT_TRUE(Result.Completed);
  WholeProgramTrace Trace = WholeProgramTrace::build(M, Raw);
  ASSERT_EQ(Trace.frames().size(), 7u); // main + fact x6

  int64_t Criterion = findInstance(Trace, M.MainId, "print");
  GlobalSliceResult Slice = sliceWholeProgram(
      Trace, M, static_cast<size_t>(Criterion), M.internVar("f"));
  // The whole recursive chain participates.
  FunctionId Fact = M.findFunction("fact")->Id;
  bool HasFactReturn = false, HasFactBranch = false;
  for (GlobalNode Node : Slice.Nodes) {
    if (Node.Function != Fact)
      continue;
    const std::string &Label =
        Trace.bridgeOf(Fact).Program.stmt(Node.Node).Label;
    if (Label == "return")
      HasFactReturn = true;
    if (Label == "branch")
      HasFactBranch = true;
  }
  EXPECT_TRUE(HasFactReturn);
  EXPECT_TRUE(HasFactBranch); // control dependence inside the callee
  EXPECT_GT(Slice.QueriesGenerated, 5u);
}

TEST(WholeProgramSlicerTest, LastInstanceLookup) {
  Module M = compile("fn main() { i = 0; while (i < 3) { i = i + 1; } "
                     "print i; }");
  ExecutionResult Result;
  RawTrace Raw = traceExecution(M, {}, Result);
  WholeProgramTrace Trace = WholeProgramTrace::build(M, Raw);
  // The loop body assignment executed three times; lastInstanceOf finds
  // the final one.
  const IrSliceProgram &Bridge = Trace.bridgeOf(M.MainId);
  BlockId BodyNode = Bridge.NodesOfBlock[2].front(); // block 3 = body
  int64_t Last = lastInstanceOf(Trace, {M.MainId, BodyNode});
  ASSERT_GE(Last, 0);
  for (size_t I = static_cast<size_t>(Last) + 1;
       I < Trace.instances().size(); ++I)
    EXPECT_NE(Trace.instances()[I].Node, BodyNode);
  EXPECT_EQ(lastInstanceOf(Trace, {M.MainId, 9999}), -1);
}

TEST(WholeProgramSlicerTest, OutOfRangeCriterionIsEmpty) {
  Module M = compile("fn main() { i = 1; print i; }");
  ExecutionResult Result;
  RawTrace Raw = traceExecution(M, {}, Result);
  WholeProgramTrace Trace = WholeProgramTrace::build(M, Raw);
  VarId I = M.internVar("i");
  for (size_t At : {Trace.instances().size(), Trace.instances().size() + 7}) {
    GlobalSliceResult Slice = sliceWholeProgram(Trace, M, At, I);
    EXPECT_TRUE(Slice.Nodes.empty());
    EXPECT_EQ(Slice.QueriesGenerated, 0u);
  }
  GlobalSliceResult Empty = sliceWholeProgram(WholeProgramTrace(), M, 0, I);
  EXPECT_TRUE(Empty.Nodes.empty());
  EXPECT_EQ(Empty.QueriesGenerated, 0u);
}

TEST(WholeProgramTraceTest, MalformedEventsAreSkipped) {
  Module M = compile("fn main() { i = 1; print i; }");
  ExecutionResult Result;
  RawTrace Good = traceExecution(M, {}, Result);
  ASSERT_TRUE(Result.Completed);
  size_t GoodInstances = WholeProgramTrace::build(M, Good).instances().size();
  ASSERT_GT(GoodInstances, 0u);

  // Blocks and exits with no open frame, block ids the function does not
  // have, and a frame of an unknown function all contribute nothing.
  RawTrace Bad;
  Bad.FunctionCount = Good.FunctionCount;
  Bad.Events = {TraceEvent::block(1), TraceEvent::exit(),
                TraceEvent::block(0)};
  Bad.Events.push_back(TraceEvent::enter(M.MainId));
  Bad.Events.push_back(TraceEvent::block(0));
  Bad.Events.push_back(TraceEvent::block(9999));
  Bad.Events.push_back(TraceEvent::enter(77));
  Bad.Events.push_back(TraceEvent::block(1));
  Bad.Events.push_back(TraceEvent::exit());
  Bad.Events.push_back(TraceEvent::exit());
  Bad.Events.insert(Bad.Events.end(), Good.Events.begin(), Good.Events.end());
  Bad.Events.push_back(TraceEvent::exit());
  Bad.Events.push_back(TraceEvent::block(1));

  WholeProgramTrace Trace = WholeProgramTrace::build(M, Bad);
  ASSERT_EQ(Trace.instances().size(), GoodInstances);
  VarId I = M.internVar("i");
  for (size_t At = 0; At != Trace.instances().size(); ++At) {
    GlobalSliceResult Slice = sliceWholeProgram(Trace, M, At, I);
    GlobalSliceResult Expected = oracle::sliceWholeProgram(Trace, M, At, I);
    EXPECT_EQ(Slice.Nodes, Expected.Nodes) << At;
    EXPECT_EQ(Slice.QueriesGenerated, Expected.QueriesGenerated) << At;
  }
}

/// A random mini-language program: helpers taking parameters, each with
/// a bounded while loop and an if/else (later helpers call earlier
/// ones), a recursive function, and a main loop calling all of them.
std::string randomProgram(Rng &R) {
  using Vars = std::vector<std::string>;
  auto Pick = [&R](const Vars &From) { return From[R.nextBelow(From.size())]; };
  auto Expr = [&](const Vars &From) {
    static const char *const Ops[] = {"+", "-", "*", "%"};
    std::string E = Pick(From);
    if (R.nextBool(0.7))
      E += std::string(" ") + Ops[R.nextBelow(4)] + " " +
           (R.nextBool(0.5) ? Pick(From)
                            : std::to_string(R.nextInRange(1, 9)));
    return E;
  };
  auto Call = [&](const std::string &Callee, size_t Arity, const Vars &From) {
    std::string Args;
    for (size_t A = 0; A != Arity; ++A)
      Args += (A ? ", " : "") + Expr(From);
    return "call " + Callee + "(" + Args + ")";
  };

  std::string Src;
  std::vector<size_t> Arity;
  size_t Helpers = 2 + R.nextBelow(2);
  for (size_t H = 0; H != Helpers; ++H) {
    Vars Params;
    for (size_t P = 0, E = 1 + R.nextBelow(3); P != E; ++P)
      Params.push_back("p" + std::to_string(P));
    Arity.push_back(Params.size());
    Vars Locals = Params;
    Locals.insert(Locals.end(), {"t0", "t1"});
    Src += "fn h" + std::to_string(H) + "(";
    for (size_t P = 0; P != Params.size(); ++P)
      Src += (P ? ", " : "") + Params[P];
    Src += ") {\n  let t0 = " + Expr(Params) + ";\n  let t1 = " +
           Expr(Params) + ";\n  let c = 0;\n  while (c < " +
           std::to_string(1 + R.nextBelow(4)) + ") {\n    " + Pick(Locals) +
           " = " + Expr(Locals) + ";\n    if (" + Expr(Locals) + " > " +
           Expr(Locals) + ") { " + Pick(Locals) + " = " + Expr(Locals) +
           "; } else { " + Pick(Locals) + " = " + Expr(Locals) +
           "; }\n    c = c + 1;\n  }\n";
    if (H != 0 && R.nextBool(0.6)) {
      size_t Callee = R.nextBelow(H);
      Src += "  t0 = " +
             Call("h" + std::to_string(Callee), Arity[Callee], Locals) +
             ";\n";
    }
    Src += "  return " + Expr(Locals) + ";\n}\n";
  }
  Vars RecVars = {"d", "v", "w"};
  Src += "fn rec(d, v) {\n  let w = " + Expr(RecVars) +
         ";\n  if (d < 1) { return w; }\n  r = call rec(d - 1, " +
         Expr(RecVars) + ");\n  w = " + Call("h0", Arity[0], RecVars) +
         ";\n  return r + " + Expr(RecVars) + ";\n}\n";

  Vars MainVars = {"i", "s", "acc", "m0", "m1"};
  auto AnyHelper = [&] {
    size_t H = R.nextBelow(Helpers);
    return Call("h" + std::to_string(H), Arity[H], MainVars);
  };
  Src += "fn main() {\n  read n;\n  read s;\n  let acc = 0;\n"
         "  let m0 = 0;\n  let m1 = 0;\n  let i = 0;\n"
         "  while (i < n) {\n    m0 = " +
         AnyHelper() + ";\n    if (" + Expr(MainVars) + " > " +
         Expr(MainVars) + ") { acc = acc + m0; } else { m1 = call rec(i % 5, " +
         Expr(MainVars) + "); }\n    m1 = " + AnyHelper() +
         ";\n    acc = " + Expr(MainVars) +
         ";\n    i = i + 1;\n  }\n  print acc;\n  print m1;\n}\n";
  return Src;
}

/// The indexed slicer answers exactly what the linear-scan oracle does,
/// node for node and query for query, on generated programs.
TEST(WholeProgramSlicerTest, MatchesLinearScanOracleOnGeneratedPrograms) {
  size_t Slices = 0, CrossFrame = 0, Recursive = 0;
  for (uint64_t Seed = 0; Seed != 200; ++Seed) {
    Rng R(Seed);
    std::string Source = randomProgram(R);
    Module M = compile(Source);
    ExecutionResult Result;
    RawTrace Raw = traceExecution(
        M, {R.nextInRange(4, 16), R.nextInRange(-20, 20)}, Result);
    ASSERT_TRUE(Result.Completed) << Result.Error << "\n" << Source;
    WholeProgramTrace Trace = WholeProgramTrace::build(M, Raw);
    const auto &Instances = Trace.instances();
    ASSERT_FALSE(Instances.empty());
    FunctionId Rec = M.findFunction("rec")->Id;
    for (int C = 0; C != 5; ++C) {
      // The last instance, then random ones; the variable is one the
      // statement uses or defines, a parameter of its function, or a
      // variable defined somewhere else in the run.
      size_t At = C == 0 ? Instances.size() - 1
                         : R.nextBelow(Instances.size());
      const WholeProgramTrace::Instance &Inst = Instances[At];
      const SliceStmt &S =
          Trace.bridgeOf(Inst.Function).Program.stmt(Inst.Node);
      const std::vector<VarId> &Params = M.Functions[Inst.Function].Params;
      const WholeProgramTrace::Instance &Other =
          Instances[R.nextBelow(Instances.size())];
      std::vector<VarId> Candidates = S.Uses;
      Candidates.insert(Candidates.end(), Params.begin(), Params.end());
      Candidates.push_back(S.Def);
      Candidates.push_back(
          Trace.bridgeOf(Other.Function).Program.stmt(Other.Node).Def);
      std::erase(Candidates, NoVar);
      if (Candidates.empty())
        continue;
      VarId Var = Candidates[R.nextBelow(Candidates.size())];

      GlobalSliceResult Slice = sliceWholeProgram(Trace, M, At, Var);
      GlobalSliceResult Expected = oracle::sliceWholeProgram(Trace, M, At, Var);
      ASSERT_EQ(Slice.Nodes, Expected.Nodes)
          << "seed " << Seed << " instance " << At << "\n" << Source;
      ASSERT_EQ(Slice.QueriesGenerated, Expected.QueriesGenerated)
          << "seed " << Seed << " instance " << At << "\n" << Source;
      ++Slices;
      CrossFrame += Slice.Nodes.front().Function != Slice.Nodes.back().Function;
      for (GlobalNode Node : Slice.Nodes)
        if (Node.Function == Rec) {
          ++Recursive;
          break;
        }
    }
  }
  // The generator must exercise the interprocedural channels.
  EXPECT_GT(Slices, 900u);
  EXPECT_GT(CrossFrame, Slices / 4);
  EXPECT_GT(Recursive, 50u);
}

} // namespace
