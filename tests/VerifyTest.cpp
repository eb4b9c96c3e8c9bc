//===- tests/VerifyTest.cpp - invariant verifier unit tests ----------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the diagnostics engine and each check family. Every
/// check in the catalog gets at least one negative case (a structure
/// violating exactly that invariant, caught under that check id) and the
/// clean pipeline output passes every family with zero diagnostics.
///
//===----------------------------------------------------------------------===//

#include "dataflow/AnnotatedCfg.h"
#include "dataflow/IrFacts.h"
#include "lang/Lower.h"
#include "obs/Json.h"
#include "verify/Verify.h"
#include "wpp/Twpp.h"

#include "TestTraces.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

using namespace twpp;
using namespace twpp::verify;

namespace {

// Arm the TWPP_VERIFY post-stage assertions for the pipeline-built
// fixtures in this binary (active only when the env var is set).
const bool PipelineVerifierInstalled = [] {
  installPipelineVerifier();
  return true;
}();

/// Diagnostics filed under \p Id.
std::vector<const Diagnostic *> diagsFor(const DiagnosticEngine &Engine,
                                         std::string_view Id) {
  std::vector<const Diagnostic *> Out;
  for (const Diagnostic &D : Engine.diagnostics())
    if (D.CheckId == Id)
      Out.push_back(&D);
  return Out;
}

bool hasCheck(const DiagnosticEngine &Engine, std::string_view Id) {
  return !diagsFor(Engine, Id).empty();
}

/// A timestamp set with non-canonical run structure, built through the
/// sign-delimited decoder (the only public door: fromSorted always
/// canonicalizes, and decodeSigned validates entries but not cross-entry
/// ordering or packing — exactly what a corrupted archive could carry).
TimestampSet decodedSet(const std::vector<int64_t> &Encoded) {
  TimestampSet Set;
  EXPECT_TRUE(TimestampSet::decodeSigned(Encoded, Set));
  return Set;
}

/// Minimal one-trace function table around \p Trace and \p Dict.
TwppFunctionTable makeTable(TwppTrace Trace, DbbDictionary Dict = {}) {
  TwppFunctionTable Table;
  Table.TraceStrings.push_back(std::move(Trace));
  Table.Dictionaries.push_back(std::move(Dict));
  Table.Traces.push_back({0, 0});
  Table.UseCounts.push_back(1);
  Table.CallCount = 1;
  return Table;
}

//===----------------------------------------------------------------------===//
// Glob matcher + catalog + engine + renderers.
//===----------------------------------------------------------------------===//

TEST(GlobTest, MatchesExactStarAndQuestion) {
  EXPECT_TRUE(checkIdMatchesGlob("twpp-archive-header", "twpp-archive-header"));
  EXPECT_TRUE(checkIdMatchesGlob("twpp-archive-header", "*"));
  EXPECT_TRUE(checkIdMatchesGlob("twpp-archive-header", "twpp-archive-*"));
  EXPECT_TRUE(checkIdMatchesGlob("twpp-archive-series-order", "*-order"));
  EXPECT_TRUE(checkIdMatchesGlob("twpp-ir-terminator", "twpp-?r-*"));
  EXPECT_FALSE(checkIdMatchesGlob("twpp-ir-terminator", "twpp-archive-*"));
  EXPECT_FALSE(checkIdMatchesGlob("twpp-archive-header", ""));
  EXPECT_TRUE(checkIdMatchesGlob("", "*"));
  // Star backtracking: the first '-order' candidate is not the last.
  EXPECT_TRUE(checkIdMatchesGlob("twpp-archive-index-order", "*-order"));
  EXPECT_FALSE(checkIdMatchesGlob("twpp-archive-index-order", "*-bounds"));
}

TEST(CatalogTest, IdsAreUniqueAndResolvable) {
  const std::vector<CheckInfo> &Catalog = checkCatalog();
  EXPECT_GE(Catalog.size(), 24u);
  std::set<std::string> Ids;
  for (const CheckInfo &Info : Catalog) {
    EXPECT_TRUE(Ids.insert(Info.Id).second) << "duplicate id " << Info.Id;
    EXPECT_EQ(std::string(Info.Id).rfind("twpp-", 0), 0u) << Info.Id;
    const CheckInfo *Found = findCheck(Info.Id);
    ASSERT_NE(Found, nullptr) << Info.Id;
    EXPECT_STREQ(Found->Id, Info.Id);
    EXPECT_NE(std::string(Info.Summary), "");
  }
  EXPECT_EQ(findCheck("twpp-no-such-check"), nullptr);
}

TEST(CatalogTest, DefaultSeveritiesMatchImplementations) {
  EXPECT_EQ(findCheck(checks::ArchiveHeader)->DefaultSev, Severity::Error);
  EXPECT_EQ(findCheck(checks::ArchiveIndexOrder)->DefaultSev,
            Severity::Warning);
  EXPECT_EQ(findCheck(checks::ArchivePoolDedup)->DefaultSev,
            Severity::Warning);
  EXPECT_EQ(findCheck(checks::DbbChainMaximality)->DefaultSev,
            Severity::Warning);
  EXPECT_EQ(findCheck(checks::IrUnreachableBlock)->DefaultSev,
            Severity::Warning);
  EXPECT_EQ(findCheck(checks::IrDefBeforeUse)->DefaultSev, Severity::Warning);
  EXPECT_EQ(findCheck(checks::DcgConsistency)->DefaultSev, Severity::Error);
}

TEST(EngineTest, FiltersByGlobAndTallies) {
  DiagnosticEngine Engine("twpp-archive-*");
  EXPECT_TRUE(Engine.checkEnabled(checks::ArchiveHeader));
  EXPECT_FALSE(Engine.checkEnabled(checks::IrTerminator));
  Engine.report(checks::ArchiveHeader, Severity::Error, "bad");
  Engine.report(checks::IrTerminator, Severity::Error, "filtered out");
  Engine.report(checks::ArchiveIndexOrder, Severity::Warning, "late block");
  ASSERT_EQ(Engine.diagnostics().size(), 2u);
  EXPECT_EQ(Engine.errorCount(), 1u);
  EXPECT_EQ(Engine.count(Severity::Warning), 1u);
  EXPECT_FALSE(Engine.clean());
  EXPECT_FALSE(Engine.empty());
}

TEST(EngineTest, WarningsAloneStayClean) {
  DiagnosticEngine Engine;
  Engine.report(checks::ArchivePoolDedup, Severity::Warning, "dup pool");
  Engine.report(checks::IrUnreachableBlock, Severity::Note, "fyi");
  EXPECT_TRUE(Engine.clean());
  EXPECT_FALSE(Engine.empty());
  EXPECT_EQ(Engine.errorCount(), 0u);
}

TEST(RenderTest, TextCarriesSeverityIdLocationAndSummary) {
  DiagnosticEngine Engine;
  Engine.report(checks::ArchiveHeader, Severity::Error, "bad magic",
                "header", 0);
  Engine.report(checks::ArchiveIndexOrder, Severity::Warning,
                "stored out of order", "index");
  std::string Text = renderDiagnosticsText(Engine);
  EXPECT_NE(Text.find("error: [twpp-archive-header] header: bad magic"),
            std::string::npos)
      << Text;
  EXPECT_NE(Text.find("(byte 0)"), std::string::npos) << Text;
  EXPECT_NE(Text.find("warning: [twpp-archive-index-order]"),
            std::string::npos)
      << Text;
  EXPECT_NE(Text.find("1 error(s), 1 warning(s), 0 note(s)"),
            std::string::npos)
      << Text;
}

TEST(RenderTest, JsonCarriesCheckAndByteOffset) {
  DiagnosticEngine Engine;
  Engine.report(checks::ArchiveIndexBounds, Severity::Error,
                "extent past EOF", "index row 3", 100);
  Engine.report(checks::DbbChainMaximality, Severity::Warning, "uncollapsed");
  obs::JsonWriter W;
  writeDiagnosticsJson(W, Engine.diagnostics());
  std::string Json = W.finish();
  EXPECT_NE(Json.find("\"check\": \"twpp-archive-index-bounds\""),
            std::string::npos)
      << Json;
  EXPECT_NE(Json.find("\"byteOffset\": 100"), std::string::npos) << Json;
  // The offset-less diagnostic must not carry the sentinel.
  EXPECT_EQ(Json.find(std::to_string(NoByteOffset)), std::string::npos)
      << Json;
}

//===----------------------------------------------------------------------===//
// Archive family: timestamp series.
//===----------------------------------------------------------------------===//

TEST(SeriesChecksTest, CanonicalSetIsClean) {
  DiagnosticEngine Engine;
  runTimestampSetChecks(TimestampSet::fromSorted({1, 2, 3, 7, 9, 11}), "t",
                        Engine);
  EXPECT_TRUE(Engine.empty()) << renderDiagnosticsText(Engine);
}

TEST(SeriesChecksTest, EmptySetIsAnOrderError) {
  DiagnosticEngine Engine;
  runTimestampSetChecks(TimestampSet(), "t", Engine);
  EXPECT_TRUE(hasCheck(Engine, checks::ArchiveSeriesOrder));
}

TEST(SeriesChecksTest, OutOfOrderRunsAreCaught) {
  // decodeSigned builds the runs verbatim: {-5, -3} yields singleton 5
  // followed by singleton 3 — valid entries, broken ordering.
  DiagnosticEngine Engine;
  runTimestampSetChecks(decodedSet({-5, -3}), "t", Engine);
  EXPECT_TRUE(hasCheck(Engine, checks::ArchiveSeriesOrder));
  EXPECT_GT(Engine.errorCount(), 0u);
}

TEST(SeriesChecksTest, NonCanonicalPackingIsCaught) {
  // Two adjacent singletons 1 and 2: ordered, round-trips, but fromSorted
  // would pack them into one step-1 run — the encoding wastes space.
  DiagnosticEngine Engine;
  runTimestampSetChecks(decodedSet({-1, -2}), "t", Engine);
  EXPECT_TRUE(hasCheck(Engine, checks::ArchiveSeriesSignEncoding));
  EXPECT_FALSE(hasCheck(Engine, checks::ArchiveSeriesOrder));
}

TEST(SeriesChecksTest, SplitRunPackingIsCaught) {
  // A step-1 run 1..2 followed by singleton 3; canonical form is 1..3.
  DiagnosticEngine Engine;
  runTimestampSetChecks(decodedSet({1, -2, -3}), "t", Engine);
  EXPECT_TRUE(hasCheck(Engine, checks::ArchiveSeriesSignEncoding));
}

//===----------------------------------------------------------------------===//
// Archive family: trace partition + dedup + pools + dictionaries.
//===----------------------------------------------------------------------===//

TEST(WppChecksTest, CleanPipelineOutputHasNoDiagnostics) {
  TwppWpp Wpp = compactWpp(fixtures::figure1Trace());
  DiagnosticEngine Engine;
  runWppChecks(Wpp, Engine);
  EXPECT_TRUE(Engine.empty()) << renderDiagnosticsText(Engine);
}

TEST(WppChecksTest, CleanRandomTraceHasNoDiagnostics) {
  TwppWpp Wpp = compactWpp(fixtures::randomTrace(99, 4, 2000));
  DiagnosticEngine Engine;
  runWppChecks(Wpp, Engine);
  EXPECT_TRUE(Engine.empty()) << renderDiagnosticsText(Engine);
}

TEST(WppChecksTest, WrongTraceLengthIsAPartitionError) {
  TwppFunctionTable Table =
      makeTable(twppFromBlockSequence({1, 2, 1, 2, 3}));
  Table.TraceStrings[0].Length += 1;
  DiagnosticEngine Engine("twpp-archive-trace-partition");
  runFunctionTableChecks(Table, 0, Engine);
  EXPECT_TRUE(hasCheck(Engine, checks::ArchiveTracePartition));
}

TEST(WppChecksTest, UnsortedBlockEntriesAreAPartitionError) {
  TwppFunctionTable Table =
      makeTable(twppFromBlockSequence({1, 2, 1, 2, 3}));
  ASSERT_GE(Table.TraceStrings[0].Blocks.size(), 2u);
  std::swap(Table.TraceStrings[0].Blocks[0], Table.TraceStrings[0].Blocks[1]);
  DiagnosticEngine Engine("twpp-archive-trace-partition");
  runFunctionTableChecks(Table, 0, Engine);
  EXPECT_TRUE(hasCheck(Engine, checks::ArchiveTracePartition));
}

TEST(WppChecksTest, OverlappingSetsWithMatchingCountAreCaught) {
  // Counts agree with Length (2 + 2 == 4) but timestamp 2 is claimed
  // twice and step 3 by nobody — only materialization catches this.
  TwppTrace Trace;
  Trace.Length = 4;
  Trace.Blocks.push_back({1, TimestampSet::fromSorted({1, 2})});
  Trace.Blocks.push_back({2, TimestampSet::fromSorted({2, 4})});
  DiagnosticEngine Engine("twpp-archive-trace-partition");
  runFunctionTableChecks(makeTable(Trace), 0, Engine);
  ASSERT_TRUE(hasCheck(Engine, checks::ArchiveTracePartition));
  EXPECT_NE(diagsFor(Engine, checks::ArchiveTracePartition)[0]->Message.find(
                "more than one block"),
            std::string::npos);
}

TEST(WppChecksTest, DedupIndexOutOfRangeIsCaught) {
  TwppFunctionTable Table = makeTable(twppFromBlockSequence({3}));
  Table.Traces[0].first = 7;
  DiagnosticEngine Engine("twpp-archive-dedup-integrity");
  runFunctionTableChecks(Table, 0, Engine);
  EXPECT_TRUE(hasCheck(Engine, checks::ArchiveDedupIntegrity));
}

TEST(WppChecksTest, ZeroUseCountAndSumMismatchAreCaught) {
  TwppFunctionTable Table = makeTable(twppFromBlockSequence({3}));
  Table.UseCounts[0] = 0;
  DiagnosticEngine Engine("twpp-archive-dedup-integrity");
  runFunctionTableChecks(Table, 0, Engine);
  // Both the zero use count and the calls-vs-uses sum fire.
  EXPECT_GE(diagsFor(Engine, checks::ArchiveDedupIntegrity).size(), 2u);
}

TEST(WppChecksTest, DuplicateTracePairIsCaught) {
  TwppFunctionTable Table = makeTable(twppFromBlockSequence({3}));
  Table.Traces.push_back(Table.Traces[0]);
  Table.UseCounts.push_back(1);
  Table.CallCount = 2;
  DiagnosticEngine Engine("twpp-archive-dedup-integrity");
  runFunctionTableChecks(Table, 0, Engine);
  EXPECT_TRUE(hasCheck(Engine, checks::ArchiveDedupIntegrity));
}

TEST(WppChecksTest, UseCountTableSizeMismatchIsCaught) {
  TwppFunctionTable Table = makeTable(twppFromBlockSequence({3}));
  Table.UseCounts.clear();
  DiagnosticEngine Engine("twpp-archive-dedup-integrity");
  runFunctionTableChecks(Table, 0, Engine);
  EXPECT_TRUE(hasCheck(Engine, checks::ArchiveDedupIntegrity));
}

TEST(WppChecksTest, UnreferencedAndDuplicatePoolEntriesWarn) {
  TwppFunctionTable Table = makeTable(twppFromBlockSequence({3}));
  Table.TraceStrings.push_back(twppFromBlockSequence({9})); // unreferenced
  Table.Dictionaries.push_back(DbbDictionary{});            // duplicate of [0]
  DiagnosticEngine Engine("twpp-archive-pool-dedup");
  runFunctionTableChecks(Table, 0, Engine);
  std::vector<const Diagnostic *> Pool =
      diagsFor(Engine, checks::ArchivePoolDedup);
  ASSERT_GE(Pool.size(), 3u); // unreferenced string, unreferenced dict, dup.
  for (const Diagnostic *D : Pool)
    EXPECT_EQ(D->Sev, Severity::Warning);
  EXPECT_TRUE(Engine.clean());
}

TEST(DbbChecksTest, ShortChainIsAStructureError) {
  DbbDictionary Dict;
  Dict.Chains = {{3}};
  DiagnosticEngine Engine("twpp-dbb-chain-structure");
  runFunctionTableChecks(makeTable(twppFromBlockSequence({5}), Dict), 0,
                         Engine);
  EXPECT_TRUE(hasCheck(Engine, checks::DbbChainStructure));
}

TEST(DbbChecksTest, UnsortedChainHeadsAreCaught) {
  DbbDictionary Dict;
  Dict.Chains = {{4, 5}, {2, 3}};
  DiagnosticEngine Engine("twpp-dbb-chain-structure");
  runFunctionTableChecks(makeTable(twppFromBlockSequence({7}), Dict), 0,
                         Engine);
  EXPECT_TRUE(hasCheck(Engine, checks::DbbChainStructure));
}

TEST(DbbChecksTest, BodyContainingAnotherHeadIsCaught) {
  DbbDictionary Dict;
  Dict.Chains = {{2, 3}, {3, 4}};
  DiagnosticEngine Engine("twpp-dbb-chain-structure");
  runFunctionTableChecks(makeTable(twppFromBlockSequence({7}), Dict), 0,
                         Engine);
  // Block 3 heads chain 1 while sitting in chain 0's body; both the
  // ambiguity and the vertex-disjointness findings fire.
  EXPECT_GE(diagsFor(Engine, checks::DbbChainStructure).size(), 2u);
}

TEST(DbbChecksTest, SharedBodyBlockIsCaught) {
  DbbDictionary Dict;
  Dict.Chains = {{2, 9}, {4, 9}};
  DiagnosticEngine Engine("twpp-dbb-chain-structure");
  runFunctionTableChecks(makeTable(twppFromBlockSequence({7}), Dict), 0,
                         Engine);
  EXPECT_TRUE(hasCheck(Engine, checks::DbbChainStructure));
}

TEST(DbbChecksTest, UncollapsedChainIsAMaximalityWarning) {
  // {1,2,1,2} with an empty dictionary: stage 3 would have collapsed the
  // repeated 1->2 run into a chain, so this pair is not a fixed point.
  DiagnosticEngine Engine("twpp-dbb-chain-maximality");
  runFunctionTableChecks(makeTable(twppFromBlockSequence({1, 2, 1, 2})), 0,
                         Engine);
  std::vector<const Diagnostic *> Max =
      diagsFor(Engine, checks::DbbChainMaximality);
  ASSERT_EQ(Max.size(), 1u);
  EXPECT_EQ(Max[0]->Sev, Severity::Warning);
}

//===----------------------------------------------------------------------===//
// Archive family: DCG.
//===----------------------------------------------------------------------===//

class DcgChecks : public ::testing::Test {
protected:
  void SetUp() override { Wpp = compactWpp(fixtures::figure1Trace()); }

  /// Runs the full in-memory family and returns the engine.
  DiagnosticEngine run() {
    DiagnosticEngine Engine;
    runWppChecks(Wpp, Engine);
    return Engine;
  }

  TwppWpp Wpp;
};

TEST_F(DcgChecks, FixtureIsClean) {
  DiagnosticEngine Engine = run();
  EXPECT_TRUE(Engine.empty()) << renderDiagnosticsText(Engine);
  // Figure 1: main called once, f five times — enough structure for the
  // corruption cases below.
  ASSERT_EQ(Wpp.Dcg.Roots.size(), 1u);
  ASSERT_GE(Wpp.Dcg.Nodes.size(), 6u);
  ASSERT_EQ(Wpp.Dcg.Nodes[0].Children.size(), 5u);
}

TEST_F(DcgChecks, CalleeOutOfRangeIsCaught) {
  Wpp.Dcg.Nodes[1].Function = 99;
  EXPECT_TRUE(hasCheck(run(), checks::DcgConsistency));
}

TEST_F(DcgChecks, TraceIndexOutOfRangeIsCaught) {
  Wpp.Dcg.Nodes[1].TraceIndex = 99;
  EXPECT_TRUE(hasCheck(run(), checks::DcgConsistency));
}

TEST_F(DcgChecks, ChildNotAfterParentIsCaught) {
  Wpp.Dcg.Nodes[0].Children[0] = 0;
  EXPECT_TRUE(hasCheck(run(), checks::DcgConsistency));
}

TEST_F(DcgChecks, ChildIndexOutOfRangeIsCaught) {
  Wpp.Dcg.Nodes[0].Children[0] = 99;
  EXPECT_TRUE(hasCheck(run(), checks::DcgConsistency));
}

TEST_F(DcgChecks, DecreasingAnchorsAreCaught) {
  std::vector<uint32_t> &Anchors = Wpp.Dcg.Nodes[0].Anchors;
  ASSERT_GE(Anchors.size(), 2u);
  std::swap(Anchors.front(), Anchors.back());
  ASSERT_NE(Anchors.front(), Anchors.back());
  EXPECT_TRUE(hasCheck(run(), checks::DcgConsistency));
}

TEST_F(DcgChecks, AnchorBeyondTraceLengthIsCaught) {
  Wpp.Dcg.Nodes[0].Anchors.back() = 1000000;
  EXPECT_TRUE(hasCheck(run(), checks::DcgConsistency));
}

TEST_F(DcgChecks, AnchorCountMismatchIsCaught) {
  Wpp.Dcg.Nodes[0].Anchors.pop_back();
  EXPECT_TRUE(hasCheck(run(), checks::DcgConsistency));
}

TEST_F(DcgChecks, RootOutOfRangeIsCaught) {
  Wpp.Dcg.Roots.push_back(99);
  EXPECT_TRUE(hasCheck(run(), checks::DcgConsistency));
}

TEST_F(DcgChecks, OrphanNodeIsCaught) {
  DcgNode Orphan;
  Orphan.Function = 1;
  Orphan.TraceIndex = 0;
  Wpp.Dcg.Nodes.push_back(Orphan);
  // The orphan also inflates f's DCG call count past the table's.
  DiagnosticEngine Engine = run();
  EXPECT_TRUE(hasCheck(Engine, checks::DcgConsistency));
  EXPECT_TRUE(hasCheck(Engine, checks::DcgCallCounts));
}

TEST_F(DcgChecks, DuplicateParentIsCaught) {
  std::vector<uint32_t> &Children = Wpp.Dcg.Nodes[0].Children;
  ASSERT_GE(Children.size(), 2u);
  Children[1] = Children[0]; // one child twice, another orphaned
  EXPECT_TRUE(hasCheck(run(), checks::DcgConsistency));
}

TEST_F(DcgChecks, CallCountMismatchIsCaught) {
  Wpp.Functions[1].CallCount += 1;
  Wpp.Functions[1].UseCounts[0] += 1; // keep dedup sums consistent
  EXPECT_TRUE(hasCheck(run(), checks::DcgCallCounts));
}

//===----------------------------------------------------------------------===//
// IR family.
//===----------------------------------------------------------------------===//

/// One-block function: optional statements, Return terminator.
Function makeFunction(std::vector<Expr> Exprs, std::vector<Stmt> Stmts) {
  Function F;
  F.Name = "f";
  F.Exprs = std::move(Exprs);
  BasicBlock Entry;
  Entry.Stmts = std::move(Stmts);
  F.Blocks.push_back(Entry);
  return F;
}

Module makeModule(Function F) {
  Module M;
  M.Functions.push_back(std::move(F));
  M.VarNames = {"x", "y"};
  return M;
}

TEST(IrChecksTest, CompiledProgramIsClean) {
  Module M;
  std::string Error;
  ASSERT_TRUE(compileProgram("fn main() {"
                             "  read n;"
                             "  s = 0;"
                             "  while (n > 0) { s = s + n; n = n - 1; }"
                             "  print s;"
                             "}",
                             M, Error))
      << Error;
  DiagnosticEngine Engine;
  runModuleChecks(M, Engine);
  EXPECT_TRUE(Engine.empty()) << renderDiagnosticsText(Engine);
}

TEST(IrChecksTest, EmptyFunctionIsCaught) {
  Function F;
  F.Name = "hollow";
  DiagnosticEngine Engine;
  runModuleChecks(makeModule(F), Engine);
  EXPECT_TRUE(hasCheck(Engine, checks::IrEmptyFunction));
}

TEST(IrChecksTest, JumpToMissingBlockIsCaught) {
  Function F = makeFunction({}, {});
  F.Blocks[0].Term = BasicBlock::Terminator::Jump;
  F.Blocks[0].TrueSucc = 5;
  DiagnosticEngine Engine;
  runModuleChecks(makeModule(F), Engine);
  EXPECT_TRUE(hasCheck(Engine, checks::IrEdgeTarget));
}

TEST(IrChecksTest, BranchEdgesAndConditionAreChecked) {
  Function F = makeFunction({}, {});
  F.Blocks[0].Term = BasicBlock::Terminator::Branch;
  F.Blocks[0].CondExpr = 7; // empty pool
  F.Blocks[0].TrueSucc = 0; // below range
  F.Blocks[0].FalseSucc = 9;
  DiagnosticEngine Engine;
  runModuleChecks(makeModule(F), Engine);
  EXPECT_TRUE(hasCheck(Engine, checks::IrTerminator));
  EXPECT_GE(diagsFor(Engine, checks::IrEdgeTarget).size(), 2u);
}

TEST(IrChecksTest, ReturnValueOutsidePoolIsCaught) {
  Function F = makeFunction({}, {});
  F.Blocks[0].HasRetValue = true;
  F.Blocks[0].RetExpr = 3;
  DiagnosticEngine Engine;
  runModuleChecks(makeModule(F), Engine);
  EXPECT_TRUE(hasCheck(Engine, checks::IrTerminator));
}

TEST(IrChecksTest, ExpressionCycleIsCaught) {
  Expr SelfLoop;
  SelfLoop.Kind = ExprKind::Add;
  SelfLoop.Lhs = 0; // references itself
  SelfLoop.Rhs = 0;
  Function F = makeFunction({SelfLoop}, {});
  DiagnosticEngine Engine;
  runModuleChecks(makeModule(F), Engine);
  EXPECT_TRUE(hasCheck(Engine, checks::IrExprCycle));
}

TEST(IrChecksTest, OperandOutsidePoolIsCaught) {
  Expr Bad;
  Bad.Kind = ExprKind::Neg;
  Bad.Lhs = 5;
  Function F = makeFunction({Bad}, {});
  DiagnosticEngine Engine;
  runModuleChecks(makeModule(F), Engine);
  EXPECT_TRUE(hasCheck(Engine, checks::IrExprCycle));
}

TEST(IrChecksTest, StatementOperandOutsidePoolIsCaught) {
  Stmt S;
  S.StmtKind = Stmt::Kind::Print;
  S.ExprIndex = 4;
  Function F = makeFunction({}, {S});
  DiagnosticEngine Engine;
  runModuleChecks(makeModule(F), Engine);
  EXPECT_TRUE(hasCheck(Engine, checks::IrExprCycle));
}

TEST(IrChecksTest, CallToMissingFunctionIsCaught) {
  Stmt S;
  S.StmtKind = Stmt::Kind::Call;
  S.Callee = 3;
  Function F = makeFunction({}, {S});
  DiagnosticEngine Engine;
  runModuleChecks(makeModule(F), Engine);
  EXPECT_TRUE(hasCheck(Engine, checks::IrCallTarget));
}

TEST(IrChecksTest, MainIdOutOfRangeIsCaught) {
  Module M = makeModule(makeFunction({}, {}));
  M.MainId = 5;
  DiagnosticEngine Engine;
  runModuleChecks(M, Engine);
  EXPECT_TRUE(hasCheck(Engine, checks::IrCallTarget));
}

TEST(IrChecksTest, UnreachableBlockWarns) {
  Function F = makeFunction({}, {});
  F.Blocks.push_back(BasicBlock{}); // block 2, reached by nothing
  DiagnosticEngine Engine;
  runModuleChecks(makeModule(F), Engine);
  std::vector<const Diagnostic *> Unreachable =
      diagsFor(Engine, checks::IrUnreachableBlock);
  ASSERT_EQ(Unreachable.size(), 1u);
  EXPECT_EQ(Unreachable[0]->Sev, Severity::Warning);
  EXPECT_TRUE(Engine.clean());
}

TEST(IrChecksTest, ReadBeforeDefinitionWarns) {
  Expr ReadX;
  ReadX.Kind = ExprKind::Var;
  ReadX.Var = 0;
  Stmt S;
  S.StmtKind = Stmt::Kind::Assign;
  S.Target = 1;
  S.ExprIndex = 0;
  Function F = makeFunction({ReadX}, {S});
  DiagnosticEngine Engine;
  runModuleChecks(makeModule(F), Engine);
  std::vector<const Diagnostic *> Uses =
      diagsFor(Engine, checks::IrDefBeforeUse);
  ASSERT_EQ(Uses.size(), 1u);
  EXPECT_NE(Uses[0]->Message.find("'x'"), std::string::npos);
}

TEST(IrChecksTest, ParametersCountAsDefined) {
  Expr ReadX;
  ReadX.Kind = ExprKind::Var;
  ReadX.Var = 0;
  Stmt S;
  S.StmtKind = Stmt::Kind::Assign;
  S.Target = 1;
  S.ExprIndex = 0;
  Function F = makeFunction({ReadX}, {S});
  F.Params = {0};
  DiagnosticEngine Engine;
  runModuleChecks(makeModule(F), Engine);
  EXPECT_FALSE(hasCheck(Engine, checks::IrDefBeforeUse))
      << renderDiagnosticsText(Engine);
}

TEST(IrChecksTest, DefinitionOnOnlyOneBranchWarns) {
  // if (x) { y = 1 } ; print y — y is not defined on the fall-through
  // path, so the must-defined analysis flags the print.
  Module M;
  std::string Error;
  ASSERT_TRUE(compileProgram("fn main() {"
                             "  read x;"
                             "  if (x > 0) { y = 1; }"
                             "  print y;"
                             "}",
                             M, Error))
      << Error;
  DiagnosticEngine Engine;
  runModuleChecks(M, Engine);
  EXPECT_TRUE(hasCheck(Engine, checks::IrDefBeforeUse));
}

//===----------------------------------------------------------------------===//
// Dataflow family.
//===----------------------------------------------------------------------===//

TEST(DataflowChecksTest, DerivedFactSpecIsClean) {
  Module M;
  std::string Error;
  ASSERT_TRUE(compileProgram("fn main() {"
                             "  read x;"
                             "  y = x + 1;"
                             "  print y;"
                             "}",
                             M, Error))
      << Error;
  const Function &F = M.Functions[M.MainId];
  DiagnosticEngine Engine;
  for (VarId V = 0; V < M.VarNames.size(); ++V) {
    runFactSpecChecks(availabilityFact(F, V), F, "avail", Engine);
    runFactSpecChecks(definedFact(F, V), F, "defined", Engine);
  }
  EXPECT_TRUE(Engine.empty()) << renderDiagnosticsText(Engine);
}

TEST(DataflowChecksTest, UnsortedAndOutOfRangeFactBlocksAreCaught) {
  Function F = makeFunction({}, {});
  BlockFactSpec Spec;
  Spec.GenBlocks = {2, 1}; // unsorted, and 2 exceeds the single block
  DiagnosticEngine Engine;
  runFactSpecChecks(Spec, F, "avail", Engine);
  EXPECT_GE(diagsFor(Engine, checks::DataflowFactBlocks).size(), 2u);
}

TEST(DataflowChecksTest, GenKillOverlapIsCaught) {
  Function F = makeFunction({}, {});
  BlockFactSpec Spec;
  Spec.GenBlocks = {1};
  Spec.KillBlocks = {1};
  DiagnosticEngine Engine;
  runFactSpecChecks(Spec, F, "avail", Engine);
  EXPECT_TRUE(hasCheck(Engine, checks::DataflowFactBlocks));
}

TEST(DataflowChecksTest, BuiltAnnotatedCfgIsClean) {
  AnnotatedDynamicCfg Cfg =
      buildAnnotatedCfgFromSequence({1, 2, 1, 2, 3});
  DiagnosticEngine Engine;
  runAnnotatedCfgChecks(Cfg, "cfg", Engine);
  EXPECT_TRUE(Engine.empty()) << renderDiagnosticsText(Engine);
}

TEST(DataflowChecksTest, CfgLengthMismatchIsCaught) {
  AnnotatedDynamicCfg Cfg = buildAnnotatedCfgFromSequence({1, 2, 3});
  Cfg.Length += 1;
  DiagnosticEngine Engine;
  runAnnotatedCfgChecks(Cfg, "cfg", Engine);
  EXPECT_TRUE(hasCheck(Engine, checks::DataflowAnnotationPartition));
}

TEST(DataflowChecksTest, AsymmetricEdgeIsCaught) {
  AnnotatedDynamicCfg Cfg = buildAnnotatedCfgFromSequence({1, 2, 3});
  ASSERT_EQ(Cfg.Nodes.size(), 3u);
  Cfg.Nodes[0].Succs.push_back(2); // node 2 has no matching Pred
  DiagnosticEngine Engine;
  runAnnotatedCfgChecks(Cfg, "cfg", Engine);
  EXPECT_TRUE(hasCheck(Engine, checks::DataflowAnnotationPartition));
}

TEST(DataflowChecksTest, EdgeIndexOutOfRangeIsCaught) {
  AnnotatedDynamicCfg Cfg = buildAnnotatedCfgFromSequence({1, 2});
  Cfg.Nodes[0].Preds.push_back(99);
  DiagnosticEngine Engine;
  runAnnotatedCfgChecks(Cfg, "cfg", Engine);
  EXPECT_TRUE(hasCheck(Engine, checks::DataflowAnnotationPartition));
}

TEST(DataflowChecksTest, OverlappingAnnotationsAreCaught) {
  // Totals still match the length (1+1+1), but two nodes claim time 2.
  AnnotatedDynamicCfg Cfg = buildAnnotatedCfgFromSequence({1, 2, 3});
  Cfg.Nodes[0].Times = TimestampSet::fromSorted({2});
  DiagnosticEngine Engine;
  runAnnotatedCfgChecks(Cfg, "cfg", Engine);
  EXPECT_TRUE(hasCheck(Engine, checks::DataflowAnnotationPartition));
}

TEST(DataflowChecksTest, AnnotationMatchesOwningTrace) {
  TwppWpp Wpp = compactWpp(fixtures::figure1Trace());
  DiagnosticEngine Engine;
  for (const TwppFunctionTable &Table : Wpp.Functions)
    for (size_t T = 0; T < Table.Traces.size(); ++T) {
      auto [StringIdx, DictIdx] = Table.Traces[T];
      const TwppTrace &Trace = Table.TraceStrings[StringIdx];
      const DbbDictionary &Dict = Table.Dictionaries[DictIdx];
      AnnotatedDynamicCfg Cfg = buildAnnotatedCfg(Trace, Dict);
      runAnnotatedCfgChecks(Cfg, "cfg", Engine);
      runAnnotationSourceChecks(Cfg, Trace, Dict, "cfg", Engine);
    }
  EXPECT_TRUE(Engine.empty()) << renderDiagnosticsText(Engine);
}

TEST(DataflowChecksTest, ForeignTraceFailsSourceChecks) {
  AnnotatedDynamicCfg Cfg = buildAnnotatedCfgFromSequence({1, 2});
  TwppTrace Other = twppFromBlockSequence({1, 2, 1});
  DiagnosticEngine Engine;
  runAnnotationSourceChecks(Cfg, Other, DbbDictionary{}, "cfg", Engine);
  EXPECT_TRUE(hasCheck(Engine, checks::DataflowAnnotationSubset));
}

TEST(DataflowChecksTest, ShiftedAnnotationFailsSourceChecks) {
  TwppTrace Trace = twppFromBlockSequence({1, 2, 1, 2});
  AnnotatedDynamicCfg Cfg = buildAnnotatedCfg(Trace, DbbDictionary{});
  ASSERT_GE(Cfg.Nodes.size(), 1u);
  Cfg.Nodes[0].Times = Cfg.Nodes[0].Times.shifted(2);
  DiagnosticEngine Engine("twpp-dataflow-annotation-subset");
  runAnnotationSourceChecks(Cfg, Trace, DbbDictionary{}, "cfg", Engine);
  EXPECT_TRUE(hasCheck(Engine, checks::DataflowAnnotationSubset));
}

} // namespace
