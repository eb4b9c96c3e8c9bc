//===- verify/ArchiveChecks.cpp - Archive-family invariant checks ---------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//

#include "verify/ArchiveChecks.h"

#include "support/LZW.h"
#include "verify/Checks.h"
#include "verify/ThreadChecks.h"
#include "wpp/Archive.h"
#include "wpp/Dbb.h"
#include "wpp/DynamicCallGraph.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>

using namespace twpp;
using namespace twpp::verify;

namespace {

// Cap on materializing a trace's full timestamp vector for the partition
// check; anything larger is structurally absurd for this repo's scales
// and gets a note instead of an allocation.
constexpr uint64_t PartitionMaterializeCap = uint64_t(1) << 26;

std::string fnLoc(uint32_t F) { return "function " + std::to_string(F); }

//===----------------------------------------------------------------------===//
// Timestamp series checks.
//===----------------------------------------------------------------------===//

/// \returns true when the series entries themselves are sound (the
/// round-trip check is only meaningful on a well-ordered set).
bool checkSeriesOrder(const TimestampSet &Set, const std::string &Loc,
                      DiagnosticEngine &Engine) {
  if (Set.empty()) {
    Engine.report(checks::ArchiveSeriesOrder, Severity::Error,
                  "block entry carries an empty timestamp set", Loc);
    return false;
  }
  bool Ok = true;
  Timestamp PrevHi = 0;
  const std::vector<SeriesRun> &Runs = Set.runs();
  for (size_t I = 0; I < Runs.size(); ++I) {
    const SeriesRun &Run = Runs[I];
    std::string RunLoc = Loc + " / series entry " + std::to_string(I);
    if (Run.Lo < 1) {
      Engine.report(checks::ArchiveSeriesOrder, Severity::Error,
                    "timestamp " + std::to_string(Run.Lo) +
                        " is not positive (timestamps are 1-based)",
                    RunLoc);
      Ok = false;
    }
    if (Run.Hi < Run.Lo) {
      Engine.report(checks::ArchiveSeriesOrder, Severity::Error,
                    "series upper bound " + std::to_string(Run.Hi) +
                        " below lower bound " + std::to_string(Run.Lo),
                    RunLoc);
      Ok = false;
    }
    if (Run.Step < 1) {
      Engine.report(checks::ArchiveSeriesOrder, Severity::Error,
                    "series stride must be >= 1", RunLoc);
      Ok = false;
    } else if (Run.Hi >= Run.Lo && (Run.Hi - Run.Lo) % Run.Step != 0) {
      Engine.report(checks::ArchiveSeriesOrder, Severity::Error,
                    "series span " + std::to_string(Run.Hi - Run.Lo) +
                        " is not a multiple of stride " +
                        std::to_string(Run.Step),
                    RunLoc);
      Ok = false;
    }
    if (I > 0 && Run.Lo <= PrevHi) {
      Engine.report(checks::ArchiveSeriesOrder, Severity::Error,
                    "series entries not strictly increasing (" +
                        std::to_string(Run.Lo) + " follows " +
                        std::to_string(PrevHi) + ")",
                    RunLoc);
      Ok = false;
    }
    PrevHi = Run.Hi;
  }
  return Ok;
}

} // namespace

void verify::runTimestampSetChecks(const TimestampSet &Set,
                                   const std::string &Loc,
                                   DiagnosticEngine &Engine) {
  if (!checkSeriesOrder(Set, Loc, Engine))
    return;
  if (!Engine.checkEnabled(checks::ArchiveSeriesSignEncoding))
    return;
  TimestampSet Back;
  if (!TimestampSet::decodeSigned(Set.encodeSigned(), Back) || !(Back == Set)) {
    Engine.report(checks::ArchiveSeriesSignEncoding, Severity::Error,
                  "sign-delimited encoding does not round-trip", Loc);
    return;
  }
  if (!(TimestampSet::fromSorted(Set.toVector()) == Set))
    Engine.report(checks::ArchiveSeriesSignEncoding, Severity::Error,
                  "runs are not canonically packed (fromSorted of the "
                  "element sequence yields different runs)",
                  Loc);
}

namespace {

//===----------------------------------------------------------------------===//
// Per-trace-string checks: block order + exact timestamp partition.
//===----------------------------------------------------------------------===//

void checkTraceString(const TwppTrace &Trace, const std::string &Loc,
                      DiagnosticEngine &Engine) {
  bool BlocksSorted = true;
  uint64_t Total = 0;
  BlockId PrevBlock = 0;
  for (size_t I = 0; I < Trace.Blocks.size(); ++I) {
    const auto &[Block, Set] = Trace.Blocks[I];
    std::string BlockLoc = Loc + " / block " + std::to_string(Block);
    if (I > 0 && Block <= PrevBlock) {
      Engine.report(checks::ArchiveTracePartition, Severity::Error,
                    "block entries not sorted strictly ascending by id",
                    BlockLoc);
      BlocksSorted = false;
    }
    PrevBlock = Block;
    runTimestampSetChecks(Set, BlockLoc, Engine);
    Total += Set.count();
  }
  if (!Engine.checkEnabled(checks::ArchiveTracePartition))
    return;
  if (Total != Trace.Length) {
    Engine.report(checks::ArchiveTracePartition, Severity::Error,
                  "timestamp sets hold " + std::to_string(Total) +
                      " timestamps but the trace declares length " +
                      std::to_string(Trace.Length),
                  Loc);
    return;
  }
  if (!BlocksSorted)
    return;
  if (Total > PartitionMaterializeCap) {
    Engine.report(checks::ArchiveTracePartition, Severity::Note,
                  "trace too long to materialize; partition check limited "
                  "to the count comparison",
                  Loc);
    return;
  }
  // Counts match; only overlaps (with matching gaps) can still hide.
  std::vector<Timestamp> All;
  All.reserve(Total);
  for (const auto &[Block, Set] : Trace.Blocks) {
    std::vector<Timestamp> Part = Set.toVector();
    All.insert(All.end(), Part.begin(), Part.end());
  }
  std::sort(All.begin(), All.end());
  for (size_t I = 0; I < All.size(); ++I) {
    if (All[I] != I + 1) {
      Engine.report(
          checks::ArchiveTracePartition, Severity::Error,
          All[I] <= (I > 0 ? All[I - 1] : 0)
              ? "timestamp " + std::to_string(All[I]) +
                    " appears in more than one block's set"
              : "time step " + std::to_string(I + 1) +
                    " is covered by no block's set",
          Loc);
      return;
    }
  }
}

//===----------------------------------------------------------------------===//
// Dedup table + pool checks.
//===----------------------------------------------------------------------===//

void checkDedupTables(const TwppFunctionTable &Table, const std::string &Loc,
                      DiagnosticEngine &Engine) {
  if (Table.UseCounts.size() != Table.Traces.size()) {
    Engine.report(checks::ArchiveDedupIntegrity, Severity::Error,
                  "use-count table has " +
                      std::to_string(Table.UseCounts.size()) +
                      " entries for " + std::to_string(Table.Traces.size()) +
                      " unique traces",
                  Loc);
    return;
  }
  uint64_t TotalUses = 0;
  std::set<std::pair<uint32_t, uint32_t>> Seen;
  for (size_t T = 0; T < Table.Traces.size(); ++T) {
    auto [StringIdx, DictIdx] = Table.Traces[T];
    std::string TraceLoc = Loc + " / trace " + std::to_string(T);
    if (StringIdx >= Table.TraceStrings.size())
      Engine.report(checks::ArchiveDedupIntegrity, Severity::Error,
                    "trace-string index " + std::to_string(StringIdx) +
                        " out of range (pool holds " +
                        std::to_string(Table.TraceStrings.size()) + ")",
                    TraceLoc);
    if (DictIdx >= Table.Dictionaries.size())
      Engine.report(checks::ArchiveDedupIntegrity, Severity::Error,
                    "dictionary index " + std::to_string(DictIdx) +
                        " out of range (pool holds " +
                        std::to_string(Table.Dictionaries.size()) + ")",
                    TraceLoc);
    if (Table.UseCounts[T] == 0)
      Engine.report(checks::ArchiveDedupIntegrity, Severity::Error,
                    "unique trace has use count 0", TraceLoc);
    TotalUses += Table.UseCounts[T];
    if (!Seen.insert({StringIdx, DictIdx}).second)
      Engine.report(checks::ArchiveDedupIntegrity, Severity::Error,
                    "duplicate (string " + std::to_string(StringIdx) +
                        ", dictionary " + std::to_string(DictIdx) +
                        ") pair — redundant path trace elimination failed",
                    TraceLoc);
  }
  if (TotalUses != Table.CallCount)
    Engine.report(checks::ArchiveDedupIntegrity, Severity::Error,
                  "use counts sum to " + std::to_string(TotalUses) +
                      " but the table records " +
                      std::to_string(Table.CallCount) + " calls",
                  Loc);
}

void checkPools(const TwppFunctionTable &Table, const std::string &Loc,
                DiagnosticEngine &Engine) {
  if (!Engine.checkEnabled(checks::ArchivePoolDedup))
    return;
  std::vector<bool> StringUsed(Table.TraceStrings.size(), false);
  std::vector<bool> DictUsed(Table.Dictionaries.size(), false);
  for (auto [StringIdx, DictIdx] : Table.Traces) {
    if (StringIdx < StringUsed.size())
      StringUsed[StringIdx] = true;
    if (DictIdx < DictUsed.size())
      DictUsed[DictIdx] = true;
  }
  for (size_t I = 0; I < StringUsed.size(); ++I)
    if (!StringUsed[I])
      Engine.report(checks::ArchivePoolDedup, Severity::Warning,
                    "trace string " + std::to_string(I) +
                        " is referenced by no unique trace",
                    Loc);
  for (size_t I = 0; I < DictUsed.size(); ++I)
    if (!DictUsed[I])
      Engine.report(checks::ArchivePoolDedup, Severity::Warning,
                    "dictionary " + std::to_string(I) +
                        " is referenced by no unique trace",
                    Loc);
  // Pairwise duplicate scan with a cheap shape pre-filter; pools are the
  // deduplicated sets, so they are small by construction.
  for (size_t A = 0; A < Table.TraceStrings.size(); ++A)
    for (size_t B = A + 1; B < Table.TraceStrings.size(); ++B) {
      if (Table.TraceStrings[A].Length != Table.TraceStrings[B].Length ||
          Table.TraceStrings[A].Blocks.size() !=
              Table.TraceStrings[B].Blocks.size())
        continue;
      if (Table.TraceStrings[A] == Table.TraceStrings[B])
        Engine.report(checks::ArchivePoolDedup, Severity::Warning,
                      "trace strings " + std::to_string(A) + " and " +
                          std::to_string(B) +
                          " are identical — pool deduplication failed",
                      Loc);
    }
  for (size_t A = 0; A < Table.Dictionaries.size(); ++A)
    for (size_t B = A + 1; B < Table.Dictionaries.size(); ++B) {
      if (hashDictionary(Table.Dictionaries[A]) !=
          hashDictionary(Table.Dictionaries[B]))
        continue;
      if (Table.Dictionaries[A] == Table.Dictionaries[B])
        Engine.report(checks::ArchivePoolDedup, Severity::Warning,
                      "dictionaries " + std::to_string(A) + " and " +
                          std::to_string(B) +
                          " are identical — pool deduplication failed",
                      Loc);
    }
}

//===----------------------------------------------------------------------===//
// DBB dictionary checks.
//===----------------------------------------------------------------------===//

void checkDictionary(const DbbDictionary &Dict, const std::string &Loc,
                     DiagnosticEngine &Engine) {
  std::set<BlockId> Heads;
  BlockId PrevHead = 0;
  for (size_t C = 0; C < Dict.Chains.size(); ++C) {
    const std::vector<BlockId> &Chain = Dict.Chains[C];
    std::string ChainLoc = Loc + " / chain " + std::to_string(C);
    if (Chain.size() < 2) {
      Engine.report(checks::DbbChainStructure, Severity::Error,
                    "chain shorter than 2 blocks (dynamic basic blocks "
                    "collapse only multi-block runs)",
                    ChainLoc);
      continue;
    }
    if (C > 0 && Chain.front() <= PrevHead)
      Engine.report(checks::DbbChainStructure, Severity::Error,
                    "chains not sorted strictly by head id (head " +
                        std::to_string(Chain.front()) + " follows " +
                        std::to_string(PrevHead) + ")",
                    ChainLoc);
    PrevHead = Chain.front();
    Heads.insert(Chain.front());
  }
  // A chain body mentioning another chain's head makes one-level
  // expansion ambiguous (the paper's DBBs are vertex-disjoint CFG paths).
  std::map<BlockId, size_t> Owner;
  for (size_t C = 0; C < Dict.Chains.size(); ++C) {
    const std::vector<BlockId> &Chain = Dict.Chains[C];
    if (Chain.size() < 2)
      continue;
    for (size_t I = 0; I < Chain.size(); ++I) {
      std::string ChainLoc = Loc + " / chain " + std::to_string(C);
      if (I > 0 && Heads.count(Chain[I]))
        Engine.report(checks::DbbChainStructure, Severity::Error,
                      "chain body contains block " +
                          std::to_string(Chain[I]) +
                          ", which heads another chain (expansion would "
                          "be ambiguous)",
                      ChainLoc);
      auto [It, Inserted] = Owner.emplace(Chain[I], C);
      if (!Inserted && It->second != C)
        Engine.report(checks::DbbChainStructure, Severity::Error,
                      "block " + std::to_string(Chain[I]) +
                          " belongs to chains " +
                          std::to_string(It->second) + " and " +
                          std::to_string(C) +
                          " (chains must be vertex-disjoint)",
                      ChainLoc);
    }
  }
}

/// The gold-standard maximality check: a unique (trace, dictionary) pair
/// must be a fixed point of DBB compaction. Expands each *unique* trace
/// once (never per call, never to the raw WPP) and re-runs stage 3.
void checkChainMaximality(const TwppFunctionTable &Table,
                          const std::string &Loc, DiagnosticEngine &Engine) {
  if (!Engine.checkEnabled(checks::DbbChainMaximality))
    return;
  std::set<std::pair<uint32_t, uint32_t>> Done;
  DenseIndex Scratch;
  for (auto [StringIdx, DictIdx] : Table.Traces) {
    if (StringIdx >= Table.TraceStrings.size() ||
        DictIdx >= Table.Dictionaries.size())
      continue; // dedup-integrity already reported it.
    if (!Done.insert({StringIdx, DictIdx}).second)
      continue;
    std::vector<BlockId> Seq;
    if (!blockSequenceFromTwpp(Table.TraceStrings[StringIdx], Seq))
      continue; // trace-partition already reported it.
    CompactedTrace Compacted;
    Compacted.Blocks = std::move(Seq);
    Compacted.Dictionary = Table.Dictionaries[DictIdx];
    CompactedTrace Recompacted =
        compactWithDbbs(expandDbbs(Compacted), Scratch);
    std::string PairLoc = Loc + " / string " + std::to_string(StringIdx) +
                          " / dictionary " + std::to_string(DictIdx);
    if (Recompacted.Blocks != Compacted.Blocks)
      Engine.report(checks::DbbChainMaximality, Severity::Warning,
                    "re-compacting the expanded trace yields a different "
                    "block sequence — some chain occurrence was left "
                    "uncollapsed",
                    PairLoc);
    else if (!(Recompacted.Dictionary == Compacted.Dictionary))
      Engine.report(checks::DbbChainMaximality, Severity::Warning,
                    "re-compacting the expanded trace yields a different "
                    "dictionary — chains are non-maximal or spurious",
                    PairLoc);
  }
}

//===----------------------------------------------------------------------===//
// DCG checks.
//===----------------------------------------------------------------------===//

void checkDcg(const TwppWpp &Wpp, DiagnosticEngine &Engine) {
  const DynamicCallGraph &Dcg = Wpp.Dcg;
  const size_t N = Dcg.Nodes.size();
  std::vector<uint32_t> ParentCount(N, 0);
  std::map<std::pair<FunctionId, uint32_t>, uint64_t> LengthCache;

  for (size_t I = 0; I < N; ++I) {
    const DcgNode &Node = Dcg.Nodes[I];
    std::string Loc = "dcg node " + std::to_string(I);
    bool FunctionOk = Node.Function < Wpp.Functions.size();
    if (!FunctionOk)
      Engine.report(checks::DcgConsistency, Severity::Error,
                    "callee function " + std::to_string(Node.Function) +
                        " does not exist (archive holds " +
                        std::to_string(Wpp.Functions.size()) + ")",
                    Loc);
    bool TraceOk =
        FunctionOk &&
        Node.TraceIndex < Wpp.Functions[Node.Function].Traces.size();
    if (FunctionOk && !TraceOk)
      Engine.report(checks::DcgConsistency, Severity::Error,
                    "trace index " + std::to_string(Node.TraceIndex) +
                        " out of range for function " +
                        std::to_string(Node.Function) + " (" +
                        std::to_string(
                            Wpp.Functions[Node.Function].Traces.size()) +
                        " unique traces)",
                    Loc);
    if (Node.Anchors.size() != Node.Children.size())
      Engine.report(checks::DcgConsistency, Severity::Error,
                    std::to_string(Node.Children.size()) +
                        " children but " +
                        std::to_string(Node.Anchors.size()) + " anchors",
                    Loc);
    uint64_t TraceLength = 0;
    if (TraceOk) {
      auto Key = std::make_pair(Node.Function, Node.TraceIndex);
      auto It = LengthCache.find(Key);
      if (It == LengthCache.end())
        It = LengthCache
                 .emplace(Key, expandedTraceLength(
                                   Wpp.Functions[Node.Function],
                                   Node.TraceIndex))
                 .first;
      TraceLength = It->second;
    }
    for (size_t C = 0; C < Node.Children.size(); ++C) {
      uint32_t Child = Node.Children[C];
      if (Child >= N) {
        Engine.report(checks::DcgConsistency, Severity::Error,
                      "child index " + std::to_string(Child) +
                          " out of range",
                      Loc);
        continue;
      }
      if (Child <= I)
        Engine.report(checks::DcgConsistency, Severity::Error,
                      "child index " + std::to_string(Child) +
                          " not greater than parent (calls are recorded "
                          "in creation order)",
                      Loc);
      else
        ++ParentCount[Child];
    }
    uint32_t PrevAnchor = 0;
    for (size_t C = 0; C < Node.Anchors.size(); ++C) {
      uint32_t Anchor = Node.Anchors[C];
      if (Anchor < PrevAnchor) {
        Engine.report(checks::DcgConsistency, Severity::Error,
                      "anchors not non-decreasing (anchor " +
                          std::to_string(Anchor) + " follows " +
                          std::to_string(PrevAnchor) + ")",
                      Loc);
        break;
      }
      PrevAnchor = Anchor;
      if (TraceOk && Anchor > TraceLength) {
        Engine.report(checks::DcgConsistency, Severity::Error,
                      "anchor " + std::to_string(Anchor) +
                          " exceeds the call's uncompacted trace length " +
                          std::to_string(TraceLength),
                      Loc);
        break;
      }
    }
  }

  std::vector<bool> IsRoot(N, false);
  for (uint32_t Root : Dcg.Roots) {
    if (Root >= N)
      Engine.report(checks::DcgConsistency, Severity::Error,
                    "root index " + std::to_string(Root) + " out of range",
                    "dcg roots");
    else
      IsRoot[Root] = true;
  }
  for (size_t I = 0; I < N; ++I) {
    std::string Loc = "dcg node " + std::to_string(I);
    if (IsRoot[I] && ParentCount[I] != 0)
      Engine.report(checks::DcgConsistency, Severity::Error,
                    "root node also appears as a child", Loc);
    else if (!IsRoot[I] && ParentCount[I] == 0)
      Engine.report(checks::DcgConsistency, Severity::Error,
                    "node is neither a root nor any node's child "
                    "(orphaned call)",
                    Loc);
    else if (!IsRoot[I] && ParentCount[I] > 1)
      Engine.report(checks::DcgConsistency, Severity::Error,
                    "node has " + std::to_string(ParentCount[I]) +
                        " parents (the DCG must be a forest)",
                    Loc);
  }

  if (Engine.checkEnabled(checks::DcgCallCounts)) {
    std::vector<uint64_t> NodeCounts(Wpp.Functions.size(), 0);
    for (const DcgNode &Node : Dcg.Nodes)
      if (Node.Function < NodeCounts.size())
        ++NodeCounts[Node.Function];
    for (uint32_t F = 0; F < Wpp.Functions.size(); ++F)
      if (NodeCounts[F] != Wpp.Functions[F].CallCount)
        Engine.report(checks::DcgCallCounts, Severity::Error,
                      "DCG holds " + std::to_string(NodeCounts[F]) +
                          " calls but the function table records " +
                          std::to_string(Wpp.Functions[F].CallCount),
                      fnLoc(F));
  }
}

//===----------------------------------------------------------------------===//
// Version-3 section trailer.
//===----------------------------------------------------------------------===//

/// Decodes the three thread sections of an intact version-3 trailer into
/// \p Conc, reporting a missing HBEG or ACCS section (the layout reports
/// a missing THRD) and each section that does not decode. \returns true
/// when every section decoded (only then are the thread/race checks
/// meaningful).
bool checkSections(ByteSpan File, const ArchiveLayout &Layout,
                   ConcurrencyInfo &Conc, DiagnosticEngine &Engine) {
  bool Ok = true;
  // THRD must decode before ACCS (the access decoder validates its
  // thread count against the table), so decode in fixed tag order rather
  // than file order.
  for (uint32_t Tag : {ArchiveSectionThreads, ArchiveSectionHbEdges,
                       ArchiveSectionAccesses}) {
    std::string Name = archiveSectionName(Tag);
    const ArchiveLayout::Section *Sec = Layout.findSection(Tag);
    if (!Sec) {
      if (Tag != ArchiveSectionThreads)
        Engine.report(checks::ArchiveSection, Severity::Error,
                      "version 3 archive is missing the " + Name +
                          " section",
                      "section directory",
                      Layout.DcgOffset + Layout.DcgLength);
      Ok = false;
      continue;
    }
    if (!decodeArchiveSection(Tag, File.subspan(Sec->Offset, Sec->Length),
                              Conc)) {
      Engine.report(checks::ArchiveSection, Severity::Error,
                    Name + " section does not decode", Name + " section",
                    Sec->Offset);
      Ok = false;
    }
  }
  return Ok;
}

} // namespace

uint64_t verify::expandedTraceLength(const TwppFunctionTable &Table,
                                     uint32_t T) {
  auto [StringIdx, DictIdx] = Table.Traces[T];
  if (StringIdx >= Table.TraceStrings.size() ||
      DictIdx >= Table.Dictionaries.size())
    return 0;
  const TwppTrace &Trace = Table.TraceStrings[StringIdx];
  const DbbDictionary &Dict = Table.Dictionaries[DictIdx];
  uint64_t Length = 0;
  for (const auto &[Block, Set] : Trace.Blocks) {
    const std::vector<BlockId> *Chain = Dict.findChain(Block);
    Length += Set.count() * (Chain ? Chain->size() : 1);
  }
  return Length;
}

void verify::runFunctionTableChecks(const TwppFunctionTable &Table,
                                    uint32_t F, DiagnosticEngine &Engine) {
  std::string Loc = fnLoc(F);
  for (size_t S = 0; S < Table.TraceStrings.size(); ++S)
    checkTraceString(Table.TraceStrings[S],
                     Loc + " / string " + std::to_string(S), Engine);
  for (size_t D = 0; D < Table.Dictionaries.size(); ++D)
    checkDictionary(Table.Dictionaries[D],
                    Loc + " / dictionary " + std::to_string(D), Engine);
  checkDedupTables(Table, Loc, Engine);
  checkPools(Table, Loc, Engine);
  checkChainMaximality(Table, Loc, Engine);
}

void verify::runWppChecks(const TwppWpp &Wpp, DiagnosticEngine &Engine) {
  for (uint32_t F = 0; F < Wpp.Functions.size(); ++F)
    runFunctionTableChecks(Wpp.Functions[F], F, Engine);
  checkDcg(Wpp, Engine);
}

void verify::runArchiveBytesChecks(const std::vector<uint8_t> &Bytes,
                                   DiagnosticEngine &Engine) {
  const ByteSpan File(Bytes);
  ArchiveLayout Layout;
  decodeArchiveLayout(File, Layout);
  // Without every index row the header claims, the rest of the layout is
  // guesswork (the clamped rows may be block bytes): report the header's
  // defect alone, as the reader does.
  if (!Layout.indexComplete()) {
    Engine.report(Layout.Defects.front().Diag);
    return;
  }
  for (const ArchiveLayout::Defect &D : Layout.Defects)
    Engine.report(D.Diag);
  const uint32_t FunctionCount = Layout.FunctionCount;
  const std::vector<ArchiveLayout::IndexRow> &Rows = Layout.Rows;

  // A block is usable when it lies inside the file and clear of the
  // header and index.
  std::vector<bool> Usable(FunctionCount, false);
  for (uint32_t F = 0; F < FunctionCount; ++F) {
    const ArchiveLayout::IndexRow &R = Rows[F];
    if (!R.InBounds)
      continue;
    if (R.Length > 0 && R.Offset < Layout.IndexEnd) {
      Engine.report(checks::ArchiveIndexBounds, Severity::Error,
                    "block overlaps the header/index region",
                    "index row " + std::to_string(F), R.At);
      continue;
    }
    Usable[F] = true;
  }

  // Non-overlap over every usable extent (function blocks + DCG).
  struct Extent {
    uint64_t Offset, Length;
    std::string Name;
  };
  std::vector<Extent> Extents;
  for (uint32_t F = 0; F < FunctionCount; ++F)
    if (Usable[F] && Rows[F].Length > 0)
      Extents.push_back({Rows[F].Offset, Rows[F].Length,
                         "function " + std::to_string(F) + " block"});
  if (Layout.DcgInBounds && Layout.DcgLength > 0)
    Extents.push_back({Layout.DcgOffset, Layout.DcgLength, "dcg"});
  std::sort(Extents.begin(), Extents.end(),
            [](const Extent &A, const Extent &B) {
              return A.Offset < B.Offset;
            });
  for (size_t I = 1; I < Extents.size(); ++I)
    if (Extents[I].Offset < Extents[I - 1].Offset + Extents[I - 1].Length)
      Engine.report(checks::ArchiveIndexBounds, Severity::Error,
                    Extents[I].Name + " overlaps " + Extents[I - 1].Name,
                    Extents[I].Name, Extents[I].Offset);

  // Most-frequent-first layout (paper Section 3): walking blocks in file
  // order, call counts must never increase.
  if (Engine.checkEnabled(checks::ArchiveIndexOrder)) {
    std::vector<uint32_t> ByOffset;
    for (uint32_t F = 0; F < FunctionCount; ++F)
      if (Usable[F])
        ByOffset.push_back(F);
    std::stable_sort(ByOffset.begin(), ByOffset.end(),
                     [&Rows](uint32_t A, uint32_t B) {
                       return Rows[A].Offset < Rows[B].Offset;
                     });
    for (size_t I = 1; I < ByOffset.size(); ++I)
      if (Rows[ByOffset[I]].CallCount > Rows[ByOffset[I - 1]].CallCount) {
        Engine.report(
            checks::ArchiveIndexOrder, Severity::Warning,
            "function " + std::to_string(ByOffset[I]) + " (" +
                std::to_string(Rows[ByOffset[I]].CallCount) +
                " calls) is stored after function " +
                std::to_string(ByOffset[I - 1]) + " (" +
                std::to_string(Rows[ByOffset[I - 1]].CallCount) +
                " calls) — blocks must be laid out most-frequent first",
            "index", 0);
        break;
      }
  }

  // Decode every function block and the DCG in place; on full success,
  // chain into the in-memory family.
  bool AllDecoded = Layout.DcgInBounds;
  TwppWpp Wpp;
  Wpp.Functions.resize(FunctionCount);
  for (uint32_t F = 0; F < FunctionCount; ++F) {
    const ArchiveLayout::IndexRow &R = Rows[F];
    if (!Usable[F]) {
      AllDecoded = false;
      continue;
    }
    std::string Loc = "function " + std::to_string(F) + " block";
    if (!decodeTwppFunctionTable(File.subspan(R.Offset, R.Length),
                                 Wpp.Functions[F])) {
      Engine.report(checks::ArchiveBlockDecode, Severity::Error,
                    "function block does not decode", Loc, R.Offset);
      AllDecoded = false;
      continue;
    }
    if (Wpp.Functions[F].CallCount != R.CallCount)
      Engine.report(checks::ArchiveBlockDecode, Severity::Error,
                    "index records " + std::to_string(R.CallCount) +
                        " calls but the decoded table records " +
                        std::to_string(Wpp.Functions[F].CallCount),
                    Loc, R.Offset);
  }
  if (Layout.DcgInBounds) {
    std::vector<uint8_t> Raw;
    if (!lzwDecompress(File.subspan(Layout.DcgOffset, Layout.DcgLength),
                       Raw)) {
      Engine.report(checks::ArchiveDcgDecode, Severity::Error,
                    "DCG does not LZW-decompress", "dcg", Layout.DcgOffset);
      AllDecoded = false;
    } else if (!decodeDcg(Raw, Wpp.Dcg)) {
      Engine.report(checks::ArchiveDcgDecode, Severity::Error,
                    "decompressed DCG does not decode as a call graph",
                    "dcg", Layout.DcgOffset);
      AllDecoded = false;
    }
  }
  if (AllDecoded)
    runWppChecks(Wpp, Engine);

  // Version 3: the thread trailer, then the thread/race families over it.
  ConcurrencyInfo Conc;
  if (Layout.TrailerIntact && checkSections(File, Layout, Conc, Engine))
    runConcurrencyChecks(Conc, AllDecoded ? &Wpp : nullptr, Engine);
}
