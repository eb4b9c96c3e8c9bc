//===- verify/Recover.cpp - Torn-archive salvage --------------------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//

#include "verify/Recover.h"

#include "support/FaultInjection.h"
#include "support/FileIO.h"
#include "support/LZW.h"
#include "verify/ArchiveChecks.h"
#include "verify/Checks.h"
#include "wpp/Archive.h"

#include <algorithm>
#include <new>

using namespace twpp;
using namespace twpp::recover;
using namespace twpp::verify;

namespace {

/// Removes every node whose function is dropped (or out of range),
/// hoisting each removed node's surviving descendants onto its nearest
/// kept ancestor at the anchor where the removed call sat. Subtrees are
/// temporally nested, so descendants always carry larger indices than
/// their ancestors — processing in reverse index order has every child's
/// replacement ready before its parent needs it, and the monotone index
/// remap preserves the forward-edge invariant.
DynamicCallGraph spliceDcg(const DynamicCallGraph &Dcg,
                           const std::vector<bool> &DropFn,
                           size_t FunctionCount) {
  const size_t N = Dcg.Nodes.size();
  auto Dropped = [&](const DcgNode &Node) {
    return Node.Function >= FunctionCount || DropFn[Node.Function];
  };
  std::vector<std::vector<uint32_t>> Replacement(N);
  std::vector<bool> Keep(N, false);
  for (size_t I = N; I-- > 0;) {
    const DcgNode &Node = Dcg.Nodes[I];
    Keep[I] = !Dropped(Node);
    if (Keep[I])
      continue;
    std::vector<uint32_t> Hoisted;
    for (uint32_t Child : Node.Children) {
      // Backward or out-of-range edges are corrupt; dropping them may
      // orphan a subtree, which the final re-verification then reports.
      if (Child >= N || Child <= I)
        continue;
      if (Keep[Child])
        Hoisted.push_back(Child);
      else
        Hoisted.insert(Hoisted.end(), Replacement[Child].begin(),
                       Replacement[Child].end());
    }
    Replacement[I] = std::move(Hoisted);
  }

  std::vector<uint32_t> NewIndex(N, 0);
  uint32_t Next = 0;
  for (size_t I = 0; I < N; ++I)
    if (Keep[I])
      NewIndex[I] = Next++;

  DynamicCallGraph Out;
  Out.Nodes.reserve(Next);
  for (size_t I = 0; I < N; ++I) {
    if (!Keep[I])
      continue;
    const DcgNode &Node = Dcg.Nodes[I];
    DcgNode New{Node.Function, Node.TraceIndex, {}, {}};
    for (size_t C = 0; C < Node.Children.size(); ++C) {
      uint32_t Child = Node.Children[C];
      if (Child >= N || Child <= I)
        continue;
      uint32_t Anchor = C < Node.Anchors.size() ? Node.Anchors[C] : 0;
      if (Keep[Child]) {
        New.Children.push_back(NewIndex[Child]);
        New.Anchors.push_back(Anchor);
      } else {
        for (uint32_t R : Replacement[Child]) {
          New.Children.push_back(NewIndex[R]);
          New.Anchors.push_back(Anchor);
        }
      }
    }
    Out.Nodes.push_back(std::move(New));
  }
  for (uint32_t Root : Dcg.Roots) {
    if (Root >= N)
      continue;
    if (Keep[Root])
      Out.Roots.push_back(NewIndex[Root]);
    else
      for (uint32_t R : Replacement[Root])
        Out.Roots.push_back(NewIndex[R]);
  }
  return Out;
}

/// Files a diagnostic into the report.
void note(SalvageReport &Report, const char *CheckId, Severity Sev,
          std::string Message, std::string Location = "",
          uint64_t ByteOffset = NoByteOffset) {
  Report.Diagnostics.push_back(Diagnostic{
      CheckId, Sev, std::move(Message), std::move(Location), ByteOffset});
}

/// Records function \p F as dropped (capping the id list) and notes why.
void dropFunction(SalvageReport &Report, std::vector<bool> &DropFn,
                  uint32_t F, const char *CheckId, std::string Message,
                  uint64_t ByteOffset = NoByteOffset) {
  if (DropFn[F])
    return;
  DropFn[F] = true;
  ++Report.FunctionsDropped;
  if (Report.DroppedFunctions.size() < SalvageReport::DroppedFunctionIdCap)
    Report.DroppedFunctions.push_back(F);
  note(Report, CheckId, Severity::Warning, std::move(Message),
       "function " + std::to_string(F), ByteOffset);
}

bool salvageImpl(const std::vector<uint8_t> &Bytes, std::vector<uint8_t> &Out,
                 SalvageReport &Report) {
  using Part = ArchiveLayout::Part;
  Report.InputBytes = Bytes.size();
  const ByteSpan File(Bytes);
  // Salvage rebuilds single-threaded archives only, so version 3 counts
  // as unsupported here.
  ArchiveLayout Layout;
  decodeArchiveLayout(File, Layout, /*MaxVersion=*/1);
  for (const ArchiveLayout::Defect &D : Layout.Defects) {
    const Diagnostic &Diag = D.Diag;
    switch (D.Where) {
    case Part::Header:
      note(Report, checks::RecoverInput, Severity::Error, Diag.Message,
           Diag.Location, Diag.ByteOffset);
      return false;
    case Part::FunctionCount:
      note(Report, checks::RecoverIndexRow, Severity::Warning,
           "header claims " + std::to_string(Layout.FunctionCount) +
               " functions but the file can hold at most " +
               std::to_string(Layout.Rows.size()) +
               " index rows; functions " +
               std::to_string(Layout.Rows.size()) + ".." +
               std::to_string(Layout.FunctionCount - 1) + " are lost",
           Diag.Location, Diag.ByteOffset);
      break;
    case Part::DcgExtent:
      note(Report, checks::RecoverDcg, Severity::Warning, Diag.Message, "dcg",
           Diag.ByteOffset);
      break;
    case Part::IndexRow: // dropped one function at a time below
    case Part::Sections: // version 1 has no trailer
      break;
    }
  }
  const uint32_t Count = static_cast<uint32_t>(Layout.Rows.size());
  Report.FunctionsTotal = Count;

  // The DCG: recover it if its extent is intact and decodes.
  DynamicCallGraph Dcg;
  if (Layout.DcgInBounds) {
    std::vector<uint8_t> Serialized;
    if (!lzwDecompress(File.subspan(Layout.DcgOffset, Layout.DcgLength),
                       Serialized))
      note(Report, checks::RecoverDcg, Severity::Warning,
           "DCG bytes do not LZW-decompress", "dcg", Layout.DcgOffset);
    else if (!decodeDcg(Serialized, Dcg))
      note(Report, checks::RecoverDcg, Severity::Warning,
           "decompressed DCG does not decode as a call graph", "dcg",
           Layout.DcgOffset);
    else
      Report.DcgRecovered = true;
  }

  // Walk the index; keep every block that decodes and verifies on its
  // own. Each block is an independent extent, so one torn block costs
  // exactly one function.
  std::vector<TwppFunctionTable> Tables(Count);
  std::vector<bool> DropFn(Count, false);
  for (uint32_t F = 0; F < Count; ++F) {
    fault::maybeFailAlloc();
    const ArchiveLayout::IndexRow &Row = Layout.Rows[F];
    if (!Row.InBounds) {
      dropFunction(Report, DropFn, F, checks::RecoverIndexRow,
                   "block extent (offset " + std::to_string(Row.Offset) +
                       ", length " + std::to_string(Row.Length) +
                       ") runs past end of file",
                   Row.At);
      continue;
    }
    if (!decodeTwppFunctionTable(File.subspan(Row.Offset, Row.Length),
                                 Tables[F])) {
      dropFunction(Report, DropFn, F, checks::RecoverBlock,
                   "function block does not decode", Row.Offset);
      Tables[F] = TwppFunctionTable();
      continue;
    }
    DiagnosticEngine TableEngine;
    runFunctionTableChecks(Tables[F], F, TableEngine);
    if (!TableEngine.clean()) {
      dropFunction(Report, DropFn, F, checks::RecoverBlock,
                   "function block decodes but fails verification (" +
                       TableEngine.diagnostics().front().Message + ")",
                   Row.Offset);
      Tables[F] = TwppFunctionTable();
    }
  }

  // Cross-check surviving tables against the DCG; a disagreement means
  // one of the two is damaged in a way the independent checks missed, so
  // the function is dropped too. Each check depends only on the function
  // itself (splicing other functions out never changes this function's
  // node set), so one pass reaches the fixpoint.
  if (Report.DcgRecovered) {
    std::vector<uint64_t> NodeCounts(Count, 0);
    bool UnknownCallee = false;
    for (const DcgNode &Node : Dcg.Nodes) {
      if (Node.Function < Count)
        ++NodeCounts[Node.Function];
      else
        UnknownCallee = true;
    }
    if (UnknownCallee)
      note(Report, checks::RecoverBlock, Severity::Warning,
           "DCG records calls to functions beyond the recovered index; "
           "those calls are spliced out",
           "dcg");
    for (const DcgNode &Node : Dcg.Nodes) {
      if (Node.Function >= Count || DropFn[Node.Function])
        continue;
      uint32_t F = Node.Function;
      const TwppFunctionTable &Table = Tables[F];
      if (Node.TraceIndex >= Table.Traces.size()) {
        dropFunction(Report, DropFn, F, checks::RecoverBlock,
                     "DCG references unique trace " +
                         std::to_string(Node.TraceIndex) +
                         " the recovered block does not hold");
        continue;
      }
      if (Node.Anchors.size() != Node.Children.size()) {
        dropFunction(Report, DropFn, F, checks::RecoverBlock,
                     "DCG node has mismatched child/anchor counts");
        continue;
      }
      uint64_t TraceLength = expandedTraceLength(Table, Node.TraceIndex);
      uint32_t Prev = 0;
      for (uint32_t Anchor : Node.Anchors) {
        if (Anchor < Prev || Anchor > TraceLength) {
          dropFunction(Report, DropFn, F, checks::RecoverBlock,
                       "DCG anchors inconsistent with the recovered "
                       "trace");
          break;
        }
        Prev = Anchor;
      }
    }
    for (uint32_t F = 0; F < Count; ++F)
      if (!DropFn[F] && NodeCounts[F] != Tables[F].CallCount)
        dropFunction(Report, DropFn, F, checks::RecoverBlock,
                     "DCG holds " + std::to_string(NodeCounts[F]) +
                         " calls but the recovered block records " +
                         std::to_string(Tables[F].CallCount));
  }

  for (uint32_t F = 0; F < Count; ++F) {
    if (DropFn[F]) {
      Report.CallsLost +=
          std::max(Layout.Rows[F].CallCount, Tables[F].CallCount);
      Tables[F] = TwppFunctionTable();
    } else {
      ++Report.FunctionsKept;
    }
  }

  if (!Report.DcgRecovered) {
    uint64_t KeptCalls = 0;
    for (uint32_t F = 0; F < Count; ++F)
      KeptCalls += Tables[F].CallCount;
    if (KeptCalls > 0) {
      note(Report, checks::RecoverDcg, Severity::Error,
           "the call graph is unrecoverable and the surviving function "
           "tables still record " +
               std::to_string(KeptCalls) +
               " calls; an archive cannot link them without it",
           "dcg");
      return false;
    }
    // Zero surviving calls: an empty call graph is vacuously consistent.
    Dcg = DynamicCallGraph();
  }

  fault::maybeFailAlloc();
  TwppWpp Salvaged;
  Salvaged.Dcg = spliceDcg(Dcg, DropFn, Count);
  Salvaged.Functions = std::move(Tables);
  Out = encodeArchive(Salvaged);

  // The contract gate: what twpp recover writes must pass the full
  // byte-level verifier, or salvage reports failure — never a
  // plausible-looking but broken archive.
  DiagnosticEngine Final;
  runArchiveBytesChecks(Out, Final);
  if (!Final.clean()) {
    note(Report, checks::RecoverVerify, Severity::Error,
         "rewritten archive still fails verification (" +
             std::to_string(Final.errorCount()) + " errors; first: " +
             Final.diagnostics().front().Message + ")");
    Out.clear();
    return false;
  }
  Report.OutputBytes = Out.size();
  return true;
}

} // namespace

bool SalvageReport::fatal() const {
  for (const Diagnostic &D : Diagnostics)
    if (D.Sev == Severity::Error)
      return true;
  return false;
}

bool recover::salvageArchive(const std::vector<uint8_t> &Bytes,
                             std::vector<uint8_t> &Out,
                             SalvageReport &Report) {
  Out.clear();
  try {
    Report.Salvaged = salvageImpl(Bytes, Out, Report);
  } catch (const std::bad_alloc &) {
    note(Report, checks::RecoverAlloc, Severity::Error,
         "allocation failed while rebuilding the archive");
    Out.clear();
    Report.Salvaged = false;
  }
  return Report.Salvaged;
}

bool recover::salvageArchiveFile(const std::string &InputPath,
                                 const std::string &OutputPath,
                                 SalvageReport &Report) {
  std::vector<uint8_t> Bytes;
  IoError Read = readFileBytes(InputPath, Bytes);
  if (!Read) {
    note(Report, checks::RecoverInput, Severity::Error,
         "cannot read input: " + Read.message());
    return false;
  }
  std::vector<uint8_t> Out;
  if (!salvageArchive(Bytes, Out, Report))
    return false;
  IoError Write = writeFileBytesAtomic(OutputPath, Out);
  if (!Write) {
    note(Report, checks::RecoverOutput, Severity::Error,
         "cannot write salvaged archive: " + Write.message());
    Report.Salvaged = false;
    return false;
  }
  return true;
}

std::string recover::renderSalvageReportText(const SalvageReport &Report) {
  std::string Text;
  for (const Diagnostic &D : Report.Diagnostics) {
    Text += severityName(D.Sev);
    Text += ": [" + D.CheckId + "]";
    if (!D.Location.empty())
      Text += " " + D.Location + ":";
    Text += " " + D.Message + "\n";
  }
  Text += "input: " + std::to_string(Report.InputBytes) + " bytes, " +
          std::to_string(Report.FunctionsTotal) + " functions\n";
  if (Report.Salvaged) {
    Text += "salvaged: " + std::to_string(Report.FunctionsKept) + "/" +
            std::to_string(Report.FunctionsTotal) + " functions, DCG " +
            (Report.DcgRecovered ? "recovered" : "empty") + ", " +
            std::to_string(Report.OutputBytes) + " bytes written";
    if (Report.CallsLost > 0)
      Text += " (" + std::to_string(Report.CallsLost) + " calls lost)";
    Text += "\n";
  } else {
    Text += "not salvaged\n";
  }
  return Text;
}
