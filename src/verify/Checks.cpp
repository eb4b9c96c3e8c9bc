//===- verify/Checks.cpp - Check catalog ----------------------------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//

#include "verify/Checks.h"

using namespace twpp;
using namespace twpp::verify;

const std::vector<CheckInfo> &verify::checkCatalog() {
  static const std::vector<CheckInfo> Catalog = {
      // Archive family.
      {checks::ArchiveHeader, "archive", Severity::Error,
       "archive magic/version valid and header, index and DCG extents fit "
       "the file"},
      {checks::ArchiveIndexBounds, "archive", Severity::Error,
       "index rows reference in-bounds, non-overlapping function blocks "
       "outside the header/index/DCG regions"},
      {checks::ArchiveIndexOrder, "archive", Severity::Warning,
       "function blocks laid out in call-count-descending order (the "
       "paper's most-frequent-first access layout)"},
      {checks::ArchiveBlockDecode, "archive", Severity::Error,
       "every function block decodes and its index call count matches the "
       "decoded table"},
      {checks::ArchiveDcgDecode, "archive", Severity::Error,
       "the DCG extent LZW-decompresses and decodes as a call graph"},
      {checks::ArchiveSeriesOrder, "archive", Severity::Error,
       "timestamp series entries strictly increasing with valid strides "
       "(Lo <= Hi, Step >= 1, (Hi-Lo) % Step == 0, positive timestamps)"},
      {checks::ArchiveSeriesSignEncoding, "archive", Severity::Error,
       "sign-delimited series encoding round-trips and runs are packed "
       "canonically (maximal greedy runs)"},
      {checks::ArchiveTracePartition, "archive", Severity::Error,
       "per trace string, the block timestamp sets form an exact partition "
       "of 1..Length"},
      {checks::ArchiveDedupIntegrity, "archive", Severity::Error,
       "unique-trace table referential integrity: (string, dictionary) "
       "indices in range, use counts positive and summing to the call "
       "count, no duplicate pairs"},
      {checks::ArchivePoolDedup, "archive", Severity::Warning,
       "trace-string and dictionary pools hold no byte-identical "
       "duplicates and no unreferenced entries"},
      {checks::DbbChainStructure, "archive", Severity::Error,
       "DBB dictionaries well-formed: chains of length >= 2, sorted by "
       "head, heads unique, chain bodies disjoint from other chains "
       "(acyclic one-level expansion)"},
      {checks::DbbChainMaximality, "archive", Severity::Warning,
       "every (trace, dictionary) pair re-compacts to itself: chains are "
       "maximal and every occurrence was collapsed"},
      {checks::DcgConsistency, "archive", Severity::Error,
       "DCG is a forest with forward child edges, in-range functions and "
       "trace indices, and non-decreasing anchors bounded by the parent "
       "trace length"},
      {checks::DcgCallCounts, "archive", Severity::Error,
       "per-function DCG node counts equal the function tables' call "
       "counts"},

      // Recover family.
      {checks::RecoverInput, "recover", Severity::Error,
       "the damaged file is recognizably a TWPP archive (magic, version, "
       "minimum header) and its header fields are usable"},
      {checks::RecoverIndexRow, "recover", Severity::Warning,
       "an index row was unreadable or referenced bytes past the end of "
       "the file; that function was dropped from the salvage"},
      {checks::RecoverBlock, "recover", Severity::Warning,
       "a function block failed to decode or verify (or disagreed with "
       "the call graph); that function was dropped from the salvage"},
      {checks::RecoverDcg, "recover", Severity::Error,
       "the dynamic call graph could not be recovered and surviving "
       "function tables still record calls"},
      {checks::RecoverAlloc, "recover", Severity::Error,
       "an allocation failed while rebuilding the archive"},
      {checks::RecoverVerify, "recover", Severity::Error,
       "the rewritten archive still fails verification (damage the "
       "salvage strategies cannot isolate)"},
      {checks::RecoverOutput, "recover", Severity::Error,
       "the salvaged archive could not be written"},

      // IR family.
      {checks::IrEmptyFunction, "ir", Severity::Error,
       "every function has at least one basic block (block 1 is the "
       "entry)"},
      {checks::IrEdgeTarget, "ir", Severity::Error,
       "every terminator successor names an existing block (no edges to "
       "missing blocks)"},
      {checks::IrTerminator, "ir", Severity::Error,
       "terminators well-formed: branch conditions and return values "
       "reference in-range expressions"},
      {checks::IrExprCycle, "ir", Severity::Error,
       "expression pools are acyclic and operand indices are in range"},
      {checks::IrCallTarget, "ir", Severity::Error,
       "call statements target existing functions"},
      {checks::IrUnreachableBlock, "ir", Severity::Warning,
       "every block is reachable from the function entry"},
      {checks::IrDefBeforeUse, "ir", Severity::Warning,
       "no variable is read on a path before any definition (params count "
       "as defined)"},

      // Mem family.
      {checks::MemReconcile, "mem", Severity::Error,
       "decoding the archive under the allocation tracker attributes the "
       "same bytes the obs::deepSize audit finds in the decoded structures "
       "(within the documented 1% + 1 KiB tolerance)"},
      {checks::MemNegativeLive, "mem", Severity::Error,
       "no tracker account holds negative live bytes (alloc/free "
       "instrumentation is balanced)"},
      {checks::MemFootprintModel, "mem", Severity::Warning,
       "the decoded in-memory footprint is at least the paper-model "
       "serialized estimate (wpp/Sizes) — smaller would mean the model or "
       "the audit drifted"},

      // Dataflow family.
      {checks::DataflowFactBlocks, "dataflow", Severity::Error,
       "GEN/KILL sets reference real IR blocks of the owning function, "
       "sorted and duplicate-free"},
      {checks::DataflowAnnotationPartition, "dataflow", Severity::Error,
       "annotated-CFG node timestamps partition 1..Length and edges are "
       "in-range and symmetric"},
      {checks::DataflowAnnotationSubset, "dataflow", Severity::Error,
       "annotated-CFG node timestamps equal the owning trace's set for "
       "that block"},

      // Thread family (version-3 thread-aware archives).
      {checks::ArchiveSection, "archive", Severity::Error,
       "version-3 section trailer well-formed: known tags only, no "
       "duplicates, extents inside the file, thread table present, every "
       "section decodes"},
      {checks::ThreadPartition, "thread", Severity::Error,
       "thread table dense (thread i has id i), the merged body holds "
       "threads x functionCount tables, and per thread the use-counted "
       "trace lengths sum to the recorded block count (timestamps cover "
       "1..N per thread)"},
      {checks::ThreadSyncEdges, "thread", Severity::Error,
       "happens-before edges reference valid (thread, timestamp) pairs: "
       "threads in range, times within each thread's block count, fork "
       "edges targeting time 0, known edge kinds"},
      {checks::ThreadAccessBounds, "thread", Severity::Error,
       "access tables sorted by strictly ascending address with non-empty "
       "read/write sets whose runs ascend without overlap and whose "
       "timestamps lie within the owning thread's 1..N block clock"},

      // Race family.
      {checks::RaceClockMonotone, "race", Severity::Error,
       "happens-before edges apply in order (no edge targets a time "
       "before one already applied) and no clock checkpoint claims "
       "knowledge of its own thread's future"},
  };
  return Catalog;
}

const CheckInfo *verify::findCheck(std::string_view Id) {
  for (const CheckInfo &Info : checkCatalog())
    if (Id == Info.Id)
      return &Info;
  return nullptr;
}
