//===- verify/Checks.h - Check catalog ---------------------------*- C++ -*-===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The stable catalog of every invariant check the verifier implements:
/// id, family, default severity and a one-line summary. The catalog is
/// the single source of truth behind `twpp verify --list-checks` and
/// docs/VERIFY.md; check implementations reference these ids via the
/// `checks::` constants so the catalog, the code and the docs cannot
/// drift apart silently (VerifyTest pins them together).
///
//===----------------------------------------------------------------------===//

#ifndef TWPP_VERIFY_CHECKS_H
#define TWPP_VERIFY_CHECKS_H

#include "verify/Diagnostics.h"

#include <vector>

namespace twpp::verify {

/// Stable check ids. Never renumber or rename — CI globs, committed
/// baselines and user scripts key off these strings.
namespace checks {

// Archive family: the compacted representation itself (in-memory form
// and raw archive bytes).
inline constexpr const char *ArchiveHeader = "twpp-archive-header";
inline constexpr const char *ArchiveIndexBounds = "twpp-archive-index-bounds";
inline constexpr const char *ArchiveIndexOrder = "twpp-archive-index-order";
inline constexpr const char *ArchiveBlockDecode = "twpp-archive-block-decode";
inline constexpr const char *ArchiveDcgDecode = "twpp-archive-dcg-decode";
inline constexpr const char *ArchiveSeriesOrder = "twpp-archive-series-order";
inline constexpr const char *ArchiveSeriesSignEncoding =
    "twpp-archive-series-sign-encoding";
inline constexpr const char *ArchiveTracePartition =
    "twpp-archive-trace-partition";
inline constexpr const char *ArchiveDedupIntegrity =
    "twpp-archive-dedup-integrity";
inline constexpr const char *ArchivePoolDedup = "twpp-archive-pool-dedup";
inline constexpr const char *DbbChainStructure = "twpp-dbb-chain-structure";
inline constexpr const char *DbbChainMaximality = "twpp-dbb-chain-maximality";
inline constexpr const char *DcgConsistency = "twpp-dcg-consistency";
inline constexpr const char *DcgCallCounts = "twpp-dcg-call-counts";
inline constexpr const char *ArchiveSection = "twpp-archive-section";

// Thread family: the version-3 thread-aware trailer (thread table,
// happens-before edges, access sets) against the merged body.
inline constexpr const char *ThreadPartition = "twpp-thread-partition";
inline constexpr const char *ThreadSyncEdges = "twpp-thread-sync-edges";
inline constexpr const char *ThreadAccessBounds = "twpp-thread-access-bounds";

// Race family: the happens-before engine's structural preconditions.
inline constexpr const char *RaceClockMonotone = "twpp-race-clock-monotone";

// Recover family: diagnostics of the twpp recover salvage tool
// (verify/Recover.h). Warnings mark data the salvage dropped; errors
// mark damage salvage cannot work around.
inline constexpr const char *RecoverInput = "twpp-recover-input";
inline constexpr const char *RecoverIndexRow = "twpp-recover-index-row";
inline constexpr const char *RecoverBlock = "twpp-recover-block";
inline constexpr const char *RecoverDcg = "twpp-recover-dcg";
inline constexpr const char *RecoverAlloc = "twpp-recover-alloc";
inline constexpr const char *RecoverVerify = "twpp-recover-verify";
inline constexpr const char *RecoverOutput = "twpp-recover-output";

// IR family: lowered mini-language modules (src/ir/, src/lang/Lower).
inline constexpr const char *IrEmptyFunction = "twpp-ir-empty-function";
inline constexpr const char *IrEdgeTarget = "twpp-ir-edge-target";
inline constexpr const char *IrTerminator = "twpp-ir-terminator";
inline constexpr const char *IrExprCycle = "twpp-ir-expr-cycle";
inline constexpr const char *IrCallTarget = "twpp-ir-call-target";
inline constexpr const char *IrUnreachableBlock = "twpp-ir-unreachable-block";
inline constexpr const char *IrDefBeforeUse = "twpp-ir-def-before-use";

// Mem family: memory observability audits (verify/MemoryChecks.h) — the
// obs/Memory.h tracker reconciled against obs::deepSize walks of decoded
// archives and the wpp/Sizes paper model.
inline constexpr const char *MemReconcile = "twpp-mem-reconcile";
inline constexpr const char *MemNegativeLive = "twpp-mem-negative-live";
inline constexpr const char *MemFootprintModel = "twpp-mem-footprint-model";

// Dataflow family: GEN/KILL fact specs and annotated dynamic CFGs.
inline constexpr const char *DataflowFactBlocks = "twpp-dataflow-fact-blocks";
inline constexpr const char *DataflowAnnotationPartition =
    "twpp-dataflow-annotation-partition";
inline constexpr const char *DataflowAnnotationSubset =
    "twpp-dataflow-annotation-subset";

} // namespace checks

/// One catalog row.
struct CheckInfo {
  const char *Id;
  const char *Family; ///< "archive", "recover", "ir", "mem", "dataflow",
                      ///< "thread" or "race".
  Severity DefaultSev;
  const char *Summary;
};

/// Every implemented check, in catalog order (archive, recover, ir, mem,
/// dataflow, thread, race).
const std::vector<CheckInfo> &checkCatalog();

/// Catalog row for \p Id, or nullptr for an unknown id.
const CheckInfo *findCheck(std::string_view Id);

} // namespace twpp::verify

#endif // TWPP_VERIFY_CHECKS_H
