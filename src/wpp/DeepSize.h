//===- wpp/DeepSize.h - Deep-size audit of the WPP structures ---*- C++ -*-===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// obs::deepSize — the memory observability audit API: walks the real
/// in-memory structures of every pipeline stage and returns their heap
/// footprint in bytes. Lives under wpp/ (the overloads need the wpp types)
/// but in namespace twpp::obs, because it is the reconciliation
/// counterpart of the obs/Memory.h tracker: the tracker accumulates byte
/// deltas as decoders build structures, deepSize independently re-derives
/// the same figure from the finished objects, and the twpp-mem-* verifier
/// checks (plus twpp memstat) compare the two. Drift between them means an
/// instrumented site and this walk disagree about what a structure holds —
/// exactly the regression the audit exists to catch.
///
/// Sizing model: element payloads are counted by size(), not capacity(),
/// so the figures are deterministic across allocators and growth policies;
/// nested containers add sizeof(container) per element for their inline
/// headers. Top-level object headers (sizeof(TwppWpp) itself) are NOT
/// counted — deepSize measures what the object owns on the heap.
///
//===----------------------------------------------------------------------===//

#ifndef TWPP_WPP_DEEPSIZE_H
#define TWPP_WPP_DEEPSIZE_H

#include "sequitur/FlatGrammar.h"
#include "wpp/Dbb.h"
#include "wpp/DynamicCallGraph.h"
#include "wpp/Partition.h"
#include "wpp/Twpp.h"

#include <cstdint>

namespace twpp {
namespace obs {

/// Model of one raw path trace buffer of \p Blocks blocks: the inline
/// vector header plus the element payload. Shared with the streaming
/// compactor's budget accounting so the budget tracks the same model the
/// audits verify.
inline uint64_t pathTraceDeepSize(size_t Blocks) {
  return sizeof(PathTrace) + Blocks * sizeof(BlockId);
}

/// A block-id sequence (path trace, DBB chain, compacted trace string).
uint64_t deepSize(const PathTrace &Trace);

/// An arithmetic-series timestamp set: the run payload.
uint64_t deepSize(const TimestampSet &Set);

/// A timestamped trace string: per-block pairs plus their series.
uint64_t deepSize(const TwppTrace &Trace);

/// A DBB dictionary: chain headers plus chain bodies.
uint64_t deepSize(const DbbDictionary &Dictionary);

/// The dynamic call graph: node records plus child/anchor/root lists.
uint64_t deepSize(const DynamicCallGraph &Dcg);

/// Per-function tables of the three pipeline stages.
uint64_t deepSize(const FunctionTraceTable &Table);
uint64_t deepSize(const DbbFunctionTable &Table);
uint64_t deepSize(const TwppFunctionTable &Table);

/// Whole-program representations (the decoded archive is a TwppWpp).
uint64_t deepSize(const PartitionedWpp &Wpp);
uint64_t deepSize(const DbbWpp &Wpp);
uint64_t deepSize(const TwppWpp &Wpp);

/// A frozen Sequitur grammar: rule bodies plus their headers.
uint64_t deepSize(const FlatGrammar &Grammar);

} // namespace obs
} // namespace twpp

#endif // TWPP_WPP_DEEPSIZE_H
