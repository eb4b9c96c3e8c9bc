//===- verify/ArchiveChecks.h - Archive-family invariant checks -*- C++ -*-===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The archive family: structural invariants of the compacted TWPP, both
/// in-memory (TwppWpp) and on disk (raw archive bytes). These are the
/// FORMATS.md invariants as executable checks — sign-encoded series
/// order, exact trace partitions, DBB dictionary shape and maximality,
/// dedup-table referential integrity, index layout, and DCG/call-count
/// consistency. Everything runs without reconstructing the raw WPP: the
/// most expensive check (chain maximality) touches each *unique* trace
/// once, which is exactly the economy the paper's representation buys.
///
//===----------------------------------------------------------------------===//

#ifndef TWPP_VERIFY_ARCHIVECHECKS_H
#define TWPP_VERIFY_ARCHIVECHECKS_H

#include "verify/Diagnostics.h"
#include "wpp/Twpp.h"

#include <cstdint>
#include <vector>

namespace twpp::verify {

/// Runs every in-memory archive-family check over \p Wpp.
void runWppChecks(const TwppWpp &Wpp, DiagnosticEngine &Engine);

/// Runs the raw-byte checks (header, index bounds and layout, block and
/// DCG decodability) over complete archive \p Bytes; when the archive
/// decodes, chains into runWppChecks on the decoded form.
void runArchiveBytesChecks(const std::vector<uint8_t> &Bytes,
                           DiagnosticEngine &Engine);

/// Checks one function table in isolation (location strings are prefixed
/// "function <F>"). Exposed for targeted tests and the pipeline hook.
void runFunctionTableChecks(const TwppFunctionTable &Table, uint32_t F,
                            DiagnosticEngine &Engine);

/// Length of the uncompacted path trace behind unique trace \p T of
/// \p Table (what DCG anchors are ordinals into), computed from the
/// compacted form: each block's timestamp count times its chain length.
/// 0 when the trace's pool indices are out of range.
uint64_t expandedTraceLength(const TwppFunctionTable &Table, uint32_t T);

/// Checks one timestamp set (series order, strides, sign encoding).
void runTimestampSetChecks(const TimestampSet &Set, const std::string &Loc,
                           DiagnosticEngine &Engine);

} // namespace twpp::verify

#endif // TWPP_VERIFY_ARCHIVECHECKS_H
