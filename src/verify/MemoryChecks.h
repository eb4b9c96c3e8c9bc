//===- verify/MemoryChecks.h - Memory observability audits ------*- C++ -*-===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The twpp-mem-* check family: audits the memory observability layer
/// itself. An archive is decoded with the obs/Memory.h allocation tracker
/// capturing into a private account; the attributed bytes are then
/// reconciled against an independent obs::deepSize walk of the decoded
/// structures (twpp-mem-reconcile), the tracker registry is scanned for
/// unbalanced instrumentation (twpp-mem-negative-live), and the in-memory
/// footprint is sanity-checked against the wpp/Sizes paper-model estimate
/// (twpp-mem-footprint-model).
///
/// Tolerance: tracker vs deepSize must agree within 1% + 1 KiB — both are
/// size()-based byte models of the same structures, so anything beyond
/// rounding slack means an instrumented decoder and the audit walk
/// disagree about what a structure holds.
///
//===----------------------------------------------------------------------===//

#ifndef TWPP_VERIFY_MEMORYCHECKS_H
#define TWPP_VERIFY_MEMORYCHECKS_H

#include "verify/Diagnostics.h"
#include "wpp/Twpp.h"

#include <cstdint>
#include <string>

namespace twpp {
class ArchiveReader;

namespace verify {

/// Result of decoding one archive under the allocation tracker.
struct MemoryAudit {
  /// Bytes the instrumented decoders attributed (live at end of decode).
  uint64_t TrackedBytes = 0;
  /// obs::deepSize of the decoded TwppWpp.
  uint64_t DeepBytes = 0;
  /// Paper-model serialized estimate (wpp/Sizes: twppTraceBytes +
  /// dictionaryBytes over every function table).
  uint64_t ModelBytes = 0;
  /// False when the archive did not open or decode.
  bool Decoded = false;
};

/// Allowed |tracked - deep| slack of the reconcile check: 1% of the deep
/// size plus 1 KiB.
inline uint64_t memReconcileToleranceBytes(uint64_t DeepBytes) {
  return DeepBytes / 100 + 1024;
}

/// Decodes \p Path with tracking force-enabled into a private account and
/// fills \p Audit. \p Wpp (optional) receives the decoded representation.
/// The audit figures are the same whether the reader mapped the file or
/// fell back to reading it: mapped bytes land on the fixed archive.mmap
/// tag and the fallback buffer is not ledgered, so neither reaches the
/// scoped capture. Returns Audit.Decoded; when false, \p Error (when
/// given) is the reader's diagnostic.
bool auditArchiveMemory(const std::string &Path, MemoryAudit &Audit,
                        TwppWpp *Wpp = nullptr, Diagnostic *Error = nullptr);

/// auditArchiveMemory over an archive \p Reader has already opened, for
/// callers that go on to read the same archive's layout.
bool auditArchiveMemory(const ArchiveReader &Reader, MemoryAudit &Audit,
                        TwppWpp *Wpp = nullptr, Diagnostic *Error = nullptr);

/// Runs the twpp-mem-* family over \p Path, honouring \p Engine's check
/// glob. No-op diagnostics-wise when the archive is unreadable (the
/// archive byte checks already cover that).
void runMemoryChecks(const std::string &Path, DiagnosticEngine &Engine);

} // namespace verify
} // namespace twpp

#endif // TWPP_VERIFY_MEMORYCHECKS_H
