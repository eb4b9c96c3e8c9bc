//===- verify/Verify.h - TWPP invariant verifier entry points ---*- C++ -*-===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Umbrella entry points for the verifier: run a whole archive file, and
/// install the TWPP_VERIFY post-stage assertions into the compaction
/// pipeline. The three check families live in ArchiveChecks.h,
/// IrChecks.h and DataflowChecks.h; docs/VERIFY.md is the catalog.
///
//===----------------------------------------------------------------------===//

#ifndef TWPP_VERIFY_VERIFY_H
#define TWPP_VERIFY_VERIFY_H

#include "verify/ArchiveChecks.h"
#include "verify/Checks.h"
#include "verify/DataflowChecks.h"
#include "verify/Diagnostics.h"
#include "verify/IrChecks.h"
#include "verify/MemoryChecks.h"

#include <string>

namespace twpp::verify {

/// Reads \p Path and runs the full archive family over it. \returns false
/// only when the file cannot be read at all, with the reason in
/// \p ReadError (when given) rather than in \p Engine; malformed bytes
/// produce diagnostics and return true.
bool verifyArchiveFile(const std::string &Path, DiagnosticEngine &Engine,
                       Diagnostic *ReadError = nullptr);

/// Installs the archive-family checks as TWPP_VERIFY post-stage
/// assertions: with the environment variable set, compactWpp, the
/// streaming compactor and encodeArchive re-verify their output under an
/// obs "verify" phase span, record verify.* counters, print any
/// diagnostics to stderr and abort the process on an error-severity
/// finding. Without TWPP_VERIFY the hooks never fire. Idempotent.
void installPipelineVerifier();

} // namespace twpp::verify

#endif // TWPP_VERIFY_VERIFY_H
