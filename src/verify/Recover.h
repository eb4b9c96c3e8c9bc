//===- verify/Recover.h - Torn-archive salvage ------------------*- C++ -*-===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Salvage of damaged TWPP archives — the library behind twpp recover.
/// The archive's index layout makes partial recovery natural: every
/// function block is an independent extent, so salvage walks the index,
/// keeps each block that decodes and passes the per-table verifier
/// checks, splices dropped functions out of the dynamic call graph
/// (hoisting their surviving callees onto the nearest kept ancestor at
/// the dropped call's anchor), and rewrites a fresh archive from what
/// remains. The rewritten archive is re-verified end to end before it is
/// reported as salvaged: the contract is "verifier-clean output or a
/// named diagnostic", never a best guess and never a crash — allocation
/// failures (real or injected) surface as twpp-recover-alloc.
///
//===----------------------------------------------------------------------===//

#ifndef TWPP_VERIFY_RECOVER_H
#define TWPP_VERIFY_RECOVER_H

#include "verify/Diagnostics.h"

#include <cstdint>
#include <string>
#include <vector>

namespace twpp::recover {

/// What salvage found, kept and lost. Diagnostics use the
/// twpp-recover-* check ids (verify/Checks.h): warnings for dropped
/// data, errors for damage that defeats salvage.
struct SalvageReport {
  uint64_t InputBytes = 0;
  uint64_t OutputBytes = 0;
  /// Function count claimed by the header, clamped to what the file can
  /// physically hold.
  uint32_t FunctionsTotal = 0;
  uint32_t FunctionsKept = 0;
  /// Ids of dropped functions, capped at DroppedFunctionIdCap entries
  /// (FunctionsDropped has the full count).
  std::vector<uint32_t> DroppedFunctions;
  uint32_t FunctionsDropped = 0;
  /// Calls recorded by dropped functions' index rows (best effort — a
  /// corrupt row's count is not trusted).
  uint64_t CallsLost = 0;
  bool DcgRecovered = false;
  /// True when a verifier-clean archive was produced.
  bool Salvaged = false;
  std::vector<verify::Diagnostic> Diagnostics;

  static constexpr size_t DroppedFunctionIdCap = 64;

  /// True when any error-severity diagnostic was filed.
  bool fatal() const;
};

/// Salvages a verifier-clean archive from possibly-damaged \p Bytes into
/// \p Out. Never throws: allocation failures are caught and reported.
/// \returns Report.Salvaged.
bool salvageArchive(const std::vector<uint8_t> &Bytes,
                    std::vector<uint8_t> &Out, SalvageReport &Report);

/// File-level wrapper: reads \p InputPath, salvages, and writes the
/// result atomically to \p OutputPath. IO failures land in the report as
/// twpp-recover-input / twpp-recover-output errors.
bool salvageArchiveFile(const std::string &InputPath,
                        const std::string &OutputPath,
                        SalvageReport &Report);

/// Human-readable report (diagnostic lines plus a summary).
std::string renderSalvageReportText(const SalvageReport &Report);

} // namespace twpp::recover

#endif // TWPP_VERIFY_RECOVER_H
