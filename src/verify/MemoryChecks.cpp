//===- verify/MemoryChecks.cpp - Memory observability audits --------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//

#include "verify/MemoryChecks.h"

#include "obs/Memory.h"
#include "verify/Checks.h"
#include "wpp/Archive.h"
#include "wpp/DeepSize.h"
#include "wpp/Sizes.h"

#include <string>

using namespace twpp;
using namespace twpp::verify;

namespace {

uint64_t paperModelBytes(const TwppWpp &Wpp) {
  uint64_t Bytes = 0;
  for (const TwppFunctionTable &Table : Wpp.Functions) {
    for (const TwppTrace &Trace : Table.TraceStrings)
      Bytes += twppTraceBytes(Trace);
    for (const DbbDictionary &Dict : Table.Dictionaries)
      Bytes += dictionaryBytes(Dict);
  }
  return Bytes;
}

std::string bytesStr(uint64_t Bytes) {
  return std::to_string(Bytes) + " bytes";
}

} // namespace

bool verify::auditArchiveMemory(const std::string &Path, MemoryAudit &Audit,
                                TwppWpp *Wpp, Diagnostic *Error) {
  ArchiveReader Reader;
  if (Reader.open(Path))
    return auditArchiveMemory(Reader, Audit, Wpp, Error);
  Audit = MemoryAudit();
  if (Error)
    *Error = Reader.lastError();
  return false;
}

bool verify::auditArchiveMemory(const ArchiveReader &Reader,
                                MemoryAudit &Audit, TwppWpp *Wpp,
                                Diagnostic *Error) {
  Audit = MemoryAudit();
  TwppWpp Local;
  TwppWpp &Out = Wpp ? *Wpp : Local;

  // Decode with tracking force-enabled, capturing the instrumented
  // decoders' records into a private account (the decode entry points
  // nest IfUnscoped, so nothing leaks into the global archive.decode
  // tag). The flag is process-global: audits are not safe to run
  // concurrently with other instrumented work, which holds for the
  // single-threaded verifier and test flows that use them.
  bool WasEnabled = obs::memTrackingEnabled();
  obs::setMemTrackingEnabled(true);
  bool Decoded;
  obs::MemAccount Capture;
  {
    obs::MemScope Scope(Capture);
    Decoded = Reader.readAll(Out);
  }
  obs::setMemTrackingEnabled(WasEnabled);
  if (!Decoded) {
    if (Error)
      *Error = Reader.lastError();
    return false;
  }

  int64_t Live = Capture.liveBytes();
  Audit.TrackedBytes = Live > 0 ? static_cast<uint64_t>(Live) : 0;
  Audit.DeepBytes = obs::deepSize(Out);
  Audit.ModelBytes = paperModelBytes(Out);
  Audit.Decoded = true;
  return true;
}

void verify::runMemoryChecks(const std::string &Path,
                             DiagnosticEngine &Engine) {
  // Unbalanced instrumentation shows up as negative live bytes in the
  // process-global registry, independent of any archive.
  if (Engine.checkEnabled(checks::MemNegativeLive))
    for (const obs::MemTracker::Snapshot &S : obs::memTracker().snapshot())
      if (S.LiveBytes < 0)
        Engine.report(checks::MemNegativeLive, Severity::Error,
                      "tag '" + S.Tag + "' holds " +
                          std::to_string(S.LiveBytes) +
                          " live bytes (frees outran allocs: " +
                          std::to_string(S.Frees) + " frees vs " +
                          std::to_string(S.Allocs) + " allocs)",
                      "mem tracker");

  bool WantReconcile = Engine.checkEnabled(checks::MemReconcile);
  bool WantModel = Engine.checkEnabled(checks::MemFootprintModel);
  if (!WantReconcile && !WantModel)
    return;

  MemoryAudit Audit;
  if (!auditArchiveMemory(Path, Audit))
    return; // the archive byte checks already diagnosed it

  if (WantReconcile) {
    uint64_t Delta = Audit.TrackedBytes > Audit.DeepBytes
                         ? Audit.TrackedBytes - Audit.DeepBytes
                         : Audit.DeepBytes - Audit.TrackedBytes;
    if (Delta > memReconcileToleranceBytes(Audit.DeepBytes))
      Engine.report(checks::MemReconcile, Severity::Error,
                    "tracker attributed " + bytesStr(Audit.TrackedBytes) +
                        " during decode but the deep-size audit finds " +
                        bytesStr(Audit.DeepBytes) + " (delta " +
                        bytesStr(Delta) + " exceeds the 1% + 1 KiB "
                        "tolerance); an instrumented decoder and "
                        "obs::deepSize disagree",
                    Path);
  }

  if (WantModel && Audit.DeepBytes < Audit.ModelBytes)
    Engine.report(checks::MemFootprintModel, Severity::Warning,
                  "decoded in-memory footprint " + bytesStr(Audit.DeepBytes) +
                      " is below the paper-model serialized estimate " +
                      bytesStr(Audit.ModelBytes) +
                      "; the wpp/Sizes model or the deep-size audit drifted",
                  Path);
}
