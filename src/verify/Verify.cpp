//===- verify/Verify.cpp - TWPP invariant verifier entry points -----------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//

#include "verify/Verify.h"

#include "obs/PhaseSpan.h"
#include "support/FileIO.h"
#include "wpp/Archive.h"
#include "wpp/Twpp.h"
#include "wpp/VerifyHooks.h"

#include <cstdio>
#include <cstdlib>

using namespace twpp;
using namespace twpp::verify;

bool verify::verifyArchiveFile(const std::string &Path,
                               DiagnosticEngine &Engine,
                               Diagnostic *ReadError) {
  std::vector<uint8_t> Bytes;
  if (IoError Read = readFileBytes(Path, Bytes); !Read) {
    if (ReadError)
      *ReadError = archiveReadFailure(Read);
    return false;
  }
  runArchiveBytesChecks(Bytes, Engine);
  return true;
}

namespace {

void enforce(const DiagnosticEngine &Engine, const char *Stage) {
  if (Engine.empty())
    return;
  std::string Text = renderDiagnosticsText(Engine);
  std::fprintf(stderr, "twpp verify (%s stage):\n%s", Stage, Text.c_str());
  if (!Engine.clean()) {
    std::fprintf(stderr,
                 "twpp verify: aborting on error-severity diagnostics "
                 "(TWPP_VERIFY is set)\n");
    std::abort();
  }
}

void verifyWppHook(const TwppWpp &Wpp, const char *Stage) {
  obs::PhaseSpan Span("verify");
  DiagnosticEngine Engine;
  runWppChecks(Wpp, Engine);
  enforce(Engine, Stage);
}

void verifyArchiveBytesHook(const std::vector<uint8_t> &Bytes,
                            const char *Stage) {
  obs::PhaseSpan Span("verify");
  DiagnosticEngine Engine;
  runArchiveBytesChecks(Bytes, Engine);
  enforce(Engine, Stage);
}

} // namespace

void verify::installPipelineVerifier() {
  VerifyHooks &Hooks = verifyHooks();
  Hooks.VerifyWpp = verifyWppHook;
  Hooks.VerifyArchiveBytes = verifyArchiveBytesHook;
}
