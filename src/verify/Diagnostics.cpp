//===- verify/Diagnostics.cpp - Static-check diagnostics ------------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//

#include "verify/Diagnostics.h"

#include "obs/Json.h"

using namespace twpp;
using namespace twpp::verify;

bool verify::checkIdMatchesGlob(std::string_view Id, std::string_view Glob) {
  // Iterative wildcard match with single-star backtracking: globs here
  // are short ("twpp-archive-*"), so this is plenty.
  size_t I = 0, G = 0;
  size_t StarG = std::string_view::npos, StarI = 0;
  while (I < Id.size()) {
    if (G < Glob.size() && (Glob[G] == Id[I] || Glob[G] == '?')) {
      ++I;
      ++G;
    } else if (G < Glob.size() && Glob[G] == '*') {
      StarG = G++;
      StarI = I;
    } else if (StarG != std::string_view::npos) {
      G = StarG + 1;
      I = ++StarI;
    } else {
      return false;
    }
  }
  while (G < Glob.size() && Glob[G] == '*')
    ++G;
  return G == Glob.size();
}

std::string verify::renderDiagnosticsText(const DiagnosticEngine &Engine) {
  std::string Out;
  for (const Diagnostic &D : Engine.diagnostics()) {
    Out += severityName(D.Sev);
    Out += ": [";
    Out += D.CheckId;
    Out += "] ";
    if (!D.Location.empty()) {
      Out += D.Location;
      Out += ": ";
    }
    Out += D.Message;
    if (D.ByteOffset != NoByteOffset) {
      Out += " (byte ";
      Out += std::to_string(D.ByteOffset);
      Out += ")";
    }
    Out += "\n";
  }
  Out += std::to_string(Engine.count(Severity::Error)) + " error(s), " +
         std::to_string(Engine.count(Severity::Warning)) + " warning(s), " +
         std::to_string(Engine.count(Severity::Note)) + " note(s)\n";
  return Out;
}

void verify::writeDiagnosticsJson(obs::JsonWriter &W,
                                  const std::vector<Diagnostic> &Diags) {
  W.beginArray();
  for (const Diagnostic &D : Diags) {
    W.beginObject()
        .field("check", D.CheckId)
        .field("severity", severityName(D.Sev))
        .field("location", D.Location)
        .field("message", D.Message);
    if (D.ByteOffset != NoByteOffset)
      W.field("byteOffset", D.ByteOffset);
    W.end();
  }
  W.end();
}
