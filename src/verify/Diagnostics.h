//===- verify/Diagnostics.h - Static-check diagnostics ----------*- C++ -*-===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The diagnostic vocabulary of the TWPP invariant verifier: a clang-tidy
/// style (check-id, severity, message, location) record plus the engine
/// that collects them. Every check in verify/ reports through a
/// DiagnosticEngine; the engine owns the check-id filter (the CLI's
/// --checks=<glob>) and the severity tally the exit-code contract keys
/// off.
///
/// This header is deliberately dependency-free and header-only up to the
/// emitters: lower layers (wpp/Archive.cpp's decode-error reporting) embed
/// a Diagnostic without linking twpp_verify. Only the text/JSON renderers
/// live in Diagnostics.cpp.
///
//===----------------------------------------------------------------------===//

#ifndef TWPP_VERIFY_DIAGNOSTICS_H
#define TWPP_VERIFY_DIAGNOSTICS_H

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace twpp::obs {
class JsonWriter;
} // namespace twpp::obs

namespace twpp::verify {

/// Severity ladder; Error is what flips the exit code.
enum class Severity : uint8_t { Note, Warning, Error };

inline const char *severityName(Severity S) {
  switch (S) {
  case Severity::Note:
    return "note";
  case Severity::Warning:
    return "warning";
  case Severity::Error:
    return "error";
  }
  return "unknown";
}

/// Sentinel for "no byte offset": the diagnostic is about a decoded
/// structure, not a file position.
inline constexpr uint64_t NoByteOffset = ~uint64_t(0);

/// One finding. CheckId is stable ("twpp-archive-series-order") so CI
/// globs and docs/VERIFY.md can reference it forever; Location is a
/// human path into the structure ("function 3 / string 2 / block 7" or a
/// section name for raw-byte findings).
struct Diagnostic {
  std::string CheckId;
  Severity Sev = Severity::Error;
  std::string Message;
  std::string Location;
  uint64_t ByteOffset = NoByteOffset;
};

/// True when \p Id matches \p Glob ('*' matches any run, '?' one char —
/// enough for the --checks=twpp-archive-* CI filters).
bool checkIdMatchesGlob(std::string_view Id, std::string_view Glob);

/// Collects diagnostics, applying the check-id filter and keeping the
/// per-severity tally.
class DiagnosticEngine {
public:
  /// \p Glob filters by check id; "*" (the default) admits everything.
  explicit DiagnosticEngine(std::string Glob = "*") : Glob(std::move(Glob)) {}

  /// True when \p CheckId passes the filter — checks query this before
  /// doing expensive work.
  bool checkEnabled(std::string_view CheckId) const {
    return checkIdMatchesGlob(CheckId, Glob);
  }

  /// Files \p D unless its check id is filtered out.
  void report(Diagnostic D) {
    if (!checkEnabled(D.CheckId))
      return;
    Counts[static_cast<size_t>(D.Sev)]++;
    Diags.push_back(std::move(D));
  }

  /// Convenience for the common call shape.
  void report(std::string_view CheckId, Severity Sev, std::string Message,
              std::string Location = "",
              uint64_t ByteOffset = NoByteOffset) {
    report(Diagnostic{std::string(CheckId), Sev, std::move(Message),
                      std::move(Location), ByteOffset});
  }

  const std::vector<Diagnostic> &diagnostics() const { return Diags; }
  size_t count(Severity S) const { return Counts[static_cast<size_t>(S)]; }
  size_t errorCount() const { return count(Severity::Error); }
  bool empty() const { return Diags.empty(); }

  /// True when nothing at error severity was filed — the CLI's exit-0
  /// condition.
  bool clean() const { return errorCount() == 0; }

  const std::string &glob() const { return Glob; }

private:
  std::string Glob;
  std::vector<Diagnostic> Diags;
  size_t Counts[3] = {0, 0, 0};
};

/// Renders every diagnostic as "<severity>: [<check-id>] <location>:
/// <message>" lines plus a summary line, the CLI's text output.
std::string renderDiagnosticsText(const DiagnosticEngine &Engine);

/// Writes \p Diags as one JSON array of {"check", "severity", "location",
/// "message"} objects, each with "byteOffset" when it has one: the
/// diagnostics list of every `twpp --format=json` report.
void writeDiagnosticsJson(obs::JsonWriter &W,
                          const std::vector<Diagnostic> &Diags);

} // namespace twpp::verify

#endif // TWPP_VERIFY_DIAGNOSTICS_H
