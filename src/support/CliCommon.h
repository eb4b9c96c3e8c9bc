//===- support/CliCommon.h - Shared CLI conventions -------------*- C++ -*-===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The conventions every twpp_* tool shares, in one place so they cannot
/// drift: the 0/1/2 exit contract, `--flag=value` matching, the common
/// `--format=` flag and `--jobs` values. Header-only and link-free.
///
/// Exit contract (shared by every tool, asserted by CI):
///
///   0  clean — the tool did its job and found nothing wrong
///   1  findings — the tool worked, and is telling you something
///      (diagnostics, regressions, accounted data loss)
///   2  unusable — bad usage, unreadable input, fatal IO
///
//===----------------------------------------------------------------------===//

#ifndef TWPP_SUPPORT_CLICOMMON_H
#define TWPP_SUPPORT_CLICOMMON_H

#include <cstdint>
#include <initializer_list>
#include <string>

namespace twpp {

namespace cli {

/// The shared exit contract.
inline constexpr int ExitSuccess = 0;  ///< Clean.
inline constexpr int ExitFindings = 1; ///< Worked; has findings/loss.
inline constexpr int ExitUsage = 2;    ///< Bad usage or fatal IO.

/// Three-way result of offering an argument to a flag handler, so a
/// tool's parse loop can chain handlers and fall through to its own
/// flags:
///
///   switch (cli::parseFormatFlag(Arg, Format)) {
///   case cli::FlagParse::Ok: continue;
///   case cli::FlagParse::Bad: return usage();
///   case cli::FlagParse::NoMatch: break;
///   }
enum class FlagParse : uint8_t {
  NoMatch, ///< Not this flag; try the next handler.
  Ok,      ///< Consumed and valid.
  Bad,     ///< This flag, but the value is unusable: usage error.
};

/// Matches `--NAME=VALUE`; on match stores VALUE (possibly empty) in
/// \p Value.
inline bool flagValue(const std::string &Arg, const char *Name,
                      std::string &Value) {
  std::string Prefix = std::string("--") + Name + "=";
  if (Arg.rfind(Prefix, 0) != 0)
    return false;
  Value = Arg.substr(Prefix.size());
  return true;
}

/// Handles `--format=FMT`, accepting only the formats in \p Allowed
/// (defaults to the text/json pair most tools share).
inline FlagParse
parseFormatFlag(const std::string &Arg, std::string &Format,
                std::initializer_list<const char *> Allowed = {"text",
                                                               "json"}) {
  std::string Value;
  if (!flagValue(Arg, "format", Value))
    return FlagParse::NoMatch;
  for (const char *Candidate : Allowed)
    if (Value == Candidate) {
      Format = Value;
      return FlagParse::Ok;
    }
  return FlagParse::Bad;
}

/// Largest accepted `--jobs` value: parallelFor starts one thread per job
/// (up to one per function), so a typo must not become thousands.
inline constexpr unsigned MaxJobs = 1024;

/// Parses a `--jobs` value: decimal digits only, 0 ("one per hardware
/// thread") through MaxJobs. \returns false for anything else (a sign,
/// trailing junk, an empty or too-large value) — a usage error.
inline bool parseJobs(const std::string &Text, unsigned &Jobs) {
  if (Text.empty())
    return false;
  unsigned Value = 0;
  for (char C : Text) {
    if (C < '0' || C > '9')
      return false;
    Value = Value * 10 + static_cast<unsigned>(C - '0');
    if (Value > MaxJobs)
      return false;
  }
  Jobs = Value;
  return true;
}

} // namespace cli
} // namespace twpp

#endif // TWPP_SUPPORT_CLICOMMON_H
