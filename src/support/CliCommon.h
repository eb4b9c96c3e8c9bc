//===- support/CliCommon.h - Shared CLI conventions -------------*- C++ -*-===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The conventions of the `twpp` command line in one place so they cannot
/// drift: the 0/1/2 exit contract, strict number parsing, and the one flag
/// parser every verb uses. A verb declares its flags as a FlagTable;
/// parseArgs() accepts each as `--name=value` or `--name value`, and
/// renderFlags() prints the same table as help, so the usage text and the
/// accepted flags cannot disagree.
///
/// Exit contract (shared by every verb, asserted by CI):
///
///   0  clean — the tool did its job and found nothing wrong
///   1  findings — the tool worked, and is telling you something
///      (diagnostics, regressions, accounted data loss)
///   2  unusable — bad usage, unreadable input, fatal IO
///
//===----------------------------------------------------------------------===//

#ifndef TWPP_SUPPORT_CLICOMMON_H
#define TWPP_SUPPORT_CLICOMMON_H

#include <algorithm>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace twpp {

namespace cli {

/// The shared exit contract.
inline constexpr int ExitSuccess = 0;  ///< Clean.
inline constexpr int ExitFindings = 1; ///< Worked; has findings/loss.
inline constexpr int ExitUsage = 2;    ///< Bad usage or fatal IO.

/// Parses decimal digits only (no sign, space or suffix) into \p Out's
/// type, within [\p Min, \p Max]. \returns false for anything else.
template <typename T>
bool parseUnsigned(const std::string &Text, T &Out, uint64_t Min = 0,
                   uint64_t Max = std::numeric_limits<T>::max()) {
  uint64_t Value = 0;
  for (char C : Text) {
    auto Digit = static_cast<uint64_t>(C - '0');
    if (C < '0' || C > '9' || Digit > Max || Value > (Max - Digit) / 10)
      return false;
    Value = Value * 10 + Digit;
  }
  if (Text.empty() || Value < Min)
    return false;
  Out = static_cast<T>(Value);
  return true;
}

/// parseUnsigned with an optional leading '-', over the int64_t range.
bool parseSigned(const std::string &Text, int64_t &Out);

/// A non-negative decimal such as `5` or `2.5`: digits with at most one
/// '.', and no sign, exponent or suffix.
bool parseDecimal(const std::string &Text, double &Out);

/// One flag of a table: `--Name`, the placeholder help shows for its
/// value (empty for a switch, which takes no value), one help line, and
/// the typed target its value lands in. Build entries with the factories
/// below.
struct Flag {
  std::string Name;
  std::string Meta;
  std::string Help;
  /// Stores \p Value into the target; false when it is malformed there.
  std::function<bool(const std::string &Value)> Set;
};
using FlagTable = std::vector<Flag>;

/// A string value; the last occurrence wins.
inline Flag stringFlag(std::string Name, std::string Meta, std::string Help,
                       std::string &Out) {
  return {std::move(Name), std::move(Meta), std::move(Help),
          [&Out](const std::string &V) { Out = V; return true; }};
}

/// A repeatable string value; every occurrence is appended.
inline Flag listFlag(std::string Name, std::string Meta, std::string Help,
                     std::vector<std::string> &Out) {
  return {std::move(Name), std::move(Meta), std::move(Help),
          [&Out](const std::string &V) { Out.push_back(V); return true; }};
}

/// A switch: present sets \p Out, and `--name=value` is malformed.
inline Flag switchFlag(std::string Name, std::string Help, bool &Out) {
  return {std::move(Name), "", std::move(Help),
          [&Out](const std::string &) { Out = true; return true; }};
}

/// A non-negative decimal (parseDecimal).
inline Flag decimalFlag(std::string Name, std::string Meta, std::string Help,
                        double &Out) {
  return {std::move(Name), std::move(Meta), std::move(Help),
          [&Out](const std::string &V) { return parseDecimal(V, Out); }};
}

/// An unsigned decimal within [\p Min, \p Max] (parseUnsigned).
template <typename T>
Flag unsignedFlag(std::string Name, std::string Meta, std::string Help,
                  T &Out, uint64_t Min = 0,
                  uint64_t Max = std::numeric_limits<T>::max()) {
  return {std::move(Name), std::move(Meta), std::move(Help),
          [&Out, Min, Max](const std::string &Text) {
            return parseUnsigned(Text, Out, Min, Max);
          }};
}

/// One of \p Choices; help shows them as the placeholder.
inline Flag choiceFlag(std::string Name, std::string Help, std::string &Out,
                       const std::vector<std::string> &Choices) {
  std::string Meta;
  for (const std::string &Choice : Choices)
    Meta += (Meta.empty() ? "" : "|") + Choice;
  return {std::move(Name), std::move(Meta), std::move(Help),
          [&Out, Choices](const std::string &V) {
            bool Known = std::find(Choices.begin(), Choices.end(), V) !=
                         Choices.end();
            if (Known)
              Out = V;
            return Known;
          }};
}

/// Splits \p Args into flag values and positional words. A word starting
/// with "--" is a flag, looked up in \p Tables (the first table naming it
/// wins); a value flag takes `--name=value` or the next word, unless that
/// word is itself a flag. Every other word is positional, so `-3` is a
/// positional number. An unknown flag, a missing value or a malformed
/// value stops the parse: \returns false with a one-line \p Error.
///
/// With a null \p Error the parse only sorts the words: it stores nothing
/// and fails on nothing (an unknown flag reads as a switch). A driver
/// finds its verb among flags that come before it this way.
bool parseArgs(const std::vector<std::string> &Args,
               std::initializer_list<const FlagTable *> Tables,
               std::vector<std::string> &Positionals, std::string *Error);

/// One aligned help line per flag: "  --name=META  help".
std::string renderFlags(const FlagTable &Table);

} // namespace cli
} // namespace twpp

#endif // TWPP_SUPPORT_CLICOMMON_H
