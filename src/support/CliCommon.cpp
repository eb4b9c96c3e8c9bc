//===- support/CliCommon.cpp - Shared CLI conventions ---------------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//

#include "support/CliCommon.h"

#include <algorithm>
#include <cstdlib>

using namespace twpp;
using namespace twpp::cli;

bool cli::parseSigned(const std::string &Text, int64_t &Out) {
  bool Negative = !Text.empty() && Text[0] == '-';
  uint64_t Limit = static_cast<uint64_t>(std::numeric_limits<int64_t>::max());
  uint64_t Magnitude = 0;
  if (!parseUnsigned(Text.substr(Negative ? 1 : 0), Magnitude, 0,
                     Limit + (Negative ? 1 : 0)))
    return false;
  Out = Negative ? static_cast<int64_t>(0 - Magnitude)
                 : static_cast<int64_t>(Magnitude);
  return true;
}

bool cli::parseDecimal(const std::string &Text, double &Out) {
  if (Text.find_first_not_of("0123456789.") != std::string::npos ||
      Text.find_first_of("0123456789") == std::string::npos ||
      std::count(Text.begin(), Text.end(), '.') > 1)
    return false;
  Out = std::strtod(Text.c_str(), nullptr);
  return true;
}

namespace {

bool isFlag(const std::string &Word) { return Word.rfind("--", 0) == 0; }

const Flag *findFlag(std::initializer_list<const FlagTable *> Tables,
                     const std::string &Name) {
  for (const FlagTable *Table : Tables)
    for (const Flag &F : *Table)
      if (F.Name == Name)
        return &F;
  return nullptr;
}

} // namespace

bool cli::parseArgs(const std::vector<std::string> &Args,
                    std::initializer_list<const FlagTable *> Tables,
                    std::vector<std::string> &Positionals,
                    std::string *Error) {
  for (size_t I = 0; I < Args.size(); ++I) {
    const std::string &Word = Args[I];
    if (!isFlag(Word)) {
      Positionals.push_back(Word);
      continue;
    }
    size_t Eq = Word.find('=');
    bool HasValue = Eq != std::string::npos;
    std::string Name = Word.substr(2, HasValue ? Eq - 2 : std::string::npos);
    std::string Value = HasValue ? Word.substr(Eq + 1) : std::string();
    const Flag *F = findFlag(Tables, Name);
    bool TakesValue = F && !F->Meta.empty();
    if (TakesValue && !HasValue && I + 1 < Args.size() &&
        !isFlag(Args[I + 1])) {
      Value = Args[++I];
      HasValue = true;
    }
    if (!Error)
      continue;
    if (!F)
      *Error = "unknown flag --" + Name;
    else if (TakesValue != HasValue)
      *Error = "--" + Name + (TakesValue ? " needs a" : " takes no") + " value";
    else if (!F->Set(Value))
      *Error = "--" + F->Name + ": malformed value '" + Value + "'";
    else
      continue;
    return false;
  }
  return true;
}

std::string cli::renderFlags(const FlagTable &Table) {
  std::vector<std::string> Heads;
  Heads.reserve(Table.size());
  size_t Width = 0;
  for (const Flag &F : Table) {
    Heads.push_back("--" + F.Name + (F.Meta.empty() ? "" : "=" + F.Meta));
    Width = std::max(Width, Heads.back().size());
  }
  std::string Out;
  for (size_t I = 0; I < Table.size(); ++I)
    Out += "  " + Heads[I] + std::string(Width + 2 - Heads[I].size(), ' ') +
           Table[I].Help + "\n";
  return Out;
}
