//===- support/FaultInjection.cpp - Deterministic fault injection ---------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//

#include "support/FaultInjection.h"

#include "obs/Metrics.h"
#include "obs/Names.h"
#include "support/Random.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <new>

using namespace twpp;
using namespace twpp::fault;

namespace {

const char *const IoOps[] = {"open", "read",    "write", "flush", "sync",
                             "rename", "stat", "journal", "mmap",  "*"};

const char *const WireOps[] = {"corrupt",  "truncate", "duplicate",
                               "reorder", "stall",    "*"};

bool knownOp(const char *const *Known, size_t Count, const std::string &Op) {
  for (size_t I = 0; I < Count; ++I)
    if (Op == Known[I])
      return true;
  return false;
}

bool knownIoOp(const std::string &Op) {
  return knownOp(IoOps, sizeof(IoOps) / sizeof(IoOps[0]), Op);
}

bool knownWireOp(const std::string &Op) {
  return knownOp(WireOps, sizeof(WireOps) / sizeof(WireOps[0]), Op);
}

bool parseUint(const std::string &Text, uint64_t &Out) {
  if (Text.empty())
    return false;
  char *End = nullptr;
  Out = std::strtoull(Text.c_str(), &End, 10);
  return End && *End == '\0';
}

bool parseDouble(const std::string &Text, double &Out) {
  if (Text.empty())
    return false;
  char *End = nullptr;
  Out = std::strtod(Text.c_str(), &End);
  return End && *End == '\0' && Out >= 0 && Out <= 1;
}

/// The live rules plus their hit counters and per-rule PRNGs.
struct InjectorState {
  std::string Spec;
  std::vector<ArmedFaultRule> Rules;
};

std::mutex &stateMutex() {
  static std::mutex M;
  return M;
}

/// Guarded by stateMutex(). Seeded from TWPP_FAULT on first use.
InjectorState &state() {
  static InjectorState *S = [] {
    auto *New = new InjectorState();
    if (const char *Env = std::getenv("TWPP_FAULT")) {
      std::string Error;
      std::vector<FaultRule> Rules;
      if (parseFaultSpec(Env, Rules, Error)) {
        New->Spec = Env;
        for (const FaultRule &R : Rules)
          New->Rules.emplace_back(R);
      } else {
        std::fprintf(stderr, "TWPP_FAULT ignored: %s\n", Error.c_str());
      }
    }
    return New;
  }();
  return *S;
}

/// Cheap fast-path switch: true when the TWPP_FAULT env var is present or
/// a spec was installed; hit() double-checks the parsed rule list under
/// the lock.
std::atomic<bool> &armedFlag() {
  static std::atomic<bool> Armed{std::getenv("TWPP_FAULT") != nullptr};
  return Armed;
}

std::atomic<uint64_t> &injectedCounter() {
  static std::atomic<uint64_t> Count{0};
  return Count;
}

thread_local int SuspendDepth = 0;

bool injectionLive() {
  return armedFlag().load(std::memory_order_relaxed) && SuspendDepth == 0;
}

/// One hit against every armed rule in \p Rules that matches; true when
/// any fires.
bool hit(std::vector<ArmedFaultRule> &Rules, FaultRule::Kind Kind,
         const char *Op) {
  bool Fire = false;
  for (ArmedFaultRule &Armed : Rules) {
    const FaultRule &R = Armed.Rule;
    if (R.RuleKind != Kind)
      continue;
    if (Kind != FaultRule::Kind::Alloc && R.Op != "*" && R.Op != Op)
      continue;
    ++Armed.Hits;
    if (R.Nth != 0 && Armed.Hits == R.Nth)
      Fire = true;
    if (R.Every != 0 && Armed.Hits % R.Every == 0)
      Fire = true;
    if (R.P > 0 && Armed.Prng.nextBool(R.P))
      Fire = true;
  }
  if (Fire) {
    injectedCounter().fetch_add(1, std::memory_order_relaxed);
    static obs::Counter &Injected =
        obs::metrics().counter(obs::names::IoFaultsInjected);
    Injected.add();
  }
  return Fire;
}

/// One hit against the process-wide rules.
bool globalHit(FaultRule::Kind Kind, const char *Op) {
  if (!injectionLive())
    return false;
  std::lock_guard<std::mutex> Lock(stateMutex());
  return hit(state().Rules, Kind, Op);
}

} // namespace

bool fault::parseFaultSpec(const std::string &Spec,
                           std::vector<FaultRule> &Rules,
                           std::string &Error) {
  Rules.clear();
  Error.clear();
  size_t Pos = 0;
  while (Pos <= Spec.size()) {
    size_t End = Spec.find(',', Pos);
    if (End == std::string::npos)
      End = Spec.size();
    std::string RuleText = Spec.substr(Pos, End - Pos);
    Pos = End + 1;
    if (RuleText.empty()) {
      if (Spec.empty())
        break; // Empty spec: no rules.
      Error = "empty rule in spec";
      return false;
    }

    FaultRule Rule;
    size_t PartPos = 0;
    bool First = true;
    while (PartPos <= RuleText.size()) {
      size_t PartEnd = RuleText.find(':', PartPos);
      if (PartEnd == std::string::npos)
        PartEnd = RuleText.size();
      std::string Part = RuleText.substr(PartPos, PartEnd - PartPos);
      PartPos = PartEnd + 1;
      if (First) {
        if (Part == "io")
          Rule.RuleKind = FaultRule::Kind::Io;
        else if (Part == "alloc")
          Rule.RuleKind = FaultRule::Kind::Alloc;
        else if (Part == "wire")
          Rule.RuleKind = FaultRule::Kind::Wire;
        else {
          Error = "unknown fault class '" + Part + "'";
          return false;
        }
        First = false;
        continue;
      }
      size_t Eq = Part.find('=');
      if (Eq == std::string::npos) {
        bool Known = (Rule.RuleKind == FaultRule::Kind::Io && knownIoOp(Part)) ||
                     (Rule.RuleKind == FaultRule::Kind::Wire &&
                      knownWireOp(Part));
        if (!Known) {
          Error = (Rule.RuleKind == FaultRule::Kind::Wire
                       ? "unknown wire operation '"
                       : "unknown io operation '") +
                  Part + "'";
          return false;
        }
        Rule.Op = Part;
        continue;
      }
      std::string Key = Part.substr(0, Eq);
      std::string Value = Part.substr(Eq + 1);
      if (Key == "p") {
        if (!parseDouble(Value, Rule.P)) {
          Error = "bad probability '" + Value + "' (want 0..1)";
          return false;
        }
      } else if (Key == "n") {
        if (!parseUint(Value, Rule.Nth) || Rule.Nth == 0) {
          Error = "bad n '" + Value + "' (want a positive integer)";
          return false;
        }
      } else if (Key == "every") {
        if (!parseUint(Value, Rule.Every) || Rule.Every == 0) {
          Error = "bad every '" + Value + "' (want a positive integer)";
          return false;
        }
      } else if (Key == "seed") {
        if (!parseUint(Value, Rule.Seed)) {
          Error = "bad seed '" + Value + "'";
          return false;
        }
      } else {
        Error = "unknown key '" + Key + "'";
        return false;
      }
    }
    if (Rule.P == 0 && Rule.Nth == 0 && Rule.Every == 0) {
      Error = "rule '" + RuleText + "' has no trigger (want p=, n= or every=)";
      return false;
    }
    Rules.push_back(Rule);
    if (End == Spec.size())
      break;
  }
  return true;
}

bool fault::setFaultSpec(const std::string &Spec, std::string *Error) {
  std::vector<FaultRule> Rules;
  std::string ParseError;
  if (!parseFaultSpec(Spec, Rules, ParseError)) {
    if (Error)
      *Error = ParseError;
    return false;
  }
  std::lock_guard<std::mutex> Lock(stateMutex());
  InjectorState &S = state();
  S.Spec = Spec;
  S.Rules.clear();
  for (const FaultRule &R : Rules)
    S.Rules.emplace_back(R);
  armedFlag().store(!S.Rules.empty(), std::memory_order_relaxed);
  return true;
}

std::string fault::activeFaultSpec() {
  std::lock_guard<std::mutex> Lock(stateMutex());
  return state().Rules.empty() ? std::string() : state().Spec;
}

bool fault::shouldFailIo(const char *Op) {
  return globalHit(FaultRule::Kind::Io, Op);
}

void fault::maybeFailAlloc() {
  if (globalHit(FaultRule::Kind::Alloc, "*"))
    throw std::bad_alloc();
}

fault::WireFaultState::WireFaultState() {
  if (!armedFlag().load(std::memory_order_relaxed))
    return;
  std::lock_guard<std::mutex> Lock(stateMutex());
  for (const ArmedFaultRule &Armed : state().Rules)
    if (Armed.Rule.RuleKind == FaultRule::Kind::Wire)
      Rules.emplace_back(Armed.Rule);
}

bool fault::shouldFaultWire(WireFaultState &State, const char *Op) {
  return injectionLive() && hit(State.Rules, FaultRule::Kind::Wire, Op);
}

uint64_t fault::injectedFaultCount() {
  return injectedCounter().load(std::memory_order_relaxed);
}

fault::ScopedFaultSuspend::ScopedFaultSuspend() { ++SuspendDepth; }
fault::ScopedFaultSuspend::~ScopedFaultSuspend() { --SuspendDepth; }
