//===- support/FaultInjection.h - Deterministic fault injection -*- C++ -*-===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A process-global fault-injection seam so every recovery path in the
/// durability layer (atomic archive writes, journal checkpoints, the
/// twpp recover salvage tool) can be exercised deterministically in tests
/// and CI. Faults are described by the TWPP_FAULT environment variable (or
/// installed programmatically), e.g.:
///
///   TWPP_FAULT=io:write:p=0.01,alloc:n=500
///
/// Spec grammar (docs/DURABILITY.md has the full reference):
///
///   spec  := rule (',' rule)*
///   rule  := class (':' part)*        class := 'io' | 'alloc' | 'wire'
///   part  := op | key '=' value
///   op    := open | read | write | flush | sync | rename | stat
///            | journal | mmap | '*'   (io only; default '*')
///          | corrupt | truncate | duplicate | reorder | stall | '*'
///            (wire only; default '*')
///   key   := p (fail probability per hit, deterministic PRNG)
///          | n (fail exactly the n-th hit, one-shot)
///          | every (fail every k-th hit)
///          | seed (PRNG seed for p-rules; default 0x5EED)
///
/// The hooks are pull-based: instrumented sites ask shouldFailIo("write")
/// before performing the operation and fabricate the operation's natural
/// failure when told to. Allocation faults throw std::bad_alloc from
/// maybeFailAlloc(), which the journal writer and the salvage tool catch
/// and convert into their degraded/diagnostic paths. Wire faults drive
/// the replay producer's frame mutations (src/ingest/Producer.h): a hit
/// on shouldFaultWire(State, "corrupt") makes the producer damage that
/// frame on the wire, deterministically, so the ingestion frontend's
/// resync and sequencing recovery paths are CI-sweepable. With no spec
/// installed every hook is a single relaxed atomic load.
///
//===----------------------------------------------------------------------===//

#ifndef TWPP_SUPPORT_FAULTINJECTION_H
#define TWPP_SUPPORT_FAULTINJECTION_H

#include "support/Random.h"

#include <cstdint>
#include <string>
#include <vector>

namespace twpp::fault {

/// One parsed rule of a TWPP_FAULT spec.
struct FaultRule {
  enum class Kind : uint8_t { Io, Alloc, Wire };
  Kind RuleKind = Kind::Io;
  /// Operation matched. For Io: "open", "read", "write", "flush",
  /// "sync", "rename", "stat", "journal", "mmap", or "*" for any. For
  /// Wire: "corrupt", "truncate", "duplicate", "reorder", "stall", or
  /// "*". Ignored for Alloc.
  std::string Op = "*";
  /// Per-hit failure probability (p=). 0 disables the probabilistic arm.
  double P = 0;
  /// Fail exactly the Nth matching hit (n=), 1-based, one-shot.
  uint64_t Nth = 0;
  /// Fail every Everyth matching hit (every=).
  uint64_t Every = 0;
  /// Seed of the deterministic PRNG driving p= decisions.
  uint64_t Seed = 0x5EED;
};

/// Parses \p Spec into \p Rules. \returns false and sets \p Error on a
/// malformed spec (unknown class/op/key, bad number).
bool parseFaultSpec(const std::string &Spec, std::vector<FaultRule> &Rules,
                    std::string &Error);

/// Installs \p Spec as the process-global fault configuration, replacing
/// any previous one (including the TWPP_FAULT environment spec). An empty
/// spec disables injection. \returns false and leaves the old
/// configuration in place when the spec does not parse.
bool setFaultSpec(const std::string &Spec, std::string *Error = nullptr);

/// The currently installed spec string ("" when injection is off).
std::string activeFaultSpec();

/// True when a fault should be injected for io operation \p Op on this
/// hit. Bumps the io.faults_injected counter when it fires. Always false
/// while a ScopedFaultSuspend is live on this thread.
bool shouldFailIo(const char *Op);

/// Throws std::bad_alloc when an alloc rule fires on this hit.
void maybeFailAlloc();

/// A rule of the installed spec with its own hit counter and p= PRNG.
struct ArmedFaultRule {
  FaultRule Rule;
  uint64_t Hits = 0;
  Rng Prng;
  explicit ArmedFaultRule(const FaultRule &R) : Rule(R), Prng(R.Seed) {}
};

/// The wire rules of one producer (one sendTraceOverFd call), with hit
/// counters and PRNG states of their own. io and alloc rules count hits
/// process-wide; wire rules count each producer's frames apart, so which
/// frame `wire:corrupt:every=7` hits does not depend on how producer
/// threads interleave. Copies the wire rules installed when it is made;
/// none, and no lock taken, when injection is off.
struct WireFaultState {
  WireFaultState();
  std::vector<ArmedFaultRule> Rules;
};

/// True when a wire-level fault should be injected for \p Op
/// ("corrupt", "truncate", "duplicate", "reorder", "stall") on this hit
/// of the producer whose rules \p State holds. Consulted by the replay
/// producer per frame; the mutation itself lives with the caller. Bumps
/// the io.faults_injected counter when it fires and is suppressed by
/// ScopedFaultSuspend like every other hook.
bool shouldFaultWire(WireFaultState &State, const char *Op);

/// Number of faults injected since process start (all rules).
uint64_t injectedFaultCount();

/// RAII: replaces the active spec for a scope (tests override the
/// environment sweep), restoring the previous one on destruction.
class ScopedFaultSpec {
public:
  explicit ScopedFaultSpec(const std::string &Spec)
      : Saved(activeFaultSpec()) {
    setFaultSpec(Spec);
  }
  ~ScopedFaultSpec() { setFaultSpec(Saved); }
  ScopedFaultSpec(const ScopedFaultSpec &) = delete;
  ScopedFaultSpec &operator=(const ScopedFaultSpec &) = delete;

private:
  std::string Saved;
};

/// RAII: suspends injection on the current thread (nestable). Tests wrap
/// must-succeed setup IO in this so a CI-wide TWPP_FAULT sweep only hits
/// the paths under test.
class ScopedFaultSuspend {
public:
  ScopedFaultSuspend();
  ~ScopedFaultSuspend();
  ScopedFaultSuspend(const ScopedFaultSuspend &) = delete;
  ScopedFaultSuspend &operator=(const ScopedFaultSuspend &) = delete;
};

} // namespace twpp::fault

#endif // TWPP_SUPPORT_FAULTINJECTION_H
