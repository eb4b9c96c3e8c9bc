//===- sequitur/Sequitur.cpp - Online Sequitur grammar inference ----------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
// The structure follows Nevill-Manning & Witten's reference algorithm:
// doubly linked rule bodies with guard sentinels, a digram index keyed by
// symbol identity, substitution on repeated digrams (reusing a rule when
// the other occurrence is a whole rule body), and inlining of rules whose
// use count drops to one.
//
//===----------------------------------------------------------------------===//

#include "sequitur/Sequitur.h"

#include "obs/Memory.h"
#include "obs/Metrics.h"
#include "obs/Names.h"
#include "obs/PhaseSpan.h"

#include <cassert>
#include <map>
#include <vector>

using namespace twpp;


namespace {
/// Grammar node ledger: one Sym/Rule record per node so sequitur.grammar
/// live bytes track the in-flight grammar and its peak the high-water mark.
twpp::obs::MemAccount &grammarAccount() {
  static twpp::obs::MemAccount &Account =
      twpp::obs::memTracker().account(twpp::obs::memtags::SequiturGrammar);
  return Account;
}
} // namespace

SequiturBuilder::SequiturBuilder() { Start = newRule(); }

SequiturBuilder::~SequiturBuilder() {
  bool Tracked = obs::memTrackingEnabled();
  auto FreeBody = [Tracked](Rule *R) {
    Sym *S = R->Guard->Next;
    while (S != R->Guard) {
      Sym *Next = S->Next;
      if (Tracked)
        grammarAccount().recordFree(sizeof(Sym));
      delete S;
      S = Next;
    }
    if (Tracked)
      grammarAccount().recordFree(sizeof(Sym) + sizeof(Rule));
    delete R->Guard;
    delete R;
  };
  FreeBody(Start);
  for (auto &[Id, R] : LiveRules)
    FreeBody(R);
}

SequiturBuilder::Rule *SequiturBuilder::newRule() {
  static obs::Counter &RulesCreated =
      obs::metrics().counter(obs::names::SequiturRulesCreated);
  RulesCreated.add();
  if (obs::memTrackingEnabled())
    grammarAccount().recordAlloc(sizeof(Rule) + sizeof(Sym));
  Rule *R = new Rule();
  R->Id = NextRuleId++;
  R->Guard = new Sym();
  R->Guard->IsGuard = true;
  R->Guard->RuleRef = R; // lets a guard name its rule
  R->Guard->Next = R->Guard;
  R->Guard->Prev = R->Guard;
  if (NextRuleId != 2) // Start (first rule) is tracked separately.
    LiveRules.emplace(R->Id, R);
  return R;
}

void SequiturBuilder::freeRule(Rule *R) {
  assert(R != Start && "cannot free the start rule");
  LiveRules.erase(R->Id);
  if (obs::memTrackingEnabled())
    grammarAccount().recordFree(sizeof(Sym) + sizeof(Rule));
  delete R->Guard;
  delete R;
}

SequiturBuilder::Sym *SequiturBuilder::newSymbol(uint64_t Terminal) {
  if (obs::memTrackingEnabled())
    grammarAccount().recordAlloc(sizeof(Sym));
  Sym *S = new Sym();
  S->Value = Terminal;
  return S;
}

SequiturBuilder::Sym *SequiturBuilder::newNonterminal(Rule *R) {
  if (obs::memTrackingEnabled())
    grammarAccount().recordAlloc(sizeof(Sym));
  Sym *S = new Sym();
  S->RuleRef = R;
  ++R->RefCount;
  return S;
}

void SequiturBuilder::join(Sym *Left, Sym *Right) {
  if (Left->Next)
    deleteDigram(Left);
  Left->Next = Right;
  Right->Prev = Left;
}

void SequiturBuilder::insertAfter(Sym *Pos, Sym *S) {
  join(S, Pos->Next);
  join(Pos, S);
}

void SequiturBuilder::deleteDigram(Sym *S) {
  if (S->IsGuard || S->Next->IsGuard)
    return;
  auto It = Digrams.find(keyOf(S, S->Next));
  if (It != Digrams.end() && It->second == S)
    Digrams.erase(It);
}

void SequiturBuilder::removeSymbol(Sym *S) {
  assert(!S->IsGuard && "cannot remove a guard");
  // Retire (S, Next) first; join() below retires (Prev, S).
  deleteDigram(S);
  join(S->Prev, S->Next);
  if (S->RuleRef)
    --S->RuleRef->RefCount;
  if (obs::memTrackingEnabled())
    grammarAccount().recordFree(sizeof(Sym));
  delete S;
}

bool SequiturBuilder::check(Sym *S) {
  if (S->IsGuard || S->Next->IsGuard)
    return false;
  DigramKey Key = keyOf(S, S->Next);
  auto It = Digrams.find(Key);
  if (It == Digrams.end()) {
    Digrams.emplace(Key, S);
    return false;
  }
  // Overlapping occurrences (e.g. "aaa") are left alone.
  if (It->second->Next != S)
    match(S, It->second);
  return true;
}

SequiturBuilder::Rule *SequiturBuilder::findRule(uint32_t Id) {
  if (Start->Id == Id)
    return Start;
  auto It = LiveRules.find(Id);
  return It == LiveRules.end() ? nullptr : It->second;
}

void SequiturBuilder::match(Sym *New, Sym *Found) {
  // Substitutions cascade (their digram checks can fire further matches,
  // inlining rules along the way), so a Rule pointer held across one is
  // unsafe; re-resolve by stable id instead.
  uint32_t RId;
  if (Found->Prev->IsGuard && Found->Next->Next->IsGuard) {
    // The found occurrence is an entire rule body: reuse that rule.
    Rule *R = Found->Prev->RuleRef;
    RId = R->Id;
    substitute(New, R);
  } else {
    // Make a new rule from the digram and substitute both occurrences.
    Rule *R = newRule();
    RId = R->Id;
    Sym *First = New->RuleRef ? newNonterminal(New->RuleRef)
                              : newSymbol(New->Value);
    Sym *Second = New->Next->RuleRef ? newNonterminal(New->Next->RuleRef)
                                     : newSymbol(New->Next->Value);
    insertAfter(R->Guard, First);
    insertAfter(First, Second);
    // No cascade can fire here: every digram involving the brand-new rule
    // is novel, so both checks inside substitute only insert.
    substitute(Found, R);
    // This one can cascade (digrams with R now exist elsewhere).
    substitute(New, R);
    if (Rule *Live = findRule(RId))
      Digrams[keyOf(Live->Guard->Next, Live->Guard->Next->Next)] =
          Live->Guard->Next;
  }
  // Rule utility: a rule that fell to a single use gets inlined. The
  // substitutions above removed one occurrence of each digram symbol, so
  // either end of R's body may now be the sole use of its rule.
  Rule *Live = findRule(RId);
  if (!Live)
    return;
  Sym *BodyFirst = Live->Guard->Next;
  if (BodyFirst->RuleRef && !BodyFirst->IsGuard &&
      BodyFirst->RuleRef->RefCount == 1) {
    expand(BodyFirst);
    Live = findRule(RId);
    if (!Live)
      return;
  }
  Sym *BodyLast = Live->Guard->Prev;
  if (BodyLast->RuleRef && !BodyLast->IsGuard &&
      BodyLast->RuleRef->RefCount == 1)
    expand(BodyLast);
}

void SequiturBuilder::substitute(Sym *S, Rule *R) {
  Sym *Before = S->Prev;
  removeSymbol(S->Next);
  removeSymbol(S);
  Sym *Use = newNonterminal(R);
  insertAfter(Before, Use);
  if (!check(Before))
    check(Use);
}

void SequiturBuilder::expand(Sym *S) {
  Rule *R = S->RuleRef;
  assert(R && R->RefCount == 1 && "expand requires a single-use rule");
  Sym *Left = S->Prev;
  Sym *Right = S->Next;
  Sym *BodyFirst = R->Guard->Next;
  Sym *BodyLast = R->Guard->Prev;
  assert(!BodyFirst->IsGuard && "expanding an empty rule");

  // Retire the digrams around the use; splice the body in its place.
  deleteDigram(S);
  join(Left, BodyFirst);
  join(BodyLast, Right);
  if (!BodyLast->IsGuard && !Right->IsGuard)
    Digrams[keyOf(BodyLast, Right)] = BodyLast;
  delete S;
  freeRule(R);
}

void SequiturBuilder::append(uint64_t Terminal) {
  static obs::Counter &Symbols =
      obs::metrics().counter(obs::names::SequiturSymbols);
  Symbols.add();
  Sym *S = newSymbol(Terminal);
  Sym *Last = Start->Guard->Prev;
  insertAfter(Last, S);
  check(Last);
}

FlatGrammar SequiturBuilder::freeze() const {
  FlatGrammar Grammar;
  // Assign flat indices: start rule first, then live rules by id (stable).
  std::map<uint32_t, Rule *> ById;
  for (auto &[Id, R] : LiveRules)
    ById.emplace(Id, R);
  std::unordered_map<const Rule *, uint32_t> FlatIndex;
  FlatIndex.emplace(Start, 0);
  uint32_t Next = 1;
  for (auto &[Id, R] : ById)
    FlatIndex.emplace(R, Next++);

  Grammar.Rules.resize(1 + ById.size());
  auto EmitBody = [&FlatIndex](const Rule *R,
                               std::vector<FlatSymbol> &Body) {
    for (const Sym *S = R->Guard->Next; S != R->Guard; S = S->Next) {
      if (S->RuleRef)
        Body.push_back({FlatIndex.at(S->RuleRef), true});
      else
        Body.push_back({S->Value, false});
    }
  };
  EmitBody(Start, Grammar.Rules[0]);
  for (auto &[Id, R] : ById)
    EmitBody(R, Grammar.Rules[FlatIndex.at(R)]);
  return Grammar;
}

SequiturBuilder::InvariantReport SequiturBuilder::auditInvariants() const {
  InvariantReport Report;

  // Rule utility: every non-start rule used at least twice, and refcounts
  // consistent with actual uses.
  std::unordered_map<const Rule *, uint32_t> Uses;
  auto CountBody = [&Uses](const Rule *R) {
    for (const Sym *S = R->Guard->Next; S != R->Guard; S = S->Next)
      if (S->RuleRef)
        ++Uses[S->RuleRef];
  };
  CountBody(Start);
  for (const auto &[Id, R] : LiveRules)
    CountBody(R);
  for (const auto &[Id, R] : LiveRules) {
    auto It = Uses.find(R);
    if (It == Uses.end() || It->second < 2 || It->second != R->RefCount)
      ++Report.UtilityViolations;
  }

  // Digram uniqueness, counted: every non-overlapping repeat is residue.
  std::unordered_map<DigramKey, const Sym *, DigramKeyHash> Seen;
  auto ScanBody = [&Seen, &Report](const Rule *R) {
    for (const Sym *S = R->Guard->Next;
         S != R->Guard && S->Next != R->Guard; S = S->Next) {
      ++Report.TotalDigrams;
      DigramKey Key = {handleOf(S), handleOf(S->Next)};
      auto [It, Inserted] = Seen.emplace(Key, S);
      if (!Inserted && It->second->Next != S)
        ++Report.DuplicateDigrams;
    }
  };
  ScanBody(Start);
  for (const auto &[Id, R] : LiveRules)
    ScanBody(R);
  return Report;
}

FlatGrammar twpp::buildSequiturGrammar(const RawTrace &Trace) {
  obs::PhaseSpan Span("sequitur");
  SequiturBuilder Builder;
  for (const TraceEvent &Event : Trace.Events)
    Builder.append(eventToToken(Event));
  return Builder.freeze();
}
