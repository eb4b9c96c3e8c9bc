//===- bench/micro_benchmarks.cpp - google-benchmark micro suite -----------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
// Microbenchmarks of the primitives the experiments stand on: the series
// codec, timestamp-set operations (the per-step cost of demand-driven
// query propagation), LZW, Sequitur inference, and the full pipeline.
//
//===----------------------------------------------------------------------===//

#include "sequitur/Sequitur.h"
#include "support/ByteStream.h"
#include "support/LZW.h"
#include "support/Random.h"
#include "support/Varint.h"
#include "wpp/TimestampSet.h"
#include "wpp/Twpp.h"

#include <benchmark/benchmark.h>

using namespace twpp;

namespace {

std::vector<Timestamp> loopTimestamps(size_t Count, uint32_t Step) {
  std::vector<Timestamp> Out;
  Out.reserve(Count);
  for (size_t I = 0; I < Count; ++I)
    Out.push_back(static_cast<Timestamp>(1 + I * Step));
  return Out;
}

void BM_SeriesEncode(benchmark::State &State) {
  std::vector<Timestamp> List = loopTimestamps(State.range(0), 5);
  for (auto _ : State) {
    TimestampSet Set = TimestampSet::fromSorted(List);
    benchmark::DoNotOptimize(Set.encodeSigned());
  }
  State.SetItemsProcessed(State.iterations() * State.range(0));
}
BENCHMARK(BM_SeriesEncode)->Arg(100)->Arg(10000);

/// A varint stream shaped like a real series block: mostly small deltas
/// with occasional large anchors, the distribution decodeSeries sees.
std::vector<uint8_t> varintStream(size_t Count) {
  Rng R(407);
  ByteWriter Writer;
  for (size_t I = 0; I < Count; ++I) {
    if (R.nextBool(0.05))
      Writer.writeVarUint(R.nextBelow(uint64_t(1) << 40));
    else
      Writer.writeVarUint(R.nextBelow(1 << 10));
  }
  return Writer.take();
}

void BM_VarintDecodeScalar(benchmark::State &State) {
  std::vector<uint8_t> Stream = varintStream(State.range(0));
  for (auto _ : State) {
    const uint8_t *P = Stream.data();
    const uint8_t *End = P + Stream.size();
    uint64_t Sum = 0;
    while (P != End) {
      uint64_t Value = 0;
      size_t Len = varint::decodeVarUintScalar(P, End, Value);
      if (!Len)
        break;
      Sum += Value;
      P += Len;
    }
    benchmark::DoNotOptimize(Sum);
  }
  State.SetItemsProcessed(State.iterations() * State.range(0));
  State.SetBytesProcessed(State.iterations() * Stream.size());
}
BENCHMARK(BM_VarintDecodeScalar)->Arg(1 << 10)->Arg(1 << 16);

void BM_VarintDecodeSwar(benchmark::State &State) {
  std::vector<uint8_t> Stream = varintStream(State.range(0));
  for (auto _ : State) {
    const uint8_t *P = Stream.data();
    const uint8_t *End = P + Stream.size();
    uint64_t Sum = 0;
    while (P != End) {
      uint64_t Value = 0;
      size_t Len = varint::decodeVarUintSwar(P, End, Value);
      if (!Len)
        break;
      Sum += Value;
      P += Len;
    }
    benchmark::DoNotOptimize(Sum);
  }
  State.SetItemsProcessed(State.iterations() * State.range(0));
  State.SetBytesProcessed(State.iterations() * Stream.size());
}
BENCHMARK(BM_VarintDecodeSwar)->Arg(1 << 10)->Arg(1 << 16);

void BM_TimestampShift(benchmark::State &State) {
  // One backward propagation step over a compacted vector: the paper's
  // (2:20:2) -> (1:19:2) example scaled up. Run count stays tiny no
  // matter how many instances the set holds.
  TimestampSet Set = TimestampSet::fromRun(2, 2 + 10 * State.range(0), 10);
  for (auto _ : State)
    benchmark::DoNotOptimize(Set.shifted(-1));
  State.SetItemsProcessed(State.iterations() * State.range(0));
}
BENCHMARK(BM_TimestampShift)->Arg(100)->Arg(100000);

void BM_TimestampIntersectAligned(benchmark::State &State) {
  TimestampSet A = TimestampSet::fromRun(1, State.range(0), 1);
  TimestampSet B = TimestampSet::fromRun(1, State.range(0), 1);
  for (auto _ : State)
    benchmark::DoNotOptimize(A.intersect(B));
}
BENCHMARK(BM_TimestampIntersectAligned)->Arg(10000);

void BM_TimestampIntersectMisaligned(benchmark::State &State) {
  TimestampSet A = TimestampSet::fromRun(1, 1 + 2 * State.range(0), 2);
  TimestampSet B = TimestampSet::fromRun(1, 1 + 3 * State.range(0), 3);
  for (auto _ : State)
    benchmark::DoNotOptimize(A.intersect(B));
}
BENCHMARK(BM_TimestampIntersectMisaligned)->Arg(10000);

void BM_TimestampUniteDisjoint(benchmark::State &State) {
  // Runs whose ranges do not overlap pass through whole: the cost follows
  // the run count, not the range(0) instances per run.
  std::vector<Timestamp> Low, High;
  for (int64_t Run = 0; Run < 8; ++Run)
    for (int64_t I = 0; I < State.range(0); ++I) {
      Timestamp Base = static_cast<Timestamp>(1 + Run * 8 * State.range(0));
      Low.push_back(Base + static_cast<Timestamp>(2 * I));
      High.push_back(Base + static_cast<Timestamp>(4 * State.range(0) +
                                                   3 * I));
    }
  TimestampSet A = TimestampSet::fromSorted(Low);
  TimestampSet B = TimestampSet::fromSorted(High);
  for (auto _ : State)
    benchmark::DoNotOptimize(A.unite(B));
  State.SetItemsProcessed(State.iterations() * 16 * State.range(0));
}
BENCHMARK(BM_TimestampUniteDisjoint)->Arg(100)->Arg(10000);

void BM_TimestampUniteInterleaved(benchmark::State &State) {
  // Strides 2 and 3 over one range: neither divides the other, so the
  // overlap is merged element by element.
  TimestampSet A = TimestampSet::fromRun(1, 1 + 2 * State.range(0), 2);
  TimestampSet B = TimestampSet::fromRun(1, 1 + 3 * State.range(0), 3);
  for (auto _ : State)
    benchmark::DoNotOptimize(A.unite(B));
  State.SetItemsProcessed(State.iterations() * 2 * State.range(0));
}
BENCHMARK(BM_TimestampUniteInterleaved)->Arg(10000);

void BM_LzwRoundTrip(benchmark::State &State) {
  Rng R(7);
  std::vector<uint8_t> Input;
  for (int64_t I = 0; I < State.range(0); ++I)
    Input.push_back(static_cast<uint8_t>(R.nextBelow(16)));
  for (auto _ : State) {
    std::vector<uint8_t> Out;
    lzwDecompress(lzwCompress(Input), Out);
    benchmark::DoNotOptimize(Out);
  }
  State.SetBytesProcessed(State.iterations() * State.range(0));
}
BENCHMARK(BM_LzwRoundTrip)->Arg(1 << 14);

void BM_SequiturAppend(benchmark::State &State) {
  Rng R(11);
  std::vector<uint64_t> Input;
  for (int64_t I = 0; I < State.range(0); ++I)
    Input.push_back(R.nextBelow(8));
  for (auto _ : State) {
    SequiturBuilder Builder;
    for (uint64_t T : Input)
      Builder.append(T);
    benchmark::DoNotOptimize(Builder.ruleCount());
  }
  State.SetItemsProcessed(State.iterations() * State.range(0));
}
BENCHMARK(BM_SequiturAppend)->Arg(1 << 13);

void BM_FullPipeline(benchmark::State &State) {
  // A loopy two-function trace of ~State.range(0) block events.
  RawTrace Trace;
  Trace.FunctionCount = 2;
  Trace.Events.push_back(TraceEvent::enter(0));
  int64_t Budget = State.range(0);
  while (Budget > 0) {
    Trace.Events.push_back(TraceEvent::block(1));
    Trace.Events.push_back(TraceEvent::enter(1));
    for (BlockId B = 1; B <= 6; ++B) {
      Trace.Events.push_back(TraceEvent::block(B));
      --Budget;
    }
    Trace.Events.push_back(TraceEvent::exit());
    Trace.Events.push_back(TraceEvent::block(2));
    Budget -= 3;
  }
  Trace.Events.push_back(TraceEvent::exit());
  for (auto _ : State) {
    TwppWpp Compacted = compactWpp(Trace);
    benchmark::DoNotOptimize(Compacted.Functions.size());
  }
  State.SetItemsProcessed(State.iterations() * Trace.Events.size());
}
BENCHMARK(BM_FullPipeline)->Arg(1 << 14);

} // namespace

BENCHMARK_MAIN();
