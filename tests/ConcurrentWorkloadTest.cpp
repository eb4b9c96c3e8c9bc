//===- tests/ConcurrentWorkloadTest.cpp - Concurrent workload tests -------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//

#include "races/RaceDetect.h"
#include "workloads/Concurrent.h"
#include "wpp/Concurrent.h"

#include <gtest/gtest.h>

using namespace twpp;
using namespace twpp::races;

namespace {

TEST(ConcurrentWorkloadTest, ProfilesAreWellFormed) {
  for (const ConcurrentProfile &P : testConcurrentProfiles()) {
    ConcurrentTrace Trace = generateConcurrentTrace(P);
    EXPECT_TRUE(Trace.isWellFormed()) << P.Name;
    EXPECT_EQ(Trace.Threads.size(), P.Threads) << P.Name;
    EXPECT_FALSE(Trace.Accesses.empty()) << P.Name;
  }
}

TEST(ConcurrentWorkloadTest, GenerationIsDeterministic) {
  for (const ConcurrentProfile &P : testConcurrentProfiles())
    EXPECT_EQ(generateConcurrentTrace(P), generateConcurrentTrace(P))
        << P.Name;
}

TEST(ConcurrentWorkloadTest, RaceVerdictsMatchProfileIntent) {
  for (const ConcurrentProfile &P : testConcurrentProfiles()) {
    ConcurrentWpp Wpp = compactConcurrentWpp(generateConcurrentTrace(P));
    RaceReport Compacted = detectRacesCompacted(Wpp.Conc);
    RaceReport Oracle = detectRacesOracle(Wpp.Conc);
    EXPECT_TRUE(sameVerdict(Compacted, Oracle)) << P.Name;
    EXPECT_EQ(Compacted.racy(), P.InjectRaces)
        << P.Name << "\n"
        << renderRaceLines(Compacted);
  }
}

TEST(ConcurrentWorkloadTest, CompactionRoundTripsEveryThread) {
  for (const ConcurrentProfile &P : testConcurrentProfiles()) {
    ConcurrentTrace Trace = generateConcurrentTrace(P);
    ConcurrentWpp Wpp = compactConcurrentWpp(Trace);
    for (uint32_t T = 0; T != P.Threads; ++T)
      EXPECT_EQ(reconstructThreadTrace(Wpp, T), Trace.Threads[T].Trace)
          << P.Name << " thread " << T;
  }
}

} // namespace
