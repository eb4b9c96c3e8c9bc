//===- support/Parallel.cpp - Flat fan-out over worker threads ------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//

#include "support/Parallel.h"

#include "obs/PhaseSpan.h"
#include "obs/Trace.h"

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

using namespace twpp;

void twpp::parallelFor(const ParallelConfig &Config, size_t N,
                       const std::function<void(size_t)> &Fn) {
  size_t Workers = std::min<size_t>(Config.Jobs, N);
  if (Workers <= 1) {
    for (size_t I = 0; I != N; ++I)
      Fn(I);
    return;
  }
  // Each worker roots its spans at the caller's path, so they aggregate
  // under "compact/dbb/pool" rather than a bare "pool".
  std::string ParentPath = obs::PhaseSpan::currentPath();
  std::atomic<size_t> Next{0};
  std::vector<std::thread> Threads;
  Threads.reserve(Workers);
  for (size_t W = 0; W != Workers; ++W)
    Threads.emplace_back([&, W] {
      obs::setCurrentThreadName("pool-worker-" + std::to_string(W));
      obs::PhaseSpan::ScopedRoot Root(ParentPath);
      obs::PhaseSpan Span("pool");
      for (size_t I; (I = Next.fetch_add(1, std::memory_order_relaxed)) < N;)
        Fn(I);
    });
  for (std::thread &Thread : Threads)
    Thread.join();
}
