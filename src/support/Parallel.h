//===- support/Parallel.h - Parallel execution configuration ----*- C++ -*-===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ParallelConfig, the knob every parallelizable pipeline stage takes, and
/// parallelFor, the fan-out helper they share. The paper's partitioned WPP
/// makes per-function work independent (Section 2), so the function-level
/// stages — DBB compaction, TWPP conversion, archive block encoding — fan
/// out one index per function table over a few short-lived threads that
/// claim indices from one shared counter.
///
/// Parallel runs are bit-for-bit deterministic: every task writes only its
/// own pre-allocated output slot and all cross-function ordering (archive
/// layout, metric accounting loops) stays on the calling thread, so
/// eight jobs produce byte-identical archives to one.
///
//===----------------------------------------------------------------------===//

#ifndef TWPP_SUPPORT_PARALLEL_H
#define TWPP_SUPPORT_PARALLEL_H

#include <cstddef>
#include <functional>

namespace twpp {

/// How many worker threads the parallel pipeline stages may use. The
/// default (1) is fully serial, which keeps every existing call site and
/// test on the single-threaded path unless a consumer opts in.
struct ParallelConfig {
  /// Worker count; 1 or less runs inline on the calling thread.
  unsigned Jobs = 1;

  static ParallelConfig withJobs(unsigned N) { return ParallelConfig{N}; }
};

/// Runs Fn(0), ..., Fn(N-1) on min(Config.Jobs, N) new worker threads
/// that claim indices in order from one atomic counter, and returns when
/// all have joined; inline on the calling thread when that count is at
/// most 1. Each worker runs under one "pool" span rooted at the caller's
/// span path. Fn must not throw; iterations must be independent (each
/// writing only its own output slot).
void parallelFor(const ParallelConfig &Config, size_t N,
                 const std::function<void(size_t)> &Fn);

} // namespace twpp

#endif // TWPP_SUPPORT_PARALLEL_H
