//===- support/FileIO.h - Durable file read/write helpers ------*- C++ -*-===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Byte-vector file IO used by the trace/archive formats, the journal
/// writer and the access-time experiments. Every operation returns a typed
/// IoError (instead of a bare bool) so callers can distinguish "could not
/// open" from "wrote half the bytes and the disk went away", and every
/// syscall boundary consults the fault-injection seam
/// (support/FaultInjection.h) so recovery paths are testable.
///
/// writeFileBytesAtomic is the durability primitive: it stages the bytes
/// in a temp file next to the target, fsyncs, then renames over the
/// target, so the target path always holds either the old or the new
/// content — never a torn mix. Transient failures are retried under a
/// bounded exponential backoff (RetryPolicy).
///
//===----------------------------------------------------------------------===//

#ifndef TWPP_SUPPORT_FILEIO_H
#define TWPP_SUPPORT_FILEIO_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace twpp {

/// What failed, at the granularity recovery code branches on.
enum class IoStatus : uint8_t {
  Ok,
  OpenFailed,
  ReadFailed,
  ShortRead,
  WriteFailed,
  ShortWrite,
  FlushFailed,
  SyncFailed,
  CloseFailed,
  RenameFailed,
  StatFailed,
};

/// Human-readable name of \p Status ("ok", "open-failed", ...).
const char *ioStatusName(IoStatus Status);

/// Result of a file IO operation. Contextually converts to bool
/// ("did it succeed"), so `if (!writeFileBytes(...))` keeps working;
/// bool-returning wrappers must spell `.ok()` explicitly.
struct IoError {
  IoStatus Status = IoStatus::Ok;
  /// errno captured at the failing call (0 for injected faults and
  /// logical failures like short reads).
  int Errno = 0;
  /// The path (and for slices, the extent) the failure refers to.
  std::string Detail;

  bool ok() const { return Status == IoStatus::Ok; }
  explicit operator bool() const { return ok(); }

  /// "write-failed: /tmp/x.twpp (No space left on device)" — ready for a
  /// Diagnostic message or stderr.
  std::string message() const;

  static IoError success() { return IoError{}; }
};

/// Bounded retry-with-backoff for writeFileBytesAtomic. Attempt k sleeps
/// InitialBackoffMs << (k-1) milliseconds before retrying; MaxAttempts=1
/// disables retries.
struct RetryPolicy {
  unsigned MaxAttempts = 3;
  unsigned InitialBackoffMs = 1;
};

/// Writes \p Bytes to \p Path, replacing any existing file. Detects short
/// writes and removes the partial file so a failed write never leaves a
/// truncated artifact behind. Not atomic: a crash mid-write can leave
/// \p Path missing. Archives use writeFileBytesAtomic.
IoError writeFileBytes(const std::string &Path,
                       const std::vector<uint8_t> &Bytes);

/// Writes \p Bytes via a temp file + fsync + rename so \p Path is updated
/// atomically: on any failure (including a crash) the target holds its
/// previous content, and the temp file is cleaned up on the failure paths
/// this process survives. Transient failures are retried per \p Retry.
IoError writeFileBytesAtomic(const std::string &Path,
                             const std::vector<uint8_t> &Bytes,
                             const RetryPolicy &Retry = RetryPolicy());

/// Reads the entire file at \p Path into \p Bytes.
IoError readFileBytes(const std::string &Path, std::vector<uint8_t> &Bytes);

/// Returns the file size, or nullopt when the file cannot be inspected
/// (missing, permission, injected stat fault). An empty file is
/// 0 — distinguishable from failure, which the old uint64_t contract
/// conflated.
std::optional<uint64_t> fileSize(const std::string &Path);

} // namespace twpp

#endif // TWPP_SUPPORT_FILEIO_H
