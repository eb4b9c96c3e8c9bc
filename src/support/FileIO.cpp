//===- support/FileIO.cpp - Durable file read/write helpers ---------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//

#include "support/FileIO.h"

#include "obs/Metrics.h"
#include "obs/Names.h"
#include "support/FaultInjection.h"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

#if defined(_WIN32)
#include <io.h>
#else
#include <unistd.h>
#endif

using namespace twpp;

namespace {

IoError fail(IoStatus Status, const std::string &Detail, int Err = errno) {
  IoError E;
  E.Status = Status;
  E.Errno = Err;
  E.Detail = Detail;
  return E;
}

IoError injected(IoStatus Status, const std::string &Detail) {
  return fail(Status, Detail + " [injected]", 0);
}

/// fsync (or the platform equivalent) on an open stream. Failing to make
/// the staged bytes durable before the rename would let a crash publish a
/// name pointing at unwritten data.
bool syncStream(std::FILE *File) {
#if defined(_WIN32)
  return _commit(_fileno(File)) == 0;
#else
  return ::fsync(fileno(File)) == 0;
#endif
}

/// One staging attempt of writeFileBytesAtomic: write TmpPath fully,
/// fsync, rename onto Path. Removes TmpPath on every failure exit.
IoError writeAtomicOnce(const std::string &Path, const std::string &TmpPath,
                        const std::vector<uint8_t> &Bytes) {
  if (fault::shouldFailIo("open"))
    return injected(IoStatus::OpenFailed, TmpPath);
  std::FILE *File = std::fopen(TmpPath.c_str(), "wb");
  if (!File)
    return fail(IoStatus::OpenFailed, TmpPath);

  auto Abort = [&](IoStatus Status, bool Injected) {
    int Err = errno;
    std::fclose(File);
    std::remove(TmpPath.c_str());
    return Injected ? injected(Status, TmpPath) : fail(Status, TmpPath, Err);
  };

  if (fault::shouldFailIo("write"))
    return Abort(IoStatus::WriteFailed, /*Injected=*/true);
  size_t Written =
      Bytes.empty() ? 0 : std::fwrite(Bytes.data(), 1, Bytes.size(), File);
  if (Written != Bytes.size())
    return Abort(IoStatus::ShortWrite, /*Injected=*/false);
  if (fault::shouldFailIo("flush"))
    return Abort(IoStatus::FlushFailed, /*Injected=*/true);
  if (std::fflush(File) != 0)
    return Abort(IoStatus::FlushFailed, /*Injected=*/false);
  if (fault::shouldFailIo("sync"))
    return Abort(IoStatus::SyncFailed, /*Injected=*/true);
  if (!syncStream(File))
    return Abort(IoStatus::SyncFailed, /*Injected=*/false);
  if (std::fclose(File) != 0) {
    std::remove(TmpPath.c_str());
    return fail(IoStatus::CloseFailed, TmpPath);
  }
  if (fault::shouldFailIo("rename")) {
    std::remove(TmpPath.c_str());
    return injected(IoStatus::RenameFailed, Path);
  }
  if (std::rename(TmpPath.c_str(), Path.c_str()) != 0) {
    int Err = errno;
    std::remove(TmpPath.c_str());
    return fail(IoStatus::RenameFailed, Path, Err);
  }
  return IoError::success();
}

} // namespace

const char *twpp::ioStatusName(IoStatus Status) {
  switch (Status) {
  case IoStatus::Ok:
    return "ok";
  case IoStatus::OpenFailed:
    return "open-failed";
  case IoStatus::ReadFailed:
    return "read-failed";
  case IoStatus::ShortRead:
    return "short-read";
  case IoStatus::WriteFailed:
    return "write-failed";
  case IoStatus::ShortWrite:
    return "short-write";
  case IoStatus::FlushFailed:
    return "flush-failed";
  case IoStatus::SyncFailed:
    return "sync-failed";
  case IoStatus::CloseFailed:
    return "close-failed";
  case IoStatus::RenameFailed:
    return "rename-failed";
  case IoStatus::StatFailed:
    return "stat-failed";
  }
  return "unknown";
}

std::string IoError::message() const {
  std::string Out = ioStatusName(Status);
  if (!Detail.empty())
    Out += ": " + Detail;
  if (Errno != 0) {
    Out += " (";
    Out += std::strerror(Errno);
    Out += ")";
  }
  return Out;
}

IoError twpp::writeFileBytes(const std::string &Path,
                             const std::vector<uint8_t> &Bytes) {
  if (fault::shouldFailIo("open")) {
    obs::metrics().counter(obs::names::IoWriteFailures).add();
    return injected(IoStatus::OpenFailed, Path);
  }
  std::FILE *File = std::fopen(Path.c_str(), "wb");
  if (!File) {
    obs::metrics().counter(obs::names::IoWriteFailures).add();
    return fail(IoStatus::OpenFailed, Path);
  }
  bool InjectWrite = fault::shouldFailIo("write");
  size_t Written = (Bytes.empty() || InjectWrite)
                       ? 0
                       : std::fwrite(Bytes.data(), 1, Bytes.size(), File);
  if (InjectWrite || Written != Bytes.size()) {
    int Err = InjectWrite ? 0 : errno;
    std::fclose(File);
    // A partial file is worse than no file: readers would see a
    // well-formed prefix and trust it.
    std::remove(Path.c_str());
    obs::metrics().counter(obs::names::IoWriteFailures).add();
    return InjectWrite ? injected(IoStatus::WriteFailed, Path)
                       : fail(IoStatus::ShortWrite, Path, Err);
  }
  if (std::fclose(File) != 0) {
    int Err = errno;
    std::remove(Path.c_str());
    obs::metrics().counter(obs::names::IoWriteFailures).add();
    return fail(IoStatus::CloseFailed, Path, Err);
  }
  return IoError::success();
}

IoError twpp::writeFileBytesAtomic(const std::string &Path,
                                   const std::vector<uint8_t> &Bytes,
                                   const RetryPolicy &Retry) {
  std::string TmpPath = Path + ".tmp";
  unsigned Attempts = Retry.MaxAttempts == 0 ? 1 : Retry.MaxAttempts;
  IoError Last;
  for (unsigned Attempt = 1; Attempt <= Attempts; ++Attempt) {
    Last = writeAtomicOnce(Path, TmpPath, Bytes);
    if (Last.ok())
      return Last;
    if (Attempt == Attempts)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(
        static_cast<uint64_t>(Retry.InitialBackoffMs) << (Attempt - 1)));
  }
  obs::metrics().counter(obs::names::IoWriteFailures).add();
  return Last;
}

IoError twpp::readFileBytes(const std::string &Path,
                            std::vector<uint8_t> &Bytes) {
  Bytes.clear();
  if (fault::shouldFailIo("open"))
    return injected(IoStatus::OpenFailed, Path);
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  if (!File)
    return fail(IoStatus::OpenFailed, Path);
  std::fseek(File, 0, SEEK_END);
  long Size = std::ftell(File);
  if (Size < 0) {
    int Err = errno;
    std::fclose(File);
    return fail(IoStatus::StatFailed, Path, Err);
  }
  std::fseek(File, 0, SEEK_SET);
  Bytes.resize(static_cast<size_t>(Size));
  bool InjectRead = fault::shouldFailIo("read");
  size_t Read = (Bytes.empty() || InjectRead)
                    ? 0
                    : std::fread(Bytes.data(), 1, Bytes.size(), File);
  std::fclose(File);
  if (InjectRead || Read != Bytes.size()) {
    size_t Want = Bytes.size();
    Bytes.clear();
    return InjectRead
               ? injected(IoStatus::ReadFailed, Path)
               : fail(IoStatus::ShortRead,
                      Path + " (got " + std::to_string(Read) + " of " +
                          std::to_string(Want) + " bytes)",
                      0);
  }
  return IoError::success();
}

std::optional<uint64_t> twpp::fileSize(const std::string &Path) {
  if (fault::shouldFailIo("stat"))
    return std::nullopt;
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  if (!File)
    return std::nullopt;
  std::fseek(File, 0, SEEK_END);
  long Size = std::ftell(File);
  std::fclose(File);
  if (Size < 0)
    return std::nullopt;
  return static_cast<uint64_t>(Size);
}
