//===- support/Mmap.cpp - Read-only memory-mapped files -------------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//

#include "support/Mmap.h"

#include "obs/Memory.h"
#include "obs/Metrics.h"
#include "obs/Names.h"
#include "support/FaultInjection.h"

#include <cerrno>

#if !defined(_WIN32)
#define TWPP_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

using namespace twpp;

namespace {

IoError ioFail(IoStatus Status, const std::string &Detail, int Err) {
  IoError E;
  E.Status = Status;
  E.Errno = Err;
  E.Detail = Detail;
  return E;
}

} // namespace

bool MappedFile::available() {
#ifdef TWPP_HAVE_MMAP
  return true;
#else
  return false;
#endif
}

IoError MappedFile::map(const std::string &Path) {
  unmap();
#ifndef TWPP_HAVE_MMAP
  return ioFail(IoStatus::OpenFailed, Path + " (mmap unavailable)", 0);
#else
  static obs::Counter &Opens =
      obs::metrics().counter(obs::names::ArchiveMmapOpens);
  static obs::Counter &Bytes =
      obs::metrics().counter(obs::names::ArchiveMmapBytes);
  if (fault::shouldFailIo("mmap"))
    return ioFail(IoStatus::OpenFailed, Path + " (mmap) [injected]", 0);
  int Fd = ::open(Path.c_str(), O_RDONLY);
  if (Fd < 0)
    return ioFail(IoStatus::OpenFailed, Path, errno);
  struct stat St;
  if (::fstat(Fd, &St) != 0) {
    IoError E = ioFail(IoStatus::StatFailed, Path, errno);
    ::close(Fd);
    return E;
  }
  size_t Size = static_cast<size_t>(St.st_size);
  if (Size == 0) {
    // mmap(2) rejects zero-length mappings; an empty file is still a
    // successfully "mapped" null span.
    ::close(Fd);
    IsMapped = true;
    Opens.add();
    return IoError::success();
  }
  void *Addr = ::mmap(nullptr, Size, PROT_READ, MAP_PRIVATE, Fd, 0);
  // The mapping stays valid after close; keeping the fd would only leak
  // descriptors across long-lived readers.
  ::close(Fd);
  if (Addr == MAP_FAILED)
    return ioFail(IoStatus::ReadFailed, Path + " (mmap)", errno);
  Data = static_cast<const uint8_t *>(Addr);
  Length = Size;
  IsMapped = true;
  if (obs::memTrackingEnabled()) {
    obs::memAlloc(obs::memtags::ArchiveMmap, Length);
    Ledgered = Length;
  }
  Opens.add();
  Bytes.add(Length);
  return IoError::success();
#endif
}

void MappedFile::unmap() {
#ifdef TWPP_HAVE_MMAP
  if (Data) {
    ::munmap(const_cast<uint8_t *>(Data), Length);
    if (Ledgered)
      obs::memFree(obs::memtags::ArchiveMmap, Ledgered);
  }
#endif
  Data = nullptr;
  Length = 0;
  Ledgered = 0;
  IsMapped = false;
}
