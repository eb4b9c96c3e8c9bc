//===- support/Mmap.h - Read-only memory-mapped files -----------*- C++ -*-===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// RAII read-only memory mapping for the zero-copy archive read path.
/// ArchiveReader::open maps the archive once and decodes the index,
/// function blocks and DCG straight out of the mapping through ByteSpan
/// cursors — no read()-and-copy, no per-query buffer.
///
/// Failure is always graceful: map() returns a typed IoError and leaves
/// the object unmapped, and ArchiveReader reads the whole file into one
/// buffer instead, decoding it exactly as it would the mapping. On
/// platforms without mmap at all (non-POSIX), MappedFile::available() is
/// false and the reader only ever takes that buffered path.
///
/// Testability: map() consults the fault-injection seam under the io op
/// name "mmap" (TWPP_FAULT=io:mmap:every=1), which is how the reader
/// tests force the buffered path deterministically. An empty file
/// maps successfully to the null span — mmap(2) itself rejects length 0,
/// so the wrapper special-cases it rather than failing on a valid archive
/// of zero bytes (no such archive exists today, but the reader's header
/// checks, not the IO layer, own that verdict).
///
/// Observability: mapped bytes are recorded against the archive.mmap
/// memtag (a fixed tag, so scoped decode audits never see them) and the
/// archive.mmap_opens / archive.mmap_bytes counters.
///
//===----------------------------------------------------------------------===//

#ifndef TWPP_SUPPORT_MMAP_H
#define TWPP_SUPPORT_MMAP_H

#include "support/ByteStream.h"
#include "support/FileIO.h"

#include <cstdint>
#include <string>

namespace twpp {

/// A read-only mapping of one file. Movable, not copyable; unmaps on
/// destruction. A default-constructed instance is unmapped.
class MappedFile {
public:
  MappedFile() = default;
  ~MappedFile() { unmap(); }

  MappedFile(MappedFile &&Other) noexcept { *this = std::move(Other); }
  MappedFile &operator=(MappedFile &&Other) noexcept {
    if (this != &Other) {
      unmap();
      Data = Other.Data;
      Length = Other.Length;
      IsMapped = Other.IsMapped;
      Ledgered = Other.Ledgered;
      Other.Data = nullptr;
      Other.Length = 0;
      Other.IsMapped = false;
      Other.Ledgered = 0;
    }
    return *this;
  }

  MappedFile(const MappedFile &) = delete;
  MappedFile &operator=(const MappedFile &) = delete;

  /// True when this build can map files at all (POSIX mmap present).
  static bool available();

  /// Maps the file at \p Path read-only, replacing any current mapping.
  /// On failure the object is left unmapped and the caller is expected to
  /// fall back to buffered IO. An empty file yields a successful null
  /// mapping (mapped(), size() == 0).
  IoError map(const std::string &Path);

  /// Releases the mapping (no-op when unmapped).
  void unmap();

  /// True after a successful map(), including the empty-file case.
  bool mapped() const { return IsMapped; }

  size_t size() const { return Length; }

  /// The mapped bytes. Valid until unmap()/destruction; empty when
  /// unmapped.
  ByteSpan span() const { return ByteSpan(Data, Length); }

private:
  const uint8_t *Data = nullptr;
  size_t Length = 0;
  /// Bytes recorded against archive.mmap (0 when tracking was off at map
  /// time), so unmap never unbalances the ledger.
  size_t Ledgered = 0;
  bool IsMapped = false;
};

} // namespace twpp

#endif // TWPP_SUPPORT_MMAP_H
