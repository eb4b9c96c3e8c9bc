//===- tests/ReadPaths.h - The reader's two ways to get bytes ---*- C++ -*-===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ArchiveReader::open maps the archive, or reads it into one buffer when
/// mapping fails. Reader tests run on both paths: the mapped one as is,
/// and the buffered one forced by failing every mmap with fault
/// injection. Once open() returns, the reader does no more IO, so the
/// fault only needs to cover open().
///
//===----------------------------------------------------------------------===//

#ifndef TWPP_TESTS_READPATHS_H
#define TWPP_TESTS_READPATHS_H

#include "support/FaultInjection.h"
#include "wpp/Archive.h"

#include <cstdint>
#include <string>

namespace twpp::fixtures {

enum class ReadPath : uint8_t { Buffered, Mmap };

inline const char *readPathName(ReadPath Path) {
  return Path == ReadPath::Mmap ? "mmap" : "buffered";
}

/// Opens \p File with \p Reader on read path \p Path.
inline bool openOn(ArchiveReader &Reader, const std::string &File,
                   ReadPath Path) {
  if (Path == ReadPath::Mmap)
    return Reader.open(File);
  fault::ScopedFaultSpec NoMmap("io:mmap:every=1");
  return Reader.open(File);
}

} // namespace twpp::fixtures

#endif // TWPP_TESTS_READPATHS_H
