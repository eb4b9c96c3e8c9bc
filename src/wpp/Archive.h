//===- wpp/Archive.h - Compacted TWPP on-disk archive -----------*- C++ -*-===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compacted TWPP file format. Per the paper's access-time design
/// (Section 3): a fixed header records where each function's block lives;
/// the path traces (with dictionaries) of the most frequently called
/// function are stored first; the LZW-compressed dynamic call graph
/// follows the function blocks. Extracting one function's traces costs two
/// small reads (index row + block) regardless of archive size — this is
/// what produces the >3 orders of magnitude speedup of Table 4.
///
/// Layout:
///   [0)   magic (fixed32) | version (fixed32) | functionCount (fixed32)
///   [12)  dcgOffset (fixed64) | dcgLength (fixed64)
///   [28)  index: functionCount rows of offset/length/callCount (fixed64x3)
///   [...] function blocks, sorted by call count descending
///   [...] LZW-compressed DCG
///
/// Version 3 (thread-aware archives only; single-threaded archives keep
/// emitting byte-identical version-1 files) appends a section trailer
/// after the DCG: a sequence of `tag (fixed32) | length (fixed64) |
/// payload` records walked to end of file. Known tags are "THRD" (thread
/// table), "HBEG" (happens-before edges, stored as runs) and "ACCS"
/// (per-thread per-address access timestamp sets); an unknown tag is a
/// hard open() error (twpp-archive-section), never silently skipped.
/// Version 2, whose HBEG held five varints per edge, is rejected at the
/// version field (twpp-archive-header).
///
/// decodeArchiveLayout is the one walker of this layout. The reader
/// fails on its first defect, the verifier reports every defect and then
/// checks policy over the decoded layout, and salvage keeps what the
/// layout says is still in bounds.
///
//===----------------------------------------------------------------------===//

#ifndef TWPP_WPP_ARCHIVE_H
#define TWPP_WPP_ARCHIVE_H

#include "support/FileIO.h"     // IoError
#include "support/Mmap.h"       // MappedFile + ByteSpan
#include "verify/Diagnostics.h" // header-only; no link dependency
#include "wpp/Concurrent.h"
#include "wpp/Twpp.h"

#include <string>
#include <vector>

namespace twpp {

/// Thread-trailer section tags ("THRD", "HBEG", "ACCS" as big-endian
/// ASCII). Stable on-disk identifiers — never renumber.
inline constexpr uint32_t ArchiveSectionThreads = 0x54485244;
inline constexpr uint32_t ArchiveSectionHbEdges = 0x48424547;
inline constexpr uint32_t ArchiveSectionAccesses = 0x41434353;

/// The four-letter name of section \p Tag ("THRD" for the thread table).
std::string archiveSectionName(uint32_t Tag);

/// Returns the calling thread's pooled decode-scratch arena (arena.decode
/// ledger bytes) to the heap. Decode keeps the pool warm across queries by
/// design; long-idle services and leak-asserting tests call this to settle
/// the ledger explicitly.
void releaseArchiveDecodeScratch();

/// Serializes one function's TWPP tables (trace strings, dictionaries,
/// (t, d) pairs, use counts).
std::vector<uint8_t> encodeTwppFunctionTable(const TwppFunctionTable &Table);

/// Inverse of encodeTwppFunctionTable. \returns false on malformed bytes.
/// The span form is the primary entry point: the mmap read path hands it
/// a cursor straight into the mapping.
bool decodeTwppFunctionTable(ByteSpan Bytes, TwppFunctionTable &Table);

inline bool decodeTwppFunctionTable(const std::vector<uint8_t> &Bytes,
                                    TwppFunctionTable &Table) {
  return decodeTwppFunctionTable(ByteSpan(Bytes), Table);
}

/// Serializes a whole compacted TWPP into the archive byte format.
/// Function blocks are encoded concurrently under \p Config and stitched
/// serially in stable call-count order, so the bytes are identical for
/// any job count.
std::vector<uint8_t> encodeArchive(const TwppWpp &Wpp,
                                   const ParallelConfig &Config = {});

/// Writes \p Wpp to \p Path in archive format (atomically: temp + fsync
/// + rename). \returns true on success; on failure \p Err, when given,
/// receives the typed IO error.
bool writeArchiveFile(const std::string &Path, const TwppWpp &Wpp,
                      const ParallelConfig &Config = {},
                      IoError *Err = nullptr);

/// Decodes one thread-trailer section payload into the matching fields of
/// \p Out. THRD must be decoded before ACCS (the access decoder checks
/// the thread count against the table). HBEG decodes to edge runs and
/// checks that they tile the edge list (HbEdgeRuns::tile). \returns false
/// on malformed bytes or an unknown tag. Exposed for the verifier's
/// section checks.
bool decodeArchiveSection(uint32_t Tag, ByteSpan Payload,
                          ConcurrencyInfo &Out);

/// The physical layout of one archive file, decoded from its raw bytes
/// by decodeArchiveLayout. Decoding checks structure only: that the
/// header, the index extents and the section directory fit the file.
/// Nothing here decodes a function block or the DCG.
struct ArchiveLayout {
  /// The part of the layout a defect sits in, so a caller can react per
  /// part (salvage files each under its own check id).
  enum class Part : uint8_t {
    Header,
    FunctionCount,
    DcgExtent,
    IndexRow,
    Sections
  };

  struct Defect {
    Part Where;
    verify::Diagnostic Diag;
  };

  struct IndexRow {
    uint64_t At = 0; ///< File offset of the row itself.
    uint64_t Offset = 0;
    uint64_t Length = 0;
    uint64_t CallCount = 0;
    bool InBounds = false; ///< The block extent lies inside the file.
  };

  struct Section {
    uint32_t Tag = 0;
    uint64_t Offset = 0; ///< Payload offset, past the record head.
    uint64_t Length = 0;
  };

  /// Format version; 0 when the header did not decode (short file, bad
  /// magic or unsupported version), in which case nothing below is set.
  uint32_t Version = 0;
  /// The function count the header claims.
  uint32_t FunctionCount = 0;
  uint64_t DcgOffset = 0;
  uint64_t DcgLength = 0;
  bool DcgInBounds = false;
  /// End of the header + index region the header claims.
  uint64_t IndexEnd = 0;
  /// Index rows, clamped to the rows the file physically holds.
  std::vector<IndexRow> Rows;
  /// The version-3 section directory, in file order.
  std::vector<Section> Sections;
  /// True when the version-3 trailer was walked to end of file without a
  /// malformed record.
  bool TrailerIntact = false;
  /// Every structural defect, in file order.
  std::vector<Defect> Defects;

  bool headerDecoded() const { return Version != 0; }

  /// True when the file holds every index row the header claims.
  bool indexComplete() const {
    return headerDecoded() && Rows.size() == FunctionCount;
  }

  const Section *findSection(uint32_t Tag) const {
    for (const Section &Sec : Sections)
      if (Sec.Tag == Tag)
        return &Sec;
    return nullptr;
  }
};

/// Decodes the layout of the archive bytes \p File into \p Out: the
/// header and DCG extent, the index rows and the version-3 section
/// directory. Every structural defect is recorded as a diagnostic with
/// its check id, location and byte offset; decoding goes on past a bad
/// function count (clamping the rows), a bad DCG extent or a bad row.
/// Versions above \p MaxVersion count as unsupported. This is the only
/// code that knows the magic, the versions and the field sizes, and the
/// only walker of the section directory. \returns true when no defect was
/// found.
bool decodeArchiveLayout(ByteSpan File, ArchiveLayout &Out,
                         uint32_t MaxVersion = 3);

/// Serializes a thread-aware concurrent WPP: the merged body in the
/// version-3 layout plus the THRD/HBEG/ACCS section trailer. \returns no
/// bytes when the edge list holds more than HbEdgeRuns::MaxEdges edges or
/// the thread table more than ConcurrencyInfo::MaxThreads threads, which
/// the reader would refuse: every archive it writes reads back.
std::vector<uint8_t> encodeConcurrentArchive(const ConcurrentWpp &Wpp);

/// writeArchiveFile for concurrent WPPs (version-3 bytes). An edge list
/// past HbEdgeRuns::MaxEdges or a thread table past
/// ConcurrencyInfo::MaxThreads fails with IoStatus::WriteFailed, and
/// nothing is written.
bool writeConcurrentArchiveFile(const std::string &Path,
                                const ConcurrentWpp &Wpp,
                                IoError *Err = nullptr);

/// The diagnostic for an archive file that cannot be read at all: the
/// header check, at byte 0, with \p Read's message ("open-failed: ...").
verify::Diagnostic archiveReadFailure(const IoError &Read);

/// Random-access reader over an archive file. open() maps the file (or,
/// where mapping fails, reads it into one buffer) and decodes its layout;
/// extractFunction() then decodes only that function's block.
class ArchiveReader {
public:
  /// Opens \p Path and decodes its layout. \returns false on IO errors
  /// and on the first layout defect, which lastError() describes.
  bool open(const std::string &Path);

  /// True when open() mapped the file; false when it fell back to reading
  /// it into a buffer (no mmap on this platform, or the mapping failed).
  bool mapped() const { return Map.mapped(); }

  uint32_t functionCount() const {
    return static_cast<uint32_t>(Layout.Rows.size());
  }

  /// Number of calls to \p Function recorded in the archive; 0 when the
  /// archive holds no such function.
  uint64_t callCount(FunctionId Function) const {
    return Function < Layout.Rows.size() ? Layout.Rows[Function].CallCount
                                         : 0;
  }

  /// On-disk byte length of \p Function's block; 0 when the archive holds
  /// no such function. (twpp memstat's compressed-size column.)
  uint64_t blockLength(FunctionId Function) const {
    return Function < Layout.Rows.size() ? Layout.Rows[Function].Length : 0;
  }

  /// On-disk byte length of the LZW-compressed DCG extent.
  uint64_t dcgLength() const { return Layout.DcgLength; }

  /// Decodes the block of \p Function. \returns false on format errors.
  bool extractFunction(FunctionId Function, TwppFunctionTable &Table) const;

  /// Expands \p Function's unique path traces to raw block sequences.
  /// Fails (twpp-archive-trace-partition) when a trace's timestamp sets
  /// do not tile it.
  bool extractFunctionPathTraces(FunctionId Function,
                                 FunctionPathTraces &Out) const;

  /// LZW-decompresses and decodes the dynamic call graph.
  bool readDcg(DynamicCallGraph &Dcg) const;

  /// Loads the entire archive back into memory (DCG + every function).
  bool readAll(TwppWpp &Wpp) const;

  /// Archive format version (1 or 3) after a successful open().
  uint32_t version() const { return Layout.Version; }

  /// True when the archive carries the thread-aware section trailer.
  bool threadAware() const {
    return Layout.findSection(ArchiveSectionThreads);
  }

  /// Decodes the concurrency metadata (thread table, happens-before
  /// edges, access sets) — the race detector's whole input; the
  /// control-flow blocks stay untouched. Fails on archives without the
  /// thread trailer.
  bool readConcurrency(ConcurrencyInfo &Out) const;

  /// Loads a thread-aware archive completely: merged body + concurrency
  /// metadata.
  bool readAllConcurrent(ConcurrentWpp &Out) const;

  /// Describes the most recent failure of any reader method as a
  /// verifier diagnostic: the violated check id, the archive section
  /// ("header", "index row 3", "function 2 block", "dcg") in Location,
  /// and the file offset of the offending bytes in ByteOffset. Only
  /// meaningful after a method returned false.
  const verify::Diagnostic &lastError() const { return LastError; }

private:
  /// Records a diagnostic as lastError() and returns false.
  bool fail(std::string CheckId, std::string Message, std::string Section,
            uint64_t ByteOffset) const;

  MappedFile Map;
  /// The whole file, when it could not be mapped.
  std::vector<uint8_t> Buffer;
  /// The whole file: a view of Map or of Buffer.
  ByteSpan File;
  ArchiveLayout Layout;
  mutable verify::Diagnostic LastError;
};

} // namespace twpp

#endif // TWPP_WPP_ARCHIVE_H
