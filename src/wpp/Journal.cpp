//===- wpp/Journal.cpp - Checkpoint journal for streaming compaction ------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//

#include "wpp/Journal.h"

#include "support/ByteStream.h"
#include "support/Crc32.h"
#include "support/FaultInjection.h"

#include <cerrno>

#if !defined(_WIN32)
#include <unistd.h>
#else
#include <io.h>
#endif

using namespace twpp;

namespace {

IoError journalFail(IoStatus Status, const std::string &Detail,
                    int Err = errno) {
  IoError E;
  E.Status = Status;
  E.Errno = Err;
  E.Detail = Detail;
  return E;
}

IoError journalInjected(IoStatus Status, const std::string &Detail) {
  return journalFail(Status, Detail + " [injected]", 0);
}

bool syncJournalStream(std::FILE *File) {
#if defined(_WIN32)
  return _commit(_fileno(File)) == 0;
#else
  return ::fsync(fileno(File)) == 0;
#endif
}

} // namespace

void twpp::appendJournalRecord(std::vector<uint8_t> &Out,
                               const std::vector<uint8_t> &Payload) {
  ByteWriter Writer;
  Writer.writeFixed32(JournalMagic);
  Writer.writeFixed32(JournalVersion);
  Writer.writeFixed64(Payload.size());
  Writer.writeFixed32(crc32(Payload.data(), Payload.size()));
  std::vector<uint8_t> Header = Writer.take();
  Out.insert(Out.end(), Header.begin(), Header.end());
  Out.insert(Out.end(), Payload.begin(), Payload.end());
}

JournalScan twpp::scanJournal(const std::vector<uint8_t> &Bytes) {
  JournalScan Scan;
  size_t Pos = 0;
  size_t EndOfLastValid = 0;
  while (Pos + JournalHeaderSize <= Bytes.size()) {
    if (le32At(Bytes, Pos) != JournalMagic ||
        le32At(Bytes, Pos + 4) != JournalVersion) {
      // Not a record boundary: resynchronize byte-by-byte so one damaged
      // region cannot hide every later record.
      ++Pos;
      continue;
    }
    uint64_t Length = le64At(Bytes, Pos + 8);
    uint32_t Crc = le32At(Bytes, Pos + 16);
    if (Length > Bytes.size() - Pos - JournalHeaderSize) {
      // Torn tail (the common crash shape) or a corrupt length field;
      // either way the payload is not all there. Keep scanning in case a
      // complete record follows the damage.
      ++Pos;
      continue;
    }
    const uint8_t *Payload = Bytes.data() + Pos + JournalHeaderSize;
    if (crc32(Payload, static_cast<size_t>(Length)) != Crc) {
      ++Scan.CorruptRecords;
      ++Pos;
      continue;
    }
    ++Scan.ValidRecords;
    Scan.LastPayload.assign(Payload, Payload + Length);
    Pos += JournalHeaderSize + static_cast<size_t>(Length);
    EndOfLastValid = Pos;
  }
  Scan.TornBytes = Bytes.size() - EndOfLastValid;
  return Scan;
}

JournalWriter::~JournalWriter() { close(); }

JournalWriter::JournalWriter(JournalWriter &&Other) noexcept
    : File(Other.File), JournalPath(std::move(Other.JournalPath)) {
  Other.File = nullptr;
  Other.JournalPath.clear();
}

JournalWriter &JournalWriter::operator=(JournalWriter &&Other) noexcept {
  if (this != &Other) {
    close();
    File = Other.File;
    JournalPath = std::move(Other.JournalPath);
    Other.File = nullptr;
    Other.JournalPath.clear();
  }
  return *this;
}

IoError JournalWriter::open(const std::string &Path, bool Append) {
  close();
  if (fault::shouldFailIo("journal"))
    return journalInjected(IoStatus::OpenFailed, Path);
  File = std::fopen(Path.c_str(), Append ? "ab" : "wb");
  if (!File)
    return journalFail(IoStatus::OpenFailed, Path);
  JournalPath = Path;
  return IoError::success();
}

IoError JournalWriter::append(const std::vector<uint8_t> &Payload) {
  if (!File)
    return journalFail(IoStatus::OpenFailed, "journal not open", 0);
  if (fault::shouldFailIo("journal"))
    return journalInjected(IoStatus::WriteFailed, JournalPath);
  std::vector<uint8_t> Frame;
  appendJournalRecord(Frame, Payload);
  size_t Written = std::fwrite(Frame.data(), 1, Frame.size(), File);
  if (Written != Frame.size())
    return journalFail(IoStatus::ShortWrite, JournalPath);
  if (std::fflush(File) != 0)
    return journalFail(IoStatus::FlushFailed, JournalPath);
  // The record must be durable before the checkpoint is acknowledged;
  // otherwise a crash could roll the stream back past state the caller
  // already discarded.
  if (!syncJournalStream(File))
    return journalFail(IoStatus::SyncFailed, JournalPath);
  return IoError::success();
}

void JournalWriter::close() {
  if (File) {
    std::fclose(File);
    File = nullptr;
  }
  JournalPath.clear();
}
