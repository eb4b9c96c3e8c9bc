//===- tests/IngestWireTest.cpp - twpp-wire-v1 codec and decoder ---------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
// The wire protocol's contract under fire: payloads round-trip, the
// incremental decoder survives arbitrary chunking (frames straddling
// read-buffer edges), and every flavor of damage — flipped bytes,
// truncation, garbage prefixes, oversized lengths, magics aliased inside
// payloads — costs only the damaged frames, never the stream.
//
//===----------------------------------------------------------------------===//

#include "ingest/Wire.h"

#include "gtest/gtest.h"

#include <cstring>

using namespace twpp;
using namespace twpp::ingest;

namespace {

std::vector<TraceEvent> sampleEvents() {
  return {TraceEvent::enter(3), TraceEvent::block(1), TraceEvent::block(2),
          TraceEvent::enter(7), TraceEvent::block(9), TraceEvent::exit(),
          TraceEvent::exit()};
}

std::vector<uint8_t> frameBytes(uint32_t Producer, uint64_t Seq,
                                const std::vector<uint8_t> &Payload) {
  std::vector<uint8_t> Out;
  appendWireFrame(Out, Producer, Seq, Payload);
  return Out;
}

/// Feeds \p Bytes to \p Decoder in chunks of \p Chunk bytes and drains
/// every complete frame.
std::vector<WireFrame> pump(FrameDecoder &Decoder,
                            const std::vector<uint8_t> &Bytes, size_t Chunk) {
  std::vector<WireFrame> Frames;
  for (size_t I = 0; I < Bytes.size(); I += Chunk) {
    size_t N = std::min(Chunk, Bytes.size() - I);
    Decoder.feed(Bytes.data() + I, N);
    WireFrame Frame;
    while (Decoder.next(Frame))
      Frames.push_back(Frame);
  }
  return Frames;
}

TEST(IngestWireTest, HelloPayloadRoundTrip) {
  std::vector<uint8_t> Bytes = encodeHelloPayload(12345);
  WirePayload Payload;
  ASSERT_TRUE(decodeWirePayload(ByteSpan(Bytes.data(), Bytes.size()),
                                Payload));
  EXPECT_EQ(Payload.Kind, WireFrameKind::Hello);
  EXPECT_EQ(Payload.FunctionCount, 12345u);
}

TEST(IngestWireTest, EventsPayloadRoundTrip) {
  std::vector<TraceEvent> Events = sampleEvents();
  std::vector<uint8_t> Bytes =
      encodeEventsPayload(Events.data(), Events.data() + Events.size());
  WirePayload Payload;
  ASSERT_TRUE(decodeWirePayload(ByteSpan(Bytes.data(), Bytes.size()),
                                Payload));
  EXPECT_EQ(Payload.Kind, WireFrameKind::Events);
  EXPECT_EQ(Payload.Events, Events);
}

TEST(IngestWireTest, ByePayloadRoundTrip) {
  std::vector<uint8_t> Bytes = encodeByePayload(987654321ull);
  WirePayload Payload;
  ASSERT_TRUE(decodeWirePayload(ByteSpan(Bytes.data(), Bytes.size()),
                                Payload));
  EXPECT_EQ(Payload.Kind, WireFrameKind::Bye);
  EXPECT_EQ(Payload.TotalEvents, 987654321ull);
}

TEST(IngestWireTest, ReusedPayloadCarriesNoStaleFields) {
  // One WirePayload decodes every frame of a stream: each decode must
  // reset what the previous frame set, while the event batch keeps its
  // buffer.
  std::vector<TraceEvent> Events = sampleEvents();
  std::vector<uint8_t> EventBytes =
      encodeEventsPayload(Events.data(), Events.data() + Events.size());
  std::vector<uint8_t> HelloBytes = encodeHelloPayload(77);
  std::vector<uint8_t> ByeBytes = encodeByePayload(4242);
  WirePayload Payload;

  ASSERT_TRUE(decodeWirePayload(ByteSpan(EventBytes), Payload));
  EXPECT_EQ(Payload.Kind, WireFrameKind::Events);
  EXPECT_EQ(Payload.Events, Events);
  EXPECT_EQ(Payload.FunctionCount, 0u);
  EXPECT_EQ(Payload.TotalEvents, 0u);
  size_t Capacity = Payload.Events.capacity();

  ASSERT_TRUE(decodeWirePayload(ByteSpan(HelloBytes), Payload));
  EXPECT_EQ(Payload.Kind, WireFrameKind::Hello);
  EXPECT_EQ(Payload.FunctionCount, 77u);
  EXPECT_TRUE(Payload.Events.empty());
  EXPECT_EQ(Payload.TotalEvents, 0u);
  EXPECT_EQ(Payload.Events.capacity(), Capacity);

  ASSERT_TRUE(decodeWirePayload(ByteSpan(ByeBytes), Payload));
  EXPECT_EQ(Payload.Kind, WireFrameKind::Bye);
  EXPECT_EQ(Payload.TotalEvents, 4242u);
  EXPECT_EQ(Payload.FunctionCount, 0u);
  EXPECT_TRUE(Payload.Events.empty());

  // A rejected payload leaves nothing of the previous frame behind.
  ASSERT_TRUE(decodeWirePayload(ByteSpan(EventBytes), Payload));
  std::vector<uint8_t> Garbage = {99, 0};
  EXPECT_FALSE(decodeWirePayload(ByteSpan(Garbage), Payload));
  EXPECT_TRUE(Payload.Events.empty());
  EXPECT_EQ(Payload.TotalEvents, 0u);
  EXPECT_EQ(Payload.FunctionCount, 0u);
}

TEST(IngestWireTest, PayloadRejectsUnknownKind) {
  std::vector<uint8_t> Bytes = {99, 0};
  WirePayload Payload;
  EXPECT_FALSE(decodeWirePayload(ByteSpan(Bytes.data(), Bytes.size()),
                                 Payload));
}

TEST(IngestWireTest, PayloadRejectsTrailingBytes) {
  std::vector<uint8_t> Bytes = encodeHelloPayload(5);
  Bytes.push_back(0);
  WirePayload Payload;
  EXPECT_FALSE(decodeWirePayload(ByteSpan(Bytes.data(), Bytes.size()),
                                 Payload));
}

TEST(IngestWireTest, PayloadRejectsTruncatedEventBatch) {
  std::vector<TraceEvent> Events = sampleEvents();
  std::vector<uint8_t> Bytes =
      encodeEventsPayload(Events.data(), Events.data() + Events.size());
  Bytes.resize(Bytes.size() - 2); // count now promises more than present
  WirePayload Payload;
  EXPECT_FALSE(decodeWirePayload(ByteSpan(Bytes.data(), Bytes.size()),
                                 Payload));
}

TEST(IngestWireTest, DecoderSingleFrame) {
  std::vector<uint8_t> Bytes = frameBytes(4, 17, encodeHelloPayload(50));
  FrameDecoder Decoder;
  Decoder.feed(Bytes.data(), Bytes.size());
  WireFrame Frame;
  ASSERT_TRUE(Decoder.next(Frame));
  EXPECT_EQ(Frame.ProducerId, 4u);
  EXPECT_EQ(Frame.Sequence, 17u);
  EXPECT_FALSE(Decoder.next(Frame));
  EXPECT_EQ(Decoder.stats().Frames, 1u);
  EXPECT_EQ(Decoder.stats().FrameBytes, Bytes.size());
  EXPECT_EQ(Decoder.stats().CorruptFrames, 0u);
  EXPECT_EQ(Decoder.stats().ResyncBytes, 0u);
}

TEST(IngestWireTest, DecoderSurvivesByteAtATimeFeeding) {
  // Frames straddle every possible buffer edge when fed byte by byte.
  std::vector<TraceEvent> Events = sampleEvents();
  std::vector<uint8_t> Bytes;
  appendWireFrame(Bytes, 1, 0, encodeHelloPayload(8));
  appendWireFrame(Bytes, 1, 1,
                  encodeEventsPayload(Events.data(),
                                      Events.data() + Events.size()));
  appendWireFrame(Bytes, 1, 2, encodeByePayload(Events.size()));

  FrameDecoder Decoder;
  std::vector<WireFrame> Frames = pump(Decoder, Bytes, 1);
  ASSERT_EQ(Frames.size(), 3u);
  EXPECT_EQ(Frames[0].Sequence, 0u);
  EXPECT_EQ(Frames[1].Sequence, 1u);
  EXPECT_EQ(Frames[2].Sequence, 2u);
  EXPECT_EQ(Decoder.stats().CorruptFrames, 0u);
  EXPECT_EQ(Decoder.stats().ResyncBytes, 0u);

  WirePayload Payload;
  ASSERT_TRUE(decodeWirePayload(
      ByteSpan(Frames[1].Payload.data(), Frames[1].Payload.size()), Payload));
  EXPECT_EQ(Payload.Events, Events);
}

TEST(IngestWireTest, DecoderChunkSizeSweepIsChunkingInvariant) {
  std::vector<TraceEvent> Events = sampleEvents();
  std::vector<uint8_t> Bytes;
  for (uint64_t Seq = 0; Seq < 20; ++Seq)
    appendWireFrame(Bytes, 2, Seq,
                    encodeEventsPayload(Events.data(),
                                        Events.data() + Events.size()));
  for (size_t Chunk : {1u, 2u, 3u, 7u, 13u, 64u, 4096u}) {
    FrameDecoder Decoder;
    std::vector<WireFrame> Frames = pump(Decoder, Bytes, Chunk);
    ASSERT_EQ(Frames.size(), 20u) << "chunk=" << Chunk;
    for (uint64_t Seq = 0; Seq < 20; ++Seq)
      EXPECT_EQ(Frames[Seq].Sequence, Seq) << "chunk=" << Chunk;
  }
}

TEST(IngestWireTest, DecoderResyncsPastCorruptPayloadByte) {
  std::vector<uint8_t> Bytes;
  appendWireFrame(Bytes, 1, 0, encodeHelloPayload(8));
  size_t FirstEnd = Bytes.size();
  appendWireFrame(Bytes, 1, 1, encodeByePayload(0));
  Bytes[WireHeaderSize + 1] ^= 0xFF; // flip a payload byte of frame 0

  FrameDecoder Decoder;
  Decoder.feed(Bytes.data(), Bytes.size());
  WireFrame Frame;
  ASSERT_TRUE(Decoder.next(Frame));
  EXPECT_EQ(Frame.Sequence, 1u); // frame 0 lost, frame 1 recovered
  EXPECT_FALSE(Decoder.next(Frame));
  EXPECT_EQ(Decoder.stats().Frames, 1u);
  EXPECT_EQ(Decoder.stats().CorruptFrames, 1u);
  // Resync scanned forward from just past frame 0's magic to frame 1's.
  EXPECT_GE(Decoder.stats().ResyncBytes, FirstEnd - 4);
}

TEST(IngestWireTest, DecoderSkipsGarbagePrefix) {
  std::vector<uint8_t> Garbage(37, 0xAB);
  std::vector<uint8_t> Bytes = Garbage;
  appendWireFrame(Bytes, 1, 0, encodeHelloPayload(8));

  FrameDecoder Decoder;
  Decoder.feed(Bytes.data(), Bytes.size());
  WireFrame Frame;
  ASSERT_TRUE(Decoder.next(Frame));
  EXPECT_EQ(Frame.Sequence, 0u);
  EXPECT_EQ(Decoder.stats().ResyncBytes, Garbage.size());
}

TEST(IngestWireTest, DecoderTreatsOversizedLengthAsDamage) {
  // A CRC-correct frame whose length field was smashed to > WireMaxPayload
  // must not make the decoder wait for gigabytes: it resyncs instead.
  std::vector<uint8_t> Bytes;
  appendWireFrame(Bytes, 1, 0, encodeHelloPayload(8));
  uint32_t Huge = WireMaxPayload + 1;
  std::memcpy(Bytes.data() + 4 + 4 + 4 + 8, &Huge, 4); // payloadLength
  size_t FirstEnd = Bytes.size();
  appendWireFrame(Bytes, 1, 1, encodeByePayload(0));

  FrameDecoder Decoder;
  Decoder.feed(Bytes.data(), Bytes.size());
  WireFrame Frame;
  ASSERT_TRUE(Decoder.next(Frame));
  EXPECT_EQ(Frame.Sequence, 1u);
  EXPECT_FALSE(Decoder.next(Frame));
  EXPECT_EQ(Decoder.stats().Frames, 1u);
  EXPECT_GE(Decoder.stats().ResyncBytes, FirstEnd - 4);
}

TEST(IngestWireTest, DecoderFinishFlushesTruncatedTail) {
  std::vector<uint8_t> Bytes;
  appendWireFrame(Bytes, 1, 0, encodeHelloPayload(8));
  std::vector<uint8_t> Tail;
  appendWireFrame(Tail, 1, 1, encodeByePayload(0));
  Bytes.insert(Bytes.end(), Tail.begin(), Tail.end() - 3); // cut 3 bytes

  FrameDecoder Decoder;
  Decoder.feed(Bytes.data(), Bytes.size());
  WireFrame Frame;
  ASSERT_TRUE(Decoder.next(Frame));
  EXPECT_EQ(Frame.Sequence, 0u);
  // Without finish() the decoder waits for the missing tail bytes...
  EXPECT_FALSE(Decoder.next(Frame));
  EXPECT_GT(Decoder.pendingBytes(), 0u);
  // ...after finish() it knows they will never arrive and writes the
  // partial frame off as damage.
  Decoder.finish();
  EXPECT_FALSE(Decoder.next(Frame));
  EXPECT_EQ(Decoder.stats().Frames, 1u);
  EXPECT_GT(Decoder.stats().ResyncBytes, 0u);
}

TEST(IngestWireTest, DecoderResyncIgnoresMagicAliasedInsidePayload) {
  // Craft a payload that contains the bytes "TWPW" — when the frame
  // around it is corrupted, resync walks into the payload, sees the
  // aliased magic, fails the implied header's CRC, and keeps scanning
  // until the next *real* frame. The stream must recover regardless.
  uint32_t Magic = WireMagic;
  std::vector<uint8_t> AliasedPayload = encodeByePayload(7);
  for (int I = 0; I < 4; ++I)
    AliasedPayload.push_back(reinterpret_cast<uint8_t *>(&Magic)[I]);

  std::vector<uint8_t> Bytes;
  appendWireFrame(Bytes, 1, 0, AliasedPayload);
  Bytes[0] ^= 0xFF; // smash frame 0's own magic: resync from byte 1
  size_t FirstEnd = Bytes.size();
  appendWireFrame(Bytes, 1, 1, encodeHelloPayload(8));

  FrameDecoder Decoder;
  Decoder.feed(Bytes.data(), Bytes.size());
  Decoder.finish();
  WireFrame Frame;
  ASSERT_TRUE(Decoder.next(Frame));
  EXPECT_EQ(Frame.Sequence, 1u); // the aliased magic did not desync us
  EXPECT_FALSE(Decoder.next(Frame));
  EXPECT_EQ(Decoder.stats().Frames, 1u);
  EXPECT_GE(Decoder.stats().ResyncBytes, FirstEnd - WireHeaderSize);
}

TEST(IngestWireTest, DecoderRejectsWrongVersion) {
  std::vector<uint8_t> Bytes;
  appendWireFrame(Bytes, 1, 0, encodeHelloPayload(8));
  uint32_t BadVersion = WireVersion + 1;
  std::memcpy(Bytes.data() + 4, &BadVersion, 4);
  appendWireFrame(Bytes, 1, 1, encodeByePayload(0));

  FrameDecoder Decoder;
  Decoder.feed(Bytes.data(), Bytes.size());
  Decoder.finish();
  WireFrame Frame;
  ASSERT_TRUE(Decoder.next(Frame));
  EXPECT_EQ(Frame.Sequence, 1u);
  EXPECT_FALSE(Decoder.next(Frame));
}

} // namespace
