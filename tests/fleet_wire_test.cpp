// Adversarial tests for the fleet wire protocol, in the spirit of
// serialize_test's storage fuzz: every single-bit flip of a valid frame
// must be rejected, every truncation must park the reader (not crash
// it), hostile length prefixes must not allocate, and garbage streams
// must poison the connection. This binary runs under ASan in CI.
#include "robusthd/fleet/wire.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <vector>

#include "robusthd/util/crc32c.hpp"
#include "robusthd/util/rng.hpp"

namespace robusthd::fleet::wire {
namespace {

hv::BinVec make_query(std::size_t dim, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  return hv::BinVec::random(dim, rng);
}

std::vector<std::byte> request_frame(std::uint64_t tenant,
                                     std::uint64_t request,
                                     const hv::BinVec& query) {
  std::vector<std::byte> out;
  append_predict_request(out, tenant, request, query);
  return out;
}

/// Recomputes the header CRC after a test mutated header fields — for
/// crafting frames that are hostile yet pass the CRC gate.
void fix_header_crc(std::vector<std::byte>& frame) {
  const std::uint32_t crc = util::crc32c(frame.data(), kHeaderSize - 4);
  std::memcpy(frame.data() + kHeaderSize - 4, &crc, 4);
}

/// Feeds the whole buffer and drains every available frame.
std::vector<Frame> drain(FrameReader& reader,
                         const std::vector<std::byte>& bytes) {
  reader.feed(bytes);
  std::vector<Frame> frames;
  while (auto f = reader.next()) frames.push_back(*f);
  return frames;
}

// ------------------------------------------------------------ round trips --

TEST(FleetWire, PredictRequestRoundTrip) {
  const auto query = make_query(1000, 42);
  const auto bytes = request_frame(7, 99, query);
  FrameReader reader;
  const auto frames = drain(reader, bytes);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, FrameType::kPredictRequest);
  EXPECT_EQ(frames[0].tenant_id, 7u);
  EXPECT_EQ(frames[0].request_id, 99u);
  hv::BinVec decoded;
  ASSERT_TRUE(parse_predict_request(frames[0].payload, decoded));
  EXPECT_EQ(decoded, query);
  EXPECT_FALSE(reader.poisoned());
}

TEST(FleetWire, PredictResponseRoundTripIsBitIdentical) {
  PredictResult result;
  result.predicted = 3;
  result.confidence = 0.123456789012345678;  // exercises full mantissa
  result.model_version = 17;
  result.trusted = true;
  result.degraded = true;
  result.abstained = false;
  std::vector<std::byte> bytes;
  append_predict_response(bytes, 1, 2, result);
  FrameReader reader;
  const auto frames = drain(reader, bytes);
  ASSERT_EQ(frames.size(), 1u);
  const auto parsed = parse_predict_response(frames[0]);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->predicted, 3);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(parsed->confidence),
            std::bit_cast<std::uint64_t>(result.confidence));
  EXPECT_EQ(parsed->model_version, 17u);
  EXPECT_TRUE(parsed->trusted);
  EXPECT_TRUE(parsed->degraded);
  EXPECT_FALSE(parsed->abstained);
}

TEST(FleetWire, ErrorRoundTripAndMessageBound) {
  std::vector<std::byte> bytes;
  append_error(bytes, 0, 5, ErrorCode::kBusy, std::string(1000, 'x'));
  FrameReader reader;
  const auto frames = drain(reader, bytes);
  ASSERT_EQ(frames.size(), 1u);
  const auto info = parse_error(frames[0].payload);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->code, ErrorCode::kBusy);
  EXPECT_EQ(info->message.size(), 256u);  // truncated, not trusted
}

TEST(FleetWire, DeadlineRoundTripsInV1Header) {
  const auto query = make_query(777, 13);
  std::vector<std::byte> bytes;
  append_predict_request(bytes, 3, 44, query, /*deadline_ms=*/2500);
  // A nonzero deadline widens the header to the v1 layout.
  const std::size_t payload_size = 4 + query.word_count() * 8;
  EXPECT_EQ(bytes.size(), kHeaderSizeV1 + payload_size + kTrailerSize);
  FrameReader reader;
  const auto frames = drain(reader, bytes);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].deadline_ms, 2500u);
  EXPECT_EQ(frames[0].tenant_id, 3u);
  EXPECT_EQ(frames[0].request_id, 44u);
  hv::BinVec decoded;
  ASSERT_TRUE(parse_predict_request(frames[0].payload, decoded));
  EXPECT_EQ(decoded, query);
  EXPECT_FALSE(reader.poisoned());
}

TEST(FleetWire, ZeroDeadlineEncodesBitIdenticalLegacyFrame) {
  // Acceptance criterion: a deadline-less frame must be byte-for-byte
  // what the pre-deadline encoder produced, so old peers keep working.
  // Rebuild the legacy 32-byte-header frame by hand and compare.
  const auto query = make_query(320, 21);
  const auto bytes = request_frame(9, 77, query);

  std::vector<std::byte> legacy;
  auto put32 = [&legacy](std::uint32_t v) {
    const auto* p = reinterpret_cast<const std::byte*>(&v);
    legacy.insert(legacy.end(), p, p + 4);
  };
  auto put64 = [&legacy](std::uint64_t v) {
    const auto* p = reinterpret_cast<const std::byte*>(&v);
    legacy.insert(legacy.end(), p, p + 8);
  };
  std::vector<std::byte> payload;
  {
    const std::uint32_t dim = static_cast<std::uint32_t>(query.dimension());
    const auto* p = reinterpret_cast<const std::byte*>(&dim);
    payload.insert(payload.end(), p, p + 4);
    const auto words = query.words();
    const auto* w = reinterpret_cast<const std::byte*>(words.data());
    payload.insert(payload.end(), w, w + words.size_bytes());
  }
  put32(kMagic);
  legacy.push_back(std::byte{1});  // kPredictRequest
  legacy.push_back(std::byte{0});  // flags
  legacy.push_back(std::byte{0});  // reserved / version 0
  legacy.push_back(std::byte{0});
  put64(9);   // tenant
  put64(77);  // request
  put32(static_cast<std::uint32_t>(payload.size()));
  put32(util::crc32c(legacy.data(), kHeaderSize - 4));
  legacy.insert(legacy.end(), payload.begin(), payload.end());
  put32(util::crc32c(payload));

  EXPECT_EQ(bytes, legacy);
}

TEST(FleetWire, V1EverySingleBitFlipIsRejected) {
  // Deadline-field fuzz: corrupting any bit of a v1 frame — including
  // the new deadline bytes — must poison the reader, never yield a
  // frame with a wrong deadline.
  const auto query = make_query(200, 8);
  std::vector<std::byte> bytes;
  append_predict_request(bytes, 21, 22, query, /*deadline_ms=*/999);
  for (std::size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    auto corrupted = bytes;
    corrupted[bit / 8] ^= std::byte{1} << (bit % 8);
    FrameReader reader;
    const auto frames = drain(reader, corrupted);
    EXPECT_TRUE(frames.empty()) << "flip at bit " << bit;
    EXPECT_TRUE(reader.poisoned()) << "flip at bit " << bit;
  }
}

TEST(FleetWire, V1EveryTruncationParksWithoutAFrame) {
  const auto query = make_query(300, 3);
  std::vector<std::byte> bytes;
  append_predict_request(bytes, 4, 5, query, /*deadline_ms=*/17);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    FrameReader reader;
    reader.feed({bytes.data(), len});
    EXPECT_FALSE(reader.next().has_value()) << "prefix length " << len;
    EXPECT_FALSE(reader.poisoned()) << "prefix length " << len;
    reader.feed({bytes.data() + len, bytes.size() - len});
    const auto f = reader.next();
    ASSERT_TRUE(f.has_value()) << "prefix length " << len;
    EXPECT_EQ(f->deadline_ms, 17u) << "prefix length " << len;
  }
}

TEST(FleetWire, MultipleFramesInOneFeed) {
  const auto query = make_query(256, 1);
  std::vector<std::byte> bytes = request_frame(1, 1, query);
  const auto second = request_frame(2, 2, query);
  bytes.insert(bytes.end(), second.begin(), second.end());
  FrameReader reader;
  const auto frames = drain(reader, bytes);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].tenant_id, 1u);
  EXPECT_EQ(frames[1].tenant_id, 2u);
}

TEST(FleetWire, ByteAtATimeDelivery) {
  const auto query = make_query(512, 9);
  const auto bytes = request_frame(11, 12, query);
  FrameReader reader;
  std::size_t complete = 0;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    reader.feed({bytes.data() + i, 1});
    while (auto f = reader.next()) {
      ++complete;
      hv::BinVec decoded;
      EXPECT_TRUE(parse_predict_request(f->payload, decoded));
      EXPECT_EQ(decoded, query);
    }
    EXPECT_FALSE(reader.poisoned());
  }
  EXPECT_EQ(complete, 1u);
}

// ----------------------------------------------------------- truncation --

TEST(FleetWire, EveryTruncationParksWithoutAFrame) {
  const auto query = make_query(300, 3);
  const auto bytes = request_frame(4, 5, query);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    FrameReader reader;
    reader.feed({bytes.data(), len});
    EXPECT_FALSE(reader.next().has_value()) << "prefix length " << len;
    EXPECT_FALSE(reader.poisoned()) << "prefix length " << len;
    // The remainder completes the frame — truncation was just waiting.
    reader.feed({bytes.data() + len, bytes.size() - len});
    EXPECT_TRUE(reader.next().has_value()) << "prefix length " << len;
  }
}

// -------------------------------------------------------- bit-flip fuzz --

TEST(FleetWire, EverySingleBitFlipIsRejected) {
  const auto query = make_query(200, 7);
  const auto bytes = request_frame(21, 22, query);
  for (std::size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    auto corrupted = bytes;
    corrupted[bit / 8] ^= std::byte{1} << (bit % 8);
    FrameReader reader;
    const auto frames = drain(reader, corrupted);
    EXPECT_TRUE(frames.empty()) << "flip at bit " << bit;
    EXPECT_TRUE(reader.poisoned()) << "flip at bit " << bit;
  }
}

TEST(FleetWire, RandomGarbageStreamsPoisonQuickly) {
  util::Xoshiro256 rng(0xbadc0de);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::byte> garbage(64 + trial);
    for (auto& b : garbage) {
      b = static_cast<std::byte>(rng.next() & 0xff);
    }
    FrameReader reader;
    const auto frames = drain(reader, garbage);
    EXPECT_TRUE(frames.empty());
    // A garbage stream long enough to contain a header must be caught
    // (magic alone rejects all but 1 in 2^32).
    EXPECT_TRUE(reader.poisoned());
  }
}

// ------------------------------------------------- hostile header fields --

TEST(FleetWire, OversizedLengthPrefixIsRejectedBeforeAllocation) {
  auto bytes = request_frame(1, 1, make_query(64, 1));
  const std::uint32_t huge = kMaxPayload + 1;
  std::memcpy(bytes.data() + 24, &huge, 4);
  fix_header_crc(bytes);  // hostile but CRC-valid
  FrameReader reader;
  reader.feed({bytes.data(), kHeaderSize});
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_EQ(reader.error(), WireError::kOversizedPayload);
  // The reader held only what was fed — a length prefix is not a
  // promise it allocates for.
  EXPECT_LE(reader.buffered(), kHeaderSize);
}

TEST(FleetWire, MaliciousLengthWithinBoundNeverCompletes) {
  // A CRC-valid header claiming kMaxPayload bytes that never arrive:
  // the reader waits (buffering only what was fed) and stays sane.
  auto bytes = request_frame(1, 1, make_query(64, 1));
  const std::uint32_t claim = kMaxPayload;
  std::memcpy(bytes.data() + 24, &claim, 4);
  fix_header_crc(bytes);
  FrameReader reader;
  reader.feed(bytes);  // whole original frame: far less than claimed
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_FALSE(reader.poisoned());
  EXPECT_EQ(reader.buffered(), bytes.size());
}

TEST(FleetWire, BadMagicBadTypeAndBadVersionAreRejected) {
  {
    auto bytes = request_frame(1, 1, make_query(64, 1));
    bytes[0] = std::byte{0x00};
    fix_header_crc(bytes);
    FrameReader reader;
    EXPECT_TRUE(drain(reader, bytes).empty());
    EXPECT_EQ(reader.error(), WireError::kBadMagic);
  }
  {
    auto bytes = request_frame(1, 1, make_query(64, 1));
    bytes[4] = std::byte{0xee};  // no such FrameType
    fix_header_crc(bytes);
    FrameReader reader;
    EXPECT_TRUE(drain(reader, bytes).empty());
    EXPECT_EQ(reader.error(), WireError::kBadType);
  }
  {
    // A version this build does not know means an unknown header length
    // — the reader must poison rather than guess where the CRC lives.
    auto bytes = request_frame(1, 1, make_query(64, 1));
    const std::uint16_t future = kMaxWireVersion + 1;
    std::memcpy(bytes.data() + 6, &future, 2);
    FrameReader reader;
    EXPECT_TRUE(drain(reader, bytes).empty());
    EXPECT_EQ(reader.error(), WireError::kBadVersion);
  }
  {
    // Flipping version 0 → 1 without supplying the wider header makes
    // the CRC land on payload bytes: caught as a header CRC mismatch.
    auto bytes = request_frame(1, 1, make_query(64, 1));
    bytes[6] = std::byte{0x01};
    FrameReader reader;
    EXPECT_TRUE(drain(reader, bytes).empty());
    EXPECT_EQ(reader.error(), WireError::kHeaderCrcMismatch);
  }
}

TEST(FleetWire, PoisonedReaderStaysPoisonedUntilReset) {
  auto bytes = request_frame(1, 1, make_query(64, 1));
  bytes[0] = std::byte{0xff};
  fix_header_crc(bytes);
  FrameReader reader;
  EXPECT_TRUE(drain(reader, bytes).empty());
  ASSERT_TRUE(reader.poisoned());
  // Feeding a perfectly valid frame afterwards must not resurrect it.
  const auto good = request_frame(2, 2, make_query(64, 2));
  EXPECT_TRUE(drain(reader, good).empty());
  EXPECT_TRUE(reader.poisoned());
  reader.reset();
  EXPECT_FALSE(reader.poisoned());
  EXPECT_EQ(drain(reader, good).size(), 1u);
}

// ------------------------------------------------------ payload parsing --

TEST(FleetWire, PredictPayloadRejectsBadDimensionAndLength) {
  hv::BinVec decoded;
  // Too short for the dimension field.
  EXPECT_FALSE(parse_predict_request(std::vector<std::byte>(3), decoded));
  // Zero dimension.
  std::vector<std::byte> zero(4, std::byte{0});
  EXPECT_FALSE(parse_predict_request(zero, decoded));
  // Dimension over the hard bound.
  std::vector<std::byte> big(4);
  const std::uint32_t dim = kMaxDimension + 1;
  std::memcpy(big.data(), &dim, 4);
  EXPECT_FALSE(parse_predict_request(big, decoded));
  // Length disagreeing with the dimension (one word short / one long).
  const auto query = make_query(128, 5);
  std::vector<std::byte> frame_bytes;
  append_predict_request(frame_bytes, 0, 0, query);
  FrameReader reader;
  const auto frames = drain(reader, frame_bytes);
  ASSERT_EQ(frames.size(), 1u);
  std::vector<std::byte> payload(frames[0].payload.begin(),
                                 frames[0].payload.end());
  auto short_payload = payload;
  short_payload.resize(payload.size() - 8);
  EXPECT_FALSE(parse_predict_request(short_payload, decoded));
  auto long_payload = payload;
  long_payload.resize(payload.size() + 8, std::byte{0});
  EXPECT_FALSE(parse_predict_request(long_payload, decoded));
}

TEST(FleetWire, PredictPayloadRejectsTailGarbage) {
  // Dimension 100 occupies 2 words with 28 tail bits that must be zero;
  // a peer setting one breaks the BinVec invariant → rejected.
  const std::size_t dim = 100;
  hv::BinVec query(dim);
  query.set(0, true);
  std::vector<std::byte> payload(4 + 2 * 8, std::byte{0});
  const std::uint32_t d32 = dim;
  std::memcpy(payload.data(), &d32, 4);
  std::memcpy(payload.data() + 4, query.words().data(), 16);
  hv::BinVec decoded;
  ASSERT_TRUE(parse_predict_request(payload, decoded));
  payload[4 + 15] = std::byte{0x80};  // highest bit of word 1 = bit 127
  EXPECT_FALSE(parse_predict_request(payload, decoded));

  // Dimension 128 fills both words exactly: there is no tail, so the
  // same bit 127 is a real dimension and must be accepted.
  const std::uint32_t full = 128;
  std::memcpy(payload.data(), &full, 4);
  ASSERT_TRUE(parse_predict_request(payload, decoded));
  EXPECT_EQ(decoded.dimension(), full);
  EXPECT_TRUE(decoded.get(0));
  EXPECT_TRUE(decoded.get(127));
  EXPECT_EQ(decoded.count_ones(), 2u);
}

TEST(FleetWire, ResponsePayloadLengthIsExact) {
  PredictResult result;
  std::vector<std::byte> bytes;
  append_predict_response(bytes, 0, 0, result);
  FrameReader reader;
  auto frames = drain(reader, bytes);
  ASSERT_EQ(frames.size(), 1u);
  Frame frame = frames[0];
  EXPECT_TRUE(parse_predict_response(frame).has_value());
  frame.payload = frame.payload.subspan(0, frame.payload.size() - 1);
  EXPECT_FALSE(parse_predict_response(frame).has_value());
}

}  // namespace
}  // namespace robusthd::fleet::wire
