#include "robusthd/fleet/wire.hpp"

#include <bit>
#include <cstring>

#include "robusthd/util/bitops.hpp"
#include "robusthd/util/crc32c.hpp"

namespace robusthd::fleet::wire {

namespace {

// All wire integers are little-endian. The serialisation below memcpys
// native values, which is correct on every platform this repo targets
// (x86-64 / aarch64 Linux); a big-endian port would byte-swap here.
static_assert(std::endian::native == std::endian::little,
              "wire format assumes a little-endian host");

template <typename T>
void put(std::vector<std::byte>& out, T value) {
  const auto* p = reinterpret_cast<const std::byte*>(&value);
  out.insert(out.end(), p, p + sizeof(T));
}

template <typename T>
T get(std::span<const std::byte> bytes, std::size_t offset) {
  T value;
  std::memcpy(&value, bytes.data() + offset, sizeof(T));
  return value;
}

bool valid_type(std::uint8_t t) noexcept {
  return t >= static_cast<std::uint8_t>(FrameType::kPredictRequest) &&
         t <= static_cast<std::uint8_t>(FrameType::kPong);
}

/// Appends a frame header announcing `payload_len` payload bytes, header
/// CRC included, and returns the offset the payload starts at. The
/// caller writes the payload in place and seals it with end_frame(), so
/// no frame needs a temporary payload buffer.
std::size_t begin_frame(std::vector<std::byte>& out, FrameType type,
                        std::uint8_t flags, std::uint64_t tenant_id,
                        std::uint64_t request_id, std::uint32_t payload_len,
                        std::uint64_t deadline_ms) {
  const std::size_t header_at = out.size();
  // A zero deadline encodes as a version-0 header — byte-identical to
  // what the pre-deadline encoder emitted, so legacy peers keep parsing
  // us and our compat tests can assert bit-identity.
  const std::uint16_t version = deadline_ms == 0 ? 0 : 1;
  put<std::uint32_t>(out, kMagic);
  put<std::uint8_t>(out, static_cast<std::uint8_t>(type));
  put<std::uint8_t>(out, flags);
  put<std::uint16_t>(out, version);
  put<std::uint64_t>(out, tenant_id);
  put<std::uint64_t>(out, request_id);
  put<std::uint32_t>(out, payload_len);
  if (version >= 1) put<std::uint64_t>(out, deadline_ms);
  const std::uint32_t header_crc =
      util::crc32c(out.data() + header_at, out.size() - header_at);
  put<std::uint32_t>(out, header_crc);
  return out.size();
}

/// Appends the trailer: the CRC of everything written since `payload_at`.
void end_frame(std::vector<std::byte>& out, std::size_t payload_at) {
  put<std::uint32_t>(
      out, util::crc32c(out.data() + payload_at, out.size() - payload_at));
}

}  // namespace

const char* wire_error_name(WireError e) noexcept {
  switch (e) {
    case WireError::kNone: return "none";
    case WireError::kBadMagic: return "bad magic";
    case WireError::kBadType: return "bad frame type";
    case WireError::kBadVersion: return "unsupported header version";
    case WireError::kOversizedPayload: return "oversized payload length";
    case WireError::kHeaderCrcMismatch: return "header CRC mismatch";
    case WireError::kPayloadCrcMismatch: return "payload CRC mismatch";
    case WireError::kBadPayload: return "malformed payload";
  }
  return "unknown";
}

void append_frame(std::vector<std::byte>& out, FrameType type,
                  std::uint8_t flags, std::uint64_t tenant_id,
                  std::uint64_t request_id,
                  std::span<const std::byte> payload,
                  std::uint64_t deadline_ms) {
  const std::size_t payload_at =
      begin_frame(out, type, flags, tenant_id, request_id,
                  static_cast<std::uint32_t>(payload.size()), deadline_ms);
  out.insert(out.end(), payload.begin(), payload.end());
  end_frame(out, payload_at);
}

void append_predict_request(std::vector<std::byte>& out,
                            std::uint64_t tenant_id, std::uint64_t request_id,
                            const hv::BinVec& query,
                            std::uint64_t deadline_ms) {
  const auto words = query.words();
  const std::size_t payload_at = begin_frame(
      out, FrameType::kPredictRequest, 0, tenant_id, request_id,
      static_cast<std::uint32_t>(4 + words.size_bytes()), deadline_ms);
  put<std::uint32_t>(out, static_cast<std::uint32_t>(query.dimension()));
  const auto* p = reinterpret_cast<const std::byte*>(words.data());
  out.insert(out.end(), p, p + words.size_bytes());
  end_frame(out, payload_at);
}

void append_predict_response(std::vector<std::byte>& out,
                             std::uint64_t tenant_id, std::uint64_t request_id,
                             const PredictResult& result) {
  std::uint8_t flags = 0;
  if (result.trusted) flags |= kFlagTrusted;
  if (result.degraded) flags |= kFlagDegraded;
  if (result.abstained) flags |= kFlagAbstained;
  const std::size_t payload_at =
      begin_frame(out, FrameType::kPredictResponse, flags, tenant_id,
                  request_id, 20, /*deadline_ms=*/0);
  put<std::int32_t>(out, result.predicted);
  put<std::uint64_t>(out, std::bit_cast<std::uint64_t>(result.confidence));
  put<std::uint64_t>(out, result.model_version);
  end_frame(out, payload_at);
}

void append_error(std::vector<std::byte>& out, std::uint64_t tenant_id,
                  std::uint64_t request_id, ErrorCode code,
                  std::string_view message) {
  if (message.size() > 256) message = message.substr(0, 256);
  const std::size_t payload_at = begin_frame(
      out, FrameType::kError, 0, tenant_id, request_id,
      static_cast<std::uint32_t>(2 + message.size()), /*deadline_ms=*/0);
  put<std::uint16_t>(out, static_cast<std::uint16_t>(code));
  const auto* p = reinterpret_cast<const std::byte*>(message.data());
  out.insert(out.end(), p, p + message.size());
  end_frame(out, payload_at);
}

bool parse_predict_request(std::span<const std::byte> payload,
                           hv::BinVec& query) {
  if (payload.size() < 4) return false;
  const auto dim = get<std::uint32_t>(payload, 0);
  if (dim == 0 || dim > kMaxDimension) return false;
  const std::size_t words = util::words_for_bits(dim);
  if (payload.size() != 4 + words * 8) return false;
  // Reject tail garbage instead of silently masking it: a peer that sets
  // bits past `dim` either disagrees with us about the dimension or is
  // probing — both are protocol errors. Only the last word has a tail.
  const auto last = get<std::uint64_t>(payload, 4 + (words - 1) * 8);
  if ((last & ~util::low_mask(dim - (words - 1) * 64)) != 0) return false;
  if (query.dimension() != dim) query = hv::BinVec(dim);
  std::memcpy(query.mutable_words().data(), payload.data() + 4, words * 8);
  return true;
}

std::optional<PredictResult> parse_predict_response(const Frame& frame) {
  if (frame.payload.size() != 20) return std::nullopt;
  PredictResult r;
  r.predicted = get<std::int32_t>(frame.payload, 0);
  r.confidence =
      std::bit_cast<double>(get<std::uint64_t>(frame.payload, 4));
  r.model_version = get<std::uint64_t>(frame.payload, 12);
  r.trusted = (frame.flags & kFlagTrusted) != 0;
  r.degraded = (frame.flags & kFlagDegraded) != 0;
  r.abstained = (frame.flags & kFlagAbstained) != 0;
  return r;
}

std::optional<ErrorInfo> parse_error(std::span<const std::byte> payload) {
  if (payload.size() < 2) return std::nullopt;
  ErrorInfo info;
  info.code = static_cast<ErrorCode>(get<std::uint16_t>(payload, 0));
  info.message.assign(reinterpret_cast<const char*>(payload.data()) + 2,
                      payload.size() - 2);
  return info;
}

void FrameReader::feed(std::span<const std::byte> bytes) {
  if (poisoned()) return;
  compact();
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

void FrameReader::compact() {
  if (consumed_ == 0) return;
  buffer_.erase(buffer_.begin(),
                buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
  consumed_ = 0;
}

std::optional<Frame> FrameReader::next() {
  if (poisoned()) return std::nullopt;
  compact();
  if (buffer_.size() < kHeaderSize) return std::nullopt;
  const std::span<const std::byte> head(buffer_.data(), kHeaderSize);

  // Validate everything the header claims before trusting payload_len.
  if (get<std::uint32_t>(head, 0) != kMagic) {
    error_ = WireError::kBadMagic;
    return std::nullopt;
  }
  const auto raw_type = get<std::uint8_t>(head, 4);
  if (!valid_type(raw_type)) {
    error_ = WireError::kBadType;
    return std::nullopt;
  }
  const auto version = get<std::uint16_t>(head, 6);
  if (version > kMaxWireVersion) {
    // Unknown version means unknown header length: we cannot even find
    // the CRC, let alone the next frame boundary. Poison, don't skip.
    error_ = WireError::kBadVersion;
    return std::nullopt;
  }
  const std::size_t header_size = version == 0 ? kHeaderSize : kHeaderSizeV1;
  if (buffer_.size() < header_size) return std::nullopt;  // need full header
  const auto payload_len = get<std::uint32_t>(head, 24);
  if (payload_len > max_payload_) {
    error_ = WireError::kOversizedPayload;
    return std::nullopt;
  }
  if (get<std::uint32_t>(std::span<const std::byte>(buffer_.data(),
                                                    header_size),
                         header_size - 4) !=
      util::crc32c(buffer_.data(), header_size - 4)) {
    error_ = WireError::kHeaderCrcMismatch;
    return std::nullopt;
  }

  const std::size_t total = header_size + payload_len + kTrailerSize;
  if (buffer_.size() < total) return std::nullopt;  // wait for the rest

  const std::span<const std::byte> payload(buffer_.data() + header_size,
                                           payload_len);
  if (get<std::uint32_t>(
          std::span<const std::byte>(buffer_.data(), total),
          header_size + payload_len) != util::crc32c(payload)) {
    error_ = WireError::kPayloadCrcMismatch;
    return std::nullopt;
  }

  Frame frame;
  frame.type = static_cast<FrameType>(raw_type);
  frame.flags = get<std::uint8_t>(head, 5);
  frame.tenant_id = get<std::uint64_t>(head, 8);
  frame.request_id = get<std::uint64_t>(head, 16);
  frame.deadline_ms = version == 0 ? 0 : get<std::uint64_t>(buffer_, 28);
  frame.payload = payload;
  consumed_ = total;  // released at the next feed()/next()/reset()
  return frame;
}

void FrameReader::reset() {
  buffer_.clear();
  consumed_ = 0;
  error_ = WireError::kNone;
}

}  // namespace robusthd::fleet::wire
