#include "robusthd/core/serialize.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "robusthd/util/bitops.hpp"
#include "robusthd/util/crc32c.hpp"
#include "robusthd/util/fsio.hpp"

namespace robusthd::core {

namespace {

constexpr std::uint32_t kMagicRhd1 = 0x52484431;  // "RHD1"
constexpr std::uint32_t kMagicRhd2 = 0x52484432;  // "RHD2"

/// Legacy fixed-layout header (48 bytes, no padding; all little-endian on
/// the platforms we target; written/read with memcpy so alignment is
/// never an issue).
struct HeaderV1 {
  std::uint32_t magic = kMagicRhd1;
  std::uint32_t version = kFormatRhd1;
  std::uint64_t dimension = 0;
  std::uint64_t levels = 0;
  std::uint64_t encoder_seed = 0;
  std::uint64_t feature_count = 0;
  std::uint32_t precision_bits = 1;
  std::uint32_t num_classes = 0;
};
static_assert(sizeof(HeaderV1) == 48, "HeaderV1 must be packed");

/// RHD2 header: the V1 fields plus explicit payload length and two
/// CRC32C sums. header_crc covers the 60 bytes preceding it, so a flip
/// anywhere in the header (shape fields *or* the payload CRC itself) is
/// caught before the payload is even looked at.
struct HeaderV2 {
  std::uint32_t magic = kMagicRhd2;
  std::uint32_t version = kFormatRhd2;
  std::uint64_t dimension = 0;
  std::uint64_t levels = 0;
  std::uint64_t encoder_seed = 0;
  std::uint64_t feature_count = 0;
  std::uint32_t precision_bits = 1;
  std::uint32_t num_classes = 0;
  std::uint64_t payload_bytes = 0;
  std::uint32_t payload_crc = 0;
  std::uint32_t header_crc = 0;
};
static_assert(sizeof(HeaderV2) == 64, "HeaderV2 must be packed");
constexpr std::size_t kHeaderCrcCoverage =
    sizeof(HeaderV2) - sizeof(std::uint32_t);

template <typename T>
T read_at(std::span<const std::byte> blob, std::size_t& offset) {
  if (offset + sizeof(T) > blob.size()) {
    throw SerializeError(SerializeError::Code::kTruncated,
                         "robusthd: truncated model blob");
  }
  T value;
  std::memcpy(&value, blob.data() + offset, sizeof(T));
  offset += sizeof(T);
  return value;
}

[[noreturn]] void reject(
    const char* what,
    SerializeError::Code code = SerializeError::Code::kMalformed) {
  throw SerializeError(code, std::string("robusthd: ") + what);
}

/// The shape fields shared by both header versions, after validation.
struct Shape {
  std::uint64_t dimension;
  std::uint64_t levels;
  std::uint64_t encoder_seed;
  std::uint64_t feature_count;
  std::uint32_t precision_bits;
  std::uint32_t num_classes;

  std::size_t plane_bytes() const noexcept {
    return util::words_for_bits(static_cast<std::size_t>(dimension)) * 8;
  }
  std::uint64_t payload_bytes() const noexcept {
    return static_cast<std::uint64_t>(num_classes) * precision_bits *
           plane_bytes();
  }
};

/// Every bound is checked before a single byte of payload is touched or a
/// single allocation sized from the header is made — a corrupted header
/// must fail here, not in operator new.
void validate_shape(const Shape& shape) {
  if (shape.num_classes == 0 || shape.dimension == 0 ||
      shape.precision_bits == 0 ||
      shape.precision_bits > model::HdcModel::kMaxPrecisionBits) {
    reject("malformed model header");
  }
  if (shape.dimension > kMaxDimension) {
    reject("model header dimension exceeds sanity bound");
  }
  if (shape.levels > kMaxLevels) {
    reject("model header levels exceeds sanity bound");
  }
  if (shape.feature_count > kMaxFeatureCount) {
    reject("model header feature count exceeds sanity bound");
  }
  if (shape.num_classes > kMaxClasses) {
    reject("model header class count exceeds sanity bound");
  }
}

Shape shape_of(const HeaderV1& h) {
  return {h.dimension, h.levels,          h.encoder_seed,
          h.feature_count, h.precision_bits, h.num_classes};
}

Shape shape_of(const HeaderV2& h) {
  return {h.dimension, h.levels,          h.encoder_seed,
          h.feature_count, h.precision_bits, h.num_classes};
}

/// Parses and fully validates a blob's header: magic/version dispatch,
/// sanity bounds, exact blob size (no trailing bytes), and — for RHD2 —
/// both CRCs. Returns the validated shape plus the payload offset.
struct ValidatedBlob {
  Shape shape;
  std::size_t payload_offset;
  std::uint32_t version;
};

/// Header-prefix validation shared by validate() and inspect_header():
/// magic/version dispatch, sanity bounds, and — for RHD2 — the header
/// CRC and header/shape payload-size consistency. Never reads a payload
/// byte, so it works on a bare header prefix read from a file.
ValidatedBlob validate_header(std::span<const std::byte> prefix) {
  std::size_t offset = 0;
  const auto magic = read_at<std::uint32_t>(prefix, offset);

  if (magic == kMagicRhd2) {
    if (prefix.size() < sizeof(HeaderV2)) {
      reject("truncated model blob", SerializeError::Code::kTruncated);
    }
    HeaderV2 header;
    std::memcpy(&header, prefix.data(), sizeof(header));
    if (header.version != kFormatRhd2) {
      reject("unsupported model version");
    }
    // Header CRC first: nothing else in the header is trustworthy until
    // it verifies.
    if (util::crc32c(prefix.data(), kHeaderCrcCoverage) != header.header_crc) {
      reject("model header failed integrity check (CRC32C mismatch)",
             SerializeError::Code::kIntegrity);
    }
    const Shape shape = shape_of(header);
    validate_shape(shape);
    if (header.payload_bytes != shape.payload_bytes()) {
      reject("model header payload size disagrees with model shape");
    }
    return {shape, sizeof(HeaderV2), kFormatRhd2};
  }

  if (magic == kMagicRhd1) {
    if (prefix.size() < sizeof(HeaderV1)) {
      reject("truncated model blob", SerializeError::Code::kTruncated);
    }
    HeaderV1 header;
    std::memcpy(&header, prefix.data(), sizeof(header));
    if (header.version != kFormatRhd1) {
      reject("unsupported model version");
    }
    const Shape shape = shape_of(header);
    validate_shape(shape);
    return {shape, sizeof(HeaderV1), kFormatRhd1};
  }

  reject("not a RobustHD model blob");
}

ValidatedBlob validate(std::span<const std::byte> blob) {
  const ValidatedBlob validated = validate_header(blob);
  const std::uint64_t payload_bytes = validated.shape.payload_bytes();
  // Size-exactness holds for both formats: a blob is header + payload and
  // nothing else.
  if (blob.size() != validated.payload_offset + payload_bytes) {
    reject(blob.size() < validated.payload_offset + payload_bytes
               ? "truncated model blob"
               : "trailing bytes after model payload",
           blob.size() < validated.payload_offset + payload_bytes
               ? SerializeError::Code::kTruncated
               : SerializeError::Code::kMalformed);
  }
  if (validated.version >= kFormatRhd2) {
    HeaderV2 header;
    std::memcpy(&header, blob.data(), sizeof(header));
    if (util::crc32c(blob.subspan(sizeof(HeaderV2))) != header.payload_crc) {
      reject("model payload failed integrity check (CRC32C mismatch)",
             SerializeError::Code::kIntegrity);
    }
  }
  return validated;
}

/// Appends every class plane's raw words (the payload both formats share).
void append_planes(std::vector<std::byte>& out, const model::HdcModel& model) {
  for (std::size_t c = 0; c < model.num_classes(); ++c) {
    for (std::size_t p = 0; p < model.precision_bits(); ++p) {
      const auto bytes = std::as_bytes(model.plane_words(c, p));
      out.insert(out.end(), bytes.begin(), bytes.end());
    }
  }
}

/// Rebuilds the class planes from a validated blob's payload (the model
/// half of deserialize(), shared with deserialize_model()).
model::HdcModel planes_from_validated(std::span<const std::byte> blob,
                                      const ValidatedBlob& validated) {
  const Shape& shape = validated.shape;
  const auto dim = static_cast<std::size_t>(shape.dimension);
  const std::size_t plane_bytes = shape.plane_bytes();
  std::size_t offset = validated.payload_offset;

  std::vector<model::ClassVector> classes(shape.num_classes);
  for (auto& cv : classes) {
    cv.planes.reserve(shape.precision_bits);
    for (std::uint32_t p = 0; p < shape.precision_bits; ++p) {
      hv::BinVec plane(dim);
      std::memcpy(plane.mutable_words().data(), blob.data() + offset,
                  plane_bytes);
      offset += plane_bytes;
      plane.mask_tail();
      cv.planes.push_back(std::move(plane));
    }
  }
  return model::HdcModel::from_planes(std::move(classes),
                                      shape.precision_bits);
}

/// Serialises any model to an RHD2 blob, with the encoder fields caller-
/// supplied (serialize() passes the classifier's real values).
std::vector<std::byte> serialize_model_with(const model::HdcModel& model,
                                            std::uint64_t levels,
                                            std::uint64_t encoder_seed,
                                            std::uint64_t feature_count) {
  HeaderV2 header;
  header.dimension = model.dimension();
  header.levels = levels;
  header.encoder_seed = encoder_seed;
  header.feature_count = feature_count;
  header.precision_bits = model.precision_bits();
  header.num_classes = static_cast<std::uint32_t>(model.num_classes());

  std::vector<std::byte> out;
  out.resize(sizeof(HeaderV2));  // patched below once the CRCs are known
  append_planes(out, model);

  header.payload_bytes = out.size() - sizeof(HeaderV2);
  header.payload_crc =
      util::crc32c(std::span<const std::byte>(out).subspan(sizeof(HeaderV2)));
  header.header_crc = util::crc32c(&header, kHeaderCrcCoverage);
  std::memcpy(out.data(), &header, sizeof(header));
  return out;
}

BlobInfo info_of(const ValidatedBlob& validated) {
  BlobInfo info;
  info.version = validated.version;
  info.dimension = static_cast<std::size_t>(validated.shape.dimension);
  info.levels = static_cast<std::size_t>(validated.shape.levels);
  info.encoder_seed = validated.shape.encoder_seed;
  info.feature_count = static_cast<std::size_t>(validated.shape.feature_count);
  info.precision_bits = validated.shape.precision_bits;
  info.num_classes = validated.shape.num_classes;
  info.integrity_checked = validated.version >= kFormatRhd2;
  return info;
}

}  // namespace

std::vector<std::byte> serialize(const HdcClassifier& classifier) {
  const auto& encoder_config = classifier.encoder_config();
  return serialize_model_with(classifier.model(), encoder_config.levels,
                              encoder_config.seed,
                              classifier.encoder().feature_count());
}

std::vector<std::byte> serialize_model(const model::HdcModel& model,
                                       const ModelMeta& meta) {
  return serialize_model_with(model, meta.levels, meta.encoder_seed,
                              meta.feature_count);
}

std::vector<std::byte> serialize_rhd1(const HdcClassifier& classifier) {
  const auto& model = classifier.model();
  const auto& encoder_config = classifier.encoder_config();

  HeaderV1 header;
  header.dimension = encoder_config.dimension;
  header.levels = encoder_config.levels;
  header.encoder_seed = encoder_config.seed;
  header.feature_count = classifier.encoder().feature_count();
  header.precision_bits = model.precision_bits();
  header.num_classes = static_cast<std::uint32_t>(model.num_classes());

  std::vector<std::byte> out(sizeof(HeaderV1));
  std::memcpy(out.data(), &header, sizeof(header));
  append_planes(out, classifier.model());
  return out;
}

BlobInfo inspect(std::span<const std::byte> blob) {
  return info_of(validate(blob));
}

BlobInfo inspect_header(std::span<const std::byte> header_prefix) {
  return info_of(validate_header(header_prefix));
}

std::size_t expected_blob_bytes(const BlobInfo& info) {
  const std::size_t header_bytes =
      info.version >= kFormatRhd2 ? sizeof(HeaderV2) : sizeof(HeaderV1);
  const std::size_t plane_bytes =
      util::words_for_bits(info.dimension) * sizeof(std::uint64_t);
  return header_bytes + info.num_classes * info.precision_bits * plane_bytes;
}

HdcClassifier deserialize(std::span<const std::byte> blob) {
  const auto validated = validate(blob);
  const Shape& shape = validated.shape;

  hv::EncoderConfig encoder_config;
  encoder_config.dimension = static_cast<std::size_t>(shape.dimension);
  encoder_config.levels = static_cast<std::size_t>(shape.levels);
  encoder_config.seed = shape.encoder_seed;
  return HdcClassifier::assemble(
      encoder_config, static_cast<std::size_t>(shape.feature_count),
      planes_from_validated(blob, validated));
}

model::HdcModel deserialize_model(std::span<const std::byte> blob) {
  const auto validated = validate(blob);
  return planes_from_validated(blob, validated);
}

namespace {

/// Shared body of the two save_model overloads: atomic, durable replace.
void save_blob(const std::vector<std::byte>& blob, const std::string& path) {
  try {
    util::atomic_write_file(path, blob);
  } catch (const util::FsError& e) {
    throw SerializeError(SerializeError::Code::kIo, e.what());
  }
}

/// The validate-before-allocate file loader both load paths share: read
/// the header prefix, validate it, bound the allocation by what the
/// validated header promises, then read and fully validate the blob.
std::vector<std::byte> load_blob(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    throw SerializeError(SerializeError::Code::kIo,
                         "robusthd: cannot open " + path);
  }
  const std::streampos end = in.tellg();
  if (end == std::streampos(-1)) {
    throw SerializeError(SerializeError::Code::kEmpty,
                         "robusthd: cannot determine size of " + path);
  }
  const auto file_size = static_cast<std::uint64_t>(end);
  if (file_size == 0) {
    throw SerializeError(SerializeError::Code::kEmpty,
                         "robusthd: " + path + " is empty");
  }
  // Header first: nothing payload-sized is allocated until the header
  // verified (same policy as the wire path's validate-before-allocate).
  std::array<std::byte, sizeof(HeaderV2)> prefix{};
  const std::size_t prefix_bytes =
      static_cast<std::size_t>(std::min<std::uint64_t>(file_size,
                                                       prefix.size()));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(prefix.data()),
          static_cast<std::streamsize>(prefix_bytes));
  if (!in) {
    throw SerializeError(SerializeError::Code::kIo,
                         "robusthd: read failed: " + path);
  }
  const BlobInfo info =
      inspect_header(std::span<const std::byte>(prefix.data(), prefix_bytes));
  const std::size_t expected = expected_blob_bytes(info);
  if (file_size != expected) {
    reject(file_size < expected ? "truncated model blob"
                                : "trailing bytes after model payload",
           file_size < expected ? SerializeError::Code::kTruncated
                                : SerializeError::Code::kMalformed);
  }
  std::vector<std::byte> blob(expected);
  std::memcpy(blob.data(), prefix.data(), prefix_bytes);
  in.read(reinterpret_cast<char*>(blob.data() + prefix_bytes),
          static_cast<std::streamsize>(expected - prefix_bytes));
  if (!in) {
    throw SerializeError(SerializeError::Code::kIo,
                         "robusthd: read failed: " + path);
  }
  return blob;
}

}  // namespace

void save_model(const HdcClassifier& classifier, const std::string& path) {
  save_blob(serialize(classifier), path);
}

void save_model(const model::HdcModel& model, const std::string& path,
                const ModelMeta& meta) {
  save_blob(serialize_model(model, meta), path);
}

HdcClassifier load_model(const std::string& path) {
  return deserialize(load_blob(path));
}

model::HdcModel load_model_planes(const std::string& path) {
  return deserialize_model(load_blob(path));
}

}  // namespace robusthd::core
