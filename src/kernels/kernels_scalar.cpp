// Portable scalar kernels — the reference implementation every SIMD
// variant is tested bit-for-bit against. Compiled with the project's
// baseline flags only, so it runs on any x86-64 (or non-x86) host.
//
// The arena matrix kernel is the shared traversal in kernels_internal.hpp
// with ScalarArena's groups: queries go 4 at a time, so a stored plane
// word is loaded once per group instead of once per query, which roughly
// halves memory traffic on large batches even without wider registers.

#include "kernels_internal.hpp"

#include <array>

namespace robusthd::kernels::detail {

namespace {

std::size_t popcount_scalar(const std::uint64_t* words, std::size_t n) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i) total += word_popcount(words[i]);
  return total;
}

std::size_t hamming_scalar(const std::uint64_t* a, const std::uint64_t* b,
                           std::size_t n) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i) total += word_popcount(a[i] ^ b[i]);
  return total;
}

void bundle_signed_scalar(std::int32_t* counts, const std::uint64_t* bits,
                          std::size_t dims, std::int32_t weight) {
  bundle_signed_from(counts, bits, 0, dims, weight);
}

void sign_pack_scalar(const std::int32_t* counts, std::size_t dims,
                      const std::uint64_t* tie_break, std::uint64_t* out) {
  sign_pack_from(counts, 0, dims, tie_break, out);
}

void majority_scalar(const std::uint64_t* const* rows, std::size_t n,
                     std::size_t dims, const std::uint64_t* tie_break,
                     std::uint64_t* out) {
  majority_lanes<ScalarLane>(rows, n, dims, tie_break, out);
}

// Reflected Castagnoli polynomial (iSCSI, RFC 3720 appendix B.4).
constexpr std::uint32_t kCrc32cPoly = 0x82F63B78u;

constexpr std::array<std::uint32_t, 256> make_crc32c_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? kCrc32cPoly : 0u);
    }
    table[i] = crc;
  }
  return table;
}

constexpr auto kCrc32cTable = make_crc32c_table();

std::uint32_t crc32c_scalar(const void* data, std::size_t n,
                            std::uint32_t crc) {
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  for (std::size_t i = 0; i < n; ++i) {
    crc = kCrc32cTable[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

constexpr Ops kScalarOps{popcount_scalar,
                         hamming_scalar,
                         arena_matrix<ScalarArena>,
                         bundle_signed_scalar,
                         sign_pack_scalar,
                         majority_scalar,
                         crc32c_scalar};

}  // namespace

const Ops& scalar_ops() noexcept { return kScalarOps; }

}  // namespace robusthd::kernels::detail
