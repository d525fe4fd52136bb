// Portable scalar kernels — the reference implementation every SIMD
// variant is tested bit-for-bit against. Compiled with the project's
// baseline flags only, so it runs on any x86-64 (or non-x86) host.
//
// The matrix kernels block queries (4 at a time) so a stored plane word
// is loaded once per block instead of once per query: even without
// wider registers, the blocked traversal roughly halves memory traffic on
// large batches.

#include "kernels_internal.hpp"

#include <algorithm>
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

std::size_t hamming_masked_scalar(const std::uint64_t* a,
                                  const std::uint64_t* b, std::size_t n,
                                  std::uint64_t first_mask,
                                  std::uint64_t last_mask) {
  if (n == 0) return 0;
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    total += word_popcount(masked_word(a[i] ^ b[i], i, n, first_mask,
                                       last_mask));
  }
  return total;
}

// Arena kernels: queries are blocked 4 at a time so a plane word is loaded
// once per block, plane rows come from stride arithmetic on one contiguous
// base, and the word dimension is walked tile-by-tile across all planes,
// so a tile of the whole plane set stays L2-resident across query blocks. Per-tile partial distances are integer
// sums accumulated into `out`, so any tile split is bit-identical to the
// untiled traversal.
void hamming_matrix_arena_scalar(const std::uint64_t* const* queries,
                                 std::size_t num_queries, const PlaneSet& ps,
                                 std::uint32_t* out) {
  const std::size_t np = ps.planes;
  for (std::size_t i = 0; i < num_queries * np; ++i) out[i] = 0;
  if (num_queries == 0 || np == 0 || ps.words == 0) return;
  const std::size_t tile = arena_tile_words(ps);
  for (std::size_t t0 = 0; t0 < ps.words; t0 += tile) {
    const std::size_t tw = std::min(tile, ps.words - t0);
    const bool has_next = t0 + tw < ps.words;
    std::size_t q = 0;
    for (; q + 4 <= num_queries; q += 4) {
      const bool last_block = q + 8 > num_queries;
      const std::uint64_t* q0 = queries[q + 0] + t0;
      const std::uint64_t* q1 = queries[q + 1] + t0;
      const std::uint64_t* q2 = queries[q + 2] + t0;
      const std::uint64_t* q3 = queries[q + 3] + t0;
      for (std::size_t p = 0; p < np; ++p) {
        const std::uint64_t* plane = ps.base + p * ps.stride_words + t0;
        if (last_block && has_next) {
          prefetch_words(plane + tw, std::min(tile, ps.words - t0 - tw));
        }
        std::size_t d0 = 0, d1 = 0, d2 = 0, d3 = 0;
        for (std::size_t w = 0; w < tw; ++w) {
          const std::uint64_t pw = plane[w];
          d0 += word_popcount(q0[w] ^ pw);
          d1 += word_popcount(q1[w] ^ pw);
          d2 += word_popcount(q2[w] ^ pw);
          d3 += word_popcount(q3[w] ^ pw);
        }
        out[(q + 0) * np + p] += static_cast<std::uint32_t>(d0);
        out[(q + 1) * np + p] += static_cast<std::uint32_t>(d1);
        out[(q + 2) * np + p] += static_cast<std::uint32_t>(d2);
        out[(q + 3) * np + p] += static_cast<std::uint32_t>(d3);
      }
    }
    for (; q < num_queries; ++q) {
      const std::uint64_t* qw = queries[q] + t0;
      for (std::size_t p = 0; p < np; ++p) {
        const std::uint64_t* plane = ps.base + p * ps.stride_words + t0;
        out[q * np + p] +=
            static_cast<std::uint32_t>(hamming_scalar(qw, plane, tw));
      }
    }
  }
}

void hamming_matrix_arena_masked_scalar(const std::uint64_t* const* queries,
                                        std::size_t num_queries,
                                        const PlaneSet& ps,
                                        const std::uint64_t* mask,
                                        std::uint32_t* out) {
  const std::size_t np = ps.planes;
  for (std::size_t i = 0; i < num_queries * np; ++i) out[i] = 0;
  if (num_queries == 0 || np == 0 || ps.words == 0) return;
  const std::size_t tile = arena_tile_words(ps);
  for (std::size_t t0 = 0; t0 < ps.words; t0 += tile) {
    const std::size_t tw = std::min(tile, ps.words - t0);
    const bool has_next = t0 + tw < ps.words;
    const std::uint64_t* mw_base = mask + t0;
    std::size_t q = 0;
    for (; q + 4 <= num_queries; q += 4) {
      const bool last_block = q + 8 > num_queries;
      const std::uint64_t* q0 = queries[q + 0] + t0;
      const std::uint64_t* q1 = queries[q + 1] + t0;
      const std::uint64_t* q2 = queries[q + 2] + t0;
      const std::uint64_t* q3 = queries[q + 3] + t0;
      for (std::size_t p = 0; p < np; ++p) {
        const std::uint64_t* plane = ps.base + p * ps.stride_words + t0;
        if (last_block && has_next) {
          prefetch_words(plane + tw, std::min(tile, ps.words - t0 - tw));
        }
        std::size_t d0 = 0, d1 = 0, d2 = 0, d3 = 0;
        for (std::size_t w = 0; w < tw; ++w) {
          const std::uint64_t pw = plane[w];
          const std::uint64_t mw = mw_base[w];
          d0 += word_popcount((q0[w] ^ pw) & mw);
          d1 += word_popcount((q1[w] ^ pw) & mw);
          d2 += word_popcount((q2[w] ^ pw) & mw);
          d3 += word_popcount((q3[w] ^ pw) & mw);
        }
        out[(q + 0) * np + p] += static_cast<std::uint32_t>(d0);
        out[(q + 1) * np + p] += static_cast<std::uint32_t>(d1);
        out[(q + 2) * np + p] += static_cast<std::uint32_t>(d2);
        out[(q + 3) * np + p] += static_cast<std::uint32_t>(d3);
      }
    }
    for (; q < num_queries; ++q) {
      const std::uint64_t* qw = queries[q] + t0;
      for (std::size_t p = 0; p < np; ++p) {
        const std::uint64_t* plane = ps.base + p * ps.stride_words + t0;
        std::size_t d = 0;
        for (std::size_t w = 0; w < tw; ++w) {
          d += word_popcount((qw[w] ^ plane[w]) & mw_base[w]);
        }
        out[q * np + p] += static_cast<std::uint32_t>(d);
      }
    }
  }
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
                         hamming_masked_scalar,
                         hamming_matrix_arena_scalar,
                         hamming_matrix_arena_masked_scalar,
                         bundle_signed_scalar,
                         sign_pack_scalar,
                         majority_scalar,
                         crc32c_scalar};

}  // namespace

const Ops& scalar_ops() noexcept { return kScalarOps; }

}  // namespace robusthd::kernels::detail
