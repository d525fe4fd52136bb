#pragma once
// robusthd::kernels — runtime-dispatched SIMD similarity kernels.
//
// Binary HDC inference is bit-parallel by construction: every hot loop in
// this repo reduces to XOR + popcount over packed 64-bit words. This layer
// provides those loops as ISA-specialised kernels selected once per process
// (CPUID + OS state), so `hv`, `model`, `serve` and the recovery engine all
// run the fastest code the host can execute while staying bit-identical to
// the portable scalar reference:
//
//   * popcount        — set bits over a word span
//   * hamming         — popcount(a XOR b)
//   * hamming_matrix_arena
//                     — tiled queries x planes distance matrix over a
//                       PlaneSet (a model's arena), optionally under a
//                       dimension mask: a batch of queries is scored in
//                       one pass over the stored class planes instead of
//                       Q*K independent scans
//   * bundle_signed   — bipolar bundling of a packed vector into int32
//                       class counters (training's accumulate step)
//   * sign_pack       — int32 counters to packed sign bits with an
//                       optional tie-break vector (training's threshold)
//   * majority        — per-bit majority of n packed rows, folded word by
//                       word through a carry-save counter (a class's or a
//                       bundle's sign without int32 counters)
//   * crc32c          — the Castagnoli CRC behind RHD2 blobs, WAL records
//                       and wire frames
//
// Variants: portable scalar (the reference all others are tested against),
// AVX2 (Harley–Seal carry-save popcount), AVX-512 (VPOPCNTDQ); both SIMD
// tiers compute crc32c with the SSE4.2 crc32 instruction, run the two
// counter kernels 8 (AVX2) or 16 (AVX-512) dimensions per instruction, and
// the majority 256 or 512 dimensions per instruction.
// Dispatch honours two environment overrides, read once at first use:
//
//   ROBUSTHD_FORCE_SCALAR=1       force the scalar reference
//   ROBUSTHD_ISA=scalar|avx2|avx512   cap the selected ISA
//
// The layer depends on nothing above <cstdint>; hv::BinVec and the model
// layers call into it, never the other way around.

#include <cstddef>
#include <cstdint>

namespace robusthd::kernels {

/// Instruction-set tiers, ordered by preference.
enum class Isa { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// Human-readable ISA name ("scalar", "avx2", "avx512").
const char* isa_name(Isa isa) noexcept;

/// A set of stored planes in one contiguous allocation with a known,
/// constant stride — the arena-native view the mem::PlaneArena exposes.
/// Plane p occupies words [base + p*stride_words, base + p*stride_words +
/// words); the padding words up to stride_words are zero and never read.
/// tile_words is the word width of one cache tile: the arena kernels walk
/// the word dimension tile-by-tile across *all* planes, so a tile of the
/// whole plane set stays L2-resident across the query blocks instead of
/// every plane being streamed from DRAM once per block. tile_words == 0
/// means "untiled" (one tile spanning all words); integer popcount partial
/// sums make any tile split bit-identical to the untiled traversal.
struct PlaneSet {
  const std::uint64_t* base = nullptr;
  std::size_t planes = 0;
  std::size_t stride_words = 0;  ///< allocation stride, multiple of 8
  std::size_t words = 0;         ///< live words per plane (<= stride_words)
  std::size_t tile_words = 0;    ///< tile width in words; 0 = untiled

  const std::uint64_t* plane(std::size_t p) const noexcept {
    return base + p * stride_words;
  }
};

/// One resolved kernel table. All function pointers are non-null.
struct Ops {
  /// Total set bits over words[0, n).
  std::size_t (*popcount)(const std::uint64_t* words, std::size_t n);

  /// popcount(a XOR b) over n words.
  std::size_t (*hamming)(const std::uint64_t* a, const std::uint64_t* b,
                         std::size_t n);

  /// Distance matrix over an arena PlaneSet: out[q * planes.planes + p] =
  /// popcount((queries[q] XOR planes.plane(p)) AND mask) over planes.words
  /// words. A null `mask` means every dimension: whole words are counted,
  /// bits past the dimension included. Otherwise `mask` holds planes.words
  /// words; this is the quarantine primitive of the serving runtime's
  /// degradation ladder, where excluded dimension ranges (chunks a health
  /// sentinel flagged bad) are zeroed in `mask` so they stop voting —
  /// TCAM-style segment exclusion. An all-ones mask gives the null mask's
  /// result. Plane rows are reached by stride arithmetic, the word
  /// dimension is walked in L2-resident tiles across all planes (each
  /// plane tile is read once per query group, not once per query), and the
  /// next tile of each plane row is software-prefetched while the last
  /// query group consumes the current one. Integer partial sums make every
  /// tile size give the same result.
  void (*hamming_matrix_arena)(const std::uint64_t* const* queries,
                               std::size_t num_queries, const PlaneSet& planes,
                               const std::uint64_t* mask, std::uint32_t* out);

  /// Bipolar bundling into int32 counters: for i in [0, dims),
  /// counts[i] += weight where bit i of `bits` is set and counts[i] -=
  /// weight where it is clear. `bits` holds ceil(dims / 64) words; bits
  /// past dims are ignored. Counters wrap modulo 2^32 on every tier.
  void (*bundle_signed)(std::int32_t* counts, const std::uint64_t* bits,
                        std::size_t dims, std::int32_t weight);

  /// Sign threshold of int32 counters into packed bits: bit i of `out` is
  /// counts[i] > 0, and a zero count takes bit i of `tie_break` (0 when
  /// tie_break is null). Writes ceil(dims / 64) words with every bit past
  /// dims clear. `out` may alias `tie_break`.
  void (*sign_pack)(const std::int32_t* counts, std::size_t dims,
                    const std::uint64_t* tie_break, std::uint64_t* out);

  /// Per-bit majority of n rows of packed bits: bit i of `out` is set
  /// where more than half the rows set bit i, and where exactly half do
  /// (n even, n = 0 included) it takes bit i of `tie_break` (0 when
  /// tie_break is null). Each row and `tie_break` hold ceil(dims / 64)
  /// words, and only their bits below dims count. Writes ceil(dims / 64)
  /// words with every bit past dims clear; `out` may alias `tie_break`.
  /// Works word-major: each SIMD vector of words is folded through all n
  /// rows in a bit-sliced carry-save counter of max(4, ceil(log2(n + 1)))
  /// registers, so no per-dimension count is ever stored. With tie_break null this equals
  /// sign_pack of the rows' bipolar sum.
  void (*majority)(const std::uint64_t* const* rows, std::size_t n,
                   std::size_t dims, const std::uint64_t* tie_break,
                   std::uint64_t* out);

  /// CRC32C (Castagnoli, reflected polynomial 0x82F63B78) over bytes
  /// [data, data + n), continuing from `crc`: 0 starts a fresh sum, and
  /// the seed/finalise XORs live inside, so crc32c(b, crc32c(a)) ==
  /// crc32c(ab). The scalar tier is the byte-at-a-time table reference;
  /// the SIMD tiers run the SSE4.2 crc32 instruction eight bytes a step.
  /// Every tier returns the same value for every input.
  std::uint32_t (*crc32c)(const void* data, std::size_t n, std::uint32_t crc);
};

/// The kernel table for the ISA selected at first use. Thread-safe; the
/// selection is made exactly once per process.
const Ops& ops() noexcept;

/// The ISA behind ops().
Isa active_isa() noexcept;

/// True when hardware + OS can execute `isa` (kScalar is always true).
bool isa_supported(Isa isa) noexcept;

/// Kernel table for a specific ISA, or nullptr when the host cannot run
/// it (or it was compiled out). The equivalence tests iterate every tier
/// against the scalar reference through this.
const Ops* ops_for(Isa isa) noexcept;

// ---- Convenience wrappers over the active table -------------------------

inline std::size_t popcount(const std::uint64_t* words, std::size_t n) {
  return ops().popcount(words, n);
}

inline std::size_t hamming(const std::uint64_t* a, const std::uint64_t* b,
                           std::size_t n) {
  return ops().hamming(a, b, n);
}

inline void hamming_matrix_arena(const std::uint64_t* const* queries,
                                 std::size_t num_queries,
                                 const PlaneSet& planes,
                                 const std::uint64_t* mask,
                                 std::uint32_t* out) {
  ops().hamming_matrix_arena(queries, num_queries, planes, mask, out);
}

inline void hamming_matrix_arena(const std::uint64_t* const* queries,
                                 std::size_t num_queries,
                                 const PlaneSet& planes, std::uint32_t* out) {
  hamming_matrix_arena(queries, num_queries, planes, nullptr, out);
}

inline void bundle_signed(std::int32_t* counts, const std::uint64_t* bits,
                          std::size_t dims, std::int32_t weight) {
  ops().bundle_signed(counts, bits, dims, weight);
}

inline void sign_pack(const std::int32_t* counts, std::size_t dims,
                      const std::uint64_t* tie_break, std::uint64_t* out) {
  ops().sign_pack(counts, dims, tie_break, out);
}

inline void majority(const std::uint64_t* const* rows, std::size_t n,
                     std::size_t dims, const std::uint64_t* tie_break,
                     std::uint64_t* out) {
  ops().majority(rows, n, dims, tie_break, out);
}

inline std::uint32_t crc32c(const void* data, std::size_t n,
                            std::uint32_t crc) {
  return ops().crc32c(data, n, crc);
}

}  // namespace robusthd::kernels
