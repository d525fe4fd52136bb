#pragma once
// CRC32C (Castagnoli) — the integrity primitive behind the RHD2 model
// store and any other stored-bits checking in the repo.
//
// Why CRC32C and not a hash: the threat model for *storage* faults is the
// same as for the in-memory attacks — bit flips — and a 32-bit CRC
// detects every 1- and 2-bit error over any realistic blob length, every
// burst up to 32 bits, and misses a random multi-bit corruption with
// probability 2^-32. That is exactly the guarantee the serialization
// round-trip experiment measures (bench/storage_integrity). It is also
// the polynomial with hardware support everywhere (SSE4.2 crc32, ARMv8
// CRC extension).
//
// The sum is computed by the dispatched kernel table (kernels::Ops::
// crc32c): the byte-at-a-time table on the scalar tier, the SSE4.2 crc32
// instruction on the AVX2 and AVX-512 tiers. Both produce the same
// values, so stored blobs, WAL records and wire frames are byte-identical
// whichever tier wrote or checks them.

#include <cstddef>
#include <cstdint>
#include <span>

#include "robusthd/kernels/kernels.hpp"

namespace robusthd::util {

/// CRC32C over `data`, continuing from `crc` (pass the previous call's
/// return value to checksum a blob in sections; 0 starts a fresh sum).
/// The seed/finalise XORs live inside, so partial sums compose simply:
/// crc32c(b, crc32c(a)) == crc32c(ab).
inline std::uint32_t crc32c(std::span<const std::byte> data,
                            std::uint32_t crc = 0) noexcept {
  return kernels::crc32c(data.data(), data.size(), crc);
}

/// Raw-pointer convenience for headers and word buffers.
inline std::uint32_t crc32c(const void* data, std::size_t size,
                            std::uint32_t crc = 0) noexcept {
  return kernels::crc32c(data, size, crc);
}

}  // namespace robusthd::util
