// Runtime kernel dispatch: probe CPUID + OS vector state once, honour the
// ROBUSTHD_FORCE_SCALAR / ROBUSTHD_ISA overrides, and pin the process to
// one kernel table. Selection happens inside a function-local static, so
// it is thread-safe and costs one indirect branch after first use.

#include <cstdlib>
#include <cstring>

#include "kernels_internal.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#define ROBUSTHD_KERNELS_X86 1
#include <cpuid.h>
#endif

namespace robusthd::kernels {

namespace {

#if defined(ROBUSTHD_KERNELS_X86)

std::uint64_t read_xcr0() noexcept {
  std::uint32_t lo = 0, hi = 0;
  __asm__ __volatile__("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0));
  return (static_cast<std::uint64_t>(hi) << 32) | lo;
}

struct CpuFeatures {
  bool avx2 = false;
  bool avx512_popcnt = false;  ///< F + BW + VL + VPOPCNTDQ, OS-enabled
};

CpuFeatures probe_cpu() noexcept {
  CpuFeatures f;
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return f;
  const bool osxsave = (ecx & (1u << 27)) != 0;
  const bool avx = (ecx & (1u << 28)) != 0;
  const bool popcnt = (ecx & (1u << 23)) != 0;
  const bool sse42 = (ecx & (1u << 20)) != 0;  // crc32 in both SIMD tiers
  if (!osxsave || !avx || !popcnt || !sse42) return f;

  const std::uint64_t xcr0 = read_xcr0();
  const bool ymm_enabled = (xcr0 & 0x6) == 0x6;           // XMM + YMM
  const bool zmm_enabled = (xcr0 & 0xe6) == 0xe6;         // + opmask/ZMM/hi16

  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return f;
  const bool avx2 = (ebx & (1u << 5)) != 0;
  const bool avx512f = (ebx & (1u << 16)) != 0;
  const bool avx512bw = (ebx & (1u << 30)) != 0;
  const bool avx512vl = (ebx & (1u << 31)) != 0;
  const bool avx512vpopcntdq = (ecx & (1u << 14)) != 0;

  f.avx2 = ymm_enabled && avx2;
  f.avx512_popcnt =
      zmm_enabled && avx512f && avx512bw && avx512vl && avx512vpopcntdq;
  return f;
}

#endif  // ROBUSTHD_KERNELS_X86

bool hardware_supports(Isa isa) noexcept {
  if (isa == Isa::kScalar) return true;
#if defined(ROBUSTHD_KERNELS_X86)
  static const auto features = probe_cpu();
  switch (isa) {
    case Isa::kAvx2:
      return features.avx2 && detail::avx2_ops() != nullptr;
    case Isa::kAvx512:
      return features.avx512_popcnt && detail::avx512_ops() != nullptr;
    default:
      return true;
  }
#else
  return false;
#endif
}

/// Highest ISA the environment allows; defaults to no cap.
Isa env_cap() noexcept {
  if (const char* force = std::getenv("ROBUSTHD_FORCE_SCALAR")) {
    if (force[0] != '\0' && std::strcmp(force, "0") != 0) {
      return Isa::kScalar;
    }
  }
  if (const char* isa = std::getenv("ROBUSTHD_ISA")) {
    if (std::strcmp(isa, "scalar") == 0) return Isa::kScalar;
    if (std::strcmp(isa, "avx2") == 0) return Isa::kAvx2;
    if (std::strcmp(isa, "avx512") == 0) return Isa::kAvx512;
  }
  return Isa::kAvx512;
}

Isa select_isa() noexcept {
  const Isa cap = env_cap();
  if (cap >= Isa::kAvx512 && hardware_supports(Isa::kAvx512)) {
    return Isa::kAvx512;
  }
  if (cap >= Isa::kAvx2 && hardware_supports(Isa::kAvx2)) {
    return Isa::kAvx2;
  }
  return Isa::kScalar;
}

}  // namespace

const char* isa_name(Isa isa) noexcept {
  switch (isa) {
    case Isa::kAvx512:
      return "avx512";
    case Isa::kAvx2:
      return "avx2";
    default:
      return "scalar";
  }
}

bool isa_supported(Isa isa) noexcept { return hardware_supports(isa); }

const Ops* ops_for(Isa isa) noexcept {
  if (!hardware_supports(isa)) return nullptr;
  switch (isa) {
    case Isa::kAvx512:
      return detail::avx512_ops();
    case Isa::kAvx2:
      return detail::avx2_ops();
    default:
      return &detail::scalar_ops();
  }
}

Isa active_isa() noexcept {
  static const Isa selected = select_isa();
  return selected;
}

const Ops& ops() noexcept {
  static const Ops& table = *ops_for(active_isa());
  return table;
}

}  // namespace robusthd::kernels
