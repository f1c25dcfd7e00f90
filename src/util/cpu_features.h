#pragma once
// The one CPUID probe. SHA-256 and AES-128 (src/crypto) and CRC-32
// (src/compress) each run a portable kernel everywhere and, on x86-64
// CPUs that report the instructions, a hardware kernel instead. The
// probe runs once, on first use; there is no option, environment
// variable or build flag. Both kernels of a pair produce the same bytes;
// the portable one is the reference the tests call directly, on any CPU.

#if defined(__x86_64__) && defined(__GNUC__)
#define MEDSEN_X86 1
#else
#define MEDSEN_X86 0
#endif

namespace medsen::util {

struct CpuFeatures {
  bool sha_ni = false;  ///< SHA extensions + SSSE3 + SSE4.1
  bool aes_ni = false;  ///< AES-NI
  bool pclmul = false;  ///< PCLMULQDQ (carry-less multiply)
};

/// What the CPU reports, probed once. All false off x86-64.
const CpuFeatures& cpu_features();

}  // namespace medsen::util
