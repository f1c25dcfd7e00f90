#include "crypto/cpu_features.h"

#if MEDSEN_CRYPTO_X86
#include <cpuid.h>
#endif

namespace medsen::crypto::detail {

namespace {

CpuFeatures probe() {
  CpuFeatures features;
#if MEDSEN_CRYPTO_X86
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return features;
  const bool ssse3 = (ecx & bit_SSSE3) != 0;
  const bool sse41 = (ecx & bit_SSE4_1) != 0;
  features.aes_ni = (ecx & bit_AES) != 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) != 0)
    features.sha_ni = (ebx & bit_SHA) != 0 && ssse3 && sse41;
#endif
  return features;
}

}  // namespace

const CpuFeatures& cpu_features() {
  static const CpuFeatures features = probe();
  return features;
}

}  // namespace medsen::crypto::detail
