#pragma once
// CRC-32 (IEEE 802.3 polynomial, the zlib/zip variant). Guards compressed
// containers, network frames and journal records against corruption.

#include <cstdint>
#include <span>

#include "util/cpu_features.h"

namespace medsen::compress {

/// CRC-32 of a buffer (init 0xFFFFFFFF, reflected, final XOR).
std::uint32_t crc32(std::span<const std::uint8_t> data);

/// Incremental form: pass the previous return value as `state` (start with
/// crc32_init()) and finish with crc32_final().
std::uint32_t crc32_init();
std::uint32_t crc32_update(std::uint32_t state,
                           std::span<const std::uint8_t> data);
std::uint32_t crc32_final(std::uint32_t state);

namespace detail {

// The kernels crc32_update() chooses between with util::cpu_features().
// Both take and return the same state, on any length and alignment.

/// Slicing-by-8: eight table lookups per eight bytes. The reference the
/// tests call directly, on any CPU, and the hardware kernel's tail.
std::uint32_t crc32_update_portable(std::uint32_t state,
                                    std::span<const std::uint8_t> data);

#if MEDSEN_X86
/// Carry-less multiplication: folds 64 bytes per step in four 128-bit
/// lanes with PCLMULQDQ. Call it only when util::cpu_features().pclmul;
/// it faults with an illegal instruction otherwise.
std::uint32_t crc32_update_clmul(std::uint32_t state,
                                 std::span<const std::uint8_t> data);
#endif

}  // namespace detail

}  // namespace medsen::compress
