#pragma once
// Persistence codecs for the cloud's state: the enrollment database
// (user -> cyto-code), the record store (cyto-code -> encrypted results)
// and the device registry's keying state. Older builds framed these
// bodies in LSN-stamped, sealed compaction snapshots, which the
// durability layer (cloud/durability.h) still reads but no longer
// writes; the encoders that remain are the reference the tests pin the
// readers against. Containers carry a magic, a version and a CRC-32 so
// partial writes and corruption are rejected on load — all decode
// failures surface as the typed PersistenceError, never as UB or a
// silent partial load.

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "auth/enrollment.h"
#include "cloud/dispatch.h"
#include "cloud/persistence_error.h"
#include "cloud/storage.h"

namespace medsen::cloud {

/// Container framing: u32 magic | u32 version | u32 crc32(body) |
/// blob(body). unseal_blob verifies all three and throws
/// PersistenceError on any mismatch (including trailing bytes).
std::vector<std::uint8_t> seal_blob(std::uint32_t magic,
                                    std::vector<std::uint8_t> body);
std::vector<std::uint8_t> unseal_blob(std::uint32_t magic,
                                      std::span<const std::uint8_t> file);

/// Body codecs. Decoders are strict: truncated input, impossible counts
/// and trailing bytes all throw PersistenceError.
std::vector<std::uint8_t> encode_enrollments_body(
    const auth::EnrollmentDatabase& db);
auth::EnrollmentDatabase decode_enrollments_body(
    std::span<const std::uint8_t> body);
std::map<std::string, std::vector<StoredRecord>> decode_records_body(
    std::span<const std::uint8_t> body);
std::vector<std::uint8_t> encode_registry_body(const DeviceRegistry& registry);
RegistrySnapshot decode_registry_body(std::span<const std::uint8_t> body);

}  // namespace medsen::cloud
