#include "cloud/persistence.h"

#include <utility>

#include "compress/crc32.h"
#include "util/serialize.h"

namespace medsen::cloud {

namespace {

constexpr std::uint32_t kVersion = 1;

void write_alphabet(util::ByteWriter& out, const auth::CytoAlphabet& a) {
  out.u32(static_cast<std::uint32_t>(a.bead_types.size()));
  for (auto type : a.bead_types) out.u8(static_cast<std::uint8_t>(type));
  out.f64_vec(a.concentration_levels_per_ul);
}

auth::CytoAlphabet read_alphabet(util::ByteReader& in) {
  auth::CytoAlphabet a;
  const std::uint32_t types = in.count_u32(1);
  a.bead_types.clear();
  for (std::uint32_t i = 0; i < types; ++i)
    a.bead_types.push_back(static_cast<sim::ParticleType>(in.u8()));
  a.concentration_levels_per_ul = in.f64_vec();
  return a;
}

}  // namespace

std::vector<std::uint8_t> seal_blob(std::uint32_t magic,
                                    std::vector<std::uint8_t> body) {
  util::ByteWriter out;
  out.u32(magic);
  out.u32(kVersion);
  out.u32(compress::crc32(body));
  out.blob(body);
  return out.take();
}

std::vector<std::uint8_t> unseal_blob(std::uint32_t magic,
                                      std::span<const std::uint8_t> file) {
  return decode_guard("unseal", [&] {
    util::ByteReader in(file);
    if (in.u32() != magic) throw PersistenceError("persistence: bad magic");
    if (in.u32() != kVersion)
      throw PersistenceError("persistence: unsupported version");
    const std::uint32_t crc = in.u32();
    auto body = in.blob();
    if (compress::crc32(body) != crc)
      throw PersistenceError("persistence: CRC mismatch");
    in.expect_done("unseal");
    return body;
  });
}

std::vector<std::uint8_t> encode_enrollments_body(
    const auth::EnrollmentDatabase& db) {
  util::ByteWriter body;
  write_alphabet(body, db.alphabet());
  const auto records = db.records();
  body.u32(static_cast<std::uint32_t>(records.size()));
  for (const auto& record : records) {
    body.str(record.user_id);
    body.blob(auth::serialize_code(record.code));
  }
  return body.take();
}

auth::EnrollmentDatabase decode_enrollments_body(
    std::span<const std::uint8_t> body) {
  return decode_guard("decode_enrollments_body", [&] {
    util::ByteReader in(body);
    auth::EnrollmentDatabase db(read_alphabet(in));
    const std::uint32_t count = in.count_u32(4 + 4);
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::string user = in.str();
      const auto code = auth::deserialize_code(in.blob());
      db.enroll(user, code);
    }
    in.expect_done("decode_enrollments_body");
    return db;
  });
}

std::map<std::string, std::vector<StoredRecord>> decode_records_body(
    std::span<const std::uint8_t> body) {
  return decode_guard("decode_records_body", [&] {
    util::ByteReader in(body);
    std::map<std::string, std::vector<StoredRecord>> entries;
    const std::uint32_t identifiers = in.count_u32(4 + 4);
    for (std::uint32_t i = 0; i < identifiers; ++i) {
      const std::string key = in.str();
      const std::uint32_t count = in.count_u32(8 + 4);
      std::vector<StoredRecord> records;
      records.reserve(count);
      for (std::uint32_t k = 0; k < count; ++k) {
        StoredRecord record;
        record.session_id = in.u64();
        record.encrypted_result = in.blob();
        records.push_back(std::move(record));
      }
      entries[key] = std::move(records);
    }
    in.expect_done("decode_records_body");
    return entries;
  });
}

std::vector<std::uint8_t> encode_registry_body(
    const DeviceRegistry& registry) {
  // snapshot() hands back fully sorted collections, so this body is
  // byte-identical across runs whatever the hash tables did.
  const RegistrySnapshot snap = registry.snapshot();
  util::ByteWriter body;
  body.u32(static_cast<std::uint32_t>(snap.masters.size()));
  for (const auto& [epoch, key] : snap.masters) {
    body.u32(epoch);
    body.blob(key);
  }
  body.u32(snap.current_epoch);
  body.u32(static_cast<std::uint32_t>(snap.enrolled.size()));
  for (const std::uint64_t id : snap.enrolled) body.u64(id);
  body.u32(static_cast<std::uint32_t>(snap.revoked.size()));
  for (const std::uint64_t id : snap.revoked) body.u64(id);
  return body.take();
}

RegistrySnapshot decode_registry_body(std::span<const std::uint8_t> body) {
  return decode_guard("decode_registry_body", [&] {
    util::ByteReader in(body);
    RegistrySnapshot snap;
    const std::uint32_t masters = in.count_u32(4 + 4);
    for (std::uint32_t i = 0; i < masters; ++i) {
      const std::uint32_t epoch = in.u32();
      snap.masters.emplace_back(epoch, in.blob());
    }
    snap.current_epoch = in.u32();
    const std::uint32_t enrolled = in.count_u32(8);
    for (std::uint32_t i = 0; i < enrolled; ++i)
      snap.enrolled.push_back(in.u64());
    const std::uint32_t revoked = in.count_u32(8);
    for (std::uint32_t i = 0; i < revoked; ++i)
      snap.revoked.push_back(in.u64());
    in.expect_done("decode_registry_body");
    return snap;
  });
}

}  // namespace medsen::cloud
