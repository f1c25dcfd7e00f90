#include "cloud/storage.h"

#include <utility>

namespace medsen::cloud {

void RecordStore::store(const auth::CytoCode& code, StoredRecord record) {
  append(code.to_string(),
         {record.session_id, std::move(record.encrypted_result)});
}

void RecordStore::index(std::string key, std::uint64_t session_id,
                        const FrameLocator& at) {
  append(std::move(key), {session_id, at});
}

void RecordStore::append(std::string key, Entry entry) {
  const std::uint64_t route_key = route(key);
  shards_.with(route_key, [&](Entries& entries) {
    entries[std::move(key)].push_back(std::move(entry));
  });
}

StoredRecord RecordStore::read(const std::string& key, Entry entry) const {
  if (auto* held = std::get_if<std::vector<std::uint8_t>>(&entry.report))
    return {entry.session_id, std::move(*held)};
  return {entry.session_id,
          reader_(key, entry.session_id, std::get<FrameLocator>(entry.report))};
}

std::vector<StoredRecord> RecordStore::fetch(
    const auth::CytoCode& code) const {
  const std::string key = code.to_string();
  auto entries = shards_.with(
      route(key), [&](const Entries& shard) -> std::vector<Entry> {
        const auto it = shard.find(key);
        if (it == shard.end()) return {};
        return it->second;
      });
  std::vector<StoredRecord> records;
  records.reserve(entries.size());
  for (auto& entry : entries) records.push_back(read(key, std::move(entry)));
  return records;
}

std::optional<StoredRecord> RecordStore::latest(
    const auth::CytoCode& code) const {
  const std::string key = code.to_string();
  auto entry = shards_.with(
      route(key), [&](const Entries& shard) -> std::optional<Entry> {
        const auto it = shard.find(key);
        if (it == shard.end() || it->second.empty()) return std::nullopt;
        return it->second.back();
      });
  if (!entry) return std::nullopt;
  return read(key, std::move(*entry));
}

std::size_t RecordStore::identifier_count() const {
  std::size_t total = 0;
  shards_.for_each_shard(
      [&](const Entries& entries) { total += entries.size(); });
  return total;
}

std::size_t RecordStore::record_count() const {
  std::size_t total = 0;
  shards_.for_each_shard([&](const Entries& entries) {
    for (const auto& [key, records] : entries) total += records.size();
  });
  return total;
}

void RecordStore::restore(std::string key,
                          std::vector<StoredRecord> records) {
  std::vector<Entry> held;
  held.reserve(records.size());
  for (auto& record : records)
    held.push_back({record.session_id, std::move(record.encrypted_result)});
  const std::uint64_t route_key = route(key);
  shards_.with(route_key, [&](Entries& entries) {
    entries[std::move(key)] = std::move(held);
  });
}

}  // namespace medsen::cloud
