#include "cloud/storage.h"

#include <utility>

namespace medsen::cloud {

void RecordStore::store(const auth::CytoCode& code, StoredRecord record) {
  const std::string key = code.to_string();
  shards_.with(route(key), [&](Entries& entries) {
    entries[key].push_back(std::move(record));
  });
}

std::vector<StoredRecord> RecordStore::fetch(
    const auth::CytoCode& code) const {
  const std::string key = code.to_string();
  return shards_.with(
      route(key), [&](const Entries& entries) -> std::vector<StoredRecord> {
        const auto it = entries.find(key);
        if (it == entries.end()) return {};
        return it->second;
      });
}

std::optional<StoredRecord> RecordStore::latest(
    const auth::CytoCode& code) const {
  const std::string key = code.to_string();
  return shards_.with(
      route(key), [&](const Entries& entries) -> std::optional<StoredRecord> {
        const auto it = entries.find(key);
        if (it == entries.end() || it->second.empty()) return std::nullopt;
        return it->second.back();
      });
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

void RecordStore::append(std::string key, StoredRecord record) {
  const std::uint64_t route_key = route(key);
  shards_.with(route_key, [&](Entries& entries) {
    entries[std::move(key)].push_back(std::move(record));
  });
}

void RecordStore::restore(std::string key,
                          std::vector<StoredRecord> records) {
  const std::uint64_t route_key = route(key);
  shards_.with(route_key, [&](Entries& entries) {
    entries[std::move(key)] = std::move(records);
  });
}

}  // namespace medsen::cloud
