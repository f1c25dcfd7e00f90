#include "cloud/session_auth.h"

#include <utility>

namespace medsen::cloud {

void SessionAuthTable::establish(std::uint64_t device_id,
                                 std::uint64_t session_id,
                                 std::vector<std::uint8_t> mac_key) {
  shards_.with(device_id, [&](Shard& shard) {
    DeviceSessionState& state = shard.sessions[device_id];
    state = DeviceSessionState{};  // re-key: the old key wipes here
    state.session_id = session_id;
    state.mac_key = util::SecretBytes(std::move(mac_key));  // wipes source
  });
}

std::optional<util::SecretBytes> SessionAuthTable::session_key(
    std::uint64_t device_id, std::uint64_t session_id) const {
  return shards_.with(
      device_id,
      [&](const Shard& shard) -> std::optional<util::SecretBytes> {
        const auto it = shard.sessions.find(device_id);
        if (it == shard.sessions.end() || it->second.session_id != session_id)
          return std::nullopt;
        return it->second.mac_key;
      });
}

CounterStatus SessionAuthTable::classify(std::uint64_t device_id,
                                         std::uint64_t session_id,
                                         std::uint32_t counter) const {
  return shards_.with(device_id, [&](const Shard& shard) {
    const auto it = shard.sessions.find(device_id);
    if (it == shard.sessions.end() || it->second.session_id != session_id)
      return CounterStatus::kNoSession;
    const DeviceSessionState& s = it->second;
    if (counter == 0) return CounterStatus::kStale;  // 0 is the legacy plane
    if (counter > s.highest) return CounterStatus::kFresh;
    const std::uint32_t age = s.highest - counter;
    if (age >= kWindowSize) return CounterStatus::kStale;
    // Bit 0 is `highest` itself, which commit() always sets.
    return ((s.window >> age) & 1u) != 0 ? CounterStatus::kReplay
                                         : CounterStatus::kFresh;
  });
}

void SessionAuthTable::commit(std::uint64_t device_id,
                              std::uint64_t session_id,
                              std::uint32_t counter) {
  shards_.with(device_id, [&](Shard& shard) {
    const auto it = shard.sessions.find(device_id);
    if (it == shard.sessions.end() || it->second.session_id != session_id)
      return;
    DeviceSessionState& s = it->second;
    if (counter > s.highest) {
      const std::uint32_t advance = counter - s.highest;
      s.window = advance >= kWindowSize ? 0 : s.window << advance;
      s.window |= 1u;  // the new highest is seen
      s.highest = counter;
    } else {
      const std::uint32_t age = s.highest - counter;
      if (age < kWindowSize) s.window |= std::uint64_t{1} << age;
    }
  });
}

void SessionAuthTable::drop(std::uint64_t device_id) {
  shards_.with(device_id,
               [&](Shard& shard) { shard.sessions.erase(device_id); });
}

void SessionAuthTable::drop_all() {
  shards_.for_each_shard([](Shard& shard) { shard.sessions.clear(); });
}

std::size_t SessionAuthTable::active_sessions() const {
  std::size_t total = 0;
  shards_.for_each_shard(
      [&](const Shard& shard) { total += shard.sessions.size(); });
  return total;
}

}  // namespace medsen::cloud
