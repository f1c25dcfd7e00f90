#include "cloud/dispatch.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "crypto/cmac.h"

namespace medsen::cloud {

DeviceRegistry::DeviceRegistry(std::size_t shards, std::size_t cache_capacity)
    : shards_(shards), masters_(1) {
  const std::size_t per_shard = cache_capacity / shards_.shard_count();
  per_shard_capacity_ =
      cache_capacity == 0 ? 0 : std::max<std::size_t>(per_shard, 1);
}

bool DeviceRegistry::revoke(std::uint64_t device_id) {
  return shards_.with(device_id, [&](Shard& shard) {
    DeviceRecord* record = find(shard, device_id);
    if (record == nullptr || !record->enrolled) return false;
    if (record->session != nullptr)
      retire(shard, device_id, record->session->id, record->session->highest,
             record->session->window);
    *record = DeviceRecord{};  // the session key wipes here
    record->revoked = true;
    return true;
  });
}

void DeviceRegistry::enroll(std::uint64_t device_id) {
  shards_.with(device_id, [&](Shard& shard) {
    DeviceRecord& record = shard.devices[device_id];
    record.enrolled = true;
    record.revoked = false;
  });
}

bool DeviceRegistry::is_revoked(std::uint64_t device_id) const {
  return resolve(device_id, 0).revoked;
}

std::optional<util::SecretBytes> DeviceRegistry::lookup(
    std::uint64_t device_id) const {
  if (!resolve(device_id, 0).enrolled) return std::nullopt;
  return derive_key(device_id);
}

std::optional<util::SecretBytes> DeviceRegistry::lookup_epoch(
    std::uint64_t device_id, std::uint32_t key_epoch) const {
  if (!resolve(device_id, 0).enrolled) return std::nullopt;
  return derive_key(device_id, key_epoch);
}

std::optional<util::SecretBytes> DeviceRegistry::derive_key(
    std::uint64_t device_id, std::optional<std::uint32_t> key_epoch) const {
  std::uint32_t epoch = 0;
  const auto master = masters_.with(
      0, [&](const MasterState& m) -> std::optional<util::SecretBytes> {
        epoch = key_epoch.value_or(m.current_epoch);
        const auto it = m.by_epoch.find(epoch);
        if (it == m.by_epoch.end()) return std::nullopt;
        return it->second;
      });
  if (!master.has_value()) return std::nullopt;
  // Derivation runs outside every lock: CMAC cost must never extend a
  // shard's critical section. Adoption wipes the KDF's working vector.
  return util::SecretBytes(
      crypto::diversify_device_key(*master, device_id, epoch));
}

void DeviceRegistry::set_master_key(std::uint32_t epoch,
                                    std::vector<std::uint8_t> master) {
  masters_.with(0, [&](MasterState& m) {
    m.by_epoch[epoch] = util::SecretBytes(std::move(master));
    m.current_epoch = epoch;
  });
}

bool DeviceRegistry::retire_epoch(std::uint32_t epoch) {
  return masters_.with(0, [&](MasterState& m) {
    return m.by_epoch.erase(epoch) > 0;
  });
}

std::uint32_t DeviceRegistry::current_epoch() const {
  return masters_.with(0, [&](const MasterState& m) {
    return m.current_epoch;
  });
}

bool DeviceRegistry::has_epoch(std::uint32_t epoch) const {
  return masters_.with(0, [&](const MasterState& m) {
    return m.by_epoch.find(epoch) != m.by_epoch.end();
  });
}

std::size_t DeviceRegistry::size() const {
  std::size_t total = 0;
  shards_.for_each_shard([&](const Shard& shard) {
    for (const auto& [id, record] : shard.devices) total += record.enrolled;
  });
  return total;
}

RegistrySnapshot DeviceRegistry::snapshot() const {
  RegistrySnapshot snap;
  shards_.for_each_shard([&](const Shard& shard) {
    for (const auto& [id, record] : shard.devices) {
      if (record.enrolled) snap.enrolled.push_back(id);
      if (record.revoked) snap.revoked.push_back(id);
    }
  });
  masters_.with(0, [&](const MasterState& m) {
    for (const auto& [epoch, key] : m.by_epoch)
      snap.masters.emplace_back(
          epoch, std::vector<std::uint8_t>(key.data(), key.data() + key.size()));
    snap.current_epoch = m.current_epoch;
  });
  // Sort everything: snapshots feed serialization, which must be
  // byte-identical across runs regardless of hash-table iteration order.
  std::sort(snap.masters.begin(), snap.masters.end());
  std::sort(snap.enrolled.begin(), snap.enrolled.end());
  std::sort(snap.revoked.begin(), snap.revoked.end());
  return snap;
}

void DeviceRegistry::restore(const RegistrySnapshot& snapshot) {
  shards_.for_each_shard([](Shard& shard) {
    retire_sessions(shard);
    shard.devices.clear();
  });
  for (const std::uint64_t id : snapshot.enrolled)
    shards_.with(id, [&](Shard& s) { s.devices[id].enrolled = true; });
  for (const std::uint64_t id : snapshot.revoked)
    shards_.with(id, [&](Shard& s) { s.devices[id].revoked = true; });
  masters_.with(0, [&](MasterState& m) {
    m = MasterState{};
    for (const auto& [epoch, key] : snapshot.masters)
      m.by_epoch[epoch] = util::SecretBytes(std::span<const std::uint8_t>(key));
    m.current_epoch = snapshot.current_epoch;
  });
}

bool DeviceRegistry::Session::fresh(std::uint32_t counter) const {
  if (counter == 0) return false;  // 0 is never a session counter
  if (counter > highest) return true;
  const std::uint32_t age = highest - counter;
  // Bit 0 is `highest` itself, which burn() always sets.
  return age < kWindowSize && ((window >> age) & 1u) == 0;
}

std::uint64_t DeviceRegistry::Session::burn(std::uint32_t counter) {
  if (counter > highest) {
    const std::uint32_t advance = counter - highest;
    // Bit i moves to age i + advance: the top `advance` bits slide out.
    const std::uint64_t out = advance >= kWindowSize
                                  ? window
                                  : window & ~(~std::uint64_t{0} >> advance);
    window = advance >= kWindowSize ? 0 : window << advance;
    window |= 1u;  // the new highest is seen
    highest = counter;
    return out;
  }
  if (highest - counter < kWindowSize)
    window |= std::uint64_t{1} << (highest - counter);
  return 0;
}

std::optional<util::SecretBytes> DeviceRegistry::session_key(
    std::uint64_t device_id, std::uint64_t session_id) const {
  return resolve(device_id, session_id).session_key;
}

void DeviceRegistry::drop_sessions() {
  shards_.for_each_shard([](Shard& shard) {
    retire_sessions(shard);
    for (auto& [id, record] : shard.devices) record.session.reset();
  });
}

std::size_t DeviceRegistry::active_sessions() const {
  std::size_t total = 0;
  shards_.for_each_shard([&](const Shard& shard) {
    for (const auto& [id, record] : shard.devices)
      total += record.session != nullptr;
  });
  return total;
}

DeviceStatus DeviceRegistry::resolve(std::uint64_t device_id,
                                     std::uint64_t session_id) const {
  return shards_.with(device_id, [&](const Shard& shard) {
    DeviceStatus status;
    const DeviceRecord* record = find(shard, device_id);
    if (record == nullptr) return status;
    status.revoked = record->revoked;
    status.enrolled = record->enrolled && !record->revoked;
    if (record->live(session_id))
      status.session_key = record->session->mac_key;
    return status;
  });
}

Reservation DeviceRegistry::reserve(const net::Envelope& request,
                                    bool session_plane) {
  const SlotKey key{request.device_id, request.session_id, request.counter};
  return shards_.with(request.device_id, [&](Shard& shard) {
    Reservation out;
    if (const auto it = shard.slots.find(key); it != shard.slots.end()) {
      const Exchange& exchange = *it->second;
      if (!crypto::digest_equal(exchange.request_mac, request.mac)) {
        out.state = SlotState::kConflict;
      } else if (exchange.pending) {
        out.state = SlotState::kInFlight;
      } else {
        // Touch: an exchange the transport is actively retrying must
        // outlive colder entries.
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        out.state = SlotState::kReplay;
        out.response = exchange.response;
        ++shard.counts.replays_served;
        return out;
      }
      ++shard.counts.errors_returned;
      return out;
    }
    const DeviceRecord* record = find(shard, request.device_id);
    if (session_plane &&
        (record == nullptr || !record->live(request.session_id) ||
         !record->session->fresh(request.counter))) {
      out.state = SlotState::kStale;
      ++shard.counts.counter_rejections;
      ++shard.counts.errors_returned;
      return out;
    }
    shard.lru.push_front(Exchange{key, request.mac, true, {}});
    shard.slots.emplace(key, shard.lru.begin());
    return out;
  });
}

void DeviceRegistry::complete(const net::Envelope& request,
                              const net::Envelope& response,
                              bool session_plane, double processing_time_s,
                              std::optional<util::SecretBytes> new_session) {
  const SlotKey key{request.device_id, request.session_id, request.counter};
  auto session = new_session ? std::make_unique<Session>(Session{
                                  request.session_id, std::move(*new_session)})
                            : nullptr;
  shards_.with(request.device_id, [&](Shard& shard) {
    ++shard.counts.requests_processed;
    shard.counts.processing_time_s += processing_time_s;
    DeviceRecord* record = find(shard, request.device_id);
    bool cache = true;
    if (session != nullptr) {
      ++shard.counts.handshakes_completed;
      // A revocation that raced the handshake must not leave a session.
      if (record != nullptr && record->enrolled) {
        if (const Session* old = record->session.get())
          retire(shard, request.device_id, old->id, old->highest, old->window);
        record->session = std::move(session);
      }
    } else if (session_plane) {
      // Only the live session's window: a re-key, revocation or window
      // slide racing a slow command leaves nothing to cache or burn.
      Session* live = record != nullptr && record->live(request.session_id)
                          ? record->session.get()
                          : nullptr;
      cache = live != nullptr && live->in_window(request.counter);
      if (cache) {
        const std::uint32_t top = live->highest;  // before burn() moves it
        retire(shard, request.device_id, live->id, top,
               live->burn(request.counter));
      }
    }
    const auto slot = shard.slots.find(key);
    if (slot == shard.slots.end() || !slot->second->pending) return;
    if (!cache) {
      shard.lru.erase(slot->second);
      shard.slots.erase(slot);
      return;
    }
    slot->second->pending = false;
    slot->second->response = response;
    shard.lru.splice(shard.lru.begin(), shard.lru, slot->second);
    ++shard.filled;
    evict(shard);
  });
}

void DeviceRegistry::release(const net::Envelope& request) {
  const SlotKey key{request.device_id, request.session_id, request.counter};
  shards_.with(request.device_id, [&](Shard& shard) {
    if (const auto it = shard.slots.find(key); it != shard.slots.end()) {
      shard.lru.erase(it->second);
      shard.slots.erase(it);
    }
    ++shard.counts.errors_returned;
  });
}

void DeviceRegistry::count_error(std::uint64_t device_id, bool shed) {
  shards_.with(device_id, [&](Shard& shard) {
    ++shard.counts.errors_returned;
    shard.counts.requests_shed += shed;
  });
}

void DeviceRegistry::evict(Shard& shard) const {
  if (per_shard_capacity_ == 0) return;
  // Walk from the cold end; a pending slot is a live reservation and
  // stays until its request completes.
  auto it = shard.lru.end();
  while (shard.filled > per_shard_capacity_ && it != shard.lru.begin()) {
    --it;
    if (it->pending) continue;
    shard.slots.erase(it->key);
    it = shard.lru.erase(it);
    --shard.filled;
    ++shard.evictions;
  }
}

void DeviceRegistry::retire(Shard& shard, std::uint64_t device_id,
                            std::uint64_t session_id, std::uint32_t top,
                            std::uint64_t ages) {
  for (; ages != 0; ages &= ages - 1) {
    const auto age = static_cast<std::uint32_t>(std::countr_zero(ages));
    const auto it = shard.slots.find({device_id, session_id, top - age});
    if (it == shard.slots.end() || it->second->pending) continue;
    shard.lru.erase(it->second);
    shard.slots.erase(it);
    --shard.filled;
  }
}

void DeviceRegistry::retire_sessions(Shard& shard) {
  for (auto it = shard.lru.begin(); it != shard.lru.end();) {
    if (it->pending || std::get<2>(it->key) == 0) {
      ++it;
      continue;
    }
    shard.slots.erase(it->key);
    it = shard.lru.erase(it);
    --shard.filled;
  }
}

ServiceStats DeviceRegistry::stats() const {
  ServiceStats total;
  shards_.for_each_shard([&](const Shard& shard) {
    const ServiceStats& s = shard.counts;
    total.requests_processed += s.requests_processed;
    total.replays_served += s.replays_served;
    total.errors_returned += s.errors_returned;
    total.requests_shed += s.requests_shed;
    total.handshakes_completed += s.handshakes_completed;
    total.counter_rejections += s.counter_rejections;
    total.processing_time_s += s.processing_time_s;
  });
  return total;
}

std::size_t DeviceRegistry::cache_size() const {
  std::size_t total = 0;
  shards_.for_each_shard(
      [&](const Shard& shard) { total += shard.slots.size(); });
  return total;
}

std::uint64_t DeviceRegistry::evictions() const {
  std::uint64_t total = 0;
  shards_.for_each_shard(
      [&](const Shard& shard) { total += shard.evictions; });
  return total;
}

AdmissionGate::Ticket::Ticket(Ticket&& other) noexcept
    : gate_(std::exchange(other.gate_, nullptr)) {}

AdmissionGate::Ticket& AdmissionGate::Ticket::operator=(
    Ticket&& other) noexcept {
  if (this != &other) {
    release();
    gate_ = std::exchange(other.gate_, nullptr);
  }
  return *this;
}

void AdmissionGate::Ticket::release() {
  if (gate_ == nullptr) return;
  gate_->in_flight_.fetch_sub(1, std::memory_order_release);
  gate_ = nullptr;
}

AdmissionGate::Ticket AdmissionGate::try_enter() {
  const std::size_t prior = in_flight_.fetch_add(1, std::memory_order_acquire);
  if (limit_ != 0 && prior >= limit_) {
    // Back out: the transient overshoot is invisible to correctness —
    // no ticket was issued, and concurrent try_enter() calls that lose
    // the race shed exactly as the mutex version did.
    in_flight_.fetch_sub(1, std::memory_order_release);
    shed_.fetch_add(1, std::memory_order_relaxed);
    return Ticket(nullptr);
  }
  return Ticket(this);
}

std::size_t AdmissionGate::in_flight() const {
  return in_flight_.load(std::memory_order_acquire);
}

std::uint64_t AdmissionGate::shed_total() const {
  return shed_.load(std::memory_order_relaxed);
}

ServiceResult ServiceResult::success(net::MessageType type,
                                     std::vector<std::uint8_t> payload) {
  ServiceResult result;
  result.ok = true;
  result.response_type = type;
  result.response_payload = std::move(payload);
  return result;
}

ServiceResult ServiceResult::failure(
    net::ErrorCode code, std::string detail, std::uint8_t subcode,
    std::vector<std::uint8_t> channel_reasons) {
  ServiceResult result;
  result.ok = false;
  result.error = code;
  result.error_subcode = subcode;
  result.detail = std::move(detail);
  result.error_channel_reasons = std::move(channel_reasons);
  return result;
}

}  // namespace medsen::cloud
