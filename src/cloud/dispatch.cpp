#include "cloud/dispatch.h"

#include <algorithm>
#include <utility>

#include "crypto/cmac.h"

namespace medsen::cloud {

bool DeviceRegistry::revoke(std::uint64_t device_id) {
  return shards_.with(device_id, [&](DeviceShard& shard) {
    const bool known = shard.enrolled.erase(device_id) > 0;
    if (known) shard.revoked.insert(device_id);
    return known;
  });
}

void DeviceRegistry::enroll(std::uint64_t device_id) {
  shards_.with(device_id, [&](DeviceShard& shard) {
    shard.enrolled.insert(device_id);
    shard.revoked.erase(device_id);
  });
}

bool DeviceRegistry::is_revoked(std::uint64_t device_id) const {
  return shards_.with(device_id, [&](const DeviceShard& shard) {
    return shard.revoked.find(device_id) != shard.revoked.end();
  });
}

std::optional<util::SecretBytes> DeviceRegistry::lookup(
    std::uint64_t device_id) const {
  return lookup_epoch(device_id, current_epoch());
}

std::optional<util::SecretBytes> DeviceRegistry::lookup_epoch(
    std::uint64_t device_id, std::uint32_t key_epoch) const {
  const bool derivable = shards_.with(device_id, [&](const DeviceShard& s) {
    return s.revoked.find(device_id) == s.revoked.end() &&
           s.enrolled.find(device_id) != s.enrolled.end();
  });
  if (!derivable) return std::nullopt;
  const auto master = masters_.with(
      0, [&](const MasterState& m) -> std::optional<util::SecretBytes> {
        const auto it = m.by_epoch.find(key_epoch);
        if (it == m.by_epoch.end()) return std::nullopt;
        return it->second;
      });
  if (!master.has_value()) return std::nullopt;
  // Derivation runs outside every lock: CMAC cost must never extend a
  // shard's critical section. Adoption wipes the KDF's working vector.
  return util::SecretBytes(
      crypto::diversify_device_key(*master, device_id, key_epoch));
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
  shards_.for_each_shard(
      [&](const DeviceShard& shard) { total += shard.enrolled.size(); });
  return total;
}

RegistrySnapshot DeviceRegistry::snapshot() const {
  RegistrySnapshot snap;
  shards_.for_each_shard([&](const DeviceShard& shard) {
    snap.enrolled.insert(snap.enrolled.end(), shard.enrolled.begin(),
                         shard.enrolled.end());
    snap.revoked.insert(snap.revoked.end(), shard.revoked.begin(),
                        shard.revoked.end());
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
  shards_.for_each_shard([&](DeviceShard& shard) { shard = DeviceShard{}; });
  for (const std::uint64_t id : snapshot.enrolled)
    shards_.with(id, [&](DeviceShard& s) { s.enrolled.insert(id); });
  for (const std::uint64_t id : snapshot.revoked)
    shards_.with(id, [&](DeviceShard& s) { s.revoked.insert(id); });
  masters_.with(0, [&](MasterState& m) {
    m = MasterState{};
    for (const auto& [epoch, key] : snapshot.masters)
      m.by_epoch[epoch] = util::SecretBytes(std::span<const std::uint8_t>(key));
    m.current_epoch = snapshot.current_epoch;
  });
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

ServiceCounters::ServiceCounters(std::size_t shards)
    : count_(shards == 0 ? util::default_shard_count()
                         : util::round_up_pow2(shards)),
      shards_(std::make_unique<Shard[]>(count_)) {}

void ServiceCounters::count_processed(std::uint64_t device_id,
                                      double processing_time_s) {
  Shard& shard = shard_for(device_id);
  shard.requests_processed.fetch_add(1, std::memory_order_relaxed);
  shard.processing_time_ns.fetch_add(
      static_cast<std::uint64_t>(processing_time_s * 1e9),
      std::memory_order_relaxed);
}

void ServiceCounters::count_replay(std::uint64_t device_id) {
  shard_for(device_id).replays_served.fetch_add(1, std::memory_order_relaxed);
}

void ServiceCounters::count_error(std::uint64_t device_id) {
  shard_for(device_id).errors_returned.fetch_add(1, std::memory_order_relaxed);
}

void ServiceCounters::count_shed(std::uint64_t device_id) {
  shard_for(device_id).requests_shed.fetch_add(1, std::memory_order_relaxed);
}

void ServiceCounters::count_handshake(std::uint64_t device_id) {
  shard_for(device_id).handshakes_completed.fetch_add(
      1, std::memory_order_relaxed);
}

void ServiceCounters::count_counter_rejection(std::uint64_t device_id) {
  shard_for(device_id).counter_rejections.fetch_add(
      1, std::memory_order_relaxed);
}

ServiceStats ServiceCounters::aggregate() const {
  ServiceStats stats;
  std::uint64_t time_ns = 0;
  for (std::size_t i = 0; i < count_; ++i) {
    const Shard& shard = shards_[i];
    stats.requests_processed +=
        shard.requests_processed.load(std::memory_order_relaxed);
    stats.replays_served +=
        shard.replays_served.load(std::memory_order_relaxed);
    stats.errors_returned +=
        shard.errors_returned.load(std::memory_order_relaxed);
    stats.requests_shed +=
        shard.requests_shed.load(std::memory_order_relaxed);
    stats.handshakes_completed +=
        shard.handshakes_completed.load(std::memory_order_relaxed);
    stats.counter_rejections +=
        shard.counter_rejections.load(std::memory_order_relaxed);
    time_ns += shard.processing_time_ns.load(std::memory_order_relaxed);
  }
  stats.processing_time_s = static_cast<double>(time_ns) * 1e-9;
  return stats;
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
