#include "cloud/dispatch.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <new>
#include <stdexcept>
#include <utility>

#include "crypto/cmac.h"

namespace medsen::cloud {

/// One completed exchange: this header, then the response payload, in
/// a single allocation. A replay rebuilds the response byte for byte:
/// its session, device and counter are the key's.
struct DeviceRegistry::Record {
  Record* newer = nullptr;  ///< recency list, newest first
  Record* older = nullptr;
  SlotKey key;
  std::uint32_t payload_size = 0;
  net::MessageType response_type = net::MessageType::kError;
  crypto::Sha256Digest request_mac{};
  crypto::Sha256Digest response_mac{};

  /// The payload bytes, which follow the header.
  [[nodiscard]] std::uint8_t* payload() {
    return reinterpret_cast<std::uint8_t*>(this + 1);
  }
  [[nodiscard]] const std::uint8_t* payload() const {
    return reinterpret_cast<const std::uint8_t*>(this + 1);
  }

  static RecordPtr make(const SlotKey& key,
                        const crypto::Sha256Digest& request_mac,
                        const net::Envelope& response) {
    const std::size_t size = response.payload.size();
    if (size > std::numeric_limits<std::uint32_t>::max())
      throw std::length_error("cached response payload over 4 GiB");
    RecordPtr record(new (::operator new(sizeof(Record) + size)) Record{
        nullptr, nullptr, key, static_cast<std::uint32_t>(size),
        response.type, request_mac, response.mac});
    if (size != 0)
      std::memcpy(record->payload(), response.payload.data(), size);
    return record;
  }

  [[nodiscard]] net::Envelope response() const {
    net::Envelope envelope;
    envelope.type = response_type;
    envelope.session_id = key.session_id;
    envelope.device_id = key.device_id;
    envelope.counter = key.counter;
    envelope.payload.assign(payload(), payload() + payload_size);
    envelope.mac = response_mac;
    return envelope;
  }
};

void DeviceRegistry::RecordDeleter::operator()(Record* record) const {
  record->~Record();
  ::operator delete(record);
}

namespace {

/// Murmur3's 64-bit finalizer: every input bit reaches the low bits an
/// index mask keeps.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

}  // namespace

std::size_t DeviceRegistry::ExchangeTable::home(const SlotKey& key,
                                                std::size_t mask) {
  const std::uint64_t hash = mix64(
      mix64(key.device_id ^ std::rotl(std::uint64_t{key.counter}, 32)) ^
      key.session_id);
  return static_cast<std::size_t>(hash) & mask;
}

DeviceRegistry::ExchangeTable::~ExchangeTable() {
  for (Record* record = newest_; record != nullptr;) {
    Record* const older = record->older;
    RecordDeleter{}(record);
    record = older;
  }
}

DeviceRegistry::Record* DeviceRegistry::ExchangeTable::find(
    const SlotKey& key) const {
  if (index_.empty()) return nullptr;
  const std::size_t mask = index_.size() - 1;
  // At most half full, so every probe sequence reaches a free slot.
  for (std::size_t i = home(key, mask);; i = (i + 1) & mask)
    if (index_[i] == nullptr || index_[i]->key == key) return index_[i];
}

void DeviceRegistry::ExchangeTable::insert(RecordPtr record) {
  if (2 * (size_ + 1) > index_.size()) {
    std::vector<Record*> old(std::max<std::size_t>(8, 2 * index_.size()));
    index_.swap(old);
    for (Record* moved : old)
      if (moved != nullptr) place(moved);
  }
  Record* const raw = record.release();
  place(raw);
  link_front(raw);
  ++size_;
}

void DeviceRegistry::ExchangeTable::touch(Record* record) {
  if (record == newest_) return;
  unlink(record);
  link_front(record);
}

void DeviceRegistry::ExchangeTable::erase(Record* record) {
  const std::size_t mask = index_.size() - 1;
  std::size_t hole = home(record->key, mask);
  while (index_[hole] != record) hole = (hole + 1) & mask;
  // Backward shift: pull each later record of the probe run into the
  // hole unless its home slot lies after the hole (cyclically), so no
  // lookup ever stops early at the freed slot.
  for (std::size_t next = (hole + 1) & mask; index_[next] != nullptr;
       next = (next + 1) & mask) {
    const std::size_t start = home(index_[next]->key, mask);
    if (((next - start) & mask) >= ((next - hole) & mask)) {
      index_[hole] = index_[next];
      hole = next;
    }
  }
  index_[hole] = nullptr;
  unlink(record);
  --size_;
  RecordDeleter{}(record);
}

void DeviceRegistry::ExchangeTable::unlink(Record* record) {
  (record->newer != nullptr ? record->newer->older : newest_) = record->older;
  (record->older != nullptr ? record->older->newer : oldest_) = record->newer;
}

void DeviceRegistry::ExchangeTable::link_front(Record* record) {
  record->newer = nullptr;
  record->older = newest_;
  (newest_ != nullptr ? newest_->newer : oldest_) = record;
  newest_ = record;
}

void DeviceRegistry::ExchangeTable::place(Record* record) {
  const std::size_t mask = index_.size() - 1;
  std::size_t i = home(record->key, mask);
  while (index_[i] != nullptr) i = (i + 1) & mask;
  index_[i] = record;
}

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
  const SlotKey key = SlotKey::of(request);
  return shards_.with(request.device_id, [&](Shard& shard) {
    Reservation out;
    Record* const record = shard.exchanges.find(key);
    const Pending* const pending =
        record == nullptr ? find_pending(shard, key) : nullptr;
    if (record != nullptr || pending != nullptr) {
      const auto& held =
          record != nullptr ? record->request_mac : pending->request_mac;
      if (!crypto::digest_equal(held, request.mac)) {
        out.state = SlotState::kConflict;
      } else if (record == nullptr) {
        out.state = SlotState::kInFlight;
      } else {
        // Touch: an exchange the transport is actively retrying must
        // outlive colder entries.
        shard.exchanges.touch(record);
        out.state = SlotState::kReplay;
        out.response = record->response();
        ++shard.counts.replays_served;
        return out;
      }
      ++shard.counts.errors_returned;
      return out;
    }
    const DeviceRecord* device = find(shard, request.device_id);
    if (session_plane &&
        (device == nullptr || !device->live(request.session_id) ||
         !device->session->fresh(request.counter))) {
      out.state = SlotState::kStale;
      ++shard.counts.counter_rejections;
      ++shard.counts.errors_returned;
      return out;
    }
    shard.pending.push_back({key, request.mac});
    return out;
  });
}

void DeviceRegistry::complete(const net::Envelope& request,
                              const net::Envelope& response,
                              bool session_plane, double processing_time_s,
                              std::optional<util::SecretBytes> new_session) {
  const SlotKey key = SlotKey::of(request);
  if (SlotKey::of(response) != key)
    throw std::invalid_argument(
        "DeviceRegistry::complete: the response must carry its request's "
        "device, session and counter");
  auto session = new_session ? std::make_unique<Session>(Session{
                                  request.session_id, std::move(*new_session)})
                            : nullptr;
  // Built before the lock is taken; freed after it is released when the
  // slot is not filled.
  RecordPtr filled = Record::make(key, request.mac, response);
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
    if (!drop_pending(shard, key) || !cache) return;
    evict(shard);
    shard.exchanges.insert(std::move(filled));
  });
}

void DeviceRegistry::release(const net::Envelope& request) {
  const SlotKey key = SlotKey::of(request);
  shards_.with(request.device_id, [&](Shard& shard) {
    drop_pending(shard, key);
    ++shard.counts.errors_returned;
  });
}

void DeviceRegistry::count_error(std::uint64_t device_id, bool shed) {
  shards_.with(device_id, [&](Shard& shard) {
    ++shard.counts.errors_returned;
    shard.counts.requests_shed += shed;
  });
}

DeviceRegistry::Pending* DeviceRegistry::find_pending(Shard& shard,
                                                      const SlotKey& key) {
  for (Pending& slot : shard.pending)
    if (slot.key == key) return &slot;
  return nullptr;
}

bool DeviceRegistry::drop_pending(Shard& shard, const SlotKey& key) {
  Pending* const slot = find_pending(shard, key);
  if (slot == nullptr) return false;
  *slot = shard.pending.back();
  shard.pending.pop_back();
  return true;
}

void DeviceRegistry::evict(Shard& shard) const {
  if (per_shard_capacity_ == 0) return;
  while (shard.exchanges.size() >= per_shard_capacity_) {
    shard.exchanges.erase(shard.exchanges.oldest());
    ++shard.evictions;
  }
}

void DeviceRegistry::retire(Shard& shard, std::uint64_t device_id,
                            std::uint64_t session_id, std::uint32_t top,
                            std::uint64_t ages) {
  for (; ages != 0; ages &= ages - 1) {
    const auto age = static_cast<std::uint32_t>(std::countr_zero(ages));
    if (Record* record =
            shard.exchanges.find({device_id, session_id, top - age}))
      shard.exchanges.erase(record);
  }
}

void DeviceRegistry::retire_sessions(Shard& shard) {
  for (Record* record = shard.exchanges.newest(); record != nullptr;) {
    Record* const older = record->older;
    if (record->key.counter != 0) shard.exchanges.erase(record);
    record = older;
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
  shards_.for_each_shard([&](const Shard& shard) {
    total += shard.exchanges.size() + shard.pending.size();
  });
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
