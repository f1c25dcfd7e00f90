// The exchange cache against a model of what a request can still reach.
//
// One CloudServer is driven through a seeded random walk over a few
// devices: handshakes, session commands (fresh, out of order, wide
// jumps past the window, byte-identical replays and conflicting
// payloads), revocations, re-enrollments and master rotations. The cache
// capacity is far above what the walk fills, so the LRU never evicts and
// the cache must hold exactly what the model says a request can reach:
// one counter-0 slot per completed handshake plus, for each live
// session, the completed commands whose counters are still inside its
// anti-replay window. After every step devices().cache_size() must
// equal that count, and every replay and conflict must get the model's
// answer.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <vector>

#include "cloud/server.h"
#include "core/session_crypto.h"
#include "crypto/cmac.h"

namespace medsen::cloud {
namespace {

constexpr std::uint32_t kWindow = DeviceRegistry::kWindowSize;
constexpr std::uint64_t kDevices = 3;
constexpr std::uint32_t kKeyEpoch = 1;
constexpr int kSteps = 2500;

std::vector<std::uint8_t> master_key() {
  return std::vector<std::uint8_t>(16, 0x6b);
}

util::MultiChannelSeries dip_series(std::size_t dips) {
  util::MultiChannelSeries series;
  series.carrier_frequencies_hz = {5.0e5};
  util::TimeSeries ts(450.0);
  const std::size_t n = 900 + dips * 450;
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / 450.0;
    double v = 1.0;
    for (std::size_t d = 0; d < dips; ++d) {
      const double z = (t - (1.0 + 0.5 * static_cast<double>(d))) / 0.008;
      v *= 1.0 - 0.01 * std::exp(-0.5 * z * z);
    }
    v += 1e-5 * static_cast<double>(static_cast<int>((i * 7) % 11) - 5);
    ts.push_back(v);
  }
  series.channels.push_back(std::move(ts));
  return series;
}

std::vector<std::uint8_t> upload_payload(std::size_t dips) {
  net::SignalUploadPayload payload;
  payload.compressed = false;
  payload.sample_rate_hz = 450.0;
  payload.data = net::serialize_series(dip_series(dips));
  return payload.serialize();
}

net::ErrorCode error_code(const net::Envelope& response) {
  return net::ErrorPayload::deserialize(response.payload).code;
}

/// A request the server completed, and what it answered.
struct Exchange {
  std::uint64_t device = 0;
  net::Envelope request;
  net::Envelope response;
  std::size_t variant = 0;  ///< upload payload variant (commands only)
};

/// The model's view of one live session: its window and the responses
/// a byte-identical copy can still be served.
struct ModelSession {
  std::uint64_t id = 0;
  util::SecretBytes key;
  std::uint32_t highest = 0;
  std::set<std::uint32_t> seen;  ///< burned counters inside the window
  std::map<std::uint32_t, net::Envelope> cached;

  [[nodiscard]] bool in_window(std::uint32_t counter) const {
    return counter > highest || highest - counter < kWindow;
  }
  [[nodiscard]] bool fresh(std::uint32_t counter) const {
    return in_window(counter) && seen.count(counter) == 0;
  }
  void burn(std::uint32_t counter, const net::Envelope& response) {
    if (counter > highest) highest = counter;
    seen.insert(counter);
    cached[counter] = response;
    std::erase_if(seen, [&](std::uint32_t c) { return !in_window(c); });
    std::erase_if(cached, [&](const auto& entry) {
      return !in_window(entry.first);
    });
  }
};

/// Which counter a fresh command takes.
enum class Counter : std::uint8_t {
  kNext,     ///< highest + 1
  kSkipped,  ///< an unseen counter inside the window (else kNext)
  kJump,     ///< past the whole window
};

struct ModelDevice {
  bool revoked = false;
  std::size_t handshake_slots = 0;  ///< counter-0 slots, never retired
  std::optional<ModelSession> session;
  std::unique_ptr<core::SessionCrypto> crypto;
};

/// What the model expects a request to get: an error code, or the
/// exact bytes of an earlier response.
struct Expected {
  net::ErrorCode code = net::ErrorCode::kMalformed;
  std::optional<net::Envelope> bytes;
};

class Walk {
 public:
  Walk() : server_(make_server()), rng_(0xcac4e) {
    server_.rotate_master_key(kKeyEpoch, master_key());
    for (std::uint64_t id = 0; id < kDevices; ++id) {
      server_.enroll_device(id);
      devices_[id].crypto = std::make_unique<core::SessionCrypto>(
          id, crypto::diversify_device_key(master_key(), id, kKeyEpoch),
          kKeyEpoch, 0x5eed + id);
    }
    for (std::size_t dips = 1; dips <= 3; ++dips)
      variants_.push_back(upload_payload(dips));
  }

  void step(int index) {
    const std::uint64_t id = pick(kDevices);
    const std::uint64_t roll = pick(100);
    if (roll < 10) {
      handshake(id);
    } else if (roll < 45) {
      command(id, pick_counter(id, Counter::kNext));
    } else if (roll < 55) {
      command(id, pick_counter(id, Counter::kSkipped));
    } else if (roll < 60) {
      command(id, pick_counter(id, Counter::kJump));
    } else if (roll < 80) {
      replay();
    } else if (roll < 88) {
      conflict();
    } else if (roll < 92) {
      EXPECT_EQ(server_.revoke_device(id), !devices_[id].revoked);
      devices_[id].revoked = true;
      devices_[id].session.reset();
    } else if (roll < 97) {
      server_.enroll_device(id);
      devices_[id].revoked = false;
    } else {
      server_.rotate_master_key(++epoch_, master_key());
      for (auto& [device, model] : devices_) model.session.reset();
    }
    ASSERT_EQ(server_.devices().cache_size(), model_cache_size())
        << "after step " << index;
  }

  /// The walk reached every answer and every kind of counter.
  void check_coverage() {
    EXPECT_EQ(server_.devices().evictions(), 0u);
    EXPECT_GT(commands_served_, 0u);
    for (const auto code :
         {net::ErrorCode::kStaleCounter, net::ErrorCode::kAuthRequired,
          net::ErrorCode::kRevoked, net::ErrorCode::kSessionConflict})
      EXPECT_GT(answered_.count(code), 0u)
          << "no " << static_cast<int>(code) << " answer";
    EXPECT_GT(wide_jumps_, 0u);
    EXPECT_GT(out_of_order_, 0u);
  }

 private:
  static CloudServer make_server() {
    AnalysisConfig analysis;
    analysis.threads = 1;
    ServiceConfig service;
    service.session_cache_capacity = 1u << 20;  // the LRU never evicts
    return CloudServer(analysis, auth::CytoAlphabet{},
                       auth::ParticleClassifier::train({}),
                       auth::VerifierConfig{}, nullptr, service);
  }

  std::uint64_t pick(std::uint64_t n) { return rng_() % n; }

  void handshake(std::uint64_t id) {
    ModelDevice& device = devices_[id];
    device.crypto->invalidate();
    const auto challenge = device.crypto->make_challenge(next_session_++);
    const auto response = server_.handle(challenge);
    if (device.revoked) {
      expect(response, Expected{net::ErrorCode::kRevoked, std::nullopt});
      return;
    }
    ASSERT_TRUE(device.crypto->complete(response));
    ++device.handshake_slots;
    device.session.emplace();
    device.session->id = challenge.session_id;
    device.session->key = device.crypto->session_mac_key();
    session_keys_.emplace(challenge.session_id, device.session->key);
    completed_.push_back({id, challenge, response});
  }

  std::uint32_t pick_counter(std::uint64_t id, Counter kind) {
    const auto& session = devices_[id].session;
    const std::uint32_t highest = session ? session->highest : 0;
    if (kind == Counter::kSkipped && session) {
      std::vector<std::uint32_t> skipped;
      for (std::uint32_t age = 1; age < kWindow && age < highest; ++age)
        if (session->fresh(highest - age)) skipped.push_back(highest - age);
      if (!skipped.empty()) {
        ++out_of_order_;
        return skipped[pick(skipped.size())];
      }
    }
    if (kind == Counter::kJump) {
      ++wide_jumps_;
      return highest + kWindow + static_cast<std::uint32_t>(pick(200));
    }
    return highest + 1;
  }

  void command(std::uint64_t id, std::uint32_t counter) {
    ModelDevice& device = devices_[id];
    if (!device.session || device.revoked) {
      handshake(id);
      return;
    }
    const std::size_t variant = pick(variants_.size());
    const auto request = net::make_envelope(
        net::MessageType::kSignalUpload, device.session->id, id,
        variants_[variant], device.session->key, counter);
    const auto response = server_.handle(request);
    ASSERT_EQ(response.type, net::MessageType::kAnalysisResult)
        << "counter " << counter;
    device.session->burn(counter, response);
    completed_.push_back({id, request, response, variant});
  }

  /// A byte-identical copy of any completed exchange.
  void replay() {
    if (completed_.empty()) return;
    const Exchange& old = completed_[pick(completed_.size())];
    const ModelDevice& device = devices_[old.device];
    Expected expected;
    if (device.revoked) {
      expected.code = net::ErrorCode::kRevoked;
    } else if (old.request.type == net::MessageType::kAuthChallenge) {
      expected.bytes = old.response;  // counter-0 slots are never retired
    } else if (!live(device, old.request.session_id)) {
      expected.code = net::ErrorCode::kAuthRequired;
    } else if (const auto it = device.session->cached.find(old.request.counter);
               it != device.session->cached.end()) {
      expected.bytes = it->second;
    } else {
      expected.code = net::ErrorCode::kStaleCounter;
    }
    const auto response = server_.handle(old.request);
    if (expected.bytes && old.request.counter != 0) ++commands_served_;
    expect(response, expected);
  }

  /// Another payload on the (session, counter) of a completed command,
  /// MAC'd with that session's key.
  void conflict() {
    std::vector<const Exchange*> commands;
    for (const auto& exchange : completed_)
      if (exchange.request.counter != 0) commands.push_back(&exchange);
    if (commands.empty()) return;
    const Exchange& old = *commands[pick(commands.size())];
    const ModelDevice& device = devices_[old.device];
    const auto key = session_keys_.find(old.request.session_id);
    if (key == session_keys_.end()) return;
    const auto request = net::make_envelope(
        net::MessageType::kSignalUpload, old.request.session_id, old.device,
        variants_[(old.variant + 1) % variants_.size()], key->second,
        old.request.counter);
    Expected expected;
    if (device.revoked) {
      expected.code = net::ErrorCode::kRevoked;
    } else if (!live(device, old.request.session_id)) {
      expected.code = net::ErrorCode::kAuthRequired;
    } else if (device.session->cached.count(old.request.counter) != 0) {
      expected.code = net::ErrorCode::kSessionConflict;
    } else {
      expected.code = net::ErrorCode::kStaleCounter;
    }
    expect(server_.handle(request), expected);
  }

  static bool live(const ModelDevice& device, std::uint64_t session_id) {
    return device.session && device.session->id == session_id;
  }

  void expect(const net::Envelope& response, const Expected& expected) {
    if (expected.bytes) {
      EXPECT_EQ(response.serialize(), expected.bytes->serialize());
      return;
    }
    ASSERT_EQ(response.type, net::MessageType::kError);
    const auto code = error_code(response);
    EXPECT_EQ(code, expected.code);
    ++answered_[code];
  }

  [[nodiscard]] std::size_t model_cache_size() const {
    std::size_t total = 0;
    for (const auto& [id, device] : devices_) {
      total += device.handshake_slots;
      if (device.session) total += device.session->cached.size();
    }
    return total;
  }

  CloudServer server_;
  std::mt19937_64 rng_;
  std::map<std::uint64_t, ModelDevice> devices_;
  std::vector<std::vector<std::uint8_t>> variants_;
  std::vector<Exchange> completed_;
  /// Every session key the walk negotiated, for conflicting sends.
  std::map<std::uint64_t, util::SecretBytes> session_keys_;
  std::uint64_t next_session_ = 1000;
  std::uint32_t epoch_ = kKeyEpoch;
  std::uint64_t commands_served_ = 0;
  std::uint64_t wide_jumps_ = 0;
  std::uint64_t out_of_order_ = 0;
  std::map<net::ErrorCode, std::uint64_t> answered_;
};

TEST(ExchangeCacheModel, CacheHoldsExactlyWhatARequestCanReach) {
  Walk walk;
  for (int i = 0; i < kSteps; ++i) {
    walk.step(i);
    if (::testing::Test::HasFatalFailure()) return;
  }
  walk.check_coverage();
}

}  // namespace
}  // namespace medsen::cloud
