// Cloud restart survivability: enrollments and stored records journaled
// by one server instance must be fully usable by a fresh instance that
// attaches durability to the same state directory — including
// authenticating a real sensor pass against the recovered database.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>

#include "cloud/durability.h"
#include "cloud/server.h"
#include "util/fileio.h"
#include "core/controller.h"
#include "core/encryptor.h"
#include "phone/relay.h"
#include "test_devices.h"

namespace medsen {
namespace {

std::string state_dir(const char* name) {
  const auto dir = std::string(::testing::TempDir()) + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// One server lifetime on `dir`: a DurableState and a CloudServer that
/// recovered from it. Destroying it and building another on the same
/// directory is a process restart.
struct Lifetime {
  std::unique_ptr<cloud::DurableState> durable;  // outlives the server
  std::unique_ptr<cloud::CloudServer> server;

  Lifetime(const std::string& dir, const auth::CytoAlphabet& alphabet) {
    cloud::DurabilityConfig config;
    config.dir = dir;
    config.storage_key = std::vector<std::uint8_t>(16, 0x3C);
    durable = std::make_unique<cloud::DurableState>(std::move(config));
    server = std::make_unique<cloud::CloudServer>(
        cloud::AnalysisConfig{}, alphabet,
        auth::ParticleClassifier::train({}));
    server->attach_durability(*durable);
  }
  ~Lifetime() { server.reset(); }  // server first: it points at durable
};

TEST(Restart, AuthenticationSurvivesServerRestart) {
  const auto dir = state_dir("medsen_restart_auth");

  auth::CytoAlphabet alphabet;
  auth::CytoCode code;
  code.levels = {2, 1};

  // --- First server lifetime: enroll and store, journaled.
  {
    Lifetime first(dir, alphabet);
    first.server->enroll_user("alice", code);
    first.server->store_result(code, {1, {0xAA, 0xBB}});
  }

  // --- Second lifetime: fresh process state, recovered from disk.
  Lifetime second(dir, alphabet);
  auto& server = *second.server;
  EXPECT_EQ(server.enrollments().lookup(code), "alice");
  EXPECT_EQ(server.records().latest(code)->session_id, 1u);

  // --- A real authentication pass against the reloaded state.
  const auto design = sim::standard_design(9);
  core::KeyParams params;
  params.num_electrodes = 9;
  core::Controller controller(params, design,
                              core::DiagnosticProfile::cd4_staging(), 3);
  const double duration = 120.0;
  (void)controller.begin_plaintext_session(duration);

  sim::ChannelConfig channel;
  channel.loss.enabled = false;
  sim::AcquisitionConfig acquisition;
  acquisition.noise_sigma = 5e-5;
  acquisition.drift.slow_amplitude = 0.002;
  acquisition.drift.random_walk_sigma = 1e-6;
  core::SensorEncryptor encryptor(design, channel, acquisition);
  sim::SampleSpec sample;
  sample.components = auth::encode_mixture(alphabet, code);
  const auto enc = encryptor.acquire(
      sample, controller.session_key_schedule_for_testing(), duration, 7);

  phone::PhoneRelay relay;
  const auto mac_key = testkit::enroll(server, relay.config().device_id);
  const auto response =
      relay.relay_auth(enc.signals, 5, controller.session_volume_ul(),
                       server, mac_key, duration);
  const auto decision =
      net::AuthDecisionPayload::deserialize(response.payload);
  EXPECT_TRUE(decision.authenticated);
  EXPECT_EQ(decision.user_id, "alice");

  std::filesystem::remove_all(dir);
}

// The keying plane across a restart: the device registry (master
// epochs, enrollment/revocation) persists and recovers, but
// negotiated sessions deliberately do NOT — the restarted server answers
// in-session traffic with kAuthRequired and the device re-handshakes,
// with counter state starting fresh under the new session key.
TEST(Restart, SessionsDieButRegistrySurvivesRestart) {
  const auto dir = state_dir("medsen_restart_registry");

  const auto design = sim::standard_design(9);
  core::KeyParams params;
  params.num_electrodes = 9;
  core::Controller controller(params, design,
                              core::DiagnosticProfile::cd4_staging(), 3);
  phone::PhoneRelay relay;
  controller.enable_session_crypto(
      relay.config().device_id,
      testkit::device_key(relay.config().device_id));

  util::MultiChannelSeries series;
  series.carrier_frequencies_hz = {5.0e5};
  util::TimeSeries ts(450.0);
  for (std::size_t i = 0; i < 9000; ++i) {
    const double t = static_cast<double>(i) / 450.0;
    const double z = (t - 5.0) / 0.008;
    double v = 1.0 - 0.01 * std::exp(-0.5 * z * z);
    v += 1e-5 * static_cast<double>(static_cast<int>((i * 7) % 11) - 5);
    ts.push_back(v);
  }
  series.channels.push_back(std::move(ts));

  // --- First lifetime: enroll, rotate to epoch 1 (the device, still
  // personalized under epoch 0, handshakes through the grace window),
  // run session commands. Sessions are not persisted by design.
  {
    Lifetime first(dir, auth::CytoAlphabet{});
    auto& server = *first.server;
    testkit::enroll(server, relay.config().device_id);
    server.rotate_master_key(1, std::vector<std::uint8_t>(16, 0x5a));
    server.enroll_device(99);

    ASSERT_TRUE(relay.establish_session(controller, 100, server));
    const auto response = relay.relay_analysis(series, 0, server, {},
                                               controller.session_crypto());
    ASSERT_EQ(response.type, net::MessageType::kAnalysisResult);
    EXPECT_EQ(response.counter, 1u);
  }

  // --- Second lifetime: a fresh server recovers the registry.
  Lifetime second(dir, auth::CytoAlphabet{});
  auto& server = *second.server;
  EXPECT_EQ(server.devices().current_epoch(), 1u);
  EXPECT_TRUE(server.devices().lookup(99).has_value());

  // The old session died with the process: its counters resume mid-way
  // and the server, holding no session, demands a fresh handshake.
  auto* crypto = controller.session_crypto();
  ASSERT_TRUE(crypto->active());
  const auto stale = relay.relay_analysis(series, 0, server, {}, crypto);
  ASSERT_EQ(stale.type, net::MessageType::kError);
  EXPECT_EQ(net::ErrorPayload::deserialize(stale.payload).code,
            net::ErrorCode::kAuthRequired);

  // Re-handshake against the reloaded registry; counters restart at 1.
  crypto->invalidate();
  ASSERT_TRUE(relay.establish_session(controller, 101, server));
  const auto fresh = relay.relay_analysis(series, 0, server, {}, crypto);
  ASSERT_EQ(fresh.type, net::MessageType::kAnalysisResult);
  EXPECT_EQ(fresh.counter, 1u);
  EXPECT_TRUE(net::verify_envelope(fresh, crypto->session_mac_key()));

  std::filesystem::remove_all(dir);
}

// A crash between opening an output file and finishing the write must
// not destroy the previous good database. Compaction renames the
// journal into a segment and writes no file of its own; older builds
// wrote each snapshot to a sibling .tmp and renamed it into place, so
// the worst a crash left behind there was a truncated .tmp next to
// intact live state. A directory carrying such a leftover must still
// load, and the leftover is dropped at open.
TEST(Restart, TornWriteLeavesPreviousDatabaseLoadable) {
  const auto dir = state_dir("medsen_torn_enroll");

  auth::CytoAlphabet alphabet;
  auth::CytoCode code;
  code.levels = {1, 2};
  const std::string leftover = dir + "/enroll.snap.tmp";
  {
    Lifetime first(dir, alphabet);
    first.server->enroll_user("bob", code);
    first.durable->compact(*first.server);
    // The older build's torn temp file: half of a sealed log's bytes.
    const auto good = util::read_file(first.durable->segment_path(1));
    std::vector<std::uint8_t> torn(good.begin(),
                                   good.begin() + good.size() / 2);
    util::write_file(leftover, torn);
  }

  // The live state is untouched and still recovers; the torn temp file
  // is dropped at open, leaving no stale .tmp behind.
  Lifetime second(dir, alphabet);
  EXPECT_EQ(second.server->enrollments().lookup(code), "bob");
  EXPECT_FALSE(util::file_exists(leftover));

  // A subsequent compaction adds a segment and no snapshot; the state
  // still recovers with both users.
  second.server->enroll_user("carol", auth::CytoCode{{2, 2}});
  second.durable->compact(*second.server);
  EXPECT_FALSE(util::file_exists(leftover));
  EXPECT_FALSE(util::file_exists(dir + "/enroll.snap"));
  second.server.reset();
  second.durable.reset();
  Lifetime third(dir, alphabet);
  EXPECT_EQ(third.server->enrollments().lookup(code), "bob");
  EXPECT_EQ(third.server->enrollments().lookup(auth::CytoCode{{2, 2}}),
            "carol");

  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace medsen
