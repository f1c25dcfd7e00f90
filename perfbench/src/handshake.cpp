// handshake_durable: the write side of the session state.
//
// Four closed-loop clients each run AuthChallenge -> handle() ->
// SessionCrypto::complete for random devices of the 20,000-device fleet,
// as a fleet re-keys after a master-key rotation or a restart. The
// server journals every handshake ordinal to a sealed, fsync-on journal
// before answering, so this workload sits at the fsync ceiling.

#include <stdexcept>

#include "crypto/cmac.h"
#include "fixture.h"
#include "util/serialize.h"

namespace medsen::perfbench {

void HandshakeLog::add(const net::Envelope& challenge,
                       const net::Envelope& response, double us) {
  if (exchanges.size() < kKept) exchanges.emplace_back(challenge, response);
  client_us += us;
  ++count;
}

void HandshakeLog::merge(const HandshakeLog& other) {
  for (const auto& exchange : other.exchanges)
    if (exchanges.size() < kKept) exchanges.push_back(exchange);
  client_us += other.client_us;
  count += other.count;
  handle_us += other.handle_us;
  handle_cpu_us += other.handle_cpu_us;
  handle_n += other.handle_n;
}

bool run_handshake(cloud::CloudServer& server, core::SessionCrypto& crypto,
                   std::uint64_t session, HandshakeLog& log) {
  const std::uint64_t t0 = now_ns();
  const auto challenge = crypto.make_challenge(session);
  const std::uint64_t cpu1 = thread_cpu_ns();
  const std::uint64_t t1 = now_ns();
  const auto response = server.handle(challenge);
  const std::uint64_t t2 = now_ns();
  const std::uint64_t cpu2 = thread_cpu_ns();
  const bool ok = crypto.complete(response);
  log.add(challenge, response, us_between(t0, t1) + us_between(t2, now_ns()));
  log.handle_us += us_between(t1, t2);
  log.handle_cpu_us += static_cast<double>(cpu2 - cpu1) / 1e3;
  ++log.handle_n;
  return ok;
}

namespace {

/// The server's handshake work on one exchange: the same public
/// functions key resolution and serve_handshake() call, on the
/// exchange's own nonces.
void decompose_handshake(cloud::CloudServer& server,
                         const std::vector<std::uint8_t>& master,
                         const net::Envelope& challenge,
                         const net::Envelope& response, StageTimes& stages,
                         double& mac_bytes) {
  constexpr OpClass cls = OpClass::kHandshake;
  const RequestId id{challenge.device_id, challenge.session_id, 0};
  const std::int32_t root =
      stages.spans().add("decompose.handshake", -1, now_ns(), 0, id);
  const auto rnd_a =
      net::AuthChallengePayload::deserialize(challenge.payload).challenge;
  const auto rnd_b =
      net::AuthResponsePayload::deserialize(response.payload).challenge;

  const auto key = stages.time(cls, "cloud.dispatch.resolve", true, root, id, [&] {
    (void)server.devices().is_revoked(challenge.device_id);
    return server.devices().lookup_epoch(challenge.device_id, kEpoch);
  });
  if (!key) throw std::runtime_error("decompose: device key not derivable");
  stages.time(cls, "net.verify_envelope", true, root, id,
              [&] { return net::verify_envelope(challenge, *key); });
  mac_bytes += static_cast<double>(challenge.payload.size());
  stages.time(cls, "net.decode_challenge", true, root, id, [&] {
    return net::AuthChallengePayload::deserialize(challenge.payload);
  });
  // Already inside key resolution, so not a separate server stage.
  stages.time(cls, "crypto.diversify_device_key", false, root, id, [&] {
    return crypto::diversify_device_key(master, challenge.device_id, kEpoch);
  });
  // The RndB derivation's context: challenge seed, device, handshake
  // ordinal, RndA. The seed and ordinal are placeholders of the same size;
  // they do not change the work.
  stages.time(cls, "crypto.kdf_cmac", true, root, id, [&] {
    util::ByteWriter context;
    context.u64(0);
    context.u64(challenge.device_id);
    context.u64(0);
    context.bytes(rnd_a);
    return crypto::kdf_cmac(crypto::normalize_cmac_key(*key), "medsen-chal",
                            context.data(),
                            net::AuthResponsePayload::kNonceSize);
  });
  stages.time(cls, "crypto.session_proof", true, root, id,
              [&] { return crypto::session_proof(*key, rnd_a, rnd_b); });
  stages.time(cls, "crypto.derive_session_mac_key", true, root, id, [&] {
    return crypto::derive_session_mac_key(*key, rnd_a, rnd_b);
  });
  stages.time(cls, "net.make_envelope.response", true, root, id, [&] {
    return net::make_envelope(response.type, challenge.session_id,
                              challenge.device_id, response.payload, *key, 0);
  });
  stages.spans().set_end(root, now_ns());
}

struct HandshakeState {
  std::unique_ptr<Service> service;
  std::vector<std::unique_ptr<core::SessionCrypto>> cryptos;
};

std::unique_ptr<HandshakeState> set_up(const RunConfig& config,
                                       std::size_t rep, RunReport& report) {
  auto state = std::make_unique<HandshakeState>();
  state->service = restart_service(config, rep, /*fsync=*/true,
                                   /*quality_gate=*/true, report);
  state->cryptos.resize(kFleetDevices);
  for (std::uint64_t id = 0; id < kFleetDevices; ++id)
    state->cryptos[id] = std::make_unique<core::SessionCrypto>(
        id, device_key(config.seed, id), kEpoch, config.seed ^ id);
  return state;
}

}  // namespace

void report_handshakes(cloud::CloudServer& server, std::uint64_t seed,
                       const HandshakeLog& log, RunReport& report,
                       double& mac_bytes) {
  if (log.exchanges.empty()) return;
  const auto master = master_key(seed);
  // Repeat small logs (one clinic dongle) so the means rest on 64 calls.
  for (std::size_t done = 0; done < 64;)
    for (const auto& [challenge, response] : log.exchanges) {
      decompose_handshake(server, master, challenge, response, report.stages,
                          mac_bytes);
      ++done;
    }
  constexpr OpClass cls = OpClass::kHandshake;
  const auto& stages = report.stages;
  report.layer["crypto.handshake_server_us"] =
      stages.mean_us(cls, "crypto.diversify_device_key") +
      stages.mean_us(cls, "crypto.kdf_cmac") +
      stages.mean_us(cls, "crypto.session_proof") +
      stages.mean_us(cls, "crypto.derive_session_mac_key");
  report.layer["core.handshake_client_us"] =
      log.client_us / static_cast<double>(log.count);
  if (log.handle_n > 0) {
    const auto n = static_cast<double>(log.handle_n);
    report.layer["cloud.handle_us.handshake"] = log.handle_us / n;
    report.layer["cloud.handle_oncpu_us.handshake"] = log.handle_cpu_us / n;
    report.layer["cloud.handle_offcpu_us.handshake"] =
        (log.handle_us - log.handle_cpu_us) / n;
  }
}

RunReport run_handshake_durable(const RunConfig& config) {
  RunReport report;
  report.primary = OpClass::kHandshake;
  auto state = repeat_setup(report, [&](std::size_t rep) {
    return set_up(config, rep, report);
  });
  auto& server = *state->service->server;
  std::vector<SplitMix> rngs;
  for (std::size_t c = 0; c < kFleetClients; ++c)
    rngs.push_back(SplitMix{config.seed * 0x2545F4914F6CDD1Dull + c});
  std::vector<std::uint64_t> next_session(kFleetClients, 0);
  std::vector<HandshakeLog> traced_logs(kFleetClients);

  timed_phase(config, kFleetClients, 100000, *state->service, report,
              [&](std::size_t c, bool traced, ClientLog& log) {
    const std::uint64_t device =
        c + kFleetClients * (rngs[c].next() % (kFleetDevices / kFleetClients));
    auto& crypto = *state->cryptos[device];
    log.note_op(OpClass::kHandshake, device);
    const std::uint64_t session = (3ull << 56) +
                                  (static_cast<std::uint64_t>(c) << 40) +
                                  next_session[c]++;

    const std::uint64_t t_start = now_ns();
    const auto challenge = crypto.make_challenge(session);
    const std::uint64_t cpu0 = traced ? thread_cpu_ns() : 0;
    const std::uint64_t t0 = now_ns();
    const auto response = server.handle(challenge);
    const std::uint64_t t1 = now_ns();
    const std::uint64_t cpu1 = traced ? thread_cpu_ns() : 0;
    const bool ok = response.type == net::MessageType::kAuthResponse &&
                    crypto.complete(response);
    const std::uint64_t t_end = now_ns();

    log.tally(response);
    log.uplink_bytes += static_cast<double>(challenge.payload.size());
    if (!ok)
      log.fail("handshake for device " + std::to_string(device) + " got " +
               outcome_name(outcome_slot(response)));
    constexpr std::size_t cls = index(OpClass::kHandshake);
    if (!traced) {
      log.untraced(OpClass::kHandshake, us_between(t0, t1));
      return;
    }
    log.traced_us[cls].push_back(us_between(t0, t1));
    log.traced_cpu_us[cls] += static_cast<double>(cpu1 - cpu0) / 1e3;
    ++log.traced_cpu_n[cls];
    if (ok)
      traced_logs[c].add(challenge, response,
                         us_between(t_start, t0) + us_between(t1, t_end));
    const RequestId id{device, session, 0};
    const auto root = log.spans.add("handshake.op", -1, t_start, t_end, id);
    log.spans.add("core.make_challenge", root, t_start, t0, id);
    log.spans.add("cloud.handle", root, t0, t1, id);
    log.spans.add("core.complete", root, t1, t_end, id);
  });

  if (config.trace) {
    HandshakeLog merged;
    for (const auto& log : traced_logs) merged.merge(log);
    double mac_bytes = 0.0;
    report_handshakes(server, config.seed, merged, report, mac_bytes);
    const double verify_us = report.stages.total_us("net.verify_envelope");
    report.layer["net.mac_mb_s"] = verify_us > 0.0 ? mac_bytes / verify_us : 0.0;
  }
  return report;
}

}  // namespace medsen::perfbench
