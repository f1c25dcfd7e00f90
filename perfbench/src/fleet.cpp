// fleet_mixed: the read-mostly service path under a hostile fleet.
//
// Four closed-loop clients drive a 20,000-device fleet whose sessions
// were all negotiated in set-up. Each op is one handle() call:
//   55 % fresh 7.3 KB uploads, 20 % byte-identical ARQ replays of the
//   client's recent successes, 5 % plaintext auth passes, 20 % hostile
//   sends (bad MAC, burned counter with new bytes, MAC-valid garbage,
//   counter-0 command, unknown device, revoked device).
// No codec runs and nothing is journaled, so group commit and codec work
// must leave this workload unchanged.

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "cloud/quality.h"
#include "core/peak_report.h"
#include "core/session_crypto.h"
#include "fixture.h"

namespace medsen::perfbench {

namespace {

/// Distinct acquisitions per seed. Every upload and auth pass carries one
/// of them, so the analysis sees different bytes from request to request.
constexpr std::size_t kSeries = 16;

/// A small analyzable acquisition: one carrier, 2 s at 450 Hz (900
/// samples, 7.2 KB serialized) with two particle dips at `dips` (seconds)
/// and ADC-grain noise.
util::MultiChannelSeries fleet_series(const std::array<double, 2>& dips,
                                      double shift) {
  util::MultiChannelSeries series;
  series.carrier_frequencies_hz = {5.0e5};
  util::TimeSeries ts(450.0);
  for (std::size_t i = 0; i < 900; ++i) {
    const double t = static_cast<double>(i) / 450.0;
    double v = 1.0 + shift;
    for (const double center : dips) {
      const double z = (t - center) / 0.008;
      v *= 1.0 - 0.01 * std::exp(-0.5 * z * z);
    }
    v += 1e-5 * static_cast<double>(static_cast<int>((i * 7) % 11) - 5);
    ts.push_back(v);
  }
  series.channels.push_back(std::move(ts));
  return series;
}

std::vector<std::uint8_t> upload_payload(const util::MultiChannelSeries& s) {
  net::SignalUploadPayload upload;
  upload.sample_rate_hz = 450.0;
  upload.data = net::serialize_series(s);
  return upload.serialize();
}

bool same_envelope(const net::Envelope& a, const net::Envelope& b) {
  return a.type == b.type && a.session_id == b.session_id &&
         a.device_id == b.device_id && a.counter == b.counter &&
         a.payload == b.payload && a.mac == b.mac;
}

/// What an op sends; class_of() maps each kind to its request class.
enum class Kind { kUpload, kReplay, kAuth, kBadMac, kBurned, kGarbage,
                  kCounterZero, kUnknown, kRevoked };

struct Exchange {
  net::Envelope request;
  net::Envelope response;
};

/// One of the kSeries acquisitions, its payloads and the reference
/// responses set-up got for them.
struct Series {
  std::array<double, 2> dips{};
  std::vector<std::uint8_t> upload;  ///< SignalUpload payload
  std::vector<std::uint8_t> auth;    ///< AuthPass payload
  std::vector<std::uint8_t> ref_upload;
  std::vector<std::uint8_t> ref_auth;
};

/// A traced op kept for the decomposition pass.
struct Sample {
  OpClass cls;
  net::Envelope request;
  net::Envelope response;
};

struct FleetState {
  std::unique_ptr<Service> service;
  std::vector<std::unique_ptr<core::SessionCrypto>> cryptos;
  HandshakeLog handshakes;  ///< set-up handshakes
  std::size_t series_samples = 0;
  std::vector<Series> series;
  /// Same size as an upload, other bytes (the burned-counter sends).
  std::vector<std::uint8_t> altered;
};

/// True when the report's only channel holds exactly the two dips, each
/// within two samples of where it was put.
bool finds_dips(const std::vector<std::uint8_t>& report,
                const std::array<double, 2>& dips) {
  const auto peaks = core::PeakReport::deserialize(report);
  if (peaks.channels.size() != 1 || peaks.channels[0].peaks.size() != 2)
    return false;
  for (std::size_t i = 0; i < 2; ++i)
    if (std::abs(peaks.channels[0].peaks[i].time_s - dips[i]) > 2.0 / 450.0)
      return false;
  return true;
}

std::unique_ptr<FleetState> set_up(const RunConfig& config, std::size_t rep,
                                   RunReport& report) {
  auto state = std::make_unique<FleetState>();
  // Uploads never journal, so fsync would only slow set-up handshakes.
  state->service = restart_service(config, rep, /*fsync=*/false,
                                   /*quality_gate=*/true, report);
  auto& server = *state->service->server;

  SplitMix rng{config.seed ^ 0x464C454554ull};  // "FLEET"
  state->series.resize(kSeries);
  for (auto& s : state->series) {
    s.dips = {0.4 + 0.4 * rng.uniform(), 1.1 + 0.5 * rng.uniform()};
    const auto acquisition = fleet_series(s.dips, 0.0);
    state->series_samples = acquisition.channels.front().size();
    s.upload = upload_payload(acquisition);
    net::AuthPassPayload pass;
    pass.upload = net::SignalUploadPayload::deserialize(s.upload);
    pass.volume_ul = 1.0;
    s.auth = pass.serialize();
  }
  state->altered = upload_payload(fleet_series(state->series[0].dips, 1e-3));

  state->cryptos.resize(kFleetDevices);
  std::atomic<bool> ok{true};
  std::vector<HandshakeLog> logs(kFleetClients);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kFleetClients; ++c) {
    threads.emplace_back([&, c] {
      try {
        for (std::uint64_t id = c; id < kFleetDevices; id += kFleetClients) {
          auto crypto = std::make_unique<core::SessionCrypto>(
              id, device_key(config.seed, id), kEpoch, config.seed ^ id);
          if (!run_handshake(server, *crypto, (2ull << 56) + id, logs[c]))
            ok = false;
          state->cryptos[id] = std::move(crypto);
        }
      } catch (const std::exception&) {
        ok = false;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  if (!ok) throw std::runtime_error("fleet_mixed set-up: handshake failed");
  for (const auto& log : logs) state->handshakes.merge(log);

  // Reference responses: device 0 uploads and authenticates each series
  // once, and the analysis must find the series' two dips.
  auto& crypto = *state->cryptos[0];
  for (auto& s : state->series) {
    const auto up = server.handle(net::make_envelope(
        net::MessageType::kSignalUpload, crypto.session_id(), 0, s.upload,
        crypto.session_mac_key(), crypto.next_counter()));
    const auto au = server.handle(net::make_envelope(
        net::MessageType::kAuthPass, crypto.session_id(), 0, s.auth,
        crypto.session_mac_key(), crypto.next_counter()));
    if (up.type != net::MessageType::kAnalysisResult ||
        au.type != net::MessageType::kAuthDecision)
      throw std::runtime_error("fleet_mixed set-up: reference refused (" +
                               outcome_name(outcome_slot(up)) + ", " +
                               outcome_name(outcome_slot(au)) + ")");
    if (!finds_dips(up.payload, s.dips))
      throw std::runtime_error(
          "fleet_mixed set-up: the analysis missed a series' dips");
    s.ref_upload = up.payload;
    s.ref_auth = au.payload;
  }
  return state;
}

struct Client {
  SplitMix rng{0};
  std::vector<Exchange> history;  ///< ring of recent successes
  std::size_t history_next = 0;
  std::vector<Sample> samples;
  std::array<std::size_t, kClassCount> sampled{};
};
constexpr std::size_t kHistory = 32;
constexpr std::size_t kSamplesPerClass = 64;

Kind draw_kind(SplitMix& rng, bool have_history) {
  const double u = rng.uniform();
  if (u < 0.55) return Kind::kUpload;
  if (u < 0.75) return have_history ? Kind::kReplay : Kind::kUpload;
  if (u < 0.80) return Kind::kAuth;
  const double v = (u - 0.80) / 0.20;
  if (v < 0.25) return Kind::kBadMac;
  if (v < 0.50) return have_history ? Kind::kBurned : Kind::kBadMac;
  if (v < 0.625) return Kind::kGarbage;
  if (v < 0.75) return Kind::kCounterZero;
  if (v < 0.875) return Kind::kUnknown;
  return Kind::kRevoked;
}

OpClass class_of(Kind kind) {
  switch (kind) {
    case Kind::kUpload: return OpClass::kUpload;
    case Kind::kReplay: return OpClass::kReplay;
    case Kind::kAuth: return OpClass::kAuth;
    case Kind::kBadMac:
    case Kind::kBurned: return OpClass::kReject;
    default: return OpClass::kHostile;
  }
}

const char* root_name(OpClass cls) {
  switch (cls) {
    case OpClass::kUpload: return "fleet.upload";
    case OpClass::kReplay: return "fleet.replay";
    case OpClass::kAuth: return "fleet.auth";
    case OpClass::kReject: return "fleet.reject";
    default: return "fleet.hostile";
  }
}

/// Time the public functions handle() runs for one traced request.
void decompose(FleetState& state, const Sample& sample, StageTimes& stages,
               double& mac_bytes) {
  auto& server = *state.service->server;
  const auto& req = sample.request;
  const RequestId id{req.device_id, req.session_id, req.counter};
  const OpClass cls = sample.cls;
  const std::int32_t root = stages.spans().add(
      cls == OpClass::kUpload   ? "decompose.upload"
      : cls == OpClass::kReplay ? "decompose.replay"
      : cls == OpClass::kAuth   ? "decompose.auth"
                                : "decompose.reject",
      -1, now_ns(), 0, id);
  if (cls != OpClass::kReplay) {
    stages.time(cls, "net.make_envelope", false, root, id, [&] {
      return net::make_envelope(req.type, req.session_id, req.device_id,
                                req.payload, state.cryptos[req.device_id]
                                                 ->session_mac_key(),
                                req.counter);
    });
  }
  const auto key = stages.time(cls, "cloud.dispatch.resolve", true, root, id, [&] {
    (void)server.devices().is_revoked(req.device_id);
    return server.sessions().session_key(req.device_id, req.session_id);
  });
  if (!key) throw std::runtime_error("decompose: session key vanished");
  stages.time(cls, "net.verify_envelope", true, root, id,
              [&] { return net::verify_envelope(req, *key); });
  mac_bytes += static_cast<double>(req.payload.size());
  if (cls == OpClass::kUpload || cls == OpClass::kAuth) {
    const auto series = stages.time(cls, "net.decode_upload", true, root, id, [&] {
      const auto upload =
          cls == OpClass::kUpload
              ? net::SignalUploadPayload::deserialize(req.payload)
              : net::AuthPassPayload::deserialize(req.payload).upload;
      return net::deserialize_series(upload.data);
    });
    if (cls == OpClass::kUpload)
      stages.time(cls, "cloud.quality.assess", true, root, id,
                  [&] { return cloud::assess_quality(series); });
    stages.time(cls, "cloud.analysis.analyze", true, root, id,
                [&] { return server.analysis().analyze(series); });
  }
  const auto& resp = sample.response;
  stages.time(cls, "net.make_envelope.response", true, root, id, [&] {
    return net::make_envelope(resp.type, req.session_id, req.device_id,
                              resp.payload, *key, req.counter);
  });
  stages.spans().set_end(root, now_ns());
}

}  // namespace

RunReport run_fleet_mixed(const RunConfig& config) {
  RunReport report;
  report.primary = OpClass::kUpload;
  auto state = repeat_setup(report, [&](std::size_t rep) {
    return set_up(config, rep, report);
  });
  auto& server = *state->service->server;
  std::vector<Client> clients(kFleetClients);
  for (std::size_t c = 0; c < kFleetClients; ++c)
    clients[c].rng = SplitMix{config.seed * 0x2545F4914F6CDD1Dull + c};

  timed_phase(config, kFleetClients, 150000, *state->service, report,
              [&](std::size_t c, bool traced, ClientLog& log) {
    auto& client = clients[c];
    auto& rng = client.rng;
    const Kind kind = draw_kind(rng, !client.history.empty());
    const OpClass cls = class_of(kind);
    const Series& series = state->series[rng.next() % kSeries];
    std::uint64_t device =
        c + kFleetClients * (rng.next() % (kFleetDevices / kFleetClients));
    const Exchange* past = nullptr;
    if (kind == Kind::kReplay || kind == Kind::kBurned) {
      past = &client.history[rng.next() % client.history.size()];
      device = past->request.device_id;
    }
    auto& crypto = *state->cryptos[device];
    log.note_op(cls, device);

    const std::uint64_t t_build = now_ns();
    net::Envelope request;
    switch (kind) {
      case Kind::kUpload:
      case Kind::kBadMac:
        request = net::make_envelope(
            net::MessageType::kSignalUpload, crypto.session_id(), device,
            series.upload, crypto.session_mac_key(), crypto.next_counter());
        if (kind == Kind::kBadMac) request.payload[0] ^= 0xFF;
        break;
      case Kind::kReplay:
        request = past->request;
        break;
      case Kind::kAuth:
        request = net::make_envelope(
            net::MessageType::kAuthPass, crypto.session_id(), device,
            series.auth, crypto.session_mac_key(), crypto.next_counter());
        break;
      case Kind::kBurned:
        request = net::make_envelope(
            net::MessageType::kSignalUpload, past->request.session_id, device,
            state->altered, crypto.session_mac_key(), past->request.counter);
        break;
      case Kind::kGarbage:
        request = net::make_envelope(
            net::MessageType::kSignalUpload, crypto.session_id(), device,
            {0xDE, 0xAD}, crypto.session_mac_key(), crypto.next_counter());
        break;
      case Kind::kCounterZero:
        request = net::make_envelope(net::MessageType::kSignalUpload,
                                     crypto.session_id(), device,
                                     series.upload, crypto.device_key(), 0);
        break;
      case Kind::kUnknown:
      case Kind::kRevoked: {
        device = kind == Kind::kRevoked
                     ? kFleetDevices + rng.next() % kRevokedDevices
                     : kFleetDevices + kRevokedDevices + 1 +
                           rng.next() % 1000000;
        request = net::make_envelope(net::MessageType::kSignalUpload,
                                     device, device, series.upload,
                                     crypto.device_key(), 1);
        break;
      }
    }
    log.uplink_bytes += static_cast<double>(request.payload.size());

    const std::uint64_t cpu0 = traced ? thread_cpu_ns() : 0;
    const std::uint64_t t0 = now_ns();
    const net::Envelope response = server.handle(request);
    const std::uint64_t t1 = now_ns();
    const std::uint64_t cpu1 = traced ? thread_cpu_ns() : 0;

    log.tally(response);
    const auto code = response.type == net::MessageType::kError
                          ? error_code(response)
                          : net::ErrorCode{};
    const auto is_error = [&](std::initializer_list<net::ErrorCode> allowed) {
      return response.type == net::MessageType::kError &&
             std::find(allowed.begin(), allowed.end(), code) != allowed.end();
    };
    bool ok = false;
    switch (kind) {
      case Kind::kUpload:
        ok = response.type == net::MessageType::kAnalysisResult &&
             response.payload == series.ref_upload;
        break;
      case Kind::kReplay: ok = same_envelope(response, past->response); break;
      case Kind::kAuth:
        ok = response.type == net::MessageType::kAuthDecision &&
             response.payload == series.ref_auth;
        break;
      case Kind::kBadMac: ok = is_error({net::ErrorCode::kBadMac}); break;
      case Kind::kBurned:
        ok = is_error({net::ErrorCode::kSessionConflict,
                       net::ErrorCode::kStaleCounter});
        break;
      case Kind::kGarbage: ok = is_error({net::ErrorCode::kMalformed}); break;
      case Kind::kCounterZero:
        ok = is_error({net::ErrorCode::kAuthRequired});
        break;
      case Kind::kUnknown:
        ok = is_error({net::ErrorCode::kAuthRequired,
                       net::ErrorCode::kUnknownDevice});
        break;
      case Kind::kRevoked: ok = is_error({net::ErrorCode::kRevoked}); break;
    }
    if (!ok) {
      log.fail(std::string(class_name(cls)) + " op on device " +
               std::to_string(device) + " got " +
               outcome_name(outcome_slot(response)));
    } else if (kind == Kind::kUpload) {
      Exchange done{request, response};
      if (client.history.size() < kHistory) {
        client.history.push_back(std::move(done));
      } else {
        client.history[client.history_next] = std::move(done);
        client.history_next = (client.history_next + 1) % kHistory;
      }
    }
    const std::uint64_t t_end = now_ns();

    const double handle_us = us_between(t0, t1);
    if (!traced) {
      log.untraced(cls, handle_us);
      return;
    }
    log.traced_us[index(cls)].push_back(handle_us);
    log.traced_cpu_us[index(cls)] += static_cast<double>(cpu1 - cpu0) / 1e3;
    ++log.traced_cpu_n[index(cls)];
    const RequestId id{request.device_id, request.session_id, request.counter};
    const auto root = log.spans.add(root_name(cls), -1, t_build, t_end, id);
    log.spans.add("net.make_envelope", root, t_build, t0, id);
    log.spans.add("cloud.handle", root, t0, t1, id);
    log.spans.add("bench.check", root, t1, t_end, id);
    if (cls != OpClass::kHostile && ok &&
        client.sampled[index(cls)] < kSamplesPerClass) {
      ++client.sampled[index(cls)];
      client.samples.push_back({cls, request, response});
    }
  });

  if (config.trace) {
    double mac_bytes = 0.0;
    for (auto& client : clients)
      for (const auto& sample : client.samples)
        decompose(*state, sample, report.stages, mac_bytes);
    const double verify_us = report.stages.total_us("net.verify_envelope");
    report.layer["net.mac_mb_s"] = verify_us > 0.0 ? mac_bytes / verify_us : 0.0;
    const double analyze_us =
        report.stages.mean_us(OpClass::kUpload, "cloud.analysis.analyze");
    report.layer["dsp.msamples_per_s"] =
        analyze_us > 0.0
            ? static_cast<double>(state->series_samples) / analyze_us
            : 0.0;
    double handshake_mac_bytes = 0.0;
    report_handshakes(server, config.seed, state->handshakes, report,
                      handshake_mac_bytes);
  }
  return report;
}

}  // namespace medsen::perfbench
