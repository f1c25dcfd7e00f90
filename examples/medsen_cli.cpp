// medsen_cli — command-line driver for the MedSen pipeline.
//
//   medsen_cli diagnose [--cells N/uL] [--duration S] [--seed K]
//                       [--electrodes 2|3|5|9|16] [--per-cell-keys]
//   medsen_cli auth --code L-L [--duration S] [--seed K]
//   medsen_cli enroll-demo [--users N]
//   medsen_cli keysize [--cells N] [--electrodes N] [--bits B]
//
// A thin shell over the library so the full protocol can be exercised
// without writing code; every command prints a short human-readable
// report.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "auth/collision.h"
#include "cloud/server.h"
#include "core/controller.h"
#include "core/encryptor.h"
#include "core/percell.h"
#include "enroll_device.h"
#include "crypto/keymath.h"
#include "phone/relay.h"

using namespace medsen;

namespace {

struct Args {
  double cells = 450.0;
  double duration = 60.0;
  std::uint64_t seed = 1;
  std::size_t electrodes = 9;
  std::string code;
  int users = 5;
  std::uint64_t keysize_cells = 20000;
  unsigned bits = 4;
  bool per_cell_keys = false;
};

Args parse(int argc, char** argv, int start) {
  Args args;
  for (int i = start; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--cells") args.cells = std::atof(next());
    else if (flag == "--duration") args.duration = std::atof(next());
    else if (flag == "--seed") args.seed = std::strtoull(next(), nullptr, 10);
    else if (flag == "--electrodes") args.electrodes = std::strtoul(next(), nullptr, 10);
    else if (flag == "--code") args.code = next();
    else if (flag == "--users") args.users = std::atoi(next());
    else if (flag == "--bits") args.bits = static_cast<unsigned>(std::atoi(next()));
    else if (flag == "--per-cell-keys") args.per_cell_keys = true;
    else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      std::exit(2);
    }
  }
  return args;
}

core::KeyParams key_params_for(std::size_t electrodes) {
  core::KeyParams params;
  params.num_electrodes = electrodes;
  params.gain_min = 0.8;
  params.gain_max = 1.6;
  return params;
}

int cmd_diagnose(const Args& args) {
  const auto design = sim::standard_design(args.electrodes);
  const auto params = key_params_for(args.electrodes);
  sim::ChannelConfig channel;
  sim::AcquisitionConfig acq;
  acq.carriers_hz = {5.0e5, 2.0e6};

  core::Controller controller(params, design,
                              core::DiagnosticProfile::cd4_staging(),
                              args.seed * 7919);
  cloud::ServiceConfig service;
  service.allow_legacy_plane = false;
  auto server = cloud::CloudServer(cloud::AnalysisConfig{},
                                   auth::CytoAlphabet{},
                                   auth::ParticleClassifier::train({}),
                                   auth::VerifierConfig{}, nullptr, service);
  phone::PhoneRelay relay;
  const auto mac_key = examples::enroll_device(
      server, relay.config().device_id, std::vector<std::uint8_t>(16, 0x11));
  controller.enable_session_crypto(relay.config().device_id, mac_key);
  if (!relay.establish_session(controller, args.seed, server)) {
    std::fprintf(stderr, "session handshake failed\n");
    return 1;
  }

  sim::SampleSpec sample;
  sample.components = {{sim::ParticleType::kBloodCell, args.cells}};

  core::PeakReport report;
  core::Diagnosis diagnosis;
  if (args.per_cell_keys) {
    crypto::ChaChaRng key_rng(args.seed * 31);
    const auto result = core::acquire_per_cell_keyed(
        sample, channel, design, acq, params, args.duration, key_rng,
        args.seed);
    const auto response = relay.relay_analysis(
        result.acquisition.signals, 0, server, {},
        controller.session_crypto());
    report = core::PeakReport::deserialize(response.payload);
    const auto decoded = core::decrypt_report(report, result.schedule,
                                              design, args.duration);
    const double volume = 0.08 * args.duration / 60.0;
    diagnosis = core::diagnose(core::DiagnosticProfile::cd4_staging(),
                               decoded.estimated_count, volume);
    std::printf("scheme: ideal per-cell keys (%llu bits)\n",
                static_cast<unsigned long long>(result.schedule.size_bits()));
  } else {
    (void)controller.begin_session(args.duration);
    core::SensorEncryptor encryptor(design, channel, acq);
    const auto enc = encryptor.acquire(
        sample, controller.session_key_schedule_for_testing(),
        args.duration, args.seed);
    const auto response = relay.relay_analysis(
        enc.signals, 0, server, {}, controller.session_crypto());
    report = core::PeakReport::deserialize(response.payload);
    diagnosis = controller.conclude(report);
    std::printf("scheme: periodic keys (%llu bits)\n",
                static_cast<unsigned long long>(
                    controller.session_key_bits()));
  }
  std::printf("ciphertext peaks seen by cloud: %zu\n",
              report.reference_peak_count());
  std::printf("decoded: %.1f cells in %.3f uL -> %.0f cells/uL\n",
              diagnosis.estimated_count, diagnosis.volume_ul,
              diagnosis.concentration_per_ul);
  std::printf("diagnosis: %s%s\n", diagnosis.condition.c_str(),
              diagnosis.alert ? "  [ALERT]" : "");
  std::printf("latency: %.0f ms\n", relay.timing().total_s() * 1e3);
  return 0;
}

int cmd_auth(const Args& args) {
  if (args.code.empty()) {
    std::fprintf(stderr, "auth requires --code L-L (e.g. --code 1-2)\n");
    return 2;
  }
  auth::CytoAlphabet alphabet;
  auth::CytoCode code;
  for (std::size_t pos = 0; pos < args.code.size();) {
    const std::size_t dash = args.code.find('-', pos);
    const std::string field = args.code.substr(
        pos, dash == std::string::npos ? std::string::npos : dash - pos);
    code.levels.push_back(static_cast<std::uint8_t>(std::atoi(field.c_str())));
    if (dash == std::string::npos) break;
    pos = dash + 1;
  }
  if (code.levels.size() != alphabet.characters()) {
    std::fprintf(stderr, "code must have %zu characters\n",
                 alphabet.characters());
    return 2;
  }

  cloud::ServiceConfig service;
  service.allow_legacy_plane = false;
  auto server = cloud::CloudServer(cloud::AnalysisConfig{}, alphabet,
                                   auth::ParticleClassifier::train({}),
                                   auth::VerifierConfig{}, nullptr, service);
  server.enrollments().enroll("patient", code);

  const auto design = sim::standard_design(9);
  const auto params = key_params_for(9);
  core::Controller controller(params, design,
                              core::DiagnosticProfile::cd4_staging(),
                              args.seed);
  (void)controller.begin_plaintext_session(args.duration);

  sim::SampleSpec sample;
  sample.components = auth::encode_mixture(alphabet, code);
  sample.components.push_back({sim::ParticleType::kBloodCell, 400.0});
  sim::ChannelConfig channel;
  core::SensorEncryptor encryptor(design, channel,
                                  sim::AcquisitionConfig{});
  const auto enc = encryptor.acquire(
      sample, controller.session_key_schedule_for_testing(), args.duration,
      args.seed + 1);

  phone::PhoneRelay relay;
  const auto mac_key = examples::enroll_device(
      server, relay.config().device_id, std::vector<std::uint8_t>(16, 0x22));
  controller.enable_session_crypto(relay.config().device_id, mac_key);
  if (!relay.establish_session(controller, args.seed, server)) {
    std::fprintf(stderr, "session handshake failed\n");
    return 1;
  }
  const auto response = relay.relay_auth(
      enc.signals, 0, controller.session_volume_ul(), server, {},
      args.duration, controller.session_crypto());
  const auto decision =
      net::AuthDecisionPayload::deserialize(response.payload);
  std::printf("code %s -> %s (matched '%s', distance %.3f)\n",
              code.to_string().c_str(),
              decision.authenticated ? "AUTHENTICATED" : "REJECTED",
              decision.user_id.c_str(), decision.distance);
  return decision.authenticated ? 0 : 1;
}

int cmd_enroll_demo(const Args& args) {
  auth::CytoAlphabet alphabet;
  auth::EnrollmentDatabase db(alphabet);
  crypto::ChaChaRng rng(args.seed);
  std::printf("alphabet: %zu types x %zu levels = %llu codes (%.1f bits)\n",
              alphabet.characters(), alphabet.levels(),
              static_cast<unsigned long long>(alphabet.space_size()),
              alphabet.entropy_bits());
  for (int i = 0; i < args.users; ++i) {
    const auto code =
        db.enroll_random("user" + std::to_string(i), rng);
    std::printf("  user%d -> %s\n", i, code.to_string().c_str());
  }
  std::printf("birthday collision probability at %d users: %.4f\n",
              args.users,
              auth::birthday_collision_probability(
                  alphabet, static_cast<std::uint64_t>(args.users)));
  return 0;
}

int cmd_keysize(const Args& args) {
  crypto::KeySizeParams params;
  params.cells = args.keysize_cells;
  params.electrodes = static_cast<std::uint32_t>(args.electrodes);
  params.gain_bits = args.bits;
  params.flow_bits = args.bits;
  std::printf("ideal per-cell key (Eq. 2): %llu bits (%.4f MB) for %llu "
              "cells, %zu electrodes, %u-bit gains/flow\n",
              static_cast<unsigned long long>(crypto::total_key_bits(params)),
              static_cast<double>(crypto::total_key_bytes(params)) / 1e6,
              static_cast<unsigned long long>(params.cells),
              args.electrodes, args.bits);
  std::printf("periodic scheme, 60 s at 2 s rotation: %llu bits\n",
              static_cast<unsigned long long>(
                  crypto::periodic_key_bits(params, 60.0, 2.0)));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: medsen_cli <diagnose|auth|enroll-demo|keysize> "
                 "[flags]\n");
    return 2;
  }
  const std::string command = argv[1];
  Args args = parse(argc, argv, 2);
  if (command == "keysize") args.keysize_cells = static_cast<std::uint64_t>(args.cells == 450.0 ? 20000 : args.cells);
  if (command == "diagnose") return cmd_diagnose(args);
  if (command == "auth") return cmd_auth(args);
  if (command == "enroll-demo") return cmd_enroll_demo(args);
  if (command == "keysize") return cmd_keysize(args);
  std::fprintf(stderr, "unknown command: %s\n", command.c_str());
  return 2;
}
