// clinical_session: the paper's ~0.2 s diagnostic path.
//
// Four clinics each run one patient's session at a time (a closed loop
// of one serial client per clinic, each with its own dongle and a
// session negotiated in set-up). Each op is:
//   1. PhoneRelay::relay_analysis of a pre-simulated 20 s, 2-carrier,
//      9-electrode acquisition (serialize, compress, MAC, handle());
//   2. the server's handle() with the quality gate on (inside 1);
//   3. Controller::conclude on the returned peak report;
//   4. store_result of the ciphertext report into the sealed, fsync-on
//      journal.
// This is the only workload where the codec, the large-payload MAC and
// the DSP do most of the work. Acquisition is simulated before timing
// starts: in the paper it is physical pumping time.

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "cloud/quality.h"
#include "compress/codec.h"
#include "core/controller.h"
#include "core/encryptor.h"
#include "fixture.h"
#include "phone/relay.h"

namespace medsen::perfbench {

namespace {

constexpr std::size_t kClinics = kFleetClients;
constexpr std::size_t kPatients = 4;
constexpr double kDurationS = 20.0;
constexpr std::size_t kDecomposedSessions = 16;
/// The acquisitions are the same for every seed. A patient's simulated
/// cell count is Poisson-distributed, and the stored reports and cached
/// responses grow with the peaks it yields, so seeded acquisitions made
/// peak RSS differ by up to 20 % from seed to seed. The seed picks the
/// device keys, the patient codes, the stored content and the op order.
constexpr std::uint64_t kAcquisitionSeed = 1;

/// One patient's pre-simulated acquisition and its reference outcome.
struct Patient {
  std::uint64_t controller_seed = 0;
  util::MultiChannelSeries series;
  std::size_t raw_bytes = 0;  ///< serialized acquisition, before the codec
  std::size_t cells = 0;      ///< simulated ground truth
  std::vector<std::uint8_t> ref_payload;
  core::Diagnosis ref_diagnosis;
};

/// One clinic: a dongle (fleet device `index`), its phone relay and one
/// controller per patient holding that patient's session key schedule.
struct Clinic {
  std::uint64_t device = 0;
  std::unique_ptr<core::SessionCrypto> dongle;
  std::unique_ptr<phone::PhoneRelay> relay;
  std::vector<std::unique_ptr<core::Controller>> controllers;
  std::vector<auth::CytoCode> codes;
  SplitMix rng{0};
  // Traced-op accumulators.
  double raw_bytes = 0.0;
  double build_us = 0.0;
  double conclude_us = 0.0;
  double store_us = 0.0;
  std::uint64_t traced_ops = 0;
  std::vector<std::size_t> traced_patients;
};

struct ClinicalState {
  std::unique_ptr<Service> service;
  HandshakeLog handshakes;
  std::vector<Patient> patients;
  std::vector<Clinic> clinics;
};

bool same_diagnosis(const core::Diagnosis& a, const core::Diagnosis& b) {
  return a.estimated_count == b.estimated_count &&
         a.volume_ul == b.volume_ul &&
         a.concentration_per_ul == b.concentration_per_ul &&
         a.condition == b.condition && a.alert == b.alert &&
         a.confidence == b.confidence;
}

/// The bench_e2e_latency rig: 9-output array, gains narrowed to 0.8-1.6.
/// The same seed gives the same key schedule, so every clinic can hold
/// its own controller for a shared acquisition.
std::unique_ptr<core::Controller> make_controller(std::uint64_t seed) {
  core::KeyParams key_params;
  key_params.num_electrodes = 9;
  key_params.period_s = 4.0;
  key_params.gain_min = 0.8;
  key_params.gain_max = 1.6;
  auto controller = std::make_unique<core::Controller>(
      key_params, sim::standard_design(9),
      core::DiagnosticProfile::cd4_staging(), seed);
  (void)controller->begin_session(kDurationS);
  return controller;
}

/// 500 kHz + 2 MHz carriers, quiet noise and drift.
Patient simulate_patient(std::uint64_t seed, std::size_t index) {
  sim::AcquisitionConfig acquisition;
  acquisition.carriers_hz = {5.0e5, 2.0e6};
  acquisition.noise_sigma = 5e-5;
  acquisition.drift.slow_amplitude = 0.002;
  acquisition.drift.random_walk_sigma = 1e-6;

  SplitMix rng{seed * 0x9E3779B97F4A7C15ull + index};
  Patient patient;
  patient.controller_seed = rng.next();
  const auto controller = make_controller(patient.controller_seed);
  // Fixed cell counts spanning the CD4 staging bands, so every seed
  // carries the same analysis work; the seed picks keys and noise.
  sim::SampleSpec sample;
  sample.components = {{sim::ParticleType::kBloodCell,
                        250.0 + 100.0 * static_cast<double>(index)}};
  core::SensorEncryptor encryptor(sim::standard_design(9), sim::ChannelConfig{},
                                  acquisition);
  auto acquired = encryptor.acquire(
      sample, controller->session_key_schedule_for_testing(), kDurationS,
      rng.next());
  patient.series = std::move(acquired.signals);
  patient.cells = acquired.truth.total_particles();
  patient.raw_bytes = net::serialize_series(patient.series).size();
  return patient;
}

std::unique_ptr<ClinicalState> set_up(const RunConfig& config, std::size_t rep,
                                      RunReport& report) {
  auto state = std::make_unique<ClinicalState>();
  state->service = restart_service(config, rep, /*fsync=*/true,
                                   /*quality_gate=*/true, report);
  auto& server = *state->service->server;
  state->patients.resize(kPatients);
  {
    std::vector<std::thread> threads;
    for (std::size_t p = 0; p < kPatients; ++p)
      threads.emplace_back([&, p] {
        state->patients[p] = simulate_patient(kAcquisitionSeed, p);
      });
    for (auto& thread : threads) thread.join();
  }

  state->clinics.resize(kClinics);
  for (std::size_t c = 0; c < kClinics; ++c) {
    auto& clinic = state->clinics[c];
    clinic.device = c;
    clinic.dongle = std::make_unique<core::SessionCrypto>(
        c, device_key(config.seed, c), kEpoch, config.seed ^ c);
    if (!run_handshake(server, *clinic.dongle, (4ull << 56) + c,
                       state->handshakes))
      throw std::runtime_error("clinical_session set-up: handshake failed");
    phone::RelayConfig relay;
    relay.device_id = c;
    clinic.relay = std::make_unique<phone::PhoneRelay>(relay);
    for (std::size_t p = 0; p < kPatients; ++p) {
      clinic.controllers.push_back(
          make_controller(state->patients[p].controller_seed));
      clinic.codes.push_back(patient_code(config.seed, c * kPatients + p));
    }
    clinic.rng = SplitMix{config.seed * 0x2545F4914F6CDD1Dull + c};
  }

  // Reference pass: each patient's session once through clinic 0, stored
  // like the timed ones (the first store also compacts the recovered
  // journal tail).
  auto& clinic = state->clinics.front();
  for (std::size_t p = 0; p < kPatients; ++p) {
    auto& patient = state->patients[p];
    const auto response = clinic.relay->relay_analysis(
        patient.series, 0, server, {}, clinic.dongle.get());
    if (response.type != net::MessageType::kAnalysisResult)
      throw std::runtime_error("clinical_session set-up: reference refused (" +
                               outcome_name(outcome_slot(response)) + ")");
    patient.ref_payload = response.payload;
    patient.ref_diagnosis = clinic.controllers[p]->conclude(
        core::PeakReport::deserialize(response.payload));
    // The reference itself must be plausible: a 20 s window holds only
    // about ten cells, so the decoded count may miss the simulated one by
    // four cells or half of it, but not more.
    const double truth = static_cast<double>(patient.cells);
    if (std::abs(patient.ref_diagnosis.estimated_count - truth) >
        std::max(4.0, 0.5 * truth))
      throw std::runtime_error(
          "clinical_session set-up: wrong diagnosis for patient " +
          std::to_string(p) + " (decoded " +
          std::to_string(patient.ref_diagnosis.estimated_count) +
          " cells, simulated " + std::to_string(patient.cells) + ")");
    if (rep + 1 == kSetupReps)
      std::printf("patient %zu: %zu cells simulated, %.1f decoded, %s\n", p,
                  patient.cells, patient.ref_diagnosis.estimated_count,
                  patient.ref_diagnosis.condition.c_str());
    server.store_result(clinic.codes[p],
                        {clinic.dongle->last_counter(), response.payload});
  }
  return state;
}

/// Re-encode one patient's upload with the functions the relay uses,
/// send it through handle() directly (timing its thread CPU), then time
/// each public function handle() runs on those bytes.
void decompose(ClinicalState& state, const Patient& patient,
               StageTimes& stages, double& mac_bytes,
               std::vector<double>& oncpu_us, std::vector<double>& offcpu_us,
               ClientLog& log) {
  constexpr OpClass cls = OpClass::kSession;
  auto& server = *state.service->server;
  auto& clinic = state.clinics.front();
  auto& dongle = *clinic.dongle;
  const std::uint32_t counter = dongle.next_counter();
  const RequestId id{clinic.device, dongle.session_id(), counter};
  const std::int32_t root =
      stages.spans().add("decompose.session", -1, now_ns(), 0, id);

  const auto raw = stages.time(cls, "net.serialize_series", false, root, id,
                               [&] { return net::serialize_series(patient.series); });
  const auto packed = stages.time(cls, "compress.compress", false, root, id,
                            [&] { return compress::compress(raw); });
  const auto payload = stages.time(cls, "net.encode_upload", false, root, id, [&] {
    net::SignalUploadPayload upload;
    upload.compressed = true;
    upload.sample_rate_hz = patient.series.channels.front().sample_rate();
    upload.data = packed;
    return upload.serialize();
  });
  const auto request = stages.time(cls, "net.make_envelope", false, root, id, [&] {
    return net::make_envelope(net::MessageType::kSignalUpload,
                              dongle.session_id(), clinic.device, payload,
                              dongle.session_mac_key(), counter);
  });

  const std::uint64_t cpu0 = thread_cpu_ns();
  const std::uint64_t t0 = now_ns();
  const auto response = server.handle(request);
  const std::uint64_t t1 = now_ns();
  const std::uint64_t cpu1 = thread_cpu_ns();
  stages.spans().add("cloud.handle", root, t0, t1, id);
  oncpu_us.push_back(static_cast<double>(cpu1 - cpu0) / 1e3);
  offcpu_us.push_back(us_between(t0, t1) - oncpu_us.back());
  if (response.type != net::MessageType::kAnalysisResult ||
      response.payload != patient.ref_payload)
    log.fail("decomposition upload got " + outcome_name(outcome_slot(response)));

  const auto key = stages.time(cls, "cloud.dispatch.resolve", true, root, id, [&] {
    (void)server.devices().is_revoked(clinic.device);
    return server.sessions().session_key(clinic.device, dongle.session_id());
  });
  if (!key) throw std::runtime_error("decompose: session key vanished");
  stages.time(cls, "net.verify_envelope", true, root, id,
              [&] { return net::verify_envelope(request, *key); });
  mac_bytes += static_cast<double>(request.payload.size());
  const auto upload = stages.time(cls, "net.decode_upload", true, root, id, [&] {
    return net::SignalUploadPayload::deserialize(request.payload);
  });
  const auto unpacked = stages.time(cls, "compress.decompress", true, root, id,
                                    [&] { return compress::decompress(upload.data); });
  const auto series = stages.time(cls, "net.deserialize_series", true, root, id,
                                  [&] { return net::deserialize_series(unpacked); });
  stages.time(cls, "cloud.quality.assess", true, root, id,
              [&] { return cloud::assess_quality(series); });
  stages.time(cls, "cloud.analysis.analyze", true, root, id,
              [&] { return server.analysis().analyze(series); });
  stages.time(cls, "net.make_envelope.response", true, root, id, [&] {
    return net::make_envelope(response.type, request.session_id,
                              clinic.device, response.payload, *key, counter);
  });
  stages.spans().set_end(root, now_ns());
}

}  // namespace

RunReport run_clinical_session(const RunConfig& config) {
  RunReport report;
  report.primary = OpClass::kSession;
  auto state = repeat_setup(report, [&](std::size_t rep) {
    return set_up(config, rep, report);
  });
  auto& server = *state->service->server;

  timed_phase(config, kClinics, 2048, *state->service, report,
              [&](std::size_t c, bool traced, ClientLog& log) {
    auto& clinic = state->clinics[c];
    const std::size_t p = clinic.rng.next() % kPatients;
    const auto& patient = state->patients[p];
    log.note_op(OpClass::kSession, p);

    const std::uint64_t t0 = now_ns();
    const auto response = clinic.relay->relay_analysis(
        patient.series, 0, server, {}, clinic.dongle.get());
    const std::uint64_t t1 = now_ns();
    log.tally(response);
    if (response.type != net::MessageType::kAnalysisResult ||
        response.payload != patient.ref_payload) {
      log.fail("session for patient " + std::to_string(p) + " got " +
               outcome_name(outcome_slot(response)));
      return;
    }
    const auto peaks = core::PeakReport::deserialize(response.payload);
    const std::uint64_t t2 = now_ns();
    const auto diagnosis = clinic.controllers[p]->conclude(peaks);
    const std::uint64_t t3 = now_ns();
    if (!same_diagnosis(diagnosis, patient.ref_diagnosis))
      log.fail("session for patient " + std::to_string(p) +
               " decoded a different diagnosis");
    const std::uint32_t counter = clinic.dongle->last_counter();
    server.store_result(clinic.codes[p], {counter, response.payload});
    const std::uint64_t t4 = now_ns();

    log.uplink_bytes += static_cast<double>(clinic.relay->last_upload_bytes());
    clinic.raw_bytes += static_cast<double>(patient.raw_bytes);
    constexpr std::size_t cls = index(OpClass::kSession);
    if (!traced) {
      log.untraced(OpClass::kSession, us_between(t0, t4));
      return;
    }
    const double handle_us = clinic.relay->timing().analysis_s * 1e6;
    log.traced_us[cls].push_back(handle_us);
    clinic.build_us += us_between(t0, t1) - handle_us;
    clinic.conclude_us += us_between(t2, t3);
    clinic.store_us += us_between(t3, t4);
    ++clinic.traced_ops;
    if (clinic.traced_patients.size() < kDecomposedSessions)
      clinic.traced_patients.push_back(p);

    const RequestId id{clinic.device, clinic.dongle->session_id(), counter};
    const auto root = log.spans.add("clinical.session", -1, t0, t4, id);
    const auto relay = log.spans.add("phone.relay_analysis", root, t0, t1, id);
    // relay_analysis calls handle() last; RelayTiming::analysis_s is its
    // measured wall time, so the child span ends where the relay does.
    log.spans.add("cloud.handle", relay,
                  t1 - static_cast<std::uint64_t>(handle_us * 1e3), t1, id);
    log.spans.add("core.peak_report_deserialize", root, t1, t2, id);
    log.spans.add("core.conclude", root, t2, t3, id);
    log.spans.add("cloud.store_result", root, t3, t4, id);
  });

  double uplink = 0.0, raw = 0.0, build = 0.0, conclude = 0.0, store = 0.0;
  std::uint64_t traced_ops = 0;
  for (const auto& log : report.logs) uplink += log.uplink_bytes;
  for (const auto& clinic : state->clinics) {
    raw += clinic.raw_bytes;
    build += clinic.build_us;
    conclude += clinic.conclude_us;
    store += clinic.store_us;
    traced_ops += clinic.traced_ops;
  }
  report.counts["compress.ratio"] = uplink > 0.0 ? raw / uplink : 0.0;

  if (config.trace) {
    const auto n = static_cast<double>(std::max<std::uint64_t>(traced_ops, 1));
    report.layer["phone.build_us"] = build / n;
    report.layer["core.conclude_us"] = conclude / n;
    report.layer["cloud.journal.store_us"] = store / n;
    report.layer["compress.ratio"] = report.counts["compress.ratio"];

    double mac_bytes = 0.0;
    std::vector<double> oncpu, offcpu;
    for (const std::size_t p : state->clinics.front().traced_patients)
      decompose(*state, state->patients[p], report.stages, mac_bytes, oncpu,
                offcpu, report.logs.front());
    constexpr OpClass cls = OpClass::kSession;
    report.layer["compress.compress_us"] =
        report.stages.mean_us(cls, "compress.compress");
    report.layer["compress.decompress_us"] =
        report.stages.mean_us(cls, "compress.decompress");
    report.layer["cloud.handle_oncpu_us.session"] = mean(oncpu);
    report.layer["cloud.handle_offcpu_us.session"] = mean(offcpu);
    const double verify_us = report.stages.total_us("net.verify_envelope");
    const double analyze_us = report.stages.mean_us(cls, "cloud.analysis.analyze");
    double samples = 0.0;
    for (const auto& channel : state->patients.front().series.channels)
      samples += static_cast<double>(channel.size());
    report.layer["dsp.msamples_per_s"] =
        analyze_us > 0.0 ? samples / analyze_us : 0.0;
    report.layer["net.mac_mb_s"] = verify_us > 0.0 ? mac_bytes / verify_us : 0.0;
    double handshake_mac_bytes = 0.0;
    report_handshakes(server, config.seed, state->handshakes, report,
                      handshake_mac_bytes);
  }
  return report;
}

}  // namespace medsen::perfbench
