// Fault x recovery matrix: every injected sensor fault driven through
// the full self-healing loop (controller -> faulty acquisition -> relay
// -> cloud quality gate -> per-channel verdict -> controller recovery ->
// re-keyed retry), alone and in pairs. Asserts the recovery action each
// fault provokes, that every session terminates within the retry budget
// (degrading instead of throwing), and that outcomes are bit-for-bit
// deterministic for a fixed seed. Runs the cloud analysis with a 2-way
// thread pool so the TSan configuration exercises the threaded path.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "cloud/server.h"
#include "core/controller.h"
#include "phone/relay.h"
#include "sim/acquisition.h"
#include "test_devices.h"

namespace medsen {
namespace {

const std::vector<std::uint8_t> kMacKey = testkit::device_key(1);

using FaultSetup = std::function<void(sim::FaultConfig&)>;

struct NamedFault {
  std::string name;
  FaultSetup setup;
  /// Action the controller must take after the first rejection (kNone =
  /// no constraint, for faults whose combined signature is seed-shaped).
  core::RecoveryAction expected_first_action = core::RecoveryAction::kNone;
  /// Whether default policy is expected to heal this fault (channel-level
  /// front-end faults are unreachable from E(t) and end degraded).
  bool expect_healed = true;
};

std::vector<NamedFault> fault_matrix() {
  return {
      {"open_electrode",
       [](sim::FaultConfig& f) {
         f.open.enabled = true;
         f.open.electrode = 0;
         f.open.onset = {0.1, 0.2};
       },
       core::RecoveryAction::kMaskElectrodes, true},
      {"shorted_electrode",
       [](sim::FaultConfig& f) {
         f.short_circuit.enabled = true;
         f.short_circuit.electrode = 2;
         f.short_circuit.onset = {0.1, 0.2};
       },
       core::RecoveryAction::kMaskElectrodes, true},
      {"stuck_on_mux",
       [](sim::FaultConfig& f) {
         f.stuck_mux.enabled = true;
         f.stuck_mux.electrode = 4;
         f.stuck_mux.stuck_on = true;
         f.stuck_mux.onset = {0.1, 0.2};
       },
       core::RecoveryAction::kMaskElectrodes, false},
      {"bubbles",
       [](sim::FaultConfig& f) {
         f.bubbles.enabled = true;
         f.bubbles.attempts_affected = 1;
       },
       core::RecoveryAction::kFlush, true},
      {"clog_stall",
       [](sim::FaultConfig& f) {
         f.clog.enabled = true;
         f.clog.onset = {0.15, 0.25};
         f.clog.tau_s = 2.0;  // aggressive: stalls well inside a session
       },
       core::RecoveryAction::kReduceFlow, false},
      {"adc_stuck",
       [](sim::FaultConfig& f) {
         f.adc_stuck.enabled = true;
         f.adc_stuck.channel = 1;
         f.adc_stuck.window_frac = 0.4;
       },
       core::RecoveryAction::kMaskElectrodes, false},
      {"gain_drift",
       [](sim::FaultConfig& f) {
         f.gain_drift.enabled = true;
         f.gain_drift.channel = 0;
         f.gain_drift.onset = {0.1, 0.2};
         f.gain_drift.drift_per_s = 0.08;
       },
       core::RecoveryAction::kMaskElectrodes, false},
      {"saturation",
       [](sim::FaultConfig& f) {
         f.saturation.enabled = true;
         f.saturation.channel = 1;
         f.saturation.onset = {0.1, 0.2};
       },
       core::RecoveryAction::kMaskElectrodes, false},
  };
}

struct SessionSetup {
  double duration_s = 30.0;
  std::uint64_t controller_seed = 11;
  std::uint64_t acquisition_seed = 77;
  std::uint64_t fault_seed = 0x1457;
};

phone::SessionOutcome run_session(const FaultSetup& setup,
                                  const SessionSetup& opts = {}) {
  sim::ElectrodeArrayDesign design = sim::standard_design(9);
  sim::ChannelConfig channel;
  channel.loss.enabled = false;
  sim::AcquisitionConfig acquisition;
  acquisition.carriers_hz = {5.0e5, 2.0e6};
  acquisition.noise_sigma = 5e-5;
  acquisition.drift.slow_amplitude = 0.002;
  acquisition.drift.random_walk_sigma = 1e-6;
  acquisition.faults.seed = opts.fault_seed;
  setup(acquisition.faults);

  core::KeyParams key_params;
  key_params.num_electrodes = 9;
  key_params.period_s = 4.0;
  key_params.gain_min = 0.8;
  key_params.gain_max = 1.6;

  core::Controller controller(key_params, design,
                              core::DiagnosticProfile::cd4_staging(),
                              opts.controller_seed);
  cloud::AnalysisConfig analysis;
  analysis.threads = 2;  // exercise the threaded path under TSan
  auto server = cloud::CloudServer(analysis, auth::CytoAlphabet{},
                                   auth::ParticleClassifier::train({}));
  phone::PhoneRelay relay;
  testkit::enroll(server, relay.config().device_id);

  sim::SampleSpec sample;
  sample.components = {{sim::ParticleType::kBead780, 300.0}};

  const phone::AcquireFn acquire =
      [&](std::span<const sim::ControlSegment> control, double duration_s,
          std::size_t attempt) {
        auto config = acquisition;
        config.faults.attempt = attempt;
        return sim::acquire(sample, channel, design, config, control,
                            duration_s, opts.acquisition_seed)
            .signals;
      };

  return relay.run_diagnostic_session(controller, opts.duration_s, acquire,
                                      /*session_base_id=*/100, server,
                                      kMacKey);
}

void expect_equal_outcomes(const phone::SessionOutcome& a,
                           const phone::SessionOutcome& b) {
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.quality_rejections, b.quality_rejections);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.recovered, b.recovered);
  ASSERT_EQ(a.actions.size(), b.actions.size());
  for (std::size_t i = 0; i < a.actions.size(); ++i)
    EXPECT_EQ(a.actions[i], b.actions[i]);
  EXPECT_EQ(a.diagnosis.estimated_count, b.diagnosis.estimated_count);
  EXPECT_EQ(a.diagnosis.confidence, b.diagnosis.confidence);
}

TEST(FaultRecovery, EachFaultAloneTerminatesWithTheExpectedAction) {
  for (const auto& fault : fault_matrix()) {
    SCOPED_TRACE(fault.name);
    const auto outcome = run_session(fault.setup);

    // Each fault must be noticed: the quality gate rejects at least the
    // first attempt, and the loop never exceeds the retry budget.
    EXPECT_GE(outcome.quality_rejections, 1u);
    EXPECT_LE(outcome.attempts, core::RetryPolicy{}.max_attempts);
    ASSERT_FALSE(outcome.actions.empty());
    if (fault.expected_first_action != core::RecoveryAction::kNone) {
      EXPECT_EQ(outcome.actions.front(), fault.expected_first_action);
    }

    // Healable faults recover to a full-confidence diagnosis; unhealable
    // ones degrade gracefully instead of throwing.
    if (fault.expect_healed) {
      EXPECT_FALSE(outcome.degraded);
      EXPECT_TRUE(outcome.recovered);
      EXPECT_DOUBLE_EQ(outcome.diagnosis.confidence, 1.0);
    }
    if (outcome.degraded) {
      EXPECT_EQ(outcome.actions.back(), core::RecoveryAction::kGiveUp);
      EXPECT_DOUBLE_EQ(outcome.diagnosis.confidence,
                       core::RetryPolicy{}.degraded_confidence);
    }
    EXPECT_TRUE(std::isfinite(outcome.diagnosis.estimated_count));
  }
}

TEST(FaultRecovery, PairwiseFaultsTerminateAndStayDeterministic) {
  const auto matrix = fault_matrix();
  for (std::size_t i = 0; i < matrix.size(); ++i) {
    for (std::size_t j = i + 1; j < matrix.size(); ++j) {
      SCOPED_TRACE(matrix[i].name + "+" + matrix[j].name);
      const FaultSetup both = [&](sim::FaultConfig& f) {
        matrix[i].setup(f);
        matrix[j].setup(f);
      };
      const auto outcome = run_session(both);
      EXPECT_GE(outcome.quality_rejections, 1u);
      EXPECT_LE(outcome.attempts, core::RetryPolicy{}.max_attempts);
      EXPECT_TRUE(std::isfinite(outcome.diagnosis.estimated_count));
      // Terminal state is always one of: healed or explicitly degraded.
      if (outcome.degraded)
        EXPECT_EQ(outcome.actions.back(), core::RecoveryAction::kGiveUp);
      else
        EXPECT_TRUE(outcome.recovered);

      expect_equal_outcomes(outcome, run_session(both));
    }
  }
}

TEST(FaultRecovery, DeadElectrodePlusBubblesHealsWithinThreeAttempts) {
  // The headline scenario: one dead electrode plus transient bubbles.
  // Attempt 1 is rejected (systemic bubble noise + the dead electrode's
  // railed channel); the controller masks the suspects and the flush
  // carries the bubbles out; the session converges to a full-confidence
  // diagnosis within the default three-attempt budget.
  const FaultSetup setup = [](sim::FaultConfig& f) {
    f.open.enabled = true;
    f.open.electrode = 0;
    f.open.onset = {0.1, 0.2};
    f.bubbles.enabled = true;
    f.bubbles.attempts_affected = 1;
  };
  const auto outcome = run_session(setup);
  EXPECT_LE(outcome.attempts, 3u);
  EXPECT_FALSE(outcome.degraded);
  EXPECT_TRUE(outcome.recovered);
  EXPECT_GE(outcome.quality_rejections, 1u);
  EXPECT_DOUBLE_EQ(outcome.diagnosis.confidence, 1.0);
  EXPECT_GT(outcome.diagnosis.estimated_count, 0.0);
}

TEST(FaultRecovery, ExhaustedRetriesDegradeInsteadOfThrowing) {
  // A persistently stuck ADC cannot be healed by re-keying: all three
  // attempts are rejected and the session ends in an explicit degraded
  // diagnosis produced on the phone, never an exception.
  const FaultSetup setup = [](sim::FaultConfig& f) {
    f.adc_stuck.enabled = true;
    f.adc_stuck.channel = 1;
    f.adc_stuck.window_frac = 0.4;
    f.adc_stuck.attempts_affected = 0;  // persists forever
  };
  const auto outcome = run_session(setup);
  EXPECT_EQ(outcome.attempts, core::RetryPolicy{}.max_attempts);
  EXPECT_TRUE(outcome.degraded);
  EXPECT_EQ(outcome.quality_rejections, core::RetryPolicy{}.max_attempts);
  EXPECT_EQ(outcome.actions.back(), core::RecoveryAction::kGiveUp);
  EXPECT_DOUBLE_EQ(outcome.diagnosis.confidence,
                   core::RetryPolicy{}.degraded_confidence);
  EXPECT_TRUE(std::isfinite(outcome.diagnosis.estimated_count));
}

TEST(FaultRecovery, StuckOnMuxWalksIntoQuarantine) {
  // Masking cannot disconnect a stuck-ON multiplexer bit: the channel
  // keeps failing after the re-key, the prior suspect is re-struck, and
  // the electrode ends the session quarantined.
  sim::ElectrodeArrayDesign design = sim::standard_design(9);
  sim::ChannelConfig channel;
  channel.loss.enabled = false;
  sim::AcquisitionConfig acquisition;
  acquisition.carriers_hz = {5.0e5, 2.0e6};
  acquisition.noise_sigma = 5e-5;
  acquisition.drift.slow_amplitude = 0.002;
  acquisition.drift.random_walk_sigma = 1e-6;
  acquisition.faults.stuck_mux.enabled = true;
  acquisition.faults.stuck_mux.electrode = 4;
  acquisition.faults.stuck_mux.stuck_on = true;
  acquisition.faults.stuck_mux.onset = {0.1, 0.2};

  core::KeyParams key_params;
  key_params.num_electrodes = 9;
  key_params.period_s = 4.0;

  core::Controller controller(key_params, design,
                              core::DiagnosticProfile::cd4_staging(), 11);
  cloud::AnalysisConfig analysis;
  analysis.threads = 2;
  auto server = cloud::CloudServer(analysis, auth::CytoAlphabet{},
                                   auth::ParticleClassifier::train({}));
  phone::PhoneRelay relay;
  testkit::enroll(server, relay.config().device_id);
  sim::SampleSpec sample;
  sample.components = {{sim::ParticleType::kBead780, 300.0}};

  const phone::AcquireFn acquire =
      [&](std::span<const sim::ControlSegment> control, double duration_s,
          std::size_t attempt) {
        auto config = acquisition;
        config.faults.attempt = attempt;
        return sim::acquire(sample, channel, design, config, control,
                            duration_s, 77)
            .signals;
      };
  const auto outcome = relay.run_diagnostic_session(
      controller, 30.0, acquire, 500, server, kMacKey);
  EXPECT_GE(outcome.quality_rejections, 2u);
  EXPECT_NE(controller.health().quarantined(), 0u);
  // The stuck electrode itself must be among the quarantined set.
  EXPECT_NE(controller.health().quarantined() & (sim::ElectrodeMask{1} << 4),
            0u);
}

TEST(FaultRecovery, FaultFreeSessionSucceedsFirstTry) {
  const auto outcome = run_session([](sim::FaultConfig&) {});
  EXPECT_EQ(outcome.attempts, 1u);
  EXPECT_EQ(outcome.quality_rejections, 0u);
  EXPECT_FALSE(outcome.degraded);
  EXPECT_FALSE(outcome.recovered);
  EXPECT_TRUE(outcome.actions.empty());
  EXPECT_DOUBLE_EQ(outcome.diagnosis.confidence, 1.0);
}

}  // namespace
}  // namespace medsen
