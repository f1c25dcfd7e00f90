// Determinism contract of the parallel analysis stack: for any thread
// count, AnalysisService and the pipelined StreamingAnalyzer must produce
// results bit-identical to the serial path (ISSUE: parallel windows
// accumulate into per-task slabs reduced serially in window order).

#include <gtest/gtest.h>

#include <thread>

#include "cloud/analysis_service.h"
#include "cloud/streaming.h"
#include "crypto/chacha20.h"
#include "sim/signal_synth.h"

namespace medsen::cloud {
namespace {

/// Multi-carrier acquisition with drift, noise and planted pulses —
/// large enough that detrend spans many windows per channel.
util::MultiChannelSeries make_series(std::size_t n_per_channel,
                                     std::size_t channels,
                                     std::uint64_t seed) {
  const double rate = 450.0;
  util::MultiChannelSeries series;
  for (std::size_t c = 0; c < channels; ++c) {
    crypto::ChaChaRng rng(seed + c);
    std::vector<double> depth(n_per_channel, 0.0);
    const double duration = static_cast<double>(n_per_channel) / rate;
    for (std::size_t k = 0; k < n_per_channel / 2000; ++k)
      sim::add_gaussian_pulse(depth, rate, 0.0,
                              rng.uniform_double() * duration, 0.006,
                              0.004 + 0.01 * rng.uniform_double());
    sim::DriftConfig drift;
    auto xs = sim::synth_baseline(n_per_channel, rate, 0.0, drift, rng);
    for (std::size_t i = 0; i < n_per_channel; ++i) xs[i] *= 1.0 - depth[i];
    sim::add_white_noise(xs, 1e-4, rng);
    series.carrier_frequencies_hz.push_back(5.0e5 * (c + 1));
    series.channels.emplace_back(rate, std::move(xs));
  }
  return series;
}

TEST(ParallelAnalysis, ByteIdenticalReportAcrossThreadCounts) {
  const auto series = make_series(60000, 4, 11);

  AnalysisConfig serial_config;
  serial_config.threads = 1;
  AnalysisService serial(serial_config);
  const auto reference = serial.analyze(series).serialize();
  ASSERT_FALSE(reference.empty());

  // The serial report is the DSP kernels' defaults run channel by
  // channel: the analysis has no detrend or detection settings of its
  // own.
  core::PeakReport kernels;
  for (std::size_t i = 0; i < series.channels.size(); ++i) {
    const auto& channel = series.channels[i];
    kernels.channels.push_back(
        {series.carrier_frequencies_hz[i],
         dsp::detect_peaks(dsp::detrend(channel.samples()),
                           channel.sample_rate(), channel.start_time())});
  }
  EXPECT_EQ(kernels.serialize(), reference);

  for (const unsigned threads : {2u, 8u}) {
    AnalysisConfig config;
    config.threads = threads;
    AnalysisService service(config);
    ASSERT_NE(service.thread_pool(), nullptr);
    const auto report = service.analyze(series).serialize();
    EXPECT_EQ(report, reference) << "threads=" << threads;
    // Re-running on a warm pool must not drift either.
    EXPECT_EQ(service.analyze(series).serialize(), reference)
        << "threads=" << threads << " (second run)";
  }
}

TEST(ParallelAnalysis, DetrendParallelMatchesSerialBitwise) {
  const auto series = make_series(100000, 1, 17);
  const auto signal = series.channels[0].samples();
  const auto serial = dsp::detrend(signal);
  for (const unsigned workers : {1u, 3u, 7u}) {
    util::ThreadPool pool(workers);
    const auto parallel = dsp::detrend(signal, {}, &pool);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
      ASSERT_EQ(parallel[i], serial[i]) << "workers=" << workers << " i=" << i;
  }
}

TEST(ParallelAnalysis, SharedPoolAcrossConcurrentRequests) {
  // The server shape: one pool, many request threads, each analyzing its
  // own acquisition through its own service handle.
  auto pool = std::make_shared<util::ThreadPool>(2);
  constexpr std::size_t kRequests = 4;
  std::vector<util::MultiChannelSeries> inputs;
  std::vector<std::vector<std::uint8_t>> expected;
  for (std::size_t r = 0; r < kRequests; ++r) {
    inputs.push_back(make_series(20000, 2, 100 + r));
    AnalysisConfig serial_config;
    serial_config.threads = 1;
    AnalysisService serial(serial_config);
    expected.push_back(serial.analyze(inputs.back()).serialize());
  }

  AnalysisConfig config;
  AnalysisService shared_service(config, pool);
  std::vector<std::vector<std::uint8_t>> got(kRequests);
  std::vector<std::thread> requests;
  requests.reserve(kRequests);
  for (std::size_t r = 0; r < kRequests; ++r)
    requests.emplace_back([&, r] {
      got[r] = shared_service.analyze(inputs[r]).serialize();
    });
  for (auto& t : requests) t.join();
  for (std::size_t r = 0; r < kRequests; ++r)
    EXPECT_EQ(got[r], expected[r]) << "request " << r;
}

TEST(ParallelStreaming, PipelinedMatchesSerialExactly) {
  const auto series = make_series(200000, 1, 23);
  const auto xs = series.channels[0].samples();
  const double rate = 450.0;
  StreamingConfig config;
  config.chunk_samples = 16384;
  config.overlap_samples = 512;

  auto run = [&](util::ThreadPool* pool) {
    StreamingAnalyzer analyzer(rate, config, pool);
    crypto::ChaChaRng rng(9);
    std::size_t pos = 0;
    while (pos < xs.size()) {
      const std::size_t step =
          std::min<std::size_t>(1 + rng.uniform(20000), xs.size() - pos);
      analyzer.push(xs.subspan(pos, step));
      pos += step;
    }
    return analyzer.finish();
  };

  const auto serial = run(nullptr);
  ASSERT_GT(serial.size(), 10u);

  util::ThreadPool pool(2);
  const auto pipelined = run(&pool);
  ASSERT_EQ(pipelined.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(pipelined[i].time_s, serial[i].time_s) << i;
    EXPECT_EQ(pipelined[i].amplitude, serial[i].amplitude) << i;
    EXPECT_EQ(pipelined[i].width_s, serial[i].width_s) << i;
    EXPECT_EQ(pipelined[i].index, serial[i].index) << i;
  }
}

TEST(ParallelStreaming, PipelinedAnalyzerIsReusable) {
  util::ThreadPool pool(2);
  StreamingConfig config;
  config.chunk_samples = 8192;
  config.overlap_samples = 256;
  StreamingAnalyzer analyzer(450.0, config, &pool);
  EXPECT_TRUE(analyzer.pipelined());

  const auto series = make_series(40000, 1, 31);
  const auto xs = series.channels[0].samples();
  analyzer.push(xs);
  const auto first = analyzer.finish();
  analyzer.push(xs);
  const auto second = analyzer.finish();
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i)
    EXPECT_EQ(first[i].time_s, second[i].time_s) << i;
}

}  // namespace
}  // namespace medsen::cloud
