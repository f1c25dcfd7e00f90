#include "cloud/streaming.h"

#include <span>
#include <stdexcept>
#include <utility>

#include "cloud/quality.h"

namespace medsen::cloud {

StreamingAnalyzer::StreamingAnalyzer(double sample_rate_hz,
                                     StreamingConfig config,
                                     util::ThreadPool* pool)
    : rate_(sample_rate_hz), config_(config), pool_(pool) {
  if (sample_rate_hz <= 0.0)
    throw std::invalid_argument("StreamingAnalyzer: bad sample rate");
  if (config_.chunk_samples <= 2 * config_.overlap_samples)
    throw std::invalid_argument(
        "StreamingAnalyzer: chunk must exceed twice the overlap");
}

void StreamingAnalyzer::push(std::span<const double> samples) {
  buffer_.insert(buffer_.end(), samples.begin(), samples.end());
  while (buffer_.size() >= config_.chunk_samples) {
    if (pool_ != nullptr)
      start_block_async();
    else
      process_block(false);
  }
}

/// Pipelined path for one full-size block: launch its detrend on the
/// pool, then finish the previous block (peak detection) while it runs.
/// Completing old-before-storing-new keeps emission strictly in block
/// order, so results match serial mode exactly.
void StreamingAnalyzer::start_block_async() {
  const std::size_t len = config_.chunk_samples;
  PendingBlock next;
  next.start_index = buffer_start_index_;
  next.len = len;
  // Lease block scratch: input copy, detrend output and workspace all
  // come from the pool, so steady-state streaming allocates nothing per
  // block (the pool holds at most two scratches — one completing, one
  // in flight).
  auto scratch = block_pool_.acquire();
  scratch->block.assign(buffer_.begin(),
                        buffer_.begin() + static_cast<long>(len));
  next.detrended = pool_->submit(
      [scratch = std::move(scratch)]() mutable {
        scratch->detrended.resize(scratch->block.size());
        dsp::detrend_into(scratch->block, kQualityDetrend,
                          std::span<double>(scratch->detrended), nullptr,
                          scratch->detrend);
        return std::move(scratch);
      });

  // Advance past the block, keeping the overlap margin (same bookkeeping
  // as the serial path).
  const std::size_t advance = len - config_.overlap_samples;
  buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<long>(advance));
  buffer_start_index_ += advance;

  complete_pending();
  pending_ = std::move(next);
}

void StreamingAnalyzer::complete_pending() {
  if (!pending_) return;
  PendingBlock block = std::move(*pending_);
  pending_.reset();
  const auto scratch = block.detrended.get();  // rethrows task errors
  const std::span<const double> detrended(scratch->detrended.data(),
                                          block.len);
  const double start_time = static_cast<double>(block.start_index) / rate_;
  auto peaks = dsp::detect_peaks(detrended, rate_, start_time,
                                 dsp::PeakDetectConfig{}, peak_scratch_);
  for (auto& peak : peaks) peak.index += block.start_index;
  // Pending blocks are never final: defer peaks in the trailing overlap
  // margin to the next block exactly as the serial path does.
  const double limit =
      start_time +
      static_cast<double>(block.len - config_.overlap_samples) / rate_;
  std::erase_if(peaks,
                [&](const dsp::Peak& p) { return p.time_s >= limit; });
  emit(std::move(peaks));
}

void StreamingAnalyzer::process_block(bool final_block) {
  const std::size_t len =
      final_block ? buffer_.size()
                  : std::min(config_.chunk_samples, buffer_.size());
  if (len == 0) return;
  const std::span<const double> block(buffer_.data(), len);
  serial_scratch_.detrended.resize(len);
  const std::span<double> detrended(serial_scratch_.detrended.data(), len);
  dsp::detrend_into(block, kQualityDetrend, detrended, nullptr,
                    serial_scratch_.detrend);
  const double start_time =
      static_cast<double>(buffer_start_index_) / rate_;
  auto peaks = dsp::detect_peaks(detrended, rate_, start_time,
                                 dsp::PeakDetectConfig{}, peak_scratch_);
  // Correct the indices to global sample positions.
  for (auto& peak : peaks) peak.index += buffer_start_index_;
  if (!final_block) {
    // Peaks inside the trailing overlap margin are deferred: the next
    // block sees them whole (possibly with a better extremum), so
    // emitting the truncated detection here would double-count them.
    const double limit =
        start_time +
        static_cast<double>(len - config_.overlap_samples) / rate_;
    std::erase_if(peaks,
                  [&](const dsp::Peak& p) { return p.time_s >= limit; });
  }
  emit(std::move(peaks));

  if (final_block) {
    buffer_.clear();
    buffer_start_index_ += len;
    return;
  }
  // Keep the overlap margin so peaks straddling the boundary are seen
  // whole by the next block.
  const std::size_t advance = len - config_.overlap_samples;
  buffer_.erase(buffer_.begin(),
                buffer_.begin() + static_cast<long>(advance));
  buffer_start_index_ += advance;
}

void StreamingAnalyzer::emit(std::vector<dsp::Peak> peaks) {
  for (auto& peak : peaks) {
    // Deduplicate overlap re-detections: anything at or before the last
    // emitted timestamp was already reported by the previous block.
    if (peak.time_s <= last_emitted_time_ + 1e-9) continue;
    last_emitted_time_ = peak.time_s;
    results_.push_back(peak);
  }
}

std::vector<dsp::Peak> StreamingAnalyzer::finish() {
  // Drain the in-flight block first: it precedes the buffered remainder
  // on the timeline.
  complete_pending();
  process_block(true);
  auto out = std::move(results_);
  results_.clear();
  last_emitted_time_ = -1.0;
  // buffer_start_index_ keeps counting so a reused analyzer continues the
  // global timeline; reset for a fresh run.
  buffer_start_index_ = 0;
  return out;
}

}  // namespace medsen::cloud
