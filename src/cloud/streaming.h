#pragma once
// Streaming peak analysis. The paper's 3-hour acquisitions produce
// ~600 MB of measurements; loading a whole channel to detrend it at once
// is exactly what a real cloud service avoids. StreamingAnalyzer consumes
// a channel in chunks, detrends and detects peaks per chunk with an
// overlap margin, and deduplicates peaks found twice in the overlap —
// bounded memory, byte-identical semantics to batch analysis up to
// boundary effects (verified by tests). Every block runs the batch
// analysis' procedure: the kQualityDetrend detrend, then peak detection
// with dsp::PeakDetectConfig{}.
//
// Pipelined mode (construct with a util::ThreadPool): block k+1's
// detrend runs on the pool while block k's peak detection completes on
// the caller, overlapping the two dominant costs. Blocks are completed
// strictly in order, so the emitted peaks are identical to serial mode.

#include <cstddef>
#include <future>
#include <optional>
#include <vector>

#include "dsp/detrend.h"
#include "dsp/peak_detect.h"
#include "util/scratch_pool.h"
#include "util/thread_pool.h"

namespace medsen::cloud {

struct StreamingConfig {
  std::size_t chunk_samples = 65536;  ///< processing block size
  std::size_t overlap_samples = 512;  ///< carried between blocks
};

/// Streaming analyzer for one channel.
class StreamingAnalyzer {
 public:
  /// A non-null pool enables pipelined mode (pool outlives the analyzer).
  StreamingAnalyzer(double sample_rate_hz, StreamingConfig config = {},
                    util::ThreadPool* pool = nullptr);

  /// Feed the next run of samples (any size; internally re-blocked).
  void push(std::span<const double> samples);

  /// Flush remaining buffered samples and return all detected peaks in
  /// time order. The analyzer can be reused afterwards.
  std::vector<dsp::Peak> finish();

  [[nodiscard]] bool pipelined() const { return pool_ != nullptr; }

 private:
  void process_block(bool final_block);
  void start_block_async();
  void complete_pending();
  void emit(std::vector<dsp::Peak> peaks);

  /// Working memory for one block: the pipelined input copy, the
  /// detrended output, and the detrend workspace. Leased per in-flight
  /// block from block_pool_ — two blocks' detrends can overlap in
  /// pipelined mode (block k+1 is submitted before block k completes),
  /// so the scratch must travel with the block, not live in one member.
  struct BlockScratch {
    std::vector<double> block;
    std::vector<double> detrended;
    dsp::DetrendWorkspace detrend;
  };

  /// A full-size block whose detrend is in flight on the pool. The
  /// future carries the block's scratch lease; its `detrended` buffer
  /// holds `len` valid samples once ready.
  struct PendingBlock {
    std::size_t start_index = 0;  ///< global index of the block's sample 0
    std::size_t len = 0;
    std::future<util::ScratchPool<BlockScratch>::Lease> detrended;
  };

  double rate_;
  StreamingConfig config_;
  util::ThreadPool* pool_ = nullptr;
  std::vector<double> buffer_;
  std::size_t buffer_start_index_ = 0;  ///< global index of buffer_[0]
  double last_emitted_time_ = -1.0;
  std::vector<dsp::Peak> results_;
  std::optional<PendingBlock> pending_;
  util::ScratchPool<BlockScratch> block_pool_;
  BlockScratch serial_scratch_;        ///< serial/final-block path only
  dsp::PeakDetectScratch peak_scratch_;  ///< caller-thread peak detection
};

}  // namespace medsen::cloud
