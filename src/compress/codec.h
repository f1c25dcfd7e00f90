#pragma once
// The complete compressor: LZSS tokens entropy-coded with canonical
// Huffman (deflate-style length/distance slot alphabets) inside a small
// container with original-size and CRC-32 fields (the MSZ1 layout in
// docs/PROTOCOL.md). This is the "zip data compression" stage the paper's
// Android app applies before uploading its 600 MB CSV measurement dumps
// (reduced to 240 MB, i.e. ~2.5x); here the phone relay applies it to
// the binary series upload.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "compress/lzss.h"

namespace medsen::compress {

/// Compress `data` into a self-describing container.
std::vector<std::uint8_t> compress(std::span<const std::uint8_t> data,
                                   const LzssConfig& config = {});

/// Decompress a container produced by compress(). Throws
/// std::runtime_error on magic/CRC mismatch or malformed streams.
std::vector<std::uint8_t> decompress(std::span<const std::uint8_t> packed);

/// Convenience helpers for text.
std::vector<std::uint8_t> compress_string(const std::string& text);
std::string decompress_string(std::span<const std::uint8_t> packed);

/// original_size / compressed_size (>= 1 means compression won).
double compression_ratio(std::size_t original_size,
                         std::size_t compressed_size);

}  // namespace medsen::compress
