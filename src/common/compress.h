#pragma once

#include <string>

#include "common/slice.h"

namespace nvmdb {

/// Built-in LZ-class byte compressor. Stands in for the gzip the paper uses
/// on InP checkpoints (Section 3.1) — only the footprint reduction matters
/// for the reproduction, not the exact codec.
///
/// Format: sequence of ops. Literal run: 0x00 <varint len> <bytes>.
/// Match: 0x01 <varint len> <varint distance>. Greedy hash-chain matcher.
/// Appends the compressed form of `input` to `out`.
void LzCompress(const Slice& input, std::string* out);
inline std::string LzCompress(const Slice& input) {
  std::string out;
  LzCompress(input, &out);
  return out;
}

/// Inverse of LzCompress. Returns false on malformed input.
bool LzDecompress(const Slice& input, std::string* output);

}  // namespace nvmdb
