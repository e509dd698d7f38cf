#include "common/compress.h"

#include <cstdint>
#include <cstring>
#include <vector>

namespace nvmdb {
namespace {

constexpr uint8_t kLiteralOp = 0x00;
constexpr uint8_t kMatchOp = 0x01;
constexpr size_t kMinMatch = 4;
constexpr size_t kMaxMatch = 255 + kMinMatch;
constexpr size_t kWindow = 64 * 1024;
constexpr size_t kHashBits = 15;

void PutVarint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

bool GetVarint(const char** p, const char* end, uint64_t* v) {
  uint64_t result = 0;
  int shift = 0;
  while (*p < end && shift <= 63) {
    uint8_t byte = static_cast<uint8_t>(**p);
    (*p)++;
    result |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *v = result;
      return true;
    }
    shift += 7;
  }
  return false;
}

inline uint32_t Load32(const char* p) {
  uint32_t v;
  memcpy(&v, p, 4);
  return v;
}

inline uint64_t Load64(const char* p) {
  uint64_t v;
  memcpy(&v, p, 8);
  return v;
}

inline uint32_t HashQuad(uint32_t quad) {
  return (quad * 2654435761u) >> (32 - kHashBits);
}

void EmitLiterals(std::string* out, const char* base, size_t start,
                  size_t end) {
  if (end <= start) return;
  out->push_back(static_cast<char>(kLiteralOp));
  PutVarint(out, end - start);
  out->append(base + start, end - start);
}

// Length of the common prefix of a and b, at most `max_len` bytes (both
// ranges are readable that far): eight bytes per step, then the first
// differing byte from the XOR's lowest set bit.
inline size_t MatchLength(const char* a, const char* b, size_t max_len) {
  static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
                "word-wise match extension assumes little-endian loads");
  size_t len = 0;
  while (len + 8 <= max_len) {
    const uint64_t diff = Load64(a + len) ^ Load64(b + len);
    if (diff != 0) {
      return len + static_cast<size_t>(__builtin_ctzll(diff)) / 8;
    }
    len += 8;
  }
  while (len < max_len && a[len] == b[len]) len++;
  return len;
}

// Greedy single-candidate matcher. The head table stores position + 1
// (0 = empty) in `Pos`, so inputs below 4 GiB use a 32-bit table.
template <typename Pos>
void Compress(const char* data, size_t n, std::string* out) {
  std::vector<Pos> head(size_t{1} << kHashBits, 0);
  size_t i = 0;
  size_t literal_start = 0;
  while (i + kMinMatch <= n) {
    const uint32_t quad = Load32(data + i);
    Pos& slot = head[HashQuad(quad)];
    const Pos cand_plus_one = slot;
    slot = static_cast<Pos>(i + 1);
    if (cand_plus_one != 0) {
      const size_t cand = static_cast<size_t>(cand_plus_one) - 1;
      if (i - cand <= kWindow && Load32(data + cand) == quad) {
        const size_t max_len = (n - i) < kMaxMatch ? (n - i) : kMaxMatch;
        const size_t len =
            kMinMatch + MatchLength(data + cand + kMinMatch,
                                    data + i + kMinMatch,
                                    max_len - kMinMatch);
        EmitLiterals(out, data, literal_start, i);
        out->push_back(static_cast<char>(kMatchOp));
        PutVarint(out, len - kMinMatch);
        PutVarint(out, i - cand);
        i += len;
        literal_start = i;
        continue;
      }
    }
    i++;
  }
  EmitLiterals(out, data, literal_start, n);
}

}  // namespace

void LzCompress(const Slice& input, std::string* out) {
  const size_t n = input.size();
  // Room for incompressible input (one literal run). Pages of a large
  // reservation that the output never reaches are never touched.
  out->reserve(out->size() + n + 32);
  PutVarint(out, n);  // uncompressed size header
  if (n == 0) return;
  if (n < UINT32_MAX) {
    Compress<uint32_t>(input.data(), n, out);
  } else {
    Compress<uint64_t>(input.data(), n, out);
  }
}

bool LzDecompress(const Slice& input, std::string* output) {
  output->clear();
  const char* p = input.data();
  const char* end = p + input.size();
  uint64_t expected = 0;
  if (!GetVarint(&p, end, &expected)) return false;
  output->reserve(expected);
  while (p < end) {
    const uint8_t op = static_cast<uint8_t>(*p++);
    if (op == kLiteralOp) {
      uint64_t len = 0;
      if (!GetVarint(&p, end, &len)) return false;
      if (static_cast<uint64_t>(end - p) < len) return false;
      output->append(p, len);
      p += len;
    } else if (op == kMatchOp) {
      uint64_t len = 0, dist = 0;
      if (!GetVarint(&p, end, &len)) return false;
      if (!GetVarint(&p, end, &dist)) return false;
      len += kMinMatch;
      if (dist == 0 || dist > output->size()) return false;
      // Byte-by-byte copy: matches may overlap their own output.
      size_t src = output->size() - dist;
      for (uint64_t k = 0; k < len; k++) {
        output->push_back((*output)[src + k]);
      }
    } else {
      return false;
    }
  }
  return output->size() == expected;
}

}  // namespace nvmdb
