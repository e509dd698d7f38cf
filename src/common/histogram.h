#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace nvmdb {

/// Response-latency summary on the simulated clock, produced from a
/// LatencyHistogram. All percentile fields are bucket lower bounds, so
/// they are exact integers and bit-identical wherever the recorded
/// values are (SIMD vs scalar probe, any job count).
struct LatencySummary {
  uint64_t count = 0;
  double mean_ns = 0;
  uint64_t p50_ns = 0;
  uint64_t p95_ns = 0;
  uint64_t p99_ns = 0;
  uint64_t p999_ns = 0;
  uint64_t max_ns = 0;
};

/// Fixed-layout log-bucketed latency histogram (HdrHistogram-style
/// log-linear bucketing) for simulated-clock durations.
///
/// Layout: values below kSubBucketCount (64) get one bucket each; above
/// that, each power-of-two range is split into 64 linear sub-buckets, so
/// the relative quantization error is bounded by 1/64 (~1.6%) at every
/// magnitude. Values below 128 ns are represented exactly. The layout is
/// fixed at compile time — no per-run resizing — so bucket indexes, and
/// therefore every percentile in the JSON reports, are reproducible
/// across runs, hosts, and partition merge orders.
///
/// Merging is bucket-wise addition, which is commutative and associative:
/// per-partition histograms can be merged in any order and yield the same
/// percentiles, which is what lets Coordinator::Run report tail latency
/// for multi-partition cells without breaking determinism.
class LatencyHistogram {
 public:
  static constexpr size_t kSubBucketBits = 6;
  static constexpr size_t kSubBucketCount = size_t{1} << kSubBucketBits;
  /// Group 0 covers [0, 64) one value per bucket; groups 1..58 cover
  /// [64, 2^64) with 64 sub-buckets per power of two.
  static constexpr size_t kNumGroups = 64 - kSubBucketBits + 1;  // 59
  static constexpr size_t kNumBuckets = kNumGroups * kSubBucketCount;

  LatencyHistogram() : buckets_(kNumBuckets, 0) {}

  /// Bucket index of `value`: identity below 64, log-linear above.
  static size_t BucketIndex(uint64_t value) {
    if (value < kSubBucketCount) return static_cast<size_t>(value);
    const int exponent = 63 - CountLeadingZeros(value);
    const size_t group = static_cast<size_t>(exponent) - kSubBucketBits + 1;
    const uint64_t sub =
        (value >> (exponent - static_cast<int>(kSubBucketBits))) -
        kSubBucketCount;
    return group * kSubBucketCount + static_cast<size_t>(sub);
  }

  /// Smallest value mapping to bucket `index` (the value percentiles
  /// report).
  static uint64_t BucketLowerBound(size_t index) {
    if (index < kSubBucketCount) return index;
    const size_t group = index / kSubBucketCount;
    const uint64_t sub = index % kSubBucketCount;
    return (kSubBucketCount + sub) << (group - 1);
  }

  void Record(uint64_t value) {
    buckets_[BucketIndex(value)]++;
    count_++;
    sum_ += value;
    if (value > max_) max_ = value;
  }

  /// Bucket-wise merge; count/sum/max fold in the obvious way.
  void Merge(const LatencyHistogram& other);

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t max() const { return max_; }
  double Mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) /
                             static_cast<double>(count_);
  }

  /// Nearest-rank percentile, returned as the containing bucket's lower
  /// bound. The rank is ceil(pct/100 * count) clamped to [1, count] — the
  /// textbook definition; the previous sorted-vector code used
  /// floor(pct/100 * count) as an *index*, which returns the maximum
  /// (p100) whenever that lands on the last element (e.g. p99 of 100
  /// samples). Computed in integer arithmetic (pct quantized to 1/100ths
  /// of a percent) so no floating-point rounding can move a rank.
  uint64_t Percentile(double pct) const;

  /// Fixed summary the testbed and JSON reports carry per cell.
  LatencySummary Summarize() const;

  const std::vector<uint64_t>& buckets() const { return buckets_; }

  bool operator==(const LatencyHistogram& o) const {
    return count_ == o.count_ && sum_ == o.sum_ && max_ == o.max_ &&
           buckets_ == o.buckets_;
  }
  bool operator!=(const LatencyHistogram& o) const { return !(*this == o); }

 private:
  static int CountLeadingZeros(uint64_t v) {
#if defined(__GNUC__) || defined(__clang__)
    return __builtin_clzll(v);
#else
    int n = 0;
    for (uint64_t bit = uint64_t{1} << 63; bit != 0 && !(v & bit); bit >>= 1) {
      n++;
    }
    return n;
#endif
  }

  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t max_ = 0;
};

}  // namespace nvmdb
