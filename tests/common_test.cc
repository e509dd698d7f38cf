#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/bloom_filter.h"
#include "common/compress.h"
#include "common/crc32.h"
#include "common/random.h"
#include "common/slice.h"
#include "common/status.h"

namespace nvmdb {
namespace {

// --- Status ---------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, CodesAndMessages) {
  EXPECT_TRUE(Status::NotFound("k").IsNotFound());
  EXPECT_TRUE(Status::Corruption().IsCorruption());
  EXPECT_TRUE(Status::InvalidArgument().IsInvalidArgument());
  EXPECT_TRUE(Status::IOError().IsIOError());
  EXPECT_TRUE(Status::OutOfSpace().IsOutOfSpace());
  EXPECT_TRUE(Status::Aborted().IsAborted());
  EXPECT_TRUE(Status::NotSupported().IsNotSupported());
  EXPECT_EQ(Status::NotFound("key 42").ToString(), "NotFound: key 42");
  EXPECT_FALSE(Status::NotFound().ok());
}

// --- Slice ----------------------------------------------------------------

TEST(SliceTest, BasicOps) {
  Slice s("hello");
  EXPECT_EQ(s.size(), 5u);
  EXPECT_EQ(s[0], 'h');
  EXPECT_FALSE(s.empty());
  EXPECT_EQ(s.ToString(), "hello");
  s.remove_prefix(2);
  EXPECT_EQ(s.ToString(), "llo");
}

TEST(SliceTest, Compare) {
  EXPECT_LT(Slice("abc").compare(Slice("abd")), 0);
  EXPECT_GT(Slice("abd").compare(Slice("abc")), 0);
  EXPECT_EQ(Slice("abc").compare(Slice("abc")), 0);
  EXPECT_LT(Slice("ab").compare(Slice("abc")), 0);
  EXPECT_TRUE(Slice("abc") == Slice("abc"));
  EXPECT_TRUE(Slice("abc") != Slice("abd"));
  EXPECT_TRUE(Slice("ab") < Slice("abc"));
  EXPECT_TRUE(Slice("abcdef").starts_with(Slice("abc")));
  EXPECT_FALSE(Slice("ab").starts_with(Slice("abc")));
}

// --- Random / skew generators ----------------------------------------------

TEST(RandomTest, Deterministic) {
  Random a(7), b(7);
  for (int i = 0; i < 100; i++) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, UniformRange) {
  Random rng(3);
  for (int i = 0; i < 1000; i++) {
    const uint64_t v = rng.Range(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(RandomTest, StringLengthAndCharset) {
  Random rng(3);
  const std::string s = rng.String(64);
  EXPECT_EQ(s.size(), 64u);
  for (char c : s) {
    EXPECT_GE(c, 'a');
    EXPECT_LE(c, 'z');
  }
}

TEST(HotspotTest, SkewConcentratesAccesses) {
  // High skew: 90% of accesses to the first 10% of keys.
  HotspotGenerator gen(10000, 0.1, 0.9, 11);
  uint64_t hot = 0;
  const int n = 20000;
  for (int i = 0; i < n; i++) {
    if (gen.Next() < 1000) hot++;
  }
  const double frac = static_cast<double>(hot) / n;
  EXPECT_GT(frac, 0.85);
  EXPECT_LT(frac, 0.95);
}

TEST(HotspotTest, CoversWholeKeySpace) {
  HotspotGenerator gen(100, 0.2, 0.5, 5);
  std::set<uint64_t> seen;
  for (int i = 0; i < 10000; i++) {
    const uint64_t k = gen.Next();
    EXPECT_LT(k, 100u);
    seen.insert(k);
  }
  EXPECT_GT(seen.size(), 90u);
}

TEST(ZipfianTest, InRangeAndSkewed) {
  ZipfianGenerator gen(1000, 0.99, 3);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 20000; i++) {
    const uint64_t k = gen.Next();
    ASSERT_LT(k, 1000u);
    counts[k]++;
  }
  // Rank-0 key should dominate any mid-range key.
  EXPECT_GT(counts[0], counts[500] * 5);
}

// --- CRC32C ----------------------------------------------------------------

TEST(Crc32Test, KnownVector) {
  // CRC-32C("123456789") = 0xE3069283.
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
}

TEST(Crc32Test, DetectsCorruption) {
  std::string data = "the quick brown fox";
  const uint32_t crc = Crc32c(data.data(), data.size());
  data[3] ^= 1;
  EXPECT_NE(Crc32c(data.data(), data.size()), crc);
}

TEST(Crc32Test, EmptyInput) { EXPECT_EQ(Crc32c("", 0), 0u); }

// --- Bloom filter ------------------------------------------------------------

class BloomParamTest : public ::testing::TestWithParam<size_t> {};

TEST_P(BloomParamTest, NoFalseNegatives) {
  const size_t n = GetParam();
  BloomFilter bloom(n);
  for (size_t i = 0; i < n; i++) bloom.Add(i * 977 + 13);
  for (size_t i = 0; i < n; i++) {
    EXPECT_TRUE(bloom.MayContain(i * 977 + 13));
  }
}

TEST_P(BloomParamTest, LowFalsePositiveRate) {
  const size_t n = GetParam();
  BloomFilter bloom(n);
  for (size_t i = 0; i < n; i++) bloom.Add(i);
  size_t false_positives = 0;
  const size_t probes = 10000;
  for (size_t i = 0; i < probes; i++) {
    if (bloom.MayContain(1000000 + i)) false_positives++;
  }
  EXPECT_LT(static_cast<double>(false_positives) / probes, 0.05);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BloomParamTest,
                         ::testing::Values(16, 100, 1000, 10000));

TEST(BloomTest, SerializeRoundTrip) {
  BloomFilter bloom(100);
  for (uint64_t i = 0; i < 100; i++) bloom.Add(i * 3);
  const std::string bytes = bloom.Serialize();
  BloomFilter copy = BloomFilter::Deserialize(Slice(bytes));
  for (uint64_t i = 0; i < 100; i++) EXPECT_TRUE(copy.MayContain(i * 3));
}

TEST(BloomTest, StringKeys) {
  BloomFilter bloom(10);
  bloom.Add(Slice("alpha"));
  bloom.Add(Slice("beta"));
  EXPECT_TRUE(bloom.MayContain(Slice("alpha")));
  EXPECT_TRUE(bloom.MayContain(Slice("beta")));
}

// --- Compression -------------------------------------------------------------

class CompressParamTest : public ::testing::TestWithParam<size_t> {};

TEST_P(CompressParamTest, RoundTripRandom) {
  Random rng(GetParam());
  std::string input;
  for (size_t i = 0; i < GetParam(); i++) {
    input.push_back(static_cast<char>(rng.Uniform(256)));
  }
  const std::string compressed = LzCompress(Slice(input));
  std::string output;
  ASSERT_TRUE(LzDecompress(Slice(compressed), &output));
  EXPECT_EQ(output, input);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CompressParamTest,
                         ::testing::Values(0, 1, 7, 100, 4096, 100000));

TEST(CompressTest, CompressesRepetitiveData) {
  std::string input;
  for (int i = 0; i < 1000; i++) input += "abcdefgh";
  const std::string compressed = LzCompress(Slice(input));
  EXPECT_LT(compressed.size(), input.size() / 4);
  std::string output;
  ASSERT_TRUE(LzDecompress(Slice(compressed), &output));
  EXPECT_EQ(output, input);
}

TEST(CompressTest, OverlappingMatches) {
  // "aaaa..." forces self-overlapping match copies.
  const std::string input(5000, 'a');
  const std::string compressed = LzCompress(Slice(input));
  EXPECT_LT(compressed.size(), 200u);
  std::string output;
  ASSERT_TRUE(LzDecompress(Slice(compressed), &output));
  EXPECT_EQ(output, input);
}

// Fixed compression corpus: edge sizes, runs longer than the longest
// match, periodic data, incompressible bytes, repeats just inside and
// just outside the 64 KB window, and checkpoint-like tuple records.
std::vector<std::pair<std::string, std::string>> GoldenCorpus() {
  std::vector<std::pair<std::string, std::string>> corpus;
  corpus.emplace_back("empty", "");
  corpus.emplace_back("tiny", "abc");
  corpus.emplace_back("quad", "abcd");
  corpus.emplace_back("run", std::string(5000, 'a'));
  std::string periodic;
  for (int i = 0; i < 1000; i++) periodic += "abcdefgh";
  corpus.emplace_back("periodic", periodic);
  Random rng(1);
  std::string noise;
  for (int i = 0; i < 100000; i++) {
    noise.push_back(static_cast<char>(rng.Uniform(256)));
  }
  corpus.emplace_back("noise", noise);
  // A block repeated at distance 65536 (inside the window) and again at
  // distance 65537 + 16 (outside it).
  std::string window = noise.substr(0, 65536);
  window += noise.substr(0, 4096);
  window += noise.substr(70000, 16);
  window += noise.substr(1, 4096);
  corpus.emplace_back("window", window);
  std::string records;
  const char* words[] = {"alpha", "beta", "gamma", "delta", "epsilon",
                         "zeta",  "eta",  "theta", "iota",  "kappa"};
  for (uint64_t id = 0; id < 20000; id++) {
    std::string rec;
    rec.append(reinterpret_cast<const char*>(&id), 8);
    const uint64_t field = rng.Uniform(1000) * 100;
    rec.append(reinterpret_cast<const char*>(&field), 8);
    const size_t nwords = 1 + rng.Uniform(6);
    for (size_t w = 0; w < nwords; w++) {
      rec += words[rng.Uniform(rng.Percent(80) ? 3 : 10)];
    }
    const uint32_t len = static_cast<uint32_t>(rec.size());
    records.append(reinterpret_cast<const char*>(&len), 4);
    records += rec;
  }
  corpus.emplace_back("records", records);
  return corpus;
}

// LzCompress output is part of the model (checkpoint files are written
// through the simulated device), so its bytes are pinned: size and CRC of
// each corpus entry's compressed form.
TEST(CompressTest, GoldenOutput) {
  struct Expected {
    const char* name;
    size_t input_bytes;
    size_t output_bytes;
    uint32_t crc;
  };
  const Expected expected[] = {
      {"empty", 0, 1, 0x527D5351u},
      {"tiny", 3, 6, 0x579BA2A4u},
      {"quad", 4, 7, 0x243450FAu},
      {"run", 5000, 103, 0xFB275251u},
      {"periodic", 8000, 166, 0x8F98CAE3u},
      {"noise", 100000, 100007, 0xBF0F6DD0u},
      {"window", 73744, 66054, 0x5401FA2Bu},
      {"records", 726388, 478281, 0xB633B06Cu},
  };
  const auto corpus = GoldenCorpus();
  ASSERT_EQ(corpus.size(), std::size(expected));
  for (size_t i = 0; i < corpus.size(); i++) {
    const auto& [name, input] = corpus[i];
    SCOPED_TRACE(name);
    EXPECT_EQ(name, expected[i].name);
    EXPECT_EQ(input.size(), expected[i].input_bytes);
    const std::string compressed = LzCompress(Slice(input));
    EXPECT_EQ(compressed.size(), expected[i].output_bytes);
    EXPECT_EQ(Crc32c(compressed.data(), compressed.size()), expected[i].crc);
    std::string output;
    ASSERT_TRUE(LzDecompress(Slice(compressed), &output));
    EXPECT_EQ(output, input);
  }
}

TEST(CompressTest, RejectsGarbage) {
  std::string output;
  EXPECT_FALSE(LzDecompress(Slice("\xff\xff\xff garbage"), &output));
}

TEST(CompressTest, RejectsTruncated) {
  std::string input(1000, 'x');
  std::string compressed = LzCompress(Slice(input));
  compressed.resize(compressed.size() / 2);
  std::string output;
  EXPECT_FALSE(LzDecompress(Slice(compressed), &output));
}

}  // namespace
}  // namespace nvmdb
