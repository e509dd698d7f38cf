#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "common/random.h"
#include "index/cow_btree.h"

namespace nvmdb {
namespace {

// Parameterized over the two page-store implementations the paper's two
// CoW engines use.
enum class StoreKind { kPmfs, kNvm };

class CowBTreeTest : public ::testing::TestWithParam<StoreKind> {
 protected:
  CowBTreeTest()
      : device_(64ull * 1024 * 1024, NvmLatencyConfig::Dram()),
        allocator_(&device_),
        fs_(&allocator_) {
    store_ = MakeStore(&allocator_, &fs_);
    tree_ = std::make_unique<CowBTree>(store_.get());
  }

  static std::unique_ptr<PageStore> MakeStore(PmemAllocator* allocator,
                                              Pmfs* fs) {
    if (GetParam() == StoreKind::kPmfs) {
      return std::make_unique<PmfsPageStore>(fs, "cow.db", 4096, 256,
                                             StorageTag::kTable);
    }
    return std::make_unique<NvmPageStore>(allocator, "cow", 4096,
                                          StorageTag::kIndex);
  }

  void Reattach() {
    tree_.reset();
    store_.reset();
    allocator2_ = std::make_unique<PmemAllocator>(&device_, false);
    fs2_ = std::make_unique<Pmfs>(allocator2_.get());
    store_ = MakeStore(allocator2_.get(), fs2_.get());
    tree_ = std::make_unique<CowBTree>(store_.get());
  }

  NvmDevice device_;
  PmemAllocator allocator_;
  Pmfs fs_;
  std::unique_ptr<PmemAllocator> allocator2_;
  std::unique_ptr<Pmfs> fs2_;
  std::unique_ptr<PageStore> store_;
  std::unique_ptr<CowBTree> tree_;
};

TEST_P(CowBTreeTest, PutGetDelete) {
  EXPECT_TRUE(tree_->Put(1, Slice("one")));
  EXPECT_TRUE(tree_->Put(2, Slice("two")));
  std::string v;
  ASSERT_TRUE(tree_->Get(1, &v));
  EXPECT_EQ(v, "one");
  EXPECT_FALSE(tree_->Get(3, &v));
  EXPECT_TRUE(tree_->Delete(1));
  EXPECT_FALSE(tree_->Get(1, &v));
  EXPECT_FALSE(tree_->Delete(1));
}

TEST_P(CowBTreeTest, DirtyVsCommittedVisibility) {
  tree_->Put(1, Slice("committed"));
  tree_->Commit();
  tree_->Put(1, Slice("dirty"));
  std::string v;
  tree_->Get(1, &v);
  EXPECT_EQ(v, "dirty");
  tree_->GetCommitted(1, &v);
  EXPECT_EQ(v, "committed");
}

TEST_P(CowBTreeTest, AbortRestoresCommittedState) {
  tree_->Put(1, Slice("keep"));
  tree_->Commit();
  tree_->Put(1, Slice("discard"));
  tree_->Put(2, Slice("discard too"));
  tree_->Delete(1);
  tree_->Abort();
  std::string v;
  ASSERT_TRUE(tree_->Get(1, &v));
  EXPECT_EQ(v, "keep");
  EXPECT_FALSE(tree_->Get(2, &v));
}

TEST_P(CowBTreeTest, CommittedSurvivesCrashUncommittedDoesNot) {
  tree_->Put(10, Slice("durable"));
  tree_->Commit();
  tree_->Put(20, Slice("in flight"));
  // No commit: crash.
  device_.Crash();
  Reattach();
  std::string v;
  ASSERT_TRUE(tree_->Get(10, &v));
  EXPECT_EQ(v, "durable");
  EXPECT_FALSE(tree_->Get(20, &v));
}

TEST_P(CowBTreeTest, MasterRecordSwapIsAtomic) {
  for (uint64_t i = 0; i < 50; i++) {
    tree_->Put(i, Slice("v1"));
  }
  tree_->Commit();
  for (uint64_t i = 0; i < 50; i++) {
    tree_->Put(i, Slice("v2-longer-value"));
  }
  // Crash before commit: all keys must read v1, none v2.
  device_.Crash();
  Reattach();
  for (uint64_t i = 0; i < 50; i++) {
    std::string v;
    ASSERT_TRUE(tree_->Get(i, &v));
    EXPECT_EQ(v, "v1");
  }
}

TEST_P(CowBTreeTest, ManyEntriesWithSplits) {
  std::map<uint64_t, std::string> model;
  Random rng(7);
  for (int i = 0; i < 3000; i++) {
    const uint64_t key = rng.Uniform(1000);
    if (rng.Percent(75)) {
      std::string value = rng.String(20 + rng.Uniform(200));
      tree_->Put(key, Slice(value));
      model[key] = value;
    } else {
      EXPECT_EQ(tree_->Delete(key), model.erase(key) > 0);
    }
    if (i % 100 == 0) tree_->Commit();
  }
  tree_->Commit();
  for (const auto& [key, value] : model) {
    std::string v;
    ASSERT_TRUE(tree_->Get(key, &v)) << key;
    EXPECT_EQ(v, value);
  }
  // Scan order matches the model.
  auto it = model.begin();
  tree_->Scan(0, ~0ull, [&](uint64_t k, const Slice& v) {
    EXPECT_EQ(k, it->first);
    EXPECT_EQ(v.ToString(), it->second);
    ++it;
    return true;
  });
  EXPECT_EQ(it, model.end());
}

TEST_P(CowBTreeTest, ScanRange) {
  for (uint64_t i = 0; i < 200; i++) {
    tree_->Put(i * 5, Slice("x"));
  }
  std::vector<uint64_t> keys;
  tree_->Scan(23, 41, [&](uint64_t k, const Slice&) {
    keys.push_back(k);
    return true;
  });
  EXPECT_EQ(keys, (std::vector<uint64_t>{25, 30, 35, 40}));
}

TEST_P(CowBTreeTest, RejectsOversizedValue) {
  const std::string huge(8192, 'x');
  EXPECT_FALSE(tree_->Put(1, Slice(huge)));
}

TEST_P(CowBTreeTest, GarbageCollectReclaimsOldVersions) {
  for (uint64_t i = 0; i < 200; i++) tree_->Put(i, Slice("v"));
  tree_->Commit();
  const size_t pages_live = tree_->PageCount();
  // Overwrite everything a few times: old pages freed at commit.
  for (int round = 0; round < 5; round++) {
    for (uint64_t i = 0; i < 200; i++) tree_->Put(i, Slice("w"));
    tree_->Commit();
  }
  EXPECT_LE(tree_->PageCount(), pages_live + 2);
  tree_->GarbageCollect();
  // After GC, another full rewrite reuses freed pages rather than growing
  // storage without bound.
  const uint64_t bytes_before = store_->StorageBytes();
  for (uint64_t i = 0; i < 200; i++) tree_->Put(i, Slice("z"));
  tree_->Commit();
  EXPECT_LE(store_->StorageBytes(), bytes_before * 2 + 64 * 1024);
}

TEST_P(CowBTreeTest, DeleteAllThenReuse) {
  for (uint64_t i = 0; i < 100; i++) tree_->Put(i, Slice("a"));
  tree_->Commit();
  for (uint64_t i = 0; i < 100; i++) EXPECT_TRUE(tree_->Delete(i));
  tree_->Commit();
  std::string v;
  EXPECT_FALSE(tree_->Get(0, &v));
  EXPECT_TRUE(tree_->Put(5, Slice("fresh")));
  ASSERT_TRUE(tree_->Get(5, &v));
  EXPECT_EQ(v, "fresh");
}

// --- Seeded mix with pinned model counters ---------------------------------

// A private device with a small CPU cache (so the mix causes misses and
// write-backs) and, for the PMFS store, a 3-page page cache (so views are
// evicted and their frame buffers recycled mid-operation).
class MixRig {
 public:
  explicit MixRig(StoreKind kind)
      : kind_(kind),
        device_(16ull * 1024 * 1024, NvmLatencyConfig::Dram(),
                CacheConfig{64 * 1024, 64, 8, false}) {
    allocator_ = std::make_unique<PmemAllocator>(&device_);
    fs_ = std::make_unique<Pmfs>(allocator_.get());
    Open();
  }

  CowBTree& tree() { return *tree_; }
  NvmDevice& device() { return device_; }

  /// Power failure, then restart on the durable image and collect the
  /// dead dirty directory.
  void CrashAndRecover() {
    tree_.reset();
    store_.reset();
    device_.Crash();
    allocator_ = std::make_unique<PmemAllocator>(&device_, false);
    fs_ = std::make_unique<Pmfs>(allocator_.get());
    Open();
    tree_->GarbageCollect();
  }

 private:
  void Open() {
    if (kind_ == StoreKind::kPmfs) {
      store_ = std::make_unique<PmfsPageStore>(fs_.get(), "mix.db", 4096, 3,
                                               StorageTag::kTable);
    } else {
      store_ = std::make_unique<NvmPageStore>(allocator_.get(), "mix", 4096,
                                              StorageTag::kIndex);
    }
    tree_ = std::make_unique<CowBTree>(store_.get());
  }

  StoreKind kind_;
  NvmDevice device_;
  std::unique_ptr<PmemAllocator> allocator_;
  std::unique_ptr<Pmfs> fs_;
  std::unique_ptr<PageStore> store_;
  std::unique_ptr<CowBTree> tree_;
};

// Puts, updates, deletes, gets and scans (whose callbacks read the tree
// again) with commits, aborts, a crash and a GC; the tree must match a
// std::map at every step, and the modeled device counters must equal the
// values this exact mix produced with the copy-based page API — page views
// and in-place page edits change no charged byte range.
TEST_P(CowBTreeTest, SeededMixMatchesMapAndPinnedCounters) {
  NvmEnv::Set(nullptr);
  MixRig rig(GetParam());
  std::map<uint64_t, std::string> committed;
  std::map<uint64_t, std::string> dirty;
  Random rng(42);
  auto check_get = [&](uint64_t key) {
    std::string v;
    const auto it = dirty.find(key);
    ASSERT_EQ(rig.tree().Get(key, &v), it != dirty.end()) << key;
    if (it != dirty.end()) {
      ASSERT_EQ(v, it->second) << key;
    }
  };
  for (int op = 0; op < 6000; op++) {
    const uint64_t key = rng.Uniform(1200);
    const uint64_t roll = rng.Uniform(100);
    if (roll < 35) {  // insert or overwrite, sizes that force splits
      std::string value = rng.String(8 + rng.Uniform(400));
      ASSERT_TRUE(rig.tree().Put(key, Slice(value)));
      dirty[key] = std::move(value);
    } else if (roll < 45 && !dirty.empty()) {  // update an existing key
      auto it = dirty.lower_bound(key);
      if (it == dirty.end()) it = dirty.begin();
      std::string value = rng.String(1 + rng.Uniform(64));
      ASSERT_TRUE(rig.tree().Put(it->first, Slice(value)));
      it->second = std::move(value);
    } else if (roll < 60) {
      ASSERT_EQ(rig.tree().Delete(key), dirty.erase(key) > 0) << key;
    } else if (roll < 80) {
      check_get(key);
    } else {
      // Scan [key, key + 40]; each callback first reads two other keys
      // through the tree, then checks the value it was handed.
      auto it = dirty.lower_bound(key);
      size_t seen = 0;
      rig.tree().Scan(key, key + 40, [&](uint64_t k, const Slice& v) {
        check_get(rng.Uniform(1200));
        check_get(k + 1);
        EXPECT_TRUE(it != dirty.end() && it->first == k) << k;
        if (it == dirty.end()) return false;
        EXPECT_EQ(v.ToString(), it->second) << k;
        ++it;
        return ++seen < 25;
      });
      if (seen < 25) {
        EXPECT_TRUE(it == dirty.end() || it->first > key + 40);
      }
    }
    if (op % 97 == 96) {
      rig.tree().Commit();
      committed = dirty;
    } else if (op % 211 == 210) {
      rig.tree().Abort();
      dirty = committed;
    }
    if (op == 4000) {
      rig.CrashAndRecover();
      dirty = committed;
    }
  }
  rig.tree().Commit();
  auto it = dirty.begin();
  rig.tree().Scan(0, ~0ull, [&](uint64_t k, const Slice& v) {
    EXPECT_TRUE(it != dirty.end() && it->first == k) << k;
    if (it == dirty.end()) return false;
    EXPECT_EQ(v.ToString(), it->second);
    ++it;
    return true;
  });
  EXPECT_TRUE(it == dirty.end());

  struct Expected {
    uint64_t loads, stores, hits, syncs, stall_ns;
  };
  const Expected expected = GetParam() == StoreKind::kPmfs
                                ? Expected{3017351, 380593, 4580847, 1943,
                                           537005001}
                                : Expected{1076439, 171450, 4871168, 3177,
                                           187161444};
  const NvmCounters c = rig.device().counters();
  EXPECT_EQ(c.loads, expected.loads);
  EXPECT_EQ(c.stores, expected.stores);
  EXPECT_EQ(c.hits, expected.hits);
  EXPECT_EQ(c.sync_calls, expected.syncs);
  EXPECT_EQ(c.stall_ns, expected.stall_ns);
}

// Enough leaves to split inner nodes (an inner page holds 255 keys), then
// deletes that empty whole subtrees and collapse the root; the device
// counters are pinned like the mix above.
TEST_P(CowBTreeTest, DeepTreeSplitsInnerNodesAndCollapses) {
  NvmEnv::Set(nullptr);
  MixRig rig(GetParam());
  std::map<uint64_t, std::string> model;
  Random rng(9);
  for (uint64_t i = 0; i < 40000; i++) {
    const uint64_t key = (i * 7919) % 40000;
    std::string value = rng.String(60 + rng.Uniform(120));
    ASSERT_TRUE(rig.tree().Put(key, Slice(value)));
    model[key] = std::move(value);
    if (i % 1000 == 999) rig.tree().Commit();
  }
  rig.tree().Commit();
  EXPECT_GT(rig.tree().PageCount(), 1000u);
  for (uint64_t key = 0; key < 40000; key++) {
    if (key % 1000 == 7) continue;  // keep a sparse tail of keys
    ASSERT_TRUE(rig.tree().Delete(key)) << key;
    model.erase(key);
    if (key % 5000 == 4999) rig.tree().Commit();
  }
  rig.tree().Commit();
  EXPECT_LT(rig.tree().PageCount(), 60u);
  auto it = model.begin();
  rig.tree().Scan(0, ~0ull, [&](uint64_t k, const Slice& v) {
    EXPECT_TRUE(it != model.end() && it->first == k) << k;
    if (it == model.end()) return false;
    EXPECT_EQ(v.ToString(), it->second);
    ++it;
    return true;
  });
  EXPECT_TRUE(it == model.end());
  for (uint64_t key = 7; key < 40000; key += 1000) {
    std::string v;
    ASSERT_TRUE(rig.tree().Get(key, &v));
    EXPECT_EQ(v, model[key]);
  }

  struct Expected {
    uint64_t loads, stores, hits, syncs, stall_ns;
  };
  const Expected expected = GetParam() == StoreKind::kPmfs
                                ? Expected{15548770, 11002922, 28220503,
                                           40237, 2833739409}
                                : Expected{5417943, 3418458, 27664428, 62513,
                                           956115464};
  const NvmCounters c = rig.device().counters();
  EXPECT_EQ(c.loads, expected.loads);
  EXPECT_EQ(c.stores, expected.stores);
  EXPECT_EQ(c.hits, expected.hits);
  EXPECT_EQ(c.sync_calls, expected.syncs);
  EXPECT_EQ(c.stall_ns, expected.stall_ns);
}

INSTANTIATE_TEST_SUITE_P(Stores, CowBTreeTest,
                         ::testing::Values(StoreKind::kPmfs,
                                           StoreKind::kNvm),
                         [](const auto& info) {
                           return info.param == StoreKind::kPmfs ? "Pmfs"
                                                                 : "Nvm";
                         });

}  // namespace
}  // namespace nvmdb
