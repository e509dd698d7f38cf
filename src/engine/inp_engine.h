#pragma once

#include <map>
#include <memory>

#include "engine/storage_engine.h"
#include "engine/table_storage.h"
#include "engine/wal.h"
#include "index/stx_btree.h"

namespace nvmdb {

/// Traditional in-place-updates engine (Section 3.1), modeled after
/// VoltDB: single-version tuples in slot pools used as *volatile* memory,
/// volatile STX B+tree indexes, durability via an ARIES-style WAL on the
/// filesystem with group commit, plus periodic compressed checkpoints.
/// Recovery replays the log from the last checkpoint and rebuilds every
/// index.
class InPEngine : public StorageEngine {
 public:
  explicit InPEngine(const EngineConfig& config);

  EngineKind kind() const override { return EngineKind::kInP; }

  Status CreateTable(const TableDef& def) override;
  Status Commit(uint64_t txn_id) override;
  Status Abort(uint64_t txn_id) override;
  Status Insert(uint64_t txn_id, uint32_t table_id,
                const Tuple& tuple) override;
  Status Update(uint64_t txn_id, uint32_t table_id, uint64_t key,
                const std::vector<ColumnUpdate>& updates) override;
  Status Delete(uint64_t txn_id, uint32_t table_id, uint64_t key) override;
  Status Select(uint64_t txn_id, uint32_t table_id, uint64_t key,
                Tuple* out) override;
  Status ScanRange(uint64_t txn_id, uint32_t table_id, uint64_t lo,
                   uint64_t hi,
                   const std::function<bool(uint64_t, const Tuple&)>& fn)
      override;
  Status SelectSecondary(uint64_t txn_id, uint32_t table_id,
                         uint32_t index_id,
                         const std::vector<Value>& key_values,
                         std::vector<Tuple>* out) override;
  Status Recover() override;
  Status Checkpoint() override;
  /// Flush only the pending commit group; no checkpoint, no truncation.
  Status ForceDurable() override { return wal_->Flush(); }
  FootprintStats Footprint() const override;
  FootprintStats VolatileFootprint() const override;

  uint64_t LastDurableTxn() const override {
    return wal_->last_durable_txn();
  }

 private:
  struct Table {
    TableDef def;
    std::unique_ptr<TableHeap> heap;
    std::unique_ptr<BTree<uint64_t, uint64_t>> primary;  // key -> slot
    // index_id -> (composite -> pk)
    std::map<uint32_t, std::unique_ptr<BTree<uint64_t, uint64_t>>>
        secondaries;
  };

  // Volatile per-transaction undo actions (abort path). POD: an update's
  // undo fields live in the shared undo_pool_, addressed by range, so
  // recording an action never allocates once the pools have grown.
  struct TxnAction {
    LogOp op;
    uint32_t table_id;
    uint64_t key;
    uint64_t slot;         // insert/delete
    uint32_t undo_begin;   // update: range in undo_pool_
    uint32_t undo_end;
  };

  Table* GetTable(uint32_t table_id);
  void AddSecondaryEntries(Table* table, const Tuple& tuple, uint64_t pk);
  void RemoveSecondaryEntries(Table* table, const Tuple& tuple, uint64_t pk);
  /// Append the WAL before-image delta for `updates` to `out`: the same
  /// bytes EncodeUpdates would produce from the captured old values, and
  /// the same device reads (one fixed-field read per column, plus varlen
  /// header/payload reads) — without materializing a ColumnUpdate vector.
  void AppendBeforeImage(Table* table, uint64_t slot,
                         const std::vector<ColumnUpdate>& updates,
                         std::string* out);
  void ApplyCommittedRecord(const LogRecord& record);
  std::string SerializeDatabase();
  void LoadDatabase(const std::string& payload);
  std::string CheckpointFileName() const;

  EngineConfig config_;
  Pmfs* fs_;
  PmemAllocator* allocator_;
  std::unique_ptr<Wal> wal_;
  std::map<uint32_t, Table> tables_;

  std::vector<TxnAction> txn_actions_;
  std::vector<TableHeap::UndoField> undo_pool_;
  std::vector<uint64_t> commit_free_varlen_;  // old varlens, freed on commit
  std::vector<uint64_t> commit_free_slots_;   // deleted slots
  std::vector<uint64_t> abort_free_varlen_;   // filled during undo
  uint64_t txns_since_checkpoint_ = 0;

  // Reused per-operation scratch (engines are partition-confined).
  std::string wal_before_;
  std::string wal_after_;
  Tuple scratch_tuple_;   // update/delete old image
  Tuple scratch_tuple2_;  // update new image (secondary maintenance)
  Tuple scan_scratch_;    // select-secondary / scan materialization
  size_t last_payload_bytes_ = 0;  // size of the last checkpoint payload
};

}  // namespace nvmdb
