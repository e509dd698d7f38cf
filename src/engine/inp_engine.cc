#include "engine/inp_engine.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "engine/checkpoint.h"
#include "lsm/delta.h"

namespace nvmdb {

InPEngine::InPEngine(const EngineConfig& config)
    : config_(config), fs_(config.fs), allocator_(config.allocator) {
  // This engine treats allocator memory as volatile (like DRAM malloc):
  // slot-state syncs on reuse would be pure overhead.
  allocator_->set_eager_state_sync(false);
  wal_ = std::make_unique<Wal>(fs_, config_.namespace_prefix + ".inp.wal",
                               config_.group_commit_size);
}

std::string InPEngine::CheckpointFileName() const {
  return config_.namespace_prefix + ".inp.ckpt";
}

Status InPEngine::CreateTable(const TableDef& def) {
  Table& table = tables_[def.table_id];
  table.def = def;
  table.heap = std::make_unique<TableHeap>(allocator_, &table.def.schema,
                                           /*nvm_aware=*/false);
  // Index nodes live in NVM used as volatile memory (NVM-only hierarchy):
  // route their traffic through the device's cache model.
  NvmDevice* device = allocator_->device();
  auto hook = +[](void* ctx, const void* p, size_t n, bool w) {
    static_cast<NvmDevice*>(ctx)->TouchVirtual(p, n, w);
  };
  // Nodes model their traffic at reserved (ASLR-independent) addresses so
  // the cache counters are reproducible across runs.
  auto valloc = +[](void* ctx, size_t n) {
    return static_cast<NvmDevice*>(ctx)->ReserveVirtual(n);
  };
  table.primary = std::make_unique<BTree<uint64_t, uint64_t>>(
      config_.btree_node_bytes);
  table.primary->SetAccessHook(hook, device);
  table.primary->SetVirtualAllocator(valloc, device);
  for (const auto& sec : def.secondary_indexes) {
    auto tree = std::make_unique<BTree<uint64_t, uint64_t>>(
        config_.btree_node_bytes);
    tree->SetAccessHook(hook, device);
    tree->SetVirtualAllocator(valloc, device);
    table.secondaries[sec.index_id] = std::move(tree);
  }
  return Status::OK();
}

InPEngine::Table* InPEngine::GetTable(uint32_t table_id) {
  auto it = tables_.find(table_id);
  return it == tables_.end() ? nullptr : &it->second;
}

void InPEngine::AddSecondaryEntries(Table* table, const Tuple& tuple,
                                    uint64_t pk) {
  for (const auto& sec : table->def.secondary_indexes) {
    const uint64_t h = SecondaryKeyHash(tuple, sec);
    table->secondaries[sec.index_id]->Insert(SecondaryComposite(h, pk), pk);
  }
}

void InPEngine::RemoveSecondaryEntries(Table* table, const Tuple& tuple,
                                       uint64_t pk) {
  for (const auto& sec : table->def.secondary_indexes) {
    const uint64_t h = SecondaryKeyHash(tuple, sec);
    table->secondaries[sec.index_id]->Erase(SecondaryComposite(h, pk));
  }
}

Status InPEngine::Insert(uint64_t txn_id, uint32_t table_id,
                         const Tuple& tuple) {
  (void)txn_id;
  Table* table = GetTable(table_id);
  if (table == nullptr) return Status::InvalidArgument("no such table");
  const uint64_t key = tuple.Key();
  {
    ScopedStallTag t(StallTag::kIndex);
    if (table->primary->Contains(key)) {
      return Status::InvalidArgument("duplicate key");
    }
  }

  {
    // WAL first: the after image is everything redo needs.
    ScopedStallTag t(StallTag::kWal);
    LogRecordRef record;
    record.op = LogOp::kInsert;
    record.txn_id = txn_id;
    record.table_id = table_id;
    record.key = key;
    wal_after_.clear();
    tuple.AppendInlined(&wal_after_);
    record.after = Slice(wal_after_);
    wal_->Append(record);
  }

  uint64_t slot;
  {
    ScopedStallTag t(StallTag::kTuple);
    slot = table->heap->Insert(tuple);
    if (slot == 0) return Status::OutOfSpace("table heap");
  }
  {
    ScopedStallTag t(StallTag::kIndex);
    table->primary->Insert(key, slot);
    AddSecondaryEntries(table, tuple, key);
  }
  txn_actions_.push_back({LogOp::kInsert, table_id, key, slot, 0, 0});
  return Status::OK();
}

void InPEngine::AppendBeforeImage(Table* table, uint64_t slot,
                                  const std::vector<ColumnUpdate>& updates,
                                  std::string* out) {
  const uint16_t count = static_cast<uint16_t>(updates.size());
  out->append(reinterpret_cast<const char*>(&count), 2);
  for (const ColumnUpdate& u : updates) {
    const uint16_t col = static_cast<uint16_t>(u.column);
    out->append(reinterpret_cast<const char*>(&col), 2);
    const bool is_string =
        table->def.schema.column(u.column).type == ColumnType::kVarchar;
    out->push_back(static_cast<char>(is_string ? 1 : 0));
    if (is_string) {
      const size_t len_pos = out->size();
      out->append(4, '\0');
      const size_t start = out->size();
      table->heap->AppendString(slot, u.column, out);
      const uint32_t len = static_cast<uint32_t>(out->size() - start);
      memcpy(&(*out)[len_pos], &len, 4);
    } else {
      const uint64_t num = table->heap->ReadU64(slot, u.column);
      out->append(reinterpret_cast<const char*>(&num), 8);
    }
  }
}

Status InPEngine::Update(uint64_t txn_id, uint32_t table_id, uint64_t key,
                         const std::vector<ColumnUpdate>& updates) {
  Table* table = GetTable(table_id);
  if (table == nullptr) return Status::InvalidArgument("no such table");
  uint64_t slot = 0;
  {
    ScopedStallTag t(StallTag::kIndex);
    if (!table->primary->Find(key, &slot)) return Status::NotFound();
  }

  // Capture before-values (for the WAL and secondary maintenance),
  // encoding them straight into the reused before-image buffer.
  bool touches_secondary = false;
  {
    ScopedStallTag t(StallTag::kTuple);
    wal_before_.clear();
    AppendBeforeImage(table, slot, updates, &wal_before_);
    for (const ColumnUpdate& u : updates) {
      for (const auto& sec : table->def.secondary_indexes) {
        for (size_t c : sec.key_columns) {
          if (c == u.column) touches_secondary = true;
        }
      }
    }
    if (touches_secondary) table->heap->Read(slot, &scratch_tuple_);
  }

  {
    ScopedStallTag t(StallTag::kWal);
    LogRecordRef record;
    record.op = LogOp::kUpdate;
    record.txn_id = txn_id;
    record.table_id = table_id;
    record.key = key;
    record.before = Slice(wal_before_);
    wal_after_.clear();
    EncodeUpdatesTo(table->def.schema, updates, &wal_after_);
    record.after = Slice(wal_after_);
    wal_->Append(record);
  }

  TxnAction action;
  action.op = LogOp::kUpdate;
  action.table_id = table_id;
  action.key = key;
  action.slot = slot;
  action.undo_begin = static_cast<uint32_t>(undo_pool_.size());
  {
    ScopedStallTag t(StallTag::kTuple);
    Status s = table->heap->Update(slot, updates, &undo_pool_,
                                   &commit_free_varlen_);
    if (!s.ok()) return s;
  }
  action.undo_end = static_cast<uint32_t>(undo_pool_.size());
  if (touches_secondary) {
    ScopedStallTag t(StallTag::kIndex);
    scratch_tuple2_ = scratch_tuple_;
    ApplyUpdates(&scratch_tuple2_, updates);
    RemoveSecondaryEntries(table, scratch_tuple_, key);
    AddSecondaryEntries(table, scratch_tuple2_, key);
  }
  txn_actions_.push_back(action);
  return Status::OK();
}

Status InPEngine::Delete(uint64_t txn_id, uint32_t table_id, uint64_t key) {
  Table* table = GetTable(table_id);
  if (table == nullptr) return Status::InvalidArgument("no such table");
  uint64_t slot = 0;
  {
    ScopedStallTag t(StallTag::kIndex);
    if (!table->primary->Find(key, &slot)) return Status::NotFound();
  }
  {
    ScopedStallTag t(StallTag::kTuple);
    table->heap->Read(slot, &scratch_tuple_);
  }
  {
    ScopedStallTag t(StallTag::kWal);
    LogRecordRef record;
    record.op = LogOp::kDelete;
    record.txn_id = txn_id;
    record.table_id = table_id;
    record.key = key;
    wal_before_.clear();
    scratch_tuple_.AppendInlined(&wal_before_);
    record.before = Slice(wal_before_);
    wal_->Append(record);
  }
  {
    ScopedStallTag t(StallTag::kIndex);
    table->primary->Erase(key);
    RemoveSecondaryEntries(table, scratch_tuple_, key);
  }
  // The slot is reclaimed only after commit; abort re-links it.
  commit_free_slots_.push_back(slot);
  txn_actions_.push_back({LogOp::kDelete, table_id, key, slot, 0, 0});
  return Status::OK();
}

Status InPEngine::Select(uint64_t txn_id, uint32_t table_id, uint64_t key,
                         Tuple* out) {
  (void)txn_id;
  Table* table = GetTable(table_id);
  if (table == nullptr) return Status::InvalidArgument("no such table");
  uint64_t slot = 0;
  {
    ScopedStallTag t(StallTag::kIndex);
    if (!table->primary->Find(key, &slot)) return Status::NotFound();
  }
  ScopedStallTag t(StallTag::kTuple);
  table->heap->Read(slot, out);
  return Status::OK();
}

Status InPEngine::ScanRange(
    uint64_t txn_id, uint32_t table_id, uint64_t lo, uint64_t hi,
    const std::function<bool(uint64_t, const Tuple&)>& fn) {
  (void)txn_id;
  Table* table = GetTable(table_id);
  if (table == nullptr) return Status::InvalidArgument("no such table");
  ScopedStallTag t(StallTag::kIndex);
  table->primary->Scan(lo, hi, [&](uint64_t key, const uint64_t& slot) {
    table->heap->Read(slot, &scan_scratch_);
    return fn(key, scan_scratch_);
  });
  return Status::OK();
}

Status InPEngine::SelectSecondary(uint64_t txn_id, uint32_t table_id,
                                  uint32_t index_id,
                                  const std::vector<Value>& key_values,
                                  std::vector<Tuple>* out) {
  (void)txn_id;
  Table* table = GetTable(table_id);
  if (table == nullptr) return Status::InvalidArgument("no such table");
  auto sec_it = table->secondaries.find(index_id);
  if (sec_it == table->secondaries.end()) {
    return Status::InvalidArgument("no such index");
  }
  const SecondaryIndexDef* def = nullptr;
  for (const auto& d : table->def.secondary_indexes) {
    if (d.index_id == index_id) def = &d;
  }
  const uint64_t h = SecondaryKeyHash(table->def.schema, *def, key_values);

  std::vector<uint64_t> pks;
  {
    ScopedStallTag t(StallTag::kIndex);
    sec_it->second->Scan(SecondaryRangeLo(h), SecondaryRangeHi(h),
                         [&pks](uint64_t, const uint64_t& pk) {
                           pks.push_back(pk);
                           return true;
                         });
  }
  for (uint64_t pk : pks) {
    uint64_t slot = 0;
    if (!table->primary->Find(pk, &slot)) continue;
    table->heap->Read(slot, &scan_scratch_);
    if (SecondaryKeyHash(scan_scratch_, *def) == h) {
      out->push_back(scan_scratch_);
    }
  }
  return Status::OK();
}

Status InPEngine::Commit(uint64_t txn_id) {
  {
    ScopedStallTag t(StallTag::kWal);
    wal_->LogCommit(txn_id);
  }
  {
    ScopedStallTag t(StallTag::kTuple);
    for (const TxnAction& action : txn_actions_) {
      if (action.op == LogOp::kDelete) {
        GetTable(action.table_id)->heap->Free(action.slot);
      }
    }
    commit_free_slots_.clear();
    for (uint64_t voff : commit_free_varlen_) {
      // The schema owner is unknown here; varlen slots free uniformly.
      allocator_->Free(voff);
    }
    commit_free_varlen_.clear();
  }
  txn_actions_.clear();
  undo_pool_.clear();
  committed_txns_++;
  active_txn_ = 0;

  if (config_.checkpoint_interval_txns > 0 &&
      ++txns_since_checkpoint_ >= config_.checkpoint_interval_txns) {
    Checkpoint();
  }
  return Status::OK();
}

Status InPEngine::Abort(uint64_t txn_id) {
  {
    ScopedStallTag t(StallTag::kWal);
    LogRecord record;
    record.op = LogOp::kAbort;
    record.txn_id = txn_id;
    wal_->Append(record);
  }
  // Undo newest-first.
  for (auto it = txn_actions_.rbegin(); it != txn_actions_.rend(); ++it) {
    Table* table = GetTable(it->table_id);
    switch (it->op) {
      case LogOp::kInsert: {
        const Tuple t = table->heap->Read(it->slot);
        table->primary->Erase(it->key);
        RemoveSecondaryEntries(table, t, it->key);
        table->heap->Free(it->slot);
        break;
      }
      case LogOp::kUpdate: {
        const Tuple newer = table->heap->Read(it->slot);
        for (size_t u = it->undo_end; u-- > it->undo_begin;) {
          table->heap->ApplyUndo(it->slot, undo_pool_[u],
                                 &abort_free_varlen_);
        }
        const Tuple older = table->heap->Read(it->slot);
        RemoveSecondaryEntries(table, newer, it->key);
        AddSecondaryEntries(table, older, it->key);
        break;
      }
      case LogOp::kDelete: {
        const Tuple t = table->heap->Read(it->slot);
        table->primary->Insert(it->key, it->slot);
        AddSecondaryEntries(table, t, it->key);
        break;
      }
      default:
        break;
    }
  }
  for (uint64_t voff : abort_free_varlen_) allocator_->Free(voff);
  abort_free_varlen_.clear();
  // Old varlens recorded for commit-free stay live again.
  commit_free_varlen_.clear();
  commit_free_slots_.clear();
  txn_actions_.clear();
  undo_pool_.clear();
  active_txn_ = 0;
  return Status::OK();
}

void InPEngine::ApplyCommittedRecord(const LogRecord& record) {
  Table* table = GetTable(record.table_id);
  if (table == nullptr) return;
  switch (record.op) {
    case LogOp::kInsert: {
      Tuple t =
          Tuple::ParseInlined(&table->def.schema, Slice(record.after));
      const uint64_t slot = table->heap->Insert(t);
      table->primary->Insert(record.key, slot);
      AddSecondaryEntries(table, t, record.key);
      break;
    }
    case LogOp::kUpdate: {
      uint64_t slot = 0;
      if (!table->primary->Find(record.key, &slot)) return;
      Tuple old_tuple = table->heap->Read(slot);
      const auto updates =
          DecodeUpdates(table->def.schema, Slice(record.after));
      std::vector<TableHeap::UndoField> unused_undo;
      std::vector<uint64_t> free_now;
      table->heap->Update(slot, updates, &unused_undo, &free_now);
      for (uint64_t voff : free_now) allocator_->Free(voff);
      Tuple new_tuple = table->heap->Read(slot);
      RemoveSecondaryEntries(table, old_tuple, record.key);
      AddSecondaryEntries(table, new_tuple, record.key);
      break;
    }
    case LogOp::kDelete: {
      uint64_t slot = 0;
      if (!table->primary->Find(record.key, &slot)) return;
      Tuple t = table->heap->Read(slot);
      table->primary->Erase(record.key);
      RemoveSecondaryEntries(table, t, record.key);
      table->heap->Free(slot);
      break;
    }
    default:
      break;
  }
}

std::string InPEngine::SerializeDatabase() {
  std::string payload;
  // Checkpoints of one engine are of similar size: reserve the last one's.
  payload.reserve(last_payload_bytes_);
  for (auto& [table_id, table] : tables_) {
    payload.append(reinterpret_cast<const char*>(&table_id), 4);
    const uint64_t count = table.primary->size();
    payload.append(reinterpret_cast<const char*>(&count), 8);
    table.primary->ScanAll([&](uint64_t, const uint64_t& slot) {
      // Each tuple is [u32 len][inlined bytes]: append the bytes after a
      // length placeholder, then patch the length in.
      table.heap->Read(slot, &scan_scratch_);
      const size_t len_pos = payload.size();
      payload.append(4, '\0');
      scan_scratch_.AppendInlined(&payload);
      const uint32_t len =
          static_cast<uint32_t>(payload.size() - len_pos - 4);
      memcpy(&payload[len_pos], &len, 4);
      return true;
    });
  }
  last_payload_bytes_ = payload.size();
  return payload;
}

void InPEngine::LoadDatabase(const std::string& payload) {
  size_t pos = 0;
  while (pos + 12 <= payload.size()) {
    uint32_t table_id;
    uint64_t count;
    memcpy(&table_id, payload.data() + pos, 4);
    memcpy(&count, payload.data() + pos + 4, 8);
    pos += 12;
    Table* table = GetTable(table_id);
    for (uint64_t i = 0; i < count; i++) {
      uint32_t len;
      memcpy(&len, payload.data() + pos, 4);
      pos += 4;
      Tuple t = Tuple::ParseInlined(&table->def.schema,
                                    Slice(payload.data() + pos, len));
      pos += len;
      const uint64_t slot = table->heap->Insert(t);
      table->primary->Insert(t.Key(), slot);
      AddSecondaryEntries(table, t, t.Key());
    }
  }
}

Status InPEngine::Checkpoint() {
  ScopedStallTag timer(StallTag::kCheckpoint);
  // Sharp checkpoint: the engine is quiescent between transactions.
  Status s = wal_->Flush();
  if (!s.ok()) return s;
  s = WriteCheckpoint(fs_, CheckpointFileName(), SerializeDatabase());
  if (!s.ok()) return s;
  s = wal_->Truncate();
  txns_since_checkpoint_ = 0;
  return s;
}

Status InPEngine::Recover() {
  ScopedStallTag timer(StallTag::kRecovery);
  // Load the last checkpoint, then replay committed transactions from the
  // WAL. Indexes are rebuilt from scratch along the way (Section 3.1).
  std::string payload;
  Status s = ReadCheckpoint(fs_, CheckpointFileName(), &payload);
  if (s.ok()) {
    LoadDatabase(payload);
  } else if (!s.IsNotFound()) {
    return s;
  }

  const std::vector<LogRecord> records = wal_->ReadAll();
  // Pass 1: which transactions committed?
  std::vector<uint64_t> committed;
  for (const LogRecord& r : records) {
    if (r.op == LogOp::kCommit) committed.push_back(r.txn_id);
    if (r.txn_id >= next_txn_id_) next_txn_id_ = r.txn_id + 1;
  }
  std::sort(committed.begin(), committed.end());
  auto is_committed = [&committed](uint64_t txn) {
    return std::binary_search(committed.begin(), committed.end(), txn);
  };
  // Pass 2: redo committed changes in log order.
  for (const LogRecord& r : records) {
    if (r.op == LogOp::kCommit || r.op == LogOp::kAbort ||
        r.op == LogOp::kBegin) {
      continue;
    }
    if (is_committed(r.txn_id)) ApplyCommittedRecord(r);
  }
  return Status::OK();
}

FootprintStats InPEngine::VolatileFootprint() const {
  FootprintStats stats;
  for (const auto& [id, table] : tables_) {
    (void)id;
    stats.index_bytes += table.primary->MemoryBytes();
    for (const auto& [sid, sec] : table.secondaries) {
      (void)sid;
      stats.index_bytes += sec->MemoryBytes();
    }
  }
  return stats;
}

FootprintStats InPEngine::Footprint() const {
  FootprintStats stats;
  const AllocatorStats alloc = allocator_->stats();
  stats.table_bytes =
      alloc.used_by_tag[static_cast<size_t>(StorageTag::kTable)];
  stats.log_bytes = wal_->DurableSizeBytes();
  stats.checkpoint_bytes = fs_->FileBlockBytes(CheckpointFileName());
  for (const auto& [id, table] : tables_) {
    stats.index_bytes += table.primary->MemoryBytes();
    for (const auto& [sid, sec] : table.secondaries) {
      stats.index_bytes += sec->MemoryBytes();
    }
  }
  return stats;
}

}  // namespace nvmdb
