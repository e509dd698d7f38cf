#include "testbed/coordinator.h"

#include <cassert>
#include <utility>

#include "common/timer.h"
#include "common/trace.h"

namespace nvmdb {

RunResult Coordinator::Execute(const std::vector<const TxnQueue*>& queues) {
  // Bind the thread-local device (and trace writer, when enabled) so
  // NvmPtr resolution and the stall-tag attribution work no matter which
  // thread drives this database (the bench grid scheduler runs whole
  // databases on pool threads).
  NvmEnv::Set(db_->device());
  NvmEnv::SetTrace(db_->trace());
  RunResult result;
  NvmDevice* device = db_->device();
  TraceWriter* trace = db_->trace();

  const uint64_t stall_before = device->TotalStallNanos();
  Stopwatch watch;

  // Per-partition execution state. Each partition models one worker core,
  // so response latency runs on a *partition-local* simulated clock: the
  // global device clock sums every partition's slices, and stamping
  // Begin/durable times against it would bill partition q's work into
  // partition p's response times (up to (N-1)x inflation under the
  // round-robin). The local clock advances only by the stall this
  // partition's own slices charge.
  struct PartState {
    size_t pos = 0;
    uint64_t clock = 0;  // partition-local simulated time
    std::vector<std::pair<uint64_t, uint64_t>> pending;  // txn id, start
  };
  std::vector<PartState> parts(queues.size());
  // Per-partition scratch: one set of reusable buffers per worker core, so
  // steady-state transaction bodies allocate nothing.
  std::vector<TxnScratch> scratch(queues.size());

  // A transaction's response time runs from Begin() until
  // LastDurableTxn() covers it — for group-committing engines that is
  // when the group is forced, not when Commit() returns.
  auto drain_durable = [&](StorageEngine* engine, PartState& st) {
    const uint64_t durable = engine->LastDurableTxn();
    size_t kept = 0;
    for (auto& [txn, start] : st.pending) {
      if (txn <= durable) {
        result.latency_hist.Record(st.clock - start);
      } else {
        st.pending[kept++] = {txn, start};
      }
    }
    st.pending.resize(kept);
  };

  // Deterministic round-robin schedule: one transaction per partition per
  // round, on the calling thread. This is the fixed interleaving that a
  // one-worker-per-partition execution approximates nondeterministically —
  // partitions still contend for the shared simulated cache, but the
  // access order (and therefore every counter and the simulated clock) is
  // identical on every run and on every host. Host-level parallelism comes
  // from running independent benchmark cells concurrently instead
  // (testbed/bench_runner.h), which keeps the model deterministic; the
  // throughput model already charges each worker 1/Nth of the simulated
  // stall (RunResult::Throughput), so wall-clock threading never affected
  // the modeled numbers, only the harness speed.
  for (bool progress = true; progress;) {
    progress = false;
    for (size_t p = 0; p < queues.size(); p++) {
      if (queues[p] == nullptr || parts[p].pos >= queues[p]->size()) {
        continue;
      }
      progress = true;
      const TxnQueue& queue = *queues[p];
      const TxnTask& task = queue.tasks[parts[p].pos++];
      PartState& st = parts[p];
      StorageEngine* engine = db_->partition(p);
      const uint64_t slice_start = device->TotalStallNanos();
      const uint64_t start_local = st.clock;
      const uint64_t txn_id = engine->Begin();
      const bool committed =
          task.fn(task, queue, engine, txn_id, &scratch[p]);
      if (committed) {
        engine->Commit(txn_id);
        result.committed++;
      } else {
        engine->Abort(txn_id);
        result.aborted++;
      }
      const uint64_t slice_end = device->TotalStallNanos();
      st.clock += slice_end - slice_start;
      if (trace != nullptr) {
        trace->Span(committed ? "txn" : "txn_abort", "txn", slice_start,
                    slice_end - slice_start, static_cast<uint32_t>(p));
      }
      if (committed) {
        st.pending.emplace_back(txn_id, start_local);
        drain_durable(engine, st);
      }
    }
  }

  // Force only the pending commit group durable so the tail group's
  // transactions get response times. ForceDurable, not Checkpoint: a full
  // checkpoint (log truncation, compressed snapshot, memtable flush) here
  // billed its entire cost into the last group's tail latencies.
  for (size_t p = 0; p < queues.size(); p++) {
    if (queues[p] == nullptr) continue;
    PartState& st = parts[p];
    StorageEngine* engine = db_->partition(p);
    const uint64_t before = device->TotalStallNanos();
    engine->ForceDurable();
    st.clock += device->TotalStallNanos() - before;
    drain_durable(engine, st);
  }

  result.wall_ns = watch.ElapsedNanos();
  result.stall_ns = device->TotalStallNanos() - stall_before;
  result.latency = result.latency_hist.Summarize();
  return result;
}

RunResult Coordinator::Run(const std::vector<TxnQueue>& queues) {
  assert(queues.size() == db_->num_partitions());
  std::vector<const TxnQueue*> ptrs;
  ptrs.reserve(queues.size());
  for (const auto& q : queues) ptrs.push_back(&q);
  return Execute(ptrs);
}

RunResult Coordinator::RunSerial(size_t partition, const TxnQueue& queue) {
  std::vector<const TxnQueue*> ptrs(db_->num_partitions(), nullptr);
  assert(partition < ptrs.size());
  ptrs[partition] = &queue;
  return Execute(ptrs);
}

}  // namespace nvmdb
