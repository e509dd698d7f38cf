#include "testbed/bench_runner.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "common/timer.h"

namespace nvmdb {

namespace {

size_t EnvJobs() {
  const char* v = std::getenv("NVMDB_BENCH_JOBS");
  if (v != nullptr && *v != '\0') {
    const unsigned long long parsed = std::strtoull(v, nullptr, 10);
    if (parsed >= 1) return static_cast<size_t>(parsed);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// JSON string escaping for the tiny report writer — the only characters
/// our keys/labels can realistically contain are covered, but be complete
/// for the mandatory set anyway.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string BenchCell::Label() const {
  std::string out;
  for (const auto& [k, v] : key) {
    (void)k;
    if (!out.empty()) out += ' ';
    out += v;
  }
  return out;
}

BenchRunner::BenchRunner(size_t jobs)
    : jobs_(jobs == 0 ? EnvJobs() : jobs) {}

size_t BenchRunner::Submit(std::function<BenchCell()> body) {
  tasks_.push_back(std::move(body));
  return tasks_.size() - 1;
}

void BenchRunner::Wait() {
  const size_t first = cells_.size();
  const size_t count = tasks_.size() - first;
  cells_.resize(tasks_.size());
  if (count == 0) return;

  std::mutex progress_mu;
  auto run_cell = [&](size_t slot) {
    Stopwatch watch;
    BenchCell cell = tasks_[slot]();
    cell.wall_ns = watch.ElapsedNanos();
    {
      std::lock_guard<std::mutex> lock(progress_mu);
      PrintProgress(cell);
    }
    cells_[slot] = std::move(cell);
  };

  if (jobs_ <= 1 || count == 1) {
    for (size_t slot = first; slot < tasks_.size(); slot++) run_cell(slot);
  } else {
    std::atomic<size_t> next{first};
    auto worker = [&]() {
      for (;;) {
        const size_t slot = next.fetch_add(1, std::memory_order_relaxed);
        if (slot >= tasks_.size()) return;
        run_cell(slot);
      }
    };
    const size_t spawn = std::min(jobs_, count);
    std::vector<std::thread> pool;
    pool.reserve(spawn);
    for (size_t i = 0; i < spawn; i++) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }
  for (size_t slot = first; slot < tasks_.size(); slot++) {
    tasks_[slot] = nullptr;  // free captured workload state eagerly
  }
}

void BenchRunner::PrintProgress(const BenchCell& cell) {
  // Stderr, single printf per line (and under the caller's lock), so
  // concurrent cells never interleave mid-line; stdout stays reserved for
  // the deterministic post-barrier tables.
  std::fprintf(stderr, "  done %s (wall %.2fs, sim/wall %.1fx)\n",
               cell.Label().c_str(),
               static_cast<double>(cell.wall_ns) * 1e-9,
               cell.SimWallRatio());
}

std::string WriteBenchReport(
    const std::string& bench_name, size_t jobs,
    const std::vector<std::pair<std::string, std::string>>& context,
    const std::vector<BenchCell>& cells) {
  const char* dir_env = std::getenv("NVMDB_BENCH_JSON_DIR");
  std::string dir = dir_env == nullptr ? "." : dir_env;
  if (dir.empty()) return "";  // reports disabled
  const std::string path = dir + "/BENCH_" + bench_name + ".json";

  std::string out;
  out.reserve(4096);
  out += "{\n";
  out += "  \"bench\": \"" + JsonEscape(bench_name) + "\",\n";
  out += "  \"jobs\": " + std::to_string(jobs) + ",\n";
  for (const auto& [k, v] : context) {
    out += "  \"" + JsonEscape(k) + "\": \"" + JsonEscape(v) + "\",\n";
  }
  out += "  \"cells\": [\n";
  for (size_t i = 0; i < cells.size(); i++) {
    const BenchCell& c = cells[i];
    out += "    {\"key\": {";
    for (size_t j = 0; j < c.key.size(); j++) {
      if (j > 0) out += ", ";
      out += "\"" + JsonEscape(c.key[j].first) + "\": \"" +
             JsonEscape(c.key[j].second) + "\"";
    }
    out += "}";
    if (!c.id.empty()) out += ", \"cell_id\": \"" + JsonEscape(c.id) + "\"";
    out += ",\n";
    out += "     \"committed\": " + std::to_string(c.committed) +
           ", \"aborted\": " + std::to_string(c.aborted) +
           ", \"sim_ns\": " + std::to_string(c.sim_ns) +
           ", \"wall_ns\": " + std::to_string(c.wall_ns) +
           ", \"load_ns\": " + std::to_string(c.load_ns) +
           ", \"run_ns\": " + std::to_string(c.run_ns) + ",\n";
    char ratio[64];
    std::snprintf(ratio, sizeof(ratio), "%.3f", c.SimWallRatio());
    out += "     \"sim_wall_ratio\": ";
    out += ratio;
    char mean[64];
    std::snprintf(mean, sizeof(mean), "%.6g", c.latency.mean_ns);
    out += ",\n     \"latency\": {\"count\": " +
           std::to_string(c.latency.count) + ", \"mean_ns\": ";
    out += mean;
    out += ", \"p50_ns\": " + std::to_string(c.latency.p50_ns) +
           ", \"p95_ns\": " + std::to_string(c.latency.p95_ns) +
           ", \"p99_ns\": " + std::to_string(c.latency.p99_ns) +
           ", \"p999_ns\": " + std::to_string(c.latency.p999_ns) +
           ", \"max_ns\": " + std::to_string(c.latency.max_ns) + "},\n";
    out += "     \"stalls\": {";
    for (size_t t = 0; t < kStallTagCount; t++) {
      if (t > 0) out += ", ";
      out += "\"";
      out += StallTagName(static_cast<StallTag>(t));
      out += "_ns\": " + std::to_string(c.stalls.ns[t]);
    }
    out += "}";
    if (!c.metrics.empty()) {
      out += ",\n     \"metrics\": {";
      for (size_t j = 0; j < c.metrics.size(); j++) {
        if (j > 0) out += ", ";
        char num[64];
        std::snprintf(num, sizeof(num), "%.6g", c.metrics[j].second);
        out += "\"" + JsonEscape(c.metrics[j].first) + "\": ";
        out += num;
      }
      out += "}";
    }
    out += "}";
    out += (i + 1 < cells.size()) ? ",\n" : "\n";
  }
  out += "  ],\n";
  uint64_t wall = 0;
  uint64_t sim = 0;
  for (const BenchCell& c : cells) {
    wall += c.wall_ns;
    sim += c.sim_ns;
  }
  char total_ratio[64];
  std::snprintf(total_ratio, sizeof(total_ratio), "%.3f",
                wall == 0 ? 0.0
                          : static_cast<double>(sim) /
                                static_cast<double>(wall));
  out += "  \"total_wall_ns\": " + std::to_string(wall) + ",\n";
  out += "  \"total_sim_ns\": " + std::to_string(sim) + ",\n";
  out += "  \"total_sim_wall_ratio\": ";
  out += total_ratio;
  out += "\n}\n";

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_runner: cannot write %s\n", path.c_str());
    return "";
  }
  std::fwrite(out.data(), 1, out.size(), f);
  std::fclose(f);
  return path;
}

}  // namespace nvmdb
