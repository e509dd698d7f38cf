#include "engine/checkpoint.h"

#include <cstring>

#include "common/compress.h"
#include "common/crc32.h"
#include "common/trace.h"
#include "nvm/stall_tag.h"

namespace nvmdb {

Status WriteCheckpoint(Pmfs* fs, const std::string& file_name,
                       const std::string& payload) {
  ScopedStallTag tag(StallTag::kCheckpoint);
  const uint64_t trace_start = fs->device()->TotalStallNanos();
  // Compress straight behind the 12-byte header, then fill it in.
  std::string out(12, '\0');
  LzCompress(payload, &out);
  const uint32_t crc = Crc32c(out.data() + 12, out.size() - 12);
  const uint64_t len = out.size() - 12;
  memcpy(&out[0], &crc, 4);
  memcpy(&out[4], &len, 8);

  // Write to a temp file and swap in: a crash mid-checkpoint must not
  // destroy the previous checkpoint.
  const std::string tmp = file_name + ".tmp";
  fs->Delete(tmp);
  Pmfs::Fd fd = fs->Open(tmp, /*create=*/true, StorageTag::kCheckpoint);
  if (fd < 0) return Status::IOError("checkpoint open");
  Status s = fs->Write(fd, 0, out.data(), out.size());
  if (s.ok()) s = fs->Fsync(fd);
  fs->Close(fd);
  if (!s.ok()) return s;
  fs->Delete(file_name);
  // Rename-by-copy: rewrite under the final name (pmfs has no rename).
  fd = fs->Open(file_name, /*create=*/true, StorageTag::kCheckpoint);
  if (fd < 0) return Status::IOError("checkpoint final open");
  s = fs->Write(fd, 0, out.data(), out.size());
  if (s.ok()) s = fs->Fsync(fd);
  fs->Close(fd);
  fs->Delete(tmp);
  if (TraceWriter* trace = NvmEnv::Trace()) {
    const uint64_t now = fs->device()->TotalStallNanos();
    trace->Span("checkpoint_write", "checkpoint", trace_start,
                now - trace_start, 0);
  }
  return s;
}

namespace {

Status ReadCheckpointFile(Pmfs* fs, const std::string& file_name,
                          std::string* payload) {
  if (!fs->Exists(file_name)) return Status::NotFound(file_name);
  Pmfs::Fd fd = fs->Open(file_name, /*create=*/false);
  if (fd < 0) return Status::IOError("checkpoint open");
  const uint64_t size = fs->Size(fd);
  std::string data(size, '\0');
  size_t got = 0;
  Status s = fs->Read(fd, 0, data.data(), size, &got);
  fs->Close(fd);
  if (!s.ok()) return s;
  if (got < 12) return Status::Corruption("checkpoint too small");
  uint32_t crc;
  uint64_t len;
  memcpy(&crc, data.data(), 4);
  memcpy(&len, data.data() + 4, 8);
  if (got < 12 + len) return Status::Corruption("checkpoint truncated");
  if (Crc32c(data.data() + 12, len) != crc) {
    return Status::Corruption("checkpoint crc mismatch");
  }
  if (!LzDecompress(Slice(data.data() + 12, len), payload)) {
    return Status::Corruption("checkpoint decompress");
  }
  return Status::OK();
}

}  // namespace

Status ReadCheckpoint(Pmfs* fs, const std::string& file_name,
                      std::string* payload) {
  Status s = ReadCheckpointFile(fs, file_name, payload);
  if (s.ok()) return s;
  // A crash inside WriteCheckpoint's swap window (after the old final file
  // is deleted, before the new one is durable) leaves the final name
  // missing or torn while the fsync'd temp copy is still whole. The temp
  // copy is only ever deleted after the final file is durable, so falling
  // back to it can never resurrect a stale checkpoint.
  payload->clear();
  Status tmp = ReadCheckpointFile(fs, file_name + ".tmp", payload);
  if (tmp.ok()) return tmp;
  payload->clear();
  return s;
}

}  // namespace nvmdb
