#include "src/relational/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <vector>

#include "src/relational/fault_injection.h"
#include "src/relational/query_control.h"

namespace oxml {

// -------------------------------------------------------------------- crc32

namespace {

struct Crc32Table {
  uint32_t t[256];
  Crc32Table() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
  }
};

const Crc32Table& Table() {
  static const Crc32Table table;
  return table;
}

constexpr size_t kRecordHeader = 1 + 8 + 4 + 4;  // type, txn, page, len
constexpr size_t kRecordTrailer = 4;             // crc

void PutU32(uint32_t v, char* out) { std::memcpy(out, &v, 4); }
void PutU64(uint64_t v, char* out) { std::memcpy(out, &v, 8); }
uint32_t GetU32(const char* in) {
  uint32_t v;
  std::memcpy(&v, in, 4);
  return v;
}
uint64_t GetU64(const char* in) {
  uint64_t v;
  std::memcpy(&v, in, 8);
  return v;
}

}  // namespace

uint32_t Crc32(const char* data, size_t len, uint32_t seed) {
  uint32_t c = seed ^ 0xFFFFFFFFu;
  const auto& t = Table().t;
  for (size_t i = 0; i < len; ++i) {
    c = t[(c ^ static_cast<unsigned char>(data[i])) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

// ------------------------------------------------------------------ opening

Result<std::unique_ptr<WriteAheadLog>> WriteAheadLog::Open(
    const std::string& path, const WalOptions& options,
    std::shared_ptr<FaultPlan> fault) {
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) {
    return Status::IOError("open(" + path + "): " + std::strerror(errno));
  }
  auto wal = std::unique_ptr<WriteAheadLog>(
      new WriteAheadLog(fd, path, options, std::move(fault)));
  off_t size = ::lseek(fd, 0, SEEK_END);
  if (size < 0) {
    return Status::IOError("lseek(" + path + "): " + std::strerror(errno));
  }
  if (size >= static_cast<off_t>(kHeaderSize)) {
    char header[kHeaderSize];
    ssize_t n = ::pread(fd, header, kHeaderSize, 0);
    if (n != static_cast<ssize_t>(kHeaderSize)) {
      return Status::IOError("cannot read WAL header of " + path);
    }
    if (GetU32(header) != kMagic) {
      return Status::IOError(path + " is not a write-ahead log (bad magic)");
    }
    if (GetU32(header + 4) != kVersion) {
      return Status::IOError("unsupported WAL version " +
                             std::to_string(GetU32(header + 4)));
    }
    wal->size_bytes_ = static_cast<uint64_t>(size);
  } else {
    // Fresh (or header-torn) log: write the header from scratch.
    char header[kHeaderSize];
    std::memset(header, 0, sizeof(header));
    PutU32(kMagic, header);
    PutU32(kVersion, header + 4);
    wal->size_bytes_ = 0;
    OXML_RETURN_NOT_OK(wal->WriteAll(header, kHeaderSize));
  }
  return wal;
}

WriteAheadLog::~WriteAheadLog() {
  if (fd_ >= 0) ::close(fd_);
}

// ---------------------------------------------------------------- appending

Status WriteAheadLog::WriteAll(const char* data, size_t len) {
  size_t done = 0;
  while (done < len) {
    ssize_t n = ::pwrite(fd_, data + done, len - done,
                         static_cast<off_t>(size_bytes_ + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("pwrite(" + path_ +
                             "): " + std::strerror(errno));
    }
    done += static_cast<size_t>(n);
  }
  size_bytes_ += len;
  bytes_appended_ += len;
  return Status::OK();
}

Status WriteAheadLog::AppendRecord(RecordType type, uint64_t txn_id,
                                   uint32_t page_id, const char* payload,
                                   size_t payload_len) {
  std::vector<char> rec(kRecordHeader + payload_len + kRecordTrailer);
  rec[0] = static_cast<char>(type);
  PutU64(txn_id, rec.data() + 1);
  PutU32(page_id, rec.data() + 9);
  PutU32(static_cast<uint32_t>(payload_len), rec.data() + 13);
  if (payload_len > 0) {
    std::memcpy(rec.data() + kRecordHeader, payload, payload_len);
  }
  PutU32(Crc32(rec.data(), kRecordHeader + payload_len),
         rec.data() + kRecordHeader + payload_len);

  if (fault_ != nullptr) {
    switch (DecideWriteWithRetry(fault_.get(), retries_)) {
      case FaultPlan::Decision::kProceed:
        break;
      case FaultPlan::Decision::kTear: {
        // Persist a prefix of the record. size_bytes_ is not advanced, so a
        // surviving process overwrites the torn bytes with its next append;
        // a crashed one leaves a CRC-invalid tail for recovery to discard.
        size_t torn = std::min(rec.size() / 2, FaultPlan::kTearBytes);
        uint64_t saved = size_bytes_;
        (void)WriteAll(rec.data(), torn);
        size_bytes_ = saved;
        return FaultPlan::SimulatedError("torn WAL append");
      }
      case FaultPlan::Decision::kFailEnospc:
        // Disk full: nothing is written and size_bytes_ stays put, so the
        // log tail remains well-formed. The failure aborts only the current
        // transaction; once space returns, the next append simply lands at
        // the same offset.
        return FaultPlan::SimulatedEnospc("WAL append");
      case FaultPlan::Decision::kFailTransient:
        return FaultPlan::SimulatedError(
            "WAL append failed (transient, retries exhausted)");
      case FaultPlan::Decision::kFail:
        return FaultPlan::SimulatedError("WAL append failed");
    }
  }
  return WriteAll(rec.data(), rec.size());
}

Status WriteAheadLog::AppendPageImage(uint32_t page_id, const char* data) {
  OXML_RETURN_NOT_OK(
      AppendRecord(RecordType::kPageImage, next_txn_id_, page_id, data,
                   kPageSize));
  ++page_images_;
  return Status::OK();
}

Status WriteAheadLog::Commit(uint64_t commit_lsn) {
  // The txn id advances even when the commit fails: a retried or rolled-back
  // transaction must not let its orphaned page images be adopted by a later
  // commit record (replay matches images to commits by txn id).
  uint64_t txn = next_txn_id_++;
  char lsn_payload[8];
  PutU64(commit_lsn, lsn_payload);
  OXML_RETURN_NOT_OK(AppendRecord(RecordType::kCommit, txn, 0, lsn_payload,
                                  sizeof(lsn_payload)));
  ++commits_;
  ++unsynced_commits_;
  if (options_.sync_on_commit &&
      unsynced_commits_ >= std::max<size_t>(1, options_.group_commit_every)) {
    return Sync();
  }
  return Status::OK();
}

Status WriteAheadLog::Sync() {
  if (fault_ != nullptr) {
    switch (DecideWriteWithRetry(fault_.get(), retries_)) {
      case FaultPlan::Decision::kProceed:
        break;
      case FaultPlan::Decision::kFailEnospc:
        return FaultPlan::SimulatedEnospc("WAL fsync");
      default:
        return FaultPlan::SimulatedError("WAL fsync failed");
    }
  }
  while (::fsync(fd_) != 0) {
    if (errno == EINTR) continue;
    return Status::IOError("fsync(" + path_ + "): " + std::strerror(errno));
  }
  ++syncs_;
  unsynced_commits_ = 0;
  return Status::OK();
}

Status WriteAheadLog::Reset() {
  if (fault_ != nullptr) {
    switch (DecideWriteWithRetry(fault_.get(), retries_)) {
      case FaultPlan::Decision::kProceed:
        break;
      case FaultPlan::Decision::kFailEnospc:
        return FaultPlan::SimulatedEnospc("WAL truncation");
      default:
        return FaultPlan::SimulatedError("WAL truncation failed");
    }
  }
  while (::ftruncate(fd_, static_cast<off_t>(kHeaderSize)) != 0) {
    if (errno == EINTR) continue;
    return Status::IOError("ftruncate(" + path_ +
                           "): " + std::strerror(errno));
  }
  size_bytes_ = kHeaderSize;
  unsynced_commits_ = 0;
  return Sync();
}

// ----------------------------------------------------------------- recovery

Result<WalRecovery> WriteAheadLog::Recover(const std::string& path) {
  WalRecovery out;
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return out;  // no log, nothing to replay
    return Status::IOError("open(" + path + "): " + std::strerror(errno));
  }
  std::string data;
  {
    off_t size = ::lseek(fd, 0, SEEK_END);
    if (size < 0) {
      ::close(fd);
      return Status::IOError("lseek(" + path + "): " + std::strerror(errno));
    }
    data.resize(static_cast<size_t>(size));
    size_t done = 0;
    while (done < data.size()) {
      ssize_t n = ::pread(fd, data.data() + done, data.size() - done,
                          static_cast<off_t>(done));
      if (n < 0) {
        if (errno == EINTR) continue;
        ::close(fd);
        return Status::IOError("pread(" + path +
                               "): " + std::strerror(errno));
      }
      if (n == 0) break;  // concurrent truncation; treat as EOF
      done += static_cast<size_t>(n);
    }
    data.resize(done);
    ::close(fd);
  }
  if (data.size() < kHeaderSize) return out;  // header never made it: empty
  if (GetU32(data.data()) != kMagic) {
    return Status::IOError(path + " is not a write-ahead log (bad magic)");
  }
  if (GetU32(data.data() + 4) != kVersion) {
    return Status::IOError("unsupported WAL version " +
                           std::to_string(GetU32(data.data() + 4)));
  }

  // Images appended since the last commit record, awaiting their commit.
  struct Pending {
    uint64_t txn_id;
    uint32_t page_id;
    size_t offset;  // payload offset within `data`
  };
  std::vector<Pending> pending;
  size_t pos = kHeaderSize;
  while (true) {
    // Honor a caller-installed control per record, so an embedder can bound
    // recovery time (a ScopedStatementContext around Database::Open).
    OXML_RETURN_NOT_OK(CheckCurrentControl());
    if (pos + kRecordHeader + kRecordTrailer > data.size()) {
      // Short tail (possibly zero bytes): clean end of log.
      out.tail_damaged = pos != data.size();
      break;
    }
    auto type = static_cast<RecordType>(data[pos]);
    uint64_t txn_id = GetU64(data.data() + pos + 1);
    uint32_t page_id = GetU32(data.data() + pos + 9);
    uint32_t payload_len = GetU32(data.data() + pos + 13);
    bool shape_ok =
        (type == RecordType::kPageImage && payload_len == kPageSize) ||
        (type == RecordType::kCommit &&
         (payload_len == 0 || payload_len == 8));
    if (!shape_ok ||
        pos + kRecordHeader + payload_len + kRecordTrailer > data.size()) {
      out.tail_damaged = true;
      ++out.discarded_records;
      break;
    }
    uint32_t want = Crc32(data.data() + pos, kRecordHeader + payload_len);
    uint32_t got = GetU32(data.data() + pos + kRecordHeader + payload_len);
    if (want != got) {
      out.tail_damaged = true;
      ++out.discarded_records;
      break;
    }
    if (type == RecordType::kPageImage) {
      pending.push_back({txn_id, page_id, pos + kRecordHeader});
    } else {
      for (const Pending& p : pending) {
        if (p.txn_id != txn_id) {
          ++out.discarded_records;  // orphan of an aborted commit attempt
          continue;
        }
        out.pages[p.page_id] = data.substr(p.offset, kPageSize);
        ++out.replayed_images;
      }
      pending.clear();
      ++out.committed_txns;
      if (payload_len == 8) {
        out.last_commit_lsn = std::max(
            out.last_commit_lsn, GetU64(data.data() + pos + kRecordHeader));
      }
    }
    pos += kRecordHeader + payload_len + kRecordTrailer;
  }
  out.discarded_records += pending.size();
  return out;
}

}  // namespace oxml
