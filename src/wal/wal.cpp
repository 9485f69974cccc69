#include "wal/wal.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <future>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "io/byte_codec.h"
#include "io/fsync_util.h"
#include "io/snapshot.h"
#include "obs/metrics.h"
#include "serve/frontend.h"
#include "util/logging.h"

namespace iuad::wal {

namespace {

constexpr char kSegmentMagic[8] = {'I', 'U', 'A', 'D', 'W', 'A', 'L', '1'};
constexpr size_t kSegmentHeaderSize = 24;  // magic + base fp u64 + start u64
constexpr size_t kRecordHeaderSize = 12;   // payload len u32 + crc u64
constexpr char kManifestMagic[8] = {'I', 'U', 'A', 'D', 'M', 'A', 'N', '1'};
constexpr uint32_t kManifestVersion = 1;
constexpr char kManifestName[] = "MANIFEST";

std::string SeqString(uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%012llu",
                static_cast<unsigned long long>(seq));
  return buf;
}

std::string ActiveSegmentName(uint64_t start) {
  return "wal-" + SeqString(start) + ".log";
}
std::string SealedSegmentName(uint64_t start, uint64_t end) {
  return "wal-" + SeqString(start) + "-" + SeqString(end) + ".log";
}
std::string CheckpointSnapshotName(uint64_t seq) {
  return "ckpt-" + SeqString(seq) + ".snap";
}
std::string CheckpointCorpusName(uint64_t seq) {
  return "ckpt-" + SeqString(seq) + ".tsv";
}

/// Parses "wal-<start>.log" / "wal-<start>-<end>.log". Returns false for
/// anything else (foreign files in the directory are left alone).
bool ParseSegmentName(const std::string& name, uint64_t* start, uint64_t* end,
                      bool* sealed) {
  if (name.rfind("wal-", 0) != 0 || name.size() < 9 ||
      name.compare(name.size() - 4, 4, ".log") != 0) {
    return false;
  }
  const std::string middle = name.substr(4, name.size() - 8);
  const size_t dash = middle.find('-');
  auto parse_u64 = [](const std::string& s, uint64_t* out) {
    if (s.empty()) return false;
    uint64_t v = 0;
    for (char c : s) {
      if (c < '0' || c > '9') return false;
      v = v * 10 + static_cast<uint64_t>(c - '0');
    }
    *out = v;
    return true;
  };
  if (dash == std::string::npos) {
    *sealed = false;
    *end = 0;
    return parse_u64(middle, start);
  }
  *sealed = true;
  return parse_u64(middle.substr(0, dash), start) &&
         parse_u64(middle.substr(dash + 1), end);
}

std::string EncodeRecord(uint64_t seq, const data::Paper& p) {
  io::Writer payload;
  payload.U64(seq);
  payload.I32(p.id);
  payload.Str(p.title);
  payload.Str(p.venue);
  payload.I32(p.year);
  payload.U64(p.author_names.size());
  for (const auto& n : p.author_names) payload.Str(n);
  payload.U64(p.true_author_ids.size());
  for (int t : p.true_author_ids) payload.I32(t);
  io::Writer rec;
  rec.U32(static_cast<uint32_t>(payload.buffer().size()));
  rec.U64(io::Fnv1a(payload.buffer().data(), payload.buffer().size()));
  rec.Bytes(payload.buffer().data(), payload.buffer().size());
  return rec.buffer();
}

iuad::Result<std::string> ReadWholeFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return iuad::Status::IoError("cannot open " + path + ": " +
                                 std::strerror(errno));
  }
  std::string out;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  const bool bad = std::ferror(f) != 0;
  std::fclose(f);
  if (bad) return iuad::Status::IoError("read error on " + path);
  return out;
}

}  // namespace

Log::Log(std::string dir, Options options)
    : dir_(std::move(dir)), options_(options) {}

Log::~Log() {
  if (active_fd_ >= 0) {
    Flush();
    ::close(active_fd_);
    active_fd_ = -1;
  }
}

iuad::Result<std::unique_ptr<Log>> Log::Open(const std::string& dir,
                                             uint64_t base_fingerprint,
                                             const Options& options) {
  if (options.fsync_every_n < 1) {
    return iuad::Status::InvalidArgument("wal fsync_every_n must be >= 1");
  }
  if (options.segment_records < 1) {
    return iuad::Status::InvalidArgument("wal segment_records must be >= 1");
  }
  std::unique_ptr<Log> log(new Log(dir, options));
  IUAD_RETURN_NOT_OK(log->OpenImpl(base_fingerprint));
  return log;
}

std::string Log::checkpoint_snapshot_path() const {
  return snapshot_file_.empty() ? std::string() : dir_ + "/" + snapshot_file_;
}

std::string Log::checkpoint_corpus_path() const {
  return corpus_file_.empty() ? std::string() : dir_ + "/" + corpus_file_;
}

iuad::Status Log::OpenImpl(uint64_t base_fingerprint) {
  if (::mkdir(dir_.c_str(), 0755) == 0) {
    // A brand-new directory entry must survive power loss too.
    IUAD_RETURN_NOT_OK(io::FsyncDir(io::ParentDir(dir_)));
  } else if (errno != EEXIST) {
    return iuad::Status::IoError("cannot create wal directory " + dir_ + ": " +
                                 std::strerror(errno));
  }
  bool have_manifest = false;
  IUAD_RETURN_NOT_OK(LoadManifest(&have_manifest));
  if (!have_manifest) {
    base_fingerprint_ = base_fingerprint;
    snapshot_seq_ = 0;
    session_base_ = 0;
    // Refuse to invent a manifest over pre-existing segments: that would
    // silently orphan someone's log.
    IUAD_RETURN_NOT_OK(ScanSegments());
    if (!segments_.empty()) {
      return iuad::Status::IoError("wal directory " + dir_ +
                                   " has segments but no manifest");
    }
    IUAD_RETURN_NOT_OK(CommitManifest());
    IUAD_RETURN_NOT_OK(OpenActiveSegment(0));
    durable_next_ = 0;
    buffered_next_ = 0;
    last_sync_ns_ = obs::NowNs();
    return iuad::Status::OK();
  }
  if (base_fingerprint_ != base_fingerprint) {
    return iuad::Status::FailedPrecondition(
        "wal directory " + dir_ +
        " was created against a different corpus (fingerprint mismatch)");
  }
  session_base_ = snapshot_seq_;
  IUAD_RETURN_NOT_OK(ScanSegments());
  IUAD_RETURN_NOT_OK(RecoverSegments());
  last_sync_ns_ = obs::NowNs();
  return iuad::Status::OK();
}

iuad::Status Log::LoadManifest(bool* found) {
  const std::string path = dir_ + "/" + kManifestName;
  if (::access(path.c_str(), F_OK) != 0) {
    *found = false;
    return iuad::Status::OK();
  }
  *found = true;
  IUAD_ASSIGN_OR_RETURN(const std::string raw, ReadWholeFile(path));
  if (raw.size() < sizeof(kManifestMagic) + sizeof(uint64_t) ||
      std::memcmp(raw.data(), kManifestMagic, sizeof(kManifestMagic)) != 0) {
    return iuad::Status::IoError(path + ": not a wal manifest");
  }
  const char* payload = raw.data() + sizeof(kManifestMagic);
  const size_t payload_size =
      raw.size() - sizeof(kManifestMagic) - sizeof(uint64_t);
  uint64_t stored_crc = 0;
  std::memcpy(&stored_crc, raw.data() + raw.size() - sizeof(uint64_t),
              sizeof(uint64_t));
  if (io::Fnv1a(payload, payload_size) != stored_crc) {
    return iuad::Status::IoError(path + ": manifest checksum mismatch");
  }
  io::Reader r(payload, payload_size);
  const uint32_t version = r.U32();
  if (version != kManifestVersion) {
    return iuad::Status::InvalidArgument(
        path + ": unsupported manifest version " + std::to_string(version));
  }
  base_fingerprint_ = r.U64();
  snapshot_seq_ = r.U64();
  checkpoint_fingerprint_ = r.U64();
  checkpoint_unix_s_ = r.U64();
  snapshot_file_ = r.Str();
  corpus_file_ = r.Str();
  if (!r.ok() || !r.exhausted()) {
    return iuad::Status::IoError(path + ": manifest truncated or corrupt");
  }
  return iuad::Status::OK();
}

iuad::Status Log::CommitManifest() {
  io::Writer w;
  w.U32(kManifestVersion);
  w.U64(base_fingerprint_);
  w.U64(snapshot_seq_);
  w.U64(checkpoint_fingerprint_);
  w.U64(checkpoint_unix_s_);
  w.Str(snapshot_file_);
  w.Str(corpus_file_);
  std::string body = w.buffer();
  const uint64_t crc = io::Fnv1a(body.data(), body.size());
  body.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  return io::WriteFileDurably(
      dir_ + "/" + kManifestName,
      std::string(kManifestMagic, sizeof(kManifestMagic)), body);
}

iuad::Status Log::ScanSegments() {
  segments_.clear();
  DIR* d = ::opendir(dir_.c_str());
  if (d == nullptr) {
    return iuad::Status::IoError("cannot list wal directory " + dir_);
  }
  std::vector<std::string> stale;
  for (struct dirent* e = ::readdir(d); e != nullptr; e = ::readdir(d)) {
    const std::string name = e->d_name;
    SegmentInfo info;
    info.name = name;
    if (ParseSegmentName(name, &info.start, &info.end, &info.sealed)) {
      if (info.sealed && info.end <= snapshot_seq_) {
        // Fully covered by the checkpoint but not yet unlinked: the crash
        // window between manifest commit and retirement. Finish the job.
        stale.push_back(name);
      } else {
        segments_.push_back(std::move(info));
      }
      continue;
    }
    // Stray temp files from an interrupted checkpoint, and checkpoint
    // pairs no longer referenced by the manifest.
    const bool is_tmp = name.size() > 4 &&
                        name.compare(name.size() - 4, 4, ".tmp") == 0;
    const bool is_ckpt = name.rfind("ckpt-", 0) == 0 &&
                         name != snapshot_file_ && name != corpus_file_;
    if (is_tmp || (is_ckpt && !is_tmp)) stale.push_back(name);
  }
  ::closedir(d);
  if (!stale.empty()) {
    for (const auto& name : stale) {
      ::unlink((dir_ + "/" + name).c_str());
    }
    IUAD_RETURN_NOT_OK(io::FsyncDir(dir_));
  }
  std::sort(segments_.begin(), segments_.end(),
            [](const SegmentInfo& a, const SegmentInfo& b) {
              return a.start < b.start;
            });
  return iuad::Status::OK();
}

iuad::Status Log::RecoverSegments() {
  tail_.clear();
  // Structural validation: at most one unsealed (active) segment, it must
  // be last, and sequence ranges must chain contiguously.
  for (size_t i = 0; i < segments_.size(); ++i) {
    if (!segments_[i].sealed && i + 1 != segments_.size()) {
      return iuad::Status::IoError("wal directory " + dir_ +
                                   ": active segment " + segments_[i].name +
                                   " is not the last segment");
    }
    if (i > 0) {
      const uint64_t prev_end = segments_[i - 1].end;
      if (segments_[i].start != prev_end) {
        return iuad::Status::IoError(
            "wal directory " + dir_ + ": gap between segments at seq " +
            std::to_string(prev_end));
      }
    }
  }
  if (!segments_.empty() && segments_.front().start > snapshot_seq_) {
    return iuad::Status::IoError(
        "wal directory " + dir_ + ": first segment starts at seq " +
        std::to_string(segments_.front().start) +
        " but the checkpoint covers only " + std::to_string(snapshot_seq_));
  }

  uint64_t next_seq = segments_.empty() ? snapshot_seq_ : 0;
  for (size_t i = 0; i < segments_.size(); ++i) {
    SegmentInfo& seg = segments_[i];
    const bool final_segment = (i + 1 == segments_.size());
    const std::string path = dir_ + "/" + seg.name;
    IUAD_ASSIGN_OR_RETURN(const std::string raw, ReadWholeFile(path));

    if (raw.size() < kSegmentHeaderSize) {
      if (!final_segment || seg.sealed) {
        return iuad::Status::IoError(path + ": sealed segment truncated");
      }
      // The active segment was cut inside its own header (extreme torn
      // write). Nothing in it is recoverable; rebuild it empty at its
      // declared start.
      IUAD_LOG(kWarning) << "wal: active segment " << seg.name
                         << " torn inside its header; rebuilding empty";
      ::unlink(path.c_str());
      IUAD_RETURN_NOT_OK(io::FsyncDir(dir_));
      segments_.pop_back();
      next_seq = seg.start;
      IUAD_RETURN_NOT_OK(FinishRecovery(next_seq, /*reopen_active=*/true));
      return iuad::Status::OK();
    }
    if (std::memcmp(raw.data(), kSegmentMagic, sizeof(kSegmentMagic)) != 0) {
      return iuad::Status::IoError(path + ": not a wal segment");
    }
    uint64_t header_fp = 0, header_start = 0;
    std::memcpy(&header_fp, raw.data() + 8, sizeof(header_fp));
    std::memcpy(&header_start, raw.data() + 16, sizeof(header_start));
    if (header_fp != base_fingerprint_) {
      return iuad::Status::FailedPrecondition(
          path + ": segment belongs to a different corpus");
    }
    if (header_start != seg.start) {
      return iuad::Status::IoError(path +
                                   ": segment header disagrees with its name");
    }

    uint64_t expected = seg.start;
    size_t pos = kSegmentHeaderSize;
    size_t good_offset = pos;
    bool torn = false;
    while (pos < raw.size()) {
      if (raw.size() - pos < kRecordHeaderSize) {
        torn = true;
        break;
      }
      uint32_t len = 0;
      uint64_t crc = 0;
      std::memcpy(&len, raw.data() + pos, sizeof(len));
      std::memcpy(&crc, raw.data() + pos + 4, sizeof(crc));
      if (raw.size() - pos - kRecordHeaderSize < len) {
        torn = true;
        break;
      }
      const char* payload = raw.data() + pos + kRecordHeaderSize;
      if (io::Fnv1a(payload, len) != crc) {
        return iuad::Status::IoError(
            path + ": wal record at seq " + std::to_string(expected) +
            " failed its checksum (corrupt mid-log record)");
      }
      io::Reader r(payload, len);
      TailRecord rec;
      rec.seq = r.U64();
      rec.paper.id = r.I32();
      rec.paper.title = r.Str();
      rec.paper.venue = r.Str();
      rec.paper.year = r.I32();
      const uint64_t n_names = r.U64();
      for (uint64_t k = 0; k < n_names && r.ok(); ++k) {
        rec.paper.author_names.push_back(r.Str());
      }
      const uint64_t n_truth = r.U64();
      for (uint64_t k = 0; k < n_truth && r.ok(); ++k) {
        rec.paper.true_author_ids.push_back(r.I32());
      }
      if (!r.ok() || !r.exhausted()) {
        return iuad::Status::IoError(path + ": wal record at seq " +
                                     std::to_string(expected) + " malformed");
      }
      if (rec.seq != expected) {
        return iuad::Status::IoError(
            path + ": sequence discontinuity (expected " +
            std::to_string(expected) + ", found " + std::to_string(rec.seq) +
            ")");
      }
      if (rec.seq >= snapshot_seq_) tail_.push_back(std::move(rec));
      ++expected;
      pos += kRecordHeaderSize + len;
      good_offset = pos;
    }
    if (torn) {
      if (!final_segment || seg.sealed) {
        return iuad::Status::IoError(path +
                                     ": sealed segment truncated at seq " +
                                     std::to_string(expected));
      }
      IUAD_LOG(kWarning) << "wal: truncating torn record at seq " << expected
                         << " in " << seg.name;
      const int fd = ::open(path.c_str(), O_RDWR);
      if (fd < 0 || ::ftruncate(fd, static_cast<off_t>(good_offset)) != 0) {
        if (fd >= 0) ::close(fd);
        return iuad::Status::IoError(path + ": cannot truncate torn tail");
      }
      IUAD_RETURN_NOT_OK(io::FsyncFd(fd, path));
      ::close(fd);
    }
    if (seg.sealed && expected != seg.end) {
      return iuad::Status::IoError(
          path + ": sealed segment ends at seq " + std::to_string(expected) +
          " but its name covers through " + std::to_string(seg.end));
    }
    seg.end = expected;
    next_seq = expected;
  }
  const bool reopen_active =
      segments_.empty() || segments_.back().sealed;
  IUAD_RETURN_NOT_OK(FinishRecovery(next_seq, reopen_active));
  return iuad::Status::OK();
}

iuad::Status Log::FinishRecovery(uint64_t next_seq, bool reopen_active) {
  durable_next_ = next_seq;
  buffered_next_ = next_seq;
  if (reopen_active) {
    // Either a fresh-after-checkpoint state (crash between seal and the new
    // active's creation) or an empty directory tail: start a new active
    // segment at the recovery point.
    IUAD_RETURN_NOT_OK(OpenActiveSegment(next_seq));
    return iuad::Status::OK();
  }
  SegmentInfo& active = segments_.back();
  const std::string path = dir_ + "/" + active.name;
  active_fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND);
  if (active_fd_ < 0) {
    return iuad::Status::IoError("cannot reopen active wal segment " + path);
  }
  active_start_ = active.start;
  return iuad::Status::OK();
}

iuad::Status Log::OpenActiveSegment(uint64_t start_seq) {
  const std::string name = ActiveSegmentName(start_seq);
  const std::string path = dir_ + "/" + name;
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
  if (fd < 0) {
    return iuad::Status::IoError("cannot create wal segment " + path + ": " +
                                 std::strerror(errno));
  }
  io::Writer header;
  header.Bytes(kSegmentMagic, sizeof(kSegmentMagic));
  header.U64(base_fingerprint_);
  header.U64(start_seq);
  const std::string& buf = header.buffer();
  size_t off = 0;
  while (off < buf.size()) {
    const ssize_t n = ::write(fd, buf.data() + off, buf.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return iuad::Status::IoError("cannot write wal segment header to " +
                                   path);
    }
    off += static_cast<size_t>(n);
  }
  if (iuad::Status s = io::FsyncFd(fd, path); !s.ok()) {
    ::close(fd);
    return s;
  }
  IUAD_RETURN_NOT_OK(io::FsyncDir(dir_));
  active_fd_ = fd;
  active_start_ = start_seq;
  SegmentInfo info;
  info.name = name;
  info.start = start_seq;
  info.end = start_seq;
  info.sealed = false;
  segments_.push_back(std::move(info));
  return iuad::Status::OK();
}

iuad::Status Log::SealActiveSegment() {
  // Caller guarantees the buffer is flushed and the fd synced.
  const std::string old_path = dir_ + "/" + ActiveSegmentName(active_start_);
  const std::string new_name = SealedSegmentName(active_start_, durable_next_);
  ::close(active_fd_);
  active_fd_ = -1;
  if (std::rename(old_path.c_str(), (dir_ + "/" + new_name).c_str()) != 0) {
    return iuad::Status::IoError("cannot seal wal segment " + old_path);
  }
  IUAD_RETURN_NOT_OK(io::FsyncDir(dir_));
  SegmentInfo& info = segments_.back();
  info.name = new_name;
  info.end = durable_next_;
  info.sealed = true;
  return iuad::Status::OK();
}

void Log::BindMetrics(obs::Registry* registry) {
  if (registry == nullptr) return;
  appended_ = registry->GetCounter("wal_appended");
  fsyncs_ = registry->GetCounter("wal_fsyncs");
  bytes_ = registry->GetCounter("wal_bytes");
  append_errors_ = registry->GetCounter("wal_append_errors");
  // Registered here (not incremented by the Log itself) so the instrument
  // exists — and exports as 0 — even when recovery replayed nothing.
  registry->GetCounter("recovery_replayed");
  fsync_wait_us_ = registry->GetHistogram("wal_fsync_wait_us");
  last_checkpoint_seq_gauge_ = registry->GetGauge("wal_last_checkpoint_seq");
  last_checkpoint_ts_gauge_ =
      registry->GetGauge("wal_last_checkpoint_timestamp");
  last_checkpoint_seq_gauge_->Set(static_cast<int64_t>(snapshot_seq_));
  last_checkpoint_ts_gauge_->Set(static_cast<int64_t>(checkpoint_unix_s_));
}

void Log::Append(uint64_t session_seq, const data::Paper& paper) {
  if (!io_status_.ok()) return;
  const uint64_t global = session_base_ + session_seq;
  if (global < buffered_next_) return;  // replayed prefix: already logged
  if (global != buffered_next_) {
    io_status_ = iuad::Status::Internal(
        "wal append out of order: expected seq " +
        std::to_string(buffered_next_) + ", got " + std::to_string(global));
    if (append_errors_ != nullptr) append_errors_->Increment();
    IUAD_LOG(kError) << io_status_.ToString();
    return;
  }
  if (buffered_next_ - active_start_ >=
      static_cast<uint64_t>(options_.segment_records)) {
    if (iuad::Status s = RotateSegment(); !s.ok()) {
      io_status_ = s;
      if (append_errors_ != nullptr) append_errors_->Increment();
      IUAD_LOG(kError) << "wal: segment rotation failed: " << s.ToString();
      return;
    }
  }
  buffer_ += EncodeRecord(global, paper);
  ++buffered_records_;
  ++buffered_next_;
  if (appended_ != nullptr) appended_->Increment();
}

iuad::Status Log::RotateSegment() {
  IUAD_RETURN_NOT_OK(Flush());
  IUAD_RETURN_NOT_OK(SealActiveSegment());
  return OpenActiveSegment(buffered_next_);
}

bool Log::MaybeFlush() {
  if (buffered_records_ == 0 || !io_status_.ok()) return true;
  bool due = buffered_records_ >= options_.fsync_every_n;
  if (!due && options_.fsync_interval_ms > 0) {
    due = static_cast<double>(obs::NowNs() - last_sync_ns_) >=
          options_.fsync_interval_ms * 1e6;
  }
  if (!due) return false;
  if (iuad::Status s = Flush(); !s.ok()) {
    IUAD_LOG(kError) << "wal: flush failed, durability lost: "
                     << s.ToString();
  }
  return true;
}

iuad::Status Log::Flush() {
  if (!io_status_.ok()) return io_status_;
  if (buffered_records_ == 0) return iuad::Status::OK();
  size_t off = 0;
  while (off < buffer_.size()) {
    const ssize_t n =
        ::write(active_fd_, buffer_.data() + off, buffer_.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      io_status_ = iuad::Status::IoError(
          "wal write failed: " + std::string(std::strerror(errno)));
      if (append_errors_ != nullptr) append_errors_->Increment();
      return io_status_;
    }
    off += static_cast<size_t>(n);
  }
  const int64_t t0 = obs::NowNs();
  // fdatasync, not fsync: the group commit needs the data blocks and the
  // post-append file size durable, not the timestamps — and this wait is
  // paid inline by the commit thread.
  if (iuad::Status s = io::FdatasyncFd(active_fd_, "wal segment"); !s.ok()) {
    io_status_ = s;
    if (append_errors_ != nullptr) append_errors_->Increment();
    return io_status_;
  }
  const int64_t t1 = obs::NowNs();
  if (fsync_wait_us_ != nullptr) fsync_wait_us_->RecordNs(t1 - t0);
  if (fsyncs_ != nullptr) fsyncs_->Increment();
  if (bytes_ != nullptr) bytes_->Add(static_cast<int64_t>(buffer_.size()));
  durable_next_ = buffered_next_;
  segments_.back().end = durable_next_;
  buffer_.clear();
  buffered_records_ = 0;
  last_sync_ns_ = t1;
  return iuad::Status::OK();
}

iuad::Status Log::Checkpoint(const data::PaperDatabase& db,
                             const core::DisambiguationResult& result,
                             const core::IuadConfig& config,
                             uint64_t session_applied) {
  IUAD_RETURN_NOT_OK(Flush());
  const uint64_t seq = session_base_ + session_applied;
  if (seq < durable_next_) {
    // Recovery replay is still inside the already-durable range: the log
    // holds records this checkpoint would not cover, and sealing/rotating
    // here would split the active segment mid-range. Skip quietly —
    // compaction resumes on the first cadence boundary after replay
    // catches up with the durable frontier.
    return iuad::Status::OK();
  }
  if (seq != durable_next_) {
    return iuad::Status::Internal(
        "wal checkpoint at seq " + std::to_string(seq) +
        " but the log is durable through " + std::to_string(durable_next_));
  }
  if (seq == snapshot_seq_) return iuad::Status::OK();  // nothing new

  // 1. Durable checkpoint pair. Corpus first: the snapshot references it by
  // fingerprint, so an orphaned corpus file is harmless while an orphaned
  // snapshot would be.
  const std::string corpus_name = CheckpointCorpusName(seq);
  const std::string snap_name = CheckpointSnapshotName(seq);
  const std::string corpus_tmp = dir_ + "/" + corpus_name + ".tmp";
  IUAD_RETURN_NOT_OK(db.SaveTsv(corpus_tmp));
  IUAD_RETURN_NOT_OK(io::PromoteTempFile(corpus_tmp, dir_ + "/" + corpus_name));
  IUAD_RETURN_NOT_OK(
      io::SaveSnapshot(dir_ + "/" + snap_name, db, result, config));

  // 2. Rotate so every segment the checkpoint covers is sealed.
  if (durable_next_ > active_start_) {
    IUAD_RETURN_NOT_OK(SealActiveSegment());
    IUAD_RETURN_NOT_OK(OpenActiveSegment(seq));
  }

  // 3. Commit: the manifest rename is the atomic switch between the old
  // checkpoint and the new one.
  const std::string old_snapshot = snapshot_file_;
  const std::string old_corpus = corpus_file_;
  snapshot_seq_ = seq;
  checkpoint_fingerprint_ = db.Fingerprint();
  checkpoint_unix_s_ = static_cast<uint64_t>(::time(nullptr));
  snapshot_file_ = snap_name;
  corpus_file_ = corpus_name;
  IUAD_RETURN_NOT_OK(CommitManifest());

  // 4. Retire fully-covered segments and the superseded checkpoint pair.
  RemoveCoveredFiles(old_snapshot, old_corpus);

  if (last_checkpoint_seq_gauge_ != nullptr) {
    last_checkpoint_seq_gauge_->Set(static_cast<int64_t>(snapshot_seq_));
  }
  if (last_checkpoint_ts_gauge_ != nullptr) {
    last_checkpoint_ts_gauge_->Set(static_cast<int64_t>(checkpoint_unix_s_));
  }
  return iuad::Status::OK();
}

void Log::RemoveCoveredFiles(const std::string& old_snapshot,
                             const std::string& old_corpus) {
  bool removed = false;
  auto it = segments_.begin();
  while (it != segments_.end()) {
    if (it->sealed && it->end <= snapshot_seq_) {
      ::unlink((dir_ + "/" + it->name).c_str());
      it = segments_.erase(it);
      removed = true;
    } else {
      ++it;
    }
  }
  if (!old_snapshot.empty() && old_snapshot != snapshot_file_) {
    ::unlink((dir_ + "/" + old_snapshot).c_str());
    removed = true;
  }
  if (!old_corpus.empty() && old_corpus != corpus_file_) {
    ::unlink((dir_ + "/" + old_corpus).c_str());
    removed = true;
  }
  if (removed) {
    if (iuad::Status s = io::FsyncDir(dir_); !s.ok()) {
      IUAD_LOG(kWarning) << "wal: " << s.ToString();
    }
  }
}

iuad::Result<uint64_t> ReplayTail(const Log& log, serve::Frontend* frontend) {
  if (frontend == nullptr) {
    return iuad::Status::InvalidArgument("ReplayTail: null frontend");
  }
  const std::vector<TailRecord>& tail = log.tail();
  std::vector<std::future<serve::Frontend::Assignments>> futures;
  futures.reserve(tail.size());
  for (size_t i = 0; i < tail.size(); ++i) {
    futures.push_back(
        frontend->SubmitAt(static_cast<uint64_t>(i), tail[i].paper));
  }
  // Attempt semantics: a paper that failed before the crash fails again
  // here, and that is the correct replay of history.
  for (auto& f : futures) f.get();
  frontend->Drain();
  frontend->Metrics()
      ->GetCounter("recovery_replayed")
      ->Add(static_cast<int64_t>(tail.size()));
  return static_cast<uint64_t>(tail.size());
}

}  // namespace iuad::wal
