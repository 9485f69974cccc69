#ifndef IUAD_WAL_WAL_H_
#define IUAD_WAL_WAL_H_

/// \file wal.h
/// Durability for the incremental serving path (DESIGN.md §9): an
/// append-only write-ahead log of every commit *attempt*, segment files
/// named by the sequence range they cover, a manifest pairing the latest
/// checkpoint (snapshot-v3 + corpus TSV) with the segments it retires, and
/// recovery = load checkpoint + replay the tail through the normal
/// Submit/AddPaper path.
///
/// The determinism contract (DESIGN.md §6) is the recovery oracle: because
/// every Frontend's ingestion outcome is byte-identical to sequential
/// AddPaper in sequence order, replaying the logged attempt sequence from a
/// checkpoint taken at a refresh boundary reproduces the pre-crash state
/// exactly — score bits included. Checkpoints are only ever taken when
/// `since_refresh == 0` (similarity caches freshly rebuilt), which is the
/// one point where a newly constructed frontend's cache state matches the
/// uninterrupted run's.
///
/// Record format (io::Writer codec, host-endian like snapshots):
///
///   u32 payload_len | u64 payload_crc (FNV-1a) | payload
///   payload = u64 global_seq | i32 paper_id | str title | str venue |
///             i32 year | u64 n_names | str... | u64 n_truth | i32...
///
/// Segment files: the active segment is `wal-<start>.log` (start = first
/// sequence it holds, zero-padded); sealing renames it to
/// `wal-<start>-<end>.log` (end exclusive). Every segment begins with a
/// 24-byte header: magic "IUADWAL1", u64 base fingerprint, u64 start seq.
///
/// Torn-write rule: an *incomplete* record at the tail of the final
/// segment is the expected crash artifact and is silently truncated away
/// at Open; a complete record whose CRC fails, a sequence discontinuity,
/// or any damage in a sealed (non-final) segment is real corruption and is
/// rejected loudly as IoError, pinpointed by sequence number. A directory
/// whose manifest fingerprint disagrees with the serving corpus is
/// rejected as FailedPrecondition.
///
/// Threading: Append/MaybeFlush/Flush/MaybeCheckpoint are called only from
/// the router's single commit thread. Open and the tail() accessors are
/// pre-serving. Metrics are relaxed atomics, readable from any thread.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/pipeline.h"
#include "data/paper.h"
#include "data/paper_database.h"
#include "util/status.h"

namespace iuad::obs {
class Registry;
class Counter;
class Gauge;
class Histogram;
}  // namespace iuad::obs

namespace iuad::wal {

/// Writer knobs (CLI: --wal-fsync-every / --wal-fsync-ms).
struct Options {
  /// Group-commit width: fsync after this many buffered records. 1 =
  /// fsync at every check, i.e. once per pipelined window of at most
  /// pipeline_depth records (strictest, slowest).
  int fsync_every_n = 64;
  /// Time trigger: flush+fsync on append when this much time has passed
  /// since the last sync, even if fewer than fsync_every_n records are
  /// buffered. Bounds durability lag under sustained slow load (the
  /// idle-flush covers bursty load); keep it well above the fsync cost
  /// itself or the "group" degenerates to a couple of records. 0 disables
  /// the time trigger (the idle-flush still runs).
  double fsync_interval_ms = 50.0;
  /// Rotate the active segment after this many records. Checkpoints retire
  /// only fully-covered segments, so smaller segments reclaim disk sooner.
  int segment_records = 4096;
};

/// One logged commit attempt, as read back at Open.
struct TailRecord {
  uint64_t seq = 0;  ///< Global sequence (monotone across restarts).
  data::Paper paper;
};

/// An open WAL directory: recovery state (manifest + validated tail) and
/// the append handle for the active segment.
class Log {
 public:
  /// Opens (or initializes) the WAL directory `dir`.
  ///
  /// `base_fingerprint` is the fingerprint of the fitted corpus the caller
  /// serves from when no checkpoint exists. A fresh directory is stamped
  /// with it; an existing directory whose manifest disagrees fails with
  /// FailedPrecondition ("WAL from a different corpus"). Validates every
  /// surviving segment, truncates a torn final record, and loads the replay
  /// tail (records with seq >= snapshot_seq).
  static iuad::Result<std::unique_ptr<Log>> Open(const std::string& dir,
                                                 uint64_t base_fingerprint,
                                                 const Options& options);

  ~Log();
  Log(const Log&) = delete;
  Log& operator=(const Log&) = delete;

  // ---- Recovery surface (read after Open, before serving) -----------------

  /// True when the manifest references a checkpoint (snapshot + corpus).
  bool has_checkpoint() const { return !snapshot_file_.empty(); }
  /// First sequence NOT covered by the checkpoint (0 when none): replay
  /// starts here, and a frontend constructed from the checkpoint maps its
  /// session sequence 0 to this global sequence.
  uint64_t snapshot_seq() const { return snapshot_seq_; }
  /// Absolute paths of the checkpoint pair ("" when none).
  std::string checkpoint_snapshot_path() const;
  std::string checkpoint_corpus_path() const;
  /// First sequence not yet durable on disk (next append's sequence).
  uint64_t durable_next() const { return durable_next_; }
  /// Validated replay tail: all durable records in [snapshot_seq,
  /// durable_next), in sequence order.
  const std::vector<TailRecord>& tail() const { return tail_; }

  // ---- Commit-thread API ---------------------------------------------------

  /// Registers the wal_* instruments in `registry` (frontends call this at
  /// construction so WAL metrics land in the frontend-owned registry).
  void BindMetrics(obs::Registry* registry);

  /// Logs the commit attempt at session sequence `session_seq` (global =
  /// snapshot_seq() + session_seq). A no-op for sequences already durable —
  /// which is exactly what makes replay-through-the-normal-path safe: the
  /// replayed prefix re-executes without re-appending. Buffers user-space;
  /// durability happens at the next flush.
  void Append(uint64_t session_seq, const data::Paper& paper);

  /// Flush+fsync if the group-commit cadence (fsync_every_n records or
  /// fsync_interval_ms elapsed) says so. Call once per pipelined window.
  void MaybeFlush();

  /// Unconditional flush+fsync of everything appended so far. Called on
  /// idle transitions, Drain, and Stop.
  iuad::Status Flush();

  /// Writes a checkpoint covering every sequence < snapshot_seq() +
  /// `session_applied`: durable corpus TSV + snapshot-v3 pair, seals and
  /// rotates the active segment, commits the new manifest, then unlinks
  /// fully-covered segments and the previous checkpoint pair. Must be
  /// called at a refresh boundary (see file comment). A crash at any point
  /// leaves either the old checkpoint or the new one intact.
  iuad::Status Checkpoint(const data::PaperDatabase& db,
                          const core::DisambiguationResult& result,
                          const core::IuadConfig& config,
                          uint64_t session_applied);

  /// Sticky first append/flush error (durability lost; serving continues).
  iuad::Status status() const { return io_status_; }

  /// Last checkpoint's covered-sequence count and unix time (0/-1 when
  /// none this process knows of) — also exported as the
  /// wal_last_checkpoint_seq / wal_last_checkpoint_timestamp gauges.
  uint64_t last_checkpoint_seq() const { return snapshot_seq_; }

  const std::string& dir() const { return dir_; }

 private:
  Log(std::string dir, Options options);

  iuad::Status OpenImpl(uint64_t base_fingerprint);
  iuad::Status LoadManifest(bool* found);
  iuad::Status CommitManifest();
  iuad::Status ScanSegments();
  iuad::Status RecoverSegments();
  iuad::Status FinishRecovery(uint64_t next_seq, bool reopen_active);
  iuad::Status OpenActiveSegment(uint64_t start_seq);
  iuad::Status SealActiveSegment();
  iuad::Status RotateSegment();
  void RemoveCoveredFiles(const std::string& old_snapshot,
                          const std::string& old_corpus);

  std::string dir_;
  Options options_;

  // Manifest state.
  uint64_t base_fingerprint_ = 0;
  uint64_t snapshot_seq_ = 0;
  uint64_t checkpoint_fingerprint_ = 0;
  uint64_t checkpoint_unix_s_ = 0;  ///< Unix seconds of the last checkpoint.
  std::string snapshot_file_;  ///< File name within dir_; "" = none.
  std::string corpus_file_;
  /// snapshot_seq at Open time: the frontend constructed from that state
  /// maps session sequence s to global sequence session_base_ + s. Fixed
  /// for the life of the handle (checkpoints move snapshot_seq_, never
  /// this).
  uint64_t session_base_ = 0;

  // Segment state.
  struct SegmentInfo {
    std::string name;
    uint64_t start = 0;
    uint64_t end = 0;  ///< Exclusive; == start for an empty active segment.
    bool sealed = false;
  };
  std::vector<SegmentInfo> segments_;  ///< Surviving, in sequence order.
  int active_fd_ = -1;
  uint64_t active_start_ = 0;    ///< First seq of the active segment.
  uint64_t durable_next_ = 0;    ///< Next seq to hit the disk.
  uint64_t buffered_next_ = 0;   ///< Next seq to enter the buffer.
  std::string buffer_;           ///< User-space pending records.
  int buffered_records_ = 0;
  int64_t last_sync_ns_ = 0;

  std::vector<TailRecord> tail_;
  iuad::Status io_status_ = iuad::Status::OK();

  // Metrics (null until BindMetrics; all optional).
  obs::Counter* appended_ = nullptr;
  obs::Counter* fsyncs_ = nullptr;
  obs::Counter* bytes_ = nullptr;
  obs::Counter* append_errors_ = nullptr;
  obs::Histogram* fsync_wait_us_ = nullptr;
  obs::Gauge* last_checkpoint_seq_gauge_ = nullptr;
  obs::Gauge* last_checkpoint_ts_gauge_ = nullptr;
};

}  // namespace iuad::wal

namespace iuad::serve {
class Frontend;
}  // namespace iuad::serve

namespace iuad::wal {
/// Replays `log`'s tail through `frontend` (SubmitAt at session sequences
/// 0..tail-1, then Drain), restoring the pre-crash state by the
/// determinism contract. Individual papers may fail exactly as they
/// originally did — attempt semantics — so per-paper statuses are not
/// errors. Adds the replay count to the frontend's `recovery_replayed`
/// counter. Returns the number of records replayed.
iuad::Result<uint64_t> ReplayTail(const Log& log, serve::Frontend* frontend);
}  // namespace iuad::wal

#endif  // IUAD_WAL_WAL_H_
