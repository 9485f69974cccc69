#ifndef IUAD_OBS_TRACE_H_
#define IUAD_OBS_TRACE_H_

/// \file trace.h
/// The tracing subsystem (DESIGN.md §8): a lock-free flight recorder of
/// compact binary events, a Chrome-trace-event exporter, a bounded
/// slow-commit exemplar table, and an async-signal-safe crash dump.
///
/// Flight recorder. Per-thread SPSC ring buffers of fixed-size events
/// (monotonic ns, thread tag, event id, two u64 args), each slot guarded
/// by its own sequence word, seqlock style. Recording is a thread-local
/// slot lookup plus plain stores, two release orderings and one release
/// index bump — no locks, no read-modify-write, no allocation, no
/// syscalls — and the ring overwrites oldest when full, so the recorder
/// is always-on and bounded. Draining is non-destructive: a reader keeps
/// an event only if its slot's sequence names that event's index as
/// finished both before and after the copy, so a torn read is dropped,
/// never surfaced.
///
/// Determinism (DESIGN.md §7/§8). Nothing here is ever read on a
/// decision path; `trace_enabled` gates only the clock reads and ring
/// stores at call sites, exactly like `metrics_enabled` gates histogram
/// stamps. Call sites that time a stage for metrics reuse the same
/// stamp for the trace event (`RecordAt`), so turning tracing on adds
/// no clock reads where timing is already on.
///
/// Event model. There are no begin/end pairs to match up: an event is
/// either an instant or carries its own duration in `a1`, stamped at
/// the moment the stage *ends*. The exporter reconstructs Chrome "X"
/// (complete) events as ts = ns - dur. One record per stage keeps the
/// hot-path cost at a single ring push and makes a dropped event lose
/// one stage, never unbalance a span stack.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace iuad::obs {

// ---- Event vocabulary -------------------------------------------------------

/// Compact event ids. Paper-path events carry the paper's ingest
/// sequence number in a0, making every event attributable to one
/// submitted paper — the trace id IS the sequence number (already
/// globally unique and causally ordered by the serialized applier).
enum class TraceEventId : uint16_t {
  kPaperSubmit = 1,    ///< instant: paper seq accepted at Submit (a0=seq).
  kPaperExtract = 2,   ///< span: enqueue wait, submit→window-extract (a0=seq, a1=ns).
  kPaperScatter = 3,   ///< span: speculative scatter-score (a0=seq, a1=ns).
  kPaperDefer = 4,     ///< instant: byline deferred by a conflicting
                       ///  in-flight paper (a0=seq, a1=blocking seq).
  kPaperRescore = 5,   ///< span: sequential rescore of deferred bylines
                       ///  (a0=seq, a1=ns).
  kPaperApply = 6,     ///< span: commit apply (a0=seq, a1=ns).
  kPaperPublish = 7,   ///< span: snapshot publish (a0=seq, a1=ns).
  kPaperCommit = 8,    ///< span: end-to-end submit→commit ("paper";
                       ///  a0=seq, a1=total ns). One per ingested paper.
  kWindowExtract = 9,  ///< instant: pipeline window extracted
                       ///  (a0=first seq, a1=window size).
  kShardScatter = 10,  ///< span: one shard's scoring slice (a0=shard, a1=ns).
  kRefresh = 11,       ///< span: shard snapshot refresh (a0=commit version,
                       ///  a1=ns).
  kRequest = 12,       ///< span: one API request (a0=op ordinal, a1=ns).
};

/// Stable display name (string literals only — safe to call from a
/// signal handler). Unknown ids map to "unknown".
const char* TraceEventName(TraceEventId id);

/// True for events whose a1 is a duration (Chrome "X"), false for
/// instants (Chrome "i").
bool TraceEventIsSpan(TraceEventId id);

/// One recorded event: 4 machine words in the ring (plus the slot's
/// sequence word).
struct TraceEvent {
  int64_t ns = 0;    ///< obs::NowNs() stamp (span events: stage END).
  uint16_t tid = 0;  ///< Recorder thread slot (dense small ints).
  uint16_t id = 0;   ///< TraceEventId.
  uint64_t a0 = 0;
  uint64_t a1 = 0;
};

// ---- Flight recorder --------------------------------------------------------

/// Always-on lock-free event journal. Each recording thread claims a
/// slot (max kMaxThreads) holding a private ring; only that thread
/// writes the ring, so writes need no synchronization beyond a release
/// bump of the head index that readers acquire. Instantiable for tests;
/// production code uses the process-wide Instance().
class FlightRecorder {
 public:
  static constexpr int kMaxThreads = 64;

  explicit FlightRecorder(int ring_capacity = 4096);
  ~FlightRecorder();
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// The process-wide recorder. First call constructs it (with the
  /// capacity set via SetDefaultRingCapacity); the crash handler reads
  /// the raw pointer and never triggers construction.
  static FlightRecorder& Instance();

  /// Ring capacity (events per thread) used by the *next* ring claim in
  /// Instance() and by future FlightRecorder() default constructions.
  /// Call before serving starts (iuad serve does, from
  /// IuadConfig::trace_ring_capacity). Clamped to [64, 1<<20].
  static void SetDefaultRingCapacity(int capacity);

  /// Record one event on the calling thread's ring: thread-local slot
  /// lookup, the slot's sequence made odd (2 * index + 1), a release
  /// fence, four relaxed stores, the sequence made even (2 * index + 2)
  /// by a release store, and one release index bump. Overwrites oldest
  /// when the ring is full. `stamp_ns` lets call sites reuse a clock read
  /// they already took for metrics.
  void RecordAt(int64_t stamp_ns, TraceEventId id, uint64_t a0 = 0,
                uint64_t a1 = 0);

  /// Non-destructive snapshot of every ring, merged and sorted by ns.
  /// Index i is kept only if its slot's sequence reads 2 * i + 2 before
  /// and after the copy, so events a writer is rewriting or has already
  /// overwritten are discarded (torn reads never surface); recording
  /// continues concurrently.
  std::vector<TraceEvent> Drain() const;

  /// Events rejected because all kMaxThreads slots were claimed.
  int64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  /// Async-signal-safe dump of every ring to `fd` as text lines, using
  /// only write(2) and stack buffers. Skips slots whose sequence is odd
  /// (mid-store). Called from the crash handler.
  void CrashDump(int fd) const;

 private:
  friend class FlightRecorderTestPeer;

  /// Words per ring slot: the sequence word, then ns, tid|id, a0, a1.
  static constexpr int kSlotWords = 5;

  struct Ring {
    /// Next write index (monotonic; slot = head % capacity). Release-
    /// bumped after the event words are stored.
    std::atomic<uint64_t> head{0};
    /// capacity * kSlotWords atomic words, release-published on claim so
    /// readers acquire-loading the pointer see constructed atomics. Null
    /// until a thread claims the slot.
    std::atomic<std::atomic<uint64_t>*> words{nullptr};
    int capacity = 0;
  };

  int ClaimSlot();
  int SlotForThisThread();

  const uint64_t recorder_id_;  ///< Unique per recorder instance, never
                                ///  reused — keys the thread-local slot
                                ///  cache safely across recorder
                                ///  lifetimes in tests.
  int default_capacity_;
  Ring rings_[kMaxThreads];
  std::atomic<int> claimed_slots_{0};
  std::atomic<int64_t> dropped_{0};
};

// ---- Chrome trace-event export ----------------------------------------------

/// One Chrome trace-event JSON entry (the "traceEvents" array element),
/// in canonical integer-microsecond form — also the wire form of the
/// `{"op":"trace"}` response payload, so it must round-trip exactly.
struct ChromeTraceEvent {
  std::string name;
  char ph = 'i';      ///< 'X' (complete, has dur) or 'i' (instant).
  int64_t ts_us = 0;  ///< Span events: start (ns - dur), µs.
  int64_t dur_us = 0; ///< 'X' only.
  int tid = 0;
  int64_t a0 = 0;
  int64_t a1 = 0;
};

/// Raw recorder events → Chrome events (sorted by ts_us, ties keep the
/// drain order, which is the ns order).
std::vector<ChromeTraceEvent> ChromeTraceEvents(
    const std::vector<TraceEvent>& raw);

/// Full Chrome trace JSON document: {"traceEvents":[...]} (compact, one
/// line, trailing newline) — loadable by Perfetto / chrome://tracing.
std::string ChromeTraceJson(const std::vector<ChromeTraceEvent>& events);

// ---- Slow-commit exemplars --------------------------------------------------

/// One retained slow-commit timeline: the paper's full span breakdown
/// plus which in-flight paper blocked each deferred byline.
struct SlowCommitExemplar {
  struct Stage {
    std::string name;
    int64_t ns = 0;
  };
  struct Deferral {
    std::string name;              ///< Byline author name.
    int64_t blocked_by_seq = -1;   ///< Seq of the conflicting paper.
  };
  int64_t seq = -1;
  int64_t total_ns = 0;
  std::vector<Stage> stages;
  std::vector<Deferral> deferrals;
};

/// Bounded top-K table of the slowest commits, ordered by total_ns
/// descending (ties: lower seq first). Offer/Snapshot take a mutex —
/// offers happen only on the already-slow path (a commit breached
/// slow_commit_ms), never on the per-paper fast path. Each Offer also
/// refreshes a preformatted global text rendering of the table that the
/// crash handler can write without taking any lock (best-effort: a
/// crash racing an Offer may write a torn rendering, which is
/// acceptable for a post-mortem artifact).
class ExemplarTable {
 public:
  explicit ExemplarTable(int capacity = 8);

  void Offer(SlowCommitExemplar exemplar);
  std::vector<SlowCommitExemplar> Snapshot() const;

  /// Async-signal-safe: writes the preformatted global exemplar text
  /// (whichever table rendered last) to `fd`.
  static void CrashDumpLast(int fd);

 private:
  void RenderCrashTextLocked();

  mutable std::mutex mu_;
  int capacity_;
  std::vector<SlowCommitExemplar> exemplars_;
};

// ---- Post-mortem dumps ------------------------------------------------------

/// Install a SIGSEGV/SIGABRT handler that writes the flight recorder
/// and the last exemplar table to `path` (async-signal-safe writes
/// only), restores the default handler, and re-raises. The path is
/// copied into static storage; call once, before serving starts.
void InstallCrashHandler(const std::string& path);

}  // namespace iuad::obs

#endif  // IUAD_OBS_TRACE_H_
