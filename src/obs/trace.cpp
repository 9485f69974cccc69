#include "obs/trace.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <unordered_map>

#include "obs/metrics.h"
#include "util/json_writer.h"

namespace iuad::obs {
namespace {

// ---- Process-wide tracing state ---------------------------------------------

/// Set by FlightRecorder::Instance(); the crash handler loads this raw
/// pointer instead of calling Instance() (a function-local static's
/// init guard is not async-signal-safe).
std::atomic<FlightRecorder*> g_instance{nullptr};

std::atomic<int> g_default_capacity{4096};

/// Unique-per-recorder ids (never reused), keying the thread-local slot
/// cache so a recorder destroyed and reconstructed at the same address
/// (tests) cannot alias a stale slot.
std::atomic<uint64_t> g_next_recorder_id{1};

/// Preformatted exemplar text for the crash handler: rendered under the
/// table mutex at Offer time (normal context, snprintf is fine there),
/// consumed with a bare write(2) in signal context. A crash racing an
/// Offer may dump a torn rendering — acceptable for a post-mortem.
char g_exemplar_text[16384];
std::atomic<size_t> g_exemplar_len{0};

char g_crash_path[512] = {0};

int ClampCapacity(int capacity) {
  if (capacity < 64) return 64;
  if (capacity > (1 << 20)) return 1 << 20;
  return capacity;
}

// ---- Async-signal-safe text building ----------------------------------------
// The crash path may not call snprintf/malloc; these append into a
// caller-owned stack buffer and the caller flushes with write(2).

size_t AppendLiteral(char* dst, size_t pos, size_t cap, const char* s) {
  while (*s != '\0' && pos < cap) dst[pos++] = *s++;
  return pos;
}

size_t AppendU64(char* dst, size_t pos, size_t cap, uint64_t v) {
  char digits[20];
  int n = 0;
  do {
    digits[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  while (n > 0 && pos < cap) dst[pos++] = digits[--n];
  return pos;
}

size_t AppendI64(char* dst, size_t pos, size_t cap, int64_t v) {
  if (v < 0) {
    if (pos < cap) dst[pos++] = '-';
    // Negate via uint64 to survive INT64_MIN.
    return AppendU64(dst, pos, cap, static_cast<uint64_t>(-(v + 1)) + 1);
  }
  return AppendU64(dst, pos, cap, static_cast<uint64_t>(v));
}

void WriteAll(int fd, const char* data, size_t len) {
  size_t off = 0;
  while (off < len) {
    const ssize_t n = ::write(fd, data + off, len - off);
    if (n <= 0) return;
    off += static_cast<size_t>(n);
  }
}

void WriteLiteral(int fd, const char* s) { WriteAll(fd, s, std::strlen(s)); }

// ---- Crash handler ----------------------------------------------------------

void CrashHandler(int sig) {
  const int fd = ::open(g_crash_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd >= 0) {
    char buf[64];
    size_t pos = AppendLiteral(buf, 0, sizeof(buf), "iuad crash dump signal=");
    pos = AppendI64(buf, pos, sizeof(buf), sig);
    pos = AppendLiteral(buf, pos, sizeof(buf), "\n");
    WriteAll(fd, buf, pos);
    FlightRecorder* recorder = g_instance.load(std::memory_order_acquire);
    if (recorder != nullptr) recorder->CrashDump(fd);
    ExemplarTable::CrashDumpLast(fd);
    WriteLiteral(fd, "end of crash dump\n");
    ::close(fd);
  }
  // SA_RESETHAND restored the default disposition on entry; re-raising
  // leaves the signal pending so the default action (terminate/core)
  // fires when the handler returns.
  ::raise(sig);
}

}  // namespace

// ---- Event vocabulary -------------------------------------------------------

const char* TraceEventName(TraceEventId id) {
  switch (id) {
    case TraceEventId::kPaperSubmit: return "submit";
    case TraceEventId::kPaperExtract: return "enqueue";
    case TraceEventId::kPaperScatter: return "scatter";
    case TraceEventId::kPaperDefer: return "defer";
    case TraceEventId::kPaperRescore: return "rescore";
    case TraceEventId::kPaperApply: return "apply";
    case TraceEventId::kPaperPublish: return "publish";
    case TraceEventId::kPaperCommit: return "paper";
    case TraceEventId::kWindowExtract: return "window";
    case TraceEventId::kShardScatter: return "shard_scatter";
    case TraceEventId::kRefresh: return "refresh";
    case TraceEventId::kRequest: return "request";
  }
  return "unknown";
}

bool TraceEventIsSpan(TraceEventId id) {
  switch (id) {
    case TraceEventId::kPaperSubmit:
    case TraceEventId::kPaperDefer:
    case TraceEventId::kWindowExtract:
      return false;
    case TraceEventId::kPaperExtract:
    case TraceEventId::kPaperScatter:
    case TraceEventId::kPaperRescore:
    case TraceEventId::kPaperApply:
    case TraceEventId::kPaperPublish:
    case TraceEventId::kPaperCommit:
    case TraceEventId::kShardScatter:
    case TraceEventId::kRefresh:
    case TraceEventId::kRequest:
      return true;
  }
  return false;
}

// ---- FlightRecorder ---------------------------------------------------------

FlightRecorder::FlightRecorder(int ring_capacity)
    : recorder_id_(g_next_recorder_id.fetch_add(1, std::memory_order_relaxed)),
      default_capacity_(ClampCapacity(ring_capacity)) {}

FlightRecorder::~FlightRecorder() {
  for (Ring& ring : rings_) {
    delete[] ring.words.load(std::memory_order_acquire);
  }
}

FlightRecorder& FlightRecorder::Instance() {
  static FlightRecorder* recorder = [] {
    static FlightRecorder r(g_default_capacity.load(std::memory_order_relaxed));
    g_instance.store(&r, std::memory_order_release);
    return &r;
  }();
  return *recorder;
}

void FlightRecorder::SetDefaultRingCapacity(int capacity) {
  g_default_capacity.store(ClampCapacity(capacity),
                           std::memory_order_relaxed);
}

int FlightRecorder::ClaimSlot() {
  const int slot = claimed_slots_.fetch_add(1, std::memory_order_relaxed);
  if (slot >= kMaxThreads) return -1;
  Ring& ring = rings_[slot];
  ring.capacity = default_capacity_;
  auto* words = new std::atomic<uint64_t>[static_cast<size_t>(ring.capacity) *
                                          kSlotWords]();
  ring.words.store(words, std::memory_order_release);
  return slot;
}

int FlightRecorder::SlotForThisThread() {
  // One-entry fast cache for the common single-recorder case, with a
  // map fallback keyed by the recorder's unique id so tests running
  // several recorders on one thread stay correct. The claim (and the
  // map's first insert) may allocate; recording after the claim never
  // does.
  struct Cached {
    uint64_t recorder_id = 0;
    int slot = -1;
  };
  thread_local Cached cached;
  if (cached.recorder_id == recorder_id_) return cached.slot;
  thread_local std::unordered_map<uint64_t, int> slots;
  auto it = slots.find(recorder_id_);
  if (it == slots.end()) {
    it = slots.emplace(recorder_id_, ClaimSlot()).first;
  }
  cached = {recorder_id_, it->second};
  return it->second;
}

void FlightRecorder::RecordAt(int64_t stamp_ns, TraceEventId id, uint64_t a0,
                              uint64_t a1) {
  const int slot = SlotForThisThread();
  if (slot < 0) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Ring& ring = rings_[slot];
  std::atomic<uint64_t>* words = ring.words.load(std::memory_order_relaxed);
  const uint64_t head = ring.head.load(std::memory_order_relaxed);
  std::atomic<uint64_t>* w =
      words + (head % static_cast<uint64_t>(ring.capacity)) * kSlotWords;
  // Seqlock write: odd sequence while the event words change, then the
  // even sequence that names this index as finished. The release fence
  // orders the odd store before the event stores, so a reader that sees
  // any new event word also sees the odd (or a later) sequence on its
  // second read.
  w[0].store(2 * head + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  w[1].store(static_cast<uint64_t>(stamp_ns), std::memory_order_relaxed);
  w[2].store(static_cast<uint64_t>(slot) << 16 | static_cast<uint64_t>(id),
             std::memory_order_relaxed);
  w[3].store(a0, std::memory_order_relaxed);
  w[4].store(a1, std::memory_order_relaxed);
  w[0].store(2 * head + 2, std::memory_order_release);
  ring.head.store(head + 1, std::memory_order_release);
}

std::vector<TraceEvent> FlightRecorder::Drain() const {
  std::vector<TraceEvent> out;
  for (const Ring& ring : rings_) {
    const std::atomic<uint64_t>* words =
        ring.words.load(std::memory_order_acquire);
    if (words == nullptr) continue;
    const uint64_t cap = static_cast<uint64_t>(ring.capacity);
    const uint64_t head = ring.head.load(std::memory_order_acquire);
    const uint64_t count = head < cap ? head : cap;
    for (uint64_t i = head - count; i < head; ++i) {
      // Seqlock read: keep index i only if its slot holds i's finished
      // write both before and after the copy. A slot the writer is
      // rewriting reads odd, one it has already rewritten reads a later
      // lap's sequence, and either way the copy is dropped.
      const std::atomic<uint64_t>* w = words + (i % cap) * kSlotWords;
      const uint64_t seq = 2 * i + 2;
      if (w[0].load(std::memory_order_acquire) != seq) continue;
      TraceEvent ev;
      ev.ns = static_cast<int64_t>(w[1].load(std::memory_order_relaxed));
      const uint64_t packed = w[2].load(std::memory_order_relaxed);
      ev.tid = static_cast<uint16_t>(packed >> 16);
      ev.id = static_cast<uint16_t>(packed & 0xffff);
      ev.a0 = w[3].load(std::memory_order_relaxed);
      ev.a1 = w[4].load(std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_acquire);
      if (w[0].load(std::memory_order_relaxed) != seq) continue;
      if (ev.id != 0) out.push_back(ev);
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ns < b.ns;
                   });
  return out;
}

void FlightRecorder::CrashDump(int fd) const {
  const int64_t dropped = dropped_.load(std::memory_order_relaxed);
  if (dropped > 0) {
    char buf[64];
    size_t pos = AppendLiteral(buf, 0, sizeof(buf), "dropped=");
    pos = AppendI64(buf, pos, sizeof(buf), dropped);
    pos = AppendLiteral(buf, pos, sizeof(buf), "\n");
    WriteAll(fd, buf, pos);
  }
  for (const Ring& ring : rings_) {
    const std::atomic<uint64_t>* words =
        ring.words.load(std::memory_order_acquire);
    if (words == nullptr) continue;
    const uint64_t cap = static_cast<uint64_t>(ring.capacity);
    const uint64_t head = ring.head.load(std::memory_order_relaxed);
    const uint64_t count = head < cap ? head : cap;
    for (uint64_t i = head - count; i < head; ++i) {
      const std::atomic<uint64_t>* w = words + (i % cap) * kSlotWords;
      // Odd sequence: the writer was mid-store when the signal hit.
      if (w[0].load(std::memory_order_relaxed) & 1) continue;
      const uint64_t packed = w[2].load(std::memory_order_relaxed);
      const auto id = static_cast<TraceEventId>(packed & 0xffff);
      if (static_cast<uint16_t>(id) == 0) continue;
      char buf[192];
      size_t pos = AppendLiteral(buf, 0, sizeof(buf), "event ns=");
      pos = AppendI64(buf, pos, sizeof(buf),
                      static_cast<int64_t>(w[1].load(std::memory_order_relaxed)));
      pos = AppendLiteral(buf, pos, sizeof(buf), " tid=");
      pos = AppendU64(buf, pos, sizeof(buf), packed >> 16);
      pos = AppendLiteral(buf, pos, sizeof(buf), " id=");
      pos = AppendU64(buf, pos, sizeof(buf), packed & 0xffff);
      pos = AppendLiteral(buf, pos, sizeof(buf), " name=");
      pos = AppendLiteral(buf, pos, sizeof(buf), TraceEventName(id));
      pos = AppendLiteral(buf, pos, sizeof(buf), " a0=");
      pos = AppendU64(buf, pos, sizeof(buf),
                      w[3].load(std::memory_order_relaxed));
      pos = AppendLiteral(buf, pos, sizeof(buf), " a1=");
      pos = AppendU64(buf, pos, sizeof(buf),
                      w[4].load(std::memory_order_relaxed));
      pos = AppendLiteral(buf, pos, sizeof(buf), "\n");
      WriteAll(fd, buf, pos);
    }
  }
}

// ---- Chrome trace-event export ----------------------------------------------

std::vector<ChromeTraceEvent> ChromeTraceEvents(
    const std::vector<TraceEvent>& raw) {
  std::vector<ChromeTraceEvent> out;
  out.reserve(raw.size());
  for (const TraceEvent& ev : raw) {
    const auto id = static_cast<TraceEventId>(ev.id);
    ChromeTraceEvent c;
    c.name = TraceEventName(id);
    c.tid = ev.tid;
    c.a0 = static_cast<int64_t>(ev.a0);
    c.a1 = static_cast<int64_t>(ev.a1);
    if (TraceEventIsSpan(id)) {
      c.ph = 'X';
      c.dur_us = static_cast<int64_t>(ev.a1) / 1000;
      c.ts_us = (ev.ns - static_cast<int64_t>(ev.a1)) / 1000;
    } else {
      c.ph = 'i';
      c.ts_us = ev.ns / 1000;
    }
    out.push_back(std::move(c));
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const ChromeTraceEvent& a, const ChromeTraceEvent& b) {
                     return a.ts_us < b.ts_us;
                   });
  return out;
}

std::string ChromeTraceJson(const std::vector<ChromeTraceEvent>& events) {
  util::JsonWriter w(util::JsonWriter::Style::kCompact);
  w.BeginArray("traceEvents");
  for (const ChromeTraceEvent& ev : events) {
    w.BeginObjectElement()
        .Field("name", ev.name)
        .Field("ph", std::string(1, ev.ph))
        .Field("ts", ev.ts_us);
    if (ev.ph == 'X') w.Field("dur", ev.dur_us);
    w.Field("pid", 1)
        .Field("tid", ev.tid)
        .BeginObject("args")
        .Field("a0", ev.a0)
        .Field("a1", ev.a1)
        .EndObject()
        .EndObject();
  }
  w.EndArray();
  return w.str() + "\n";
}

// ---- ExemplarTable ----------------------------------------------------------

ExemplarTable::ExemplarTable(int capacity)
    : capacity_(capacity < 1 ? 1 : capacity) {}

void ExemplarTable::Offer(SlowCommitExemplar exemplar) {
  std::lock_guard<std::mutex> lock(mu_);
  exemplars_.push_back(std::move(exemplar));
  std::stable_sort(exemplars_.begin(), exemplars_.end(),
                   [](const SlowCommitExemplar& a, const SlowCommitExemplar& b) {
                     if (a.total_ns != b.total_ns) return a.total_ns > b.total_ns;
                     return a.seq < b.seq;
                   });
  if (exemplars_.size() > static_cast<size_t>(capacity_)) {
    exemplars_.resize(static_cast<size_t>(capacity_));
  }
  RenderCrashTextLocked();
}

std::vector<SlowCommitExemplar> ExemplarTable::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return exemplars_;
}

void ExemplarTable::RenderCrashTextLocked() {
  // Normal (non-signal) context: snprintf is fine here. The handler
  // only write(2)s the finished buffer.
  size_t pos = 0;
  const size_t cap = sizeof(g_exemplar_text);
  auto append = [&](const char* fmt, auto... args) {
    if (pos >= cap) return;
    const int n = std::snprintf(g_exemplar_text + pos, cap - pos, fmt, args...);
    if (n > 0) pos = std::min(cap - 1, pos + static_cast<size_t>(n));
  };
  append("slow-commit exemplars (%zu):\n", exemplars_.size());
  for (const SlowCommitExemplar& e : exemplars_) {
    append("exemplar seq=%lld total_ns=%lld", static_cast<long long>(e.seq),
           static_cast<long long>(e.total_ns));
    for (const auto& s : e.stages) {
      append(" %s=%lldns", s.name.c_str(), static_cast<long long>(s.ns));
    }
    for (const auto& d : e.deferrals) {
      append(" deferred:%s<-seq=%lld", d.name.c_str(),
             static_cast<long long>(d.blocked_by_seq));
    }
    append("\n");
  }
  g_exemplar_len.store(pos, std::memory_order_release);
}

void ExemplarTable::CrashDumpLast(int fd) {
  const size_t len = g_exemplar_len.load(std::memory_order_acquire);
  if (len > 0) WriteAll(fd, g_exemplar_text, len);
}

// ---- InstallCrashHandler ----------------------------------------------------

void InstallCrashHandler(const std::string& path) {
  const size_t n = std::min(path.size(), sizeof(g_crash_path) - 1);
  std::memcpy(g_crash_path, path.data(), n);
  g_crash_path[n] = '\0';
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = &CrashHandler;
  sa.sa_flags = SA_RESETHAND;
  sigemptyset(&sa.sa_mask);
  ::sigaction(SIGSEGV, &sa, nullptr);
  ::sigaction(SIGABRT, &sa, nullptr);
}

}  // namespace iuad::obs
