#include "shard/shard_router.h"

#include <algorithm>
#include <ctime>
#include <unordered_map>
#include <utility>

#include "obs/trace.h"
#include "util/logging.h"
#include "util/memory.h"
#include "wal/wal.h"

namespace iuad::shard {

namespace {

ShardRouter::Assignments StoppedError() {
  return iuad::Status::FailedPrecondition(
      "shard router is stopped; paper was not applied");
}

}  // namespace

ShardRouter::ShardRouter(data::PaperDatabase* db,
                         core::DisambiguationResult* result,
                         core::IuadConfig config, wal::Log* wal)
    : db_(db),
      result_(result),
      config_(std::move(config)),
      wal_(wal),
      placement_(BlockPlacement::Build(result->graph, config_.num_shards,
                                       config_.shard_placement)),
      clock_(config_.metrics_enabled, config_.trace_enabled),
      start_ns_(obs::NowNs()),
      ctr_papers_applied_(registry_.GetCounter("papers_applied")),
      ctr_papers_failed_(registry_.GetCounter("papers_failed")),
      ctr_assignments_(registry_.GetCounter("assignments")),
      ctr_new_authors_(registry_.GetCounter("new_authors")),
      ctr_windows_(registry_.GetCounter("pipeline_windows")),
      ctr_overlapped_papers_(registry_.GetCounter("overlapped_papers")),
      ctr_conflict_stalls_(registry_.GetCounter("conflict_stalls")),
      ctr_speculative_rescores_(
          registry_.GetCounter("speculative_rescores")),
      ctr_publishes_(registry_.GetCounter("publishes")),
      ctr_refreshes_(registry_.GetCounter("refreshes")),
      gauge_queue_depth_(registry_.GetGauge("queue_depth")),
      hist_enqueue_wait_us_(registry_.GetHistogram("enqueue_wait_us")),
      hist_scatter_us_(registry_.GetHistogram("scatter_us")),
      hist_rescore_us_(registry_.GetHistogram("rescore_us")),
      hist_apply_us_(registry_.GetHistogram("apply_us")),
      hist_publish_us_(registry_.GetHistogram("publish_us")),
      hist_refresh_us_(registry_.GetHistogram("refresh_us")),
      hist_commit_latency_us_(registry_.GetHistogram("commit_latency_us")),
      exemplars_(config_.trace_exemplars) {
  if (wal_ != nullptr) {
    // WAL instruments live in the router's registry (one scrape surface);
    // pointers cached because Stats() is const.
    wal_->BindMetrics(&registry_);
    ctr_wal_appended_ = registry_.GetCounter("wal_appended");
    ctr_wal_fsyncs_ = registry_.GetCounter("wal_fsyncs");
    ctr_wal_bytes_ = registry_.GetCounter("wal_bytes");
    ctr_recovery_replayed_ = registry_.GetCounter("recovery_replayed");
    gauge_wal_ckpt_seq_ = registry_.GetGauge("wal_last_checkpoint_seq");
    gauge_wal_ckpt_ts_ = registry_.GetGauge("wal_last_checkpoint_timestamp");
    hist_wal_fsync_wait_us_ = registry_.GetHistogram("wal_fsync_wait_us");
  }
  shards_.resize(static_cast<size_t>(placement_.num_shards()));
  hist_shard_scatter_us_.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    hist_shard_scatter_us_.push_back(registry_.GetHistogram(
        "shard" + std::to_string(s) + "_scatter_us"));
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    shards_[s].health.shard = static_cast<int>(s);
    shards_[s].health.placement_weight = placement_.shard_weights()[s];
  }
  // Owned-block counts for health: one deterministic pass over the blocks.
  const graph::CollabGraph& g = result_->graph;
  for (util::NameId id : g.NameIdsSorted()) {
    ++shards_[static_cast<size_t>(
                  placement_.ShardOf(id, g.interner().View(id)))]
          .health.owned_blocks;
  }
  pool_ = std::make_unique<util::ThreadPool>(placement_.num_shards());
  // Shard similarity caches are built against the fitted snapshot, exactly
  // like IncrementalDisambiguator's constructor Refresh (one build per
  // shard, fanned out over the pool; the router thread does not exist yet).
  RefreshShards();
  PublishView();  // epoch 0: the pre-ingestion state, queryable immediately
  router_ = std::thread([this] { RouterLoop(); });
}

ShardRouter::~ShardRouter() { Stop(); }

std::future<ShardRouter::Assignments> ShardRouter::Submit(data::Paper paper) {
  std::unique_lock<std::mutex> lock(mu_);
  const uint64_t seq = next_ticket_++;
  return SubmitLocked(seq, std::move(paper), &lock);
}

std::future<ShardRouter::Assignments> ShardRouter::SubmitAt(
    uint64_t seq, data::Paper paper) {
  std::unique_lock<std::mutex> lock(mu_);
  next_ticket_ = std::max(next_ticket_, seq + 1);
  return SubmitLocked(seq, std::move(paper), &lock);
}

std::vector<std::future<ShardRouter::Assignments>> ShardRouter::SubmitBatch(
    std::vector<data::Paper> papers) {
  std::vector<std::future<Assignments>> futures;
  futures.reserve(papers.size());
  if (papers.empty()) return futures;
  std::unique_lock<std::mutex> lock(mu_);
  // Reserve the whole contiguous range up front: even when a later paper
  // blocks on admission (releasing the lock), no interleaving producer can
  // claim a sequence inside the batch.
  uint64_t seq = next_ticket_;
  next_ticket_ += static_cast<uint64_t>(papers.size());
  for (auto& paper : papers) {
    futures.push_back(SubmitLocked(seq++, std::move(paper), &lock));
  }
  return futures;
}

std::future<ShardRouter::Assignments> ShardRouter::SubmitLocked(
    uint64_t seq, data::Paper paper, std::unique_lock<std::mutex>* lock) {
  std::promise<Assignments> promise;
  std::future<Assignments> future = promise.get_future();
  // Admission window: the next-to-apply sequence is always admissible, so a
  // blocked producer holding it can never deadlock the queue.
  admit_cv_.wait(*lock, [&] {
    return stopping_ ||
           seq < next_apply_ + static_cast<uint64_t>(
                                   config_.ingest_queue_capacity);
  });
  if (stopping_) {
    promise.set_value(StoppedError());
    return future;
  }
  // Sequences below in_flight_hi_ are applied or being pipelined; either
  // way the slot is taken (in_flight_hi_ == next_apply_ between windows).
  if (seq < in_flight_hi_ || pending_.count(seq) > 0) {
    promise.set_value(iuad::Status::InvalidArgument(
        "duplicate ingest sequence " + std::to_string(seq)));
    return future;
  }
  const int64_t submit_ns = clock_.Now();
  clock_.Trace(submit_ns, obs::TraceEventId::kPaperSubmit, seq);
  Request request{std::move(paper), std::move(promise), submit_ns};
  pending_.emplace(seq, std::move(request));
  gauge_queue_depth_->Set(static_cast<int64_t>(pending_.size()));
  if (seq == next_apply_) ready_cv_.notify_one();
  return future;
}

void ShardRouter::RunWindow(std::vector<InFlight> window) {
  const int64_t extract_ns = clock_.Now();
  clock_.Trace(extract_ns, obs::TraceEventId::kWindowExtract,
               window.front().seq, window.size());
  for (InFlight& w : window) {
    w.extract_ns = extract_ns;
    if (w.submit_ns > 0) {  // 0 exactly when the clock is off
      clock_.Stage(w.submit_ns, extract_ns, hist_enqueue_wait_us_,
                   obs::TraceEventId::kPaperExtract, w.seq);
    }
  }
  // Build the conflict scoreboard: each paper's block set is both its read
  // and its write set (scoring is block-local by construction), so a byline
  // must defer exactly when its block appears in an in-window predecessor.
  // Papers that will fail validation or apply still claim their blocks —
  // conservatively matching sequential, where a mid-commit failure may
  // already have written some of them. The map value is the claiming
  // paper's sequence (nearest predecessor wins): the deferral blame the
  // traces and exemplars surface.
  graph::CollabGraph& g = result_->graph;
  std::unordered_map<util::NameId, uint64_t> claimed;
  for (InFlight& w : window) {
    const size_t n = w.paper.author_names.size();
    w.blocks.resize(n);
    w.owners.resize(n);
    w.deferred.assign(n, false);
    w.blocked_by.assign(n, 0);
    w.decisions.resize(n);
    for (size_t i = 0; i < n; ++i) {
      const std::string& name = w.paper.author_names[i];
      // Interning here is safe: the router thread is the graph's single
      // mutator, and a byline about to commit would intern the same id.
      w.blocks[i] = g.InternName(name);
      w.owners[i] = placement_.ShardOf(w.blocks[i], name);
      const auto it = claimed.find(w.blocks[i]);
      if (it != claimed.end()) {
        w.deferred[i] = true;
        w.blocked_by[i] = it->second;
        clock_.Trace(w.extract_ns, obs::TraceEventId::kPaperDefer, w.seq,
                     it->second);
      }
    }
    for (util::NameId b : w.blocks) claimed[b] = w.seq;
  }
  if (result_->model != nullptr) {
    const int64_t scatter_start_ns = clock_.Now();
    ScatterWindow(&window);
    const int64_t scatter_end_ns = clock_.Now();
    const int64_t scatter_ns = scatter_end_ns - scatter_start_ns;
    // One histogram sample per window, one span per paper.
    clock_.Record(hist_scatter_us_, scatter_start_ns, scatter_end_ns);
    for (InFlight& w : window) {
      w.scatter_ns = scatter_ns;
      clock_.Trace(scatter_end_ns, obs::TraceEventId::kPaperScatter, w.seq,
                   static_cast<uint64_t>(scatter_ns));
    }
  }
  ctr_windows_->Increment();

  // COMMIT: strictly in sequence order, single writer (this thread). The
  // per-paper tail below is identical to the pre-pipeline router's: publish
  // check, promise, frontier advance, wakeups.
  for (InFlight& w : window) {
    Assignments applied = CommitPaper(&w);
    if (wal_ != nullptr) {
      // Log the commit *attempt*, success or failure (a failed apply may
      // have written blocks — replay must re-execute the exact attempt
      // sequence). w.paper is the submitted form: CommitPaper reads it by
      // reference and never consumes it. Buffered; the fsync is group-
      // committed across the window at the end of RunWindow.
      wal_->Append(w.seq, w.paper);
      ++wal_since_checkpoint_;
      // Checkpoint only when THIS apply succeeded and made the shard
      // refresh due (it runs at the end of this window): the one cache
      // state a freshly constructed router rebuilds bit-for-bit (wal.h).
      // The window cap pins refreshes to a window's last paper, so a
      // checkpoint can only fire there — it never stalls mid-window.
      if (config_.wal_checkpoint_every_n > 0 && applied.ok() &&
          since_refresh_ >= config_.incremental_refresh_interval &&
          wal_since_checkpoint_ >=
              static_cast<int64_t>(config_.wal_checkpoint_every_n)) {
        if (iuad::Status s =
                wal_->Checkpoint(*db_, *result_, config_, w.seq + 1);
            s.ok()) {
          wal_since_checkpoint_ = 0;
        } else {
          IUAD_LOG(kWarning)
              << "WAL checkpoint failed (serving continues; log "
                 "compaction is stalled): "
              << s.message();
        }
      }
    }
    const bool publish = since_publish_ >= config_.ingest_refresh_window;
    const int64_t publish_start_ns = clock_.Now();
    if (publish) PublishView();
    const int64_t done_ns = clock_.Now();
    if (publish) {
      clock_.Stage(publish_start_ns, done_ns, hist_publish_us_,
                   obs::TraceEventId::kPaperPublish, w.seq);
    }
    if (applied.ok() && w.submit_ns > 0) {
      const int64_t latency_ns =
          clock_.Stage(w.submit_ns, done_ns, hist_commit_latency_us_,
                       obs::TraceEventId::kPaperCommit, w.seq);
      if (config_.slow_commit_ms > 0.0 &&
          static_cast<double>(latency_ns) / 1e6 > config_.slow_commit_ms) {
        obs::SlowCommitExemplar exemplar;
        exemplar.seq = static_cast<int64_t>(w.seq);
        exemplar.total_ns = latency_ns;
        exemplar.stages.push_back({"enqueue", w.extract_ns - w.submit_ns});
        exemplar.stages.push_back({"scatter", w.scatter_ns});
        exemplar.stages.push_back({"rescore", w.rescore_ns});
        exemplar.stages.push_back({"apply", w.apply_ns});
        if (publish) {
          exemplar.stages.push_back({"publish", done_ns - publish_start_ns});
        }
        for (size_t i = 0; i < w.deferred.size(); ++i) {
          if (!w.deferred[i]) continue;
          exemplar.deferrals.push_back(
              {w.paper.author_names[i],
               static_cast<int64_t>(w.blocked_by[i])});
        }
        exemplars_.Offer(std::move(exemplar));
      }
    }
    w.promise.set_value(std::move(applied));
    std::lock_guard<std::mutex> lock(mu_);
    ++next_apply_;
    if (publish) published_through_ = next_apply_;
    admit_cv_.notify_all();
    applied_cv_.notify_all();
  }
  if (wal_ != nullptr) {
    // Group commit at window granularity: one fsync can cover the whole
    // window's records when the cadence fires; on the idle transition
    // (nothing consumable queued) force the flush so a burst's tail never
    // sits un-durable. Either way, once nothing appended is left for a
    // later flush, advance the durable frontier a Drain waits on. Never
    // under mu_ — producers must not block on an fsync.
    bool idle;
    {
      std::lock_guard<std::mutex> lock(mu_);
      idle = pending_.count(next_apply_) == 0;
    }
    bool flushed = true;
    if (idle) {
      (void)wal_->Flush();  // a sticky failure still releases the drain
    } else {
      flushed = wal_->MaybeFlush();
    }
    if (flushed) {
      std::lock_guard<std::mutex> lock(mu_);
      durable_through_ = next_apply_;
      applied_cv_.notify_all();
    }
  }
  // REFRESH: same global cadence as the sequential path's
  // incremental_refresh_interval, fanned out across shards. The window cap
  // in RouterLoop lets it fall due only on a window's last paper, so it
  // runs here, after every reply of the window, and is still a full
  // pipeline barrier: the next window is extracted after it.
  if (since_refresh_ >= config_.incremental_refresh_interval) RefreshShards();
}

void ShardRouter::ScatterWindow(std::vector<InFlight>* window) {
  // Group every speculative (paper, byline) pair by owning shard, in window
  // order. One task per involved shard keeps each shard's SimilarityComputer
  // and its lazily-filled caches single-threaded; decisions land in slots
  // indexed by (paper, byline), so the outcome is independent of the worker
  // schedule. Invalid papers (empty byline / no model) have no entries and
  // fall through to CommitPaper's validation.
  std::vector<std::vector<std::pair<size_t, size_t>>> by_shard(
      shards_.size());
  for (size_t j = 0; j < window->size(); ++j) {
    InFlight& w = (*window)[j];
    for (size_t i = 0; i < w.blocks.size(); ++i) {
      if (w.deferred[i]) continue;
      by_shard[static_cast<size_t>(w.owners[i])].emplace_back(j, i);
      w.overlapped = true;
    }
  }
  std::vector<size_t> involved;
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (!by_shard[s].empty()) involved.push_back(s);
  }
  if (involved.empty()) return;
  // Every decision in this scatter reads the same frozen snapshot: stamp
  // them all with the commit version it corresponds to.
  const uint64_t version = commit_version_;
  auto score_shard = [&](size_t s) {
    // Per-shard scatter latency: each shard's slice of the window, timed on
    // the thread that ran it (histograms and the flight recorder are both
    // safe from any thread; the skew across shards is the placement-quality
    // signal).
    const int64_t shard_start_ns = clock_.Now();
    for (const auto& [j, i] : by_shard[s]) {
      InFlight& w = (*window)[j];
      w.decisions[i] = core::ScoreOccurrence(
          *shards_[s].sim, *result_->model, result_->graph, w.paper,
          w.paper.author_names[i], config_.delta, version);
    }
    clock_.Stage(shard_start_ns, clock_.Now(), hist_shard_scatter_us_[s],
                 obs::TraceEventId::kShardScatter, s);
  };
  if (involved.size() == 1) {
    score_shard(involved[0]);
    return;
  }
  std::mutex done_mu;
  std::condition_variable done_cv;
  size_t done = 0;
  for (size_t k = 1; k < involved.size(); ++k) {
    pool_->Submit([&, s = involved[k]] {
      score_shard(s);
      // Notify under the lock: done_cv lives on this stack frame and an
      // unlocked notify could land after the sequencer has already woken
      // and moved on (see ThreadPool::ParallelFor for the same pattern).
      std::lock_guard<std::mutex> lock(done_mu);
      ++done;
      done_cv.notify_one();
    });
  }
  score_shard(involved[0]);
  std::unique_lock<std::mutex> lock(done_mu);
  done_cv.wait(lock, [&] { return done == involved.size() - 1; });
}

ShardRouter::Assignments ShardRouter::CommitPaper(InFlight* w) {
  if (result_->model == nullptr) {
    return iuad::Status::FailedPrecondition(
        "incremental disambiguation requires a fitted model (run the full "
        "pipeline, not SCN-only)");
  }
  if (w->paper.author_names.empty()) {
    return iuad::Status::InvalidArgument("paper with empty byline");
  }

  // Deferred bylines: every in-window predecessor has committed by now, so
  // scoring here reads exactly the state sequential AddPaper would — the
  // rescore the stale snapshot_version stamp calls for. Inline on the
  // router thread: a conflicted block's candidates were just scored in the
  // scatter or an earlier commit, and their predecessors' papers were
  // folded into the owning shard's profiles, so those are warm.
  const size_t n = w->paper.author_names.size();
  const int64_t rescore_start_ns = clock_.Now();
  bool rescored = false;
  for (size_t i = 0; i < n; ++i) {
    if (!w->deferred[i]) continue;
    w->decisions[i] = core::ScoreOccurrence(
        *shards_[static_cast<size_t>(w->owners[i])].sim, *result_->model,
        result_->graph, w->paper, w->paper.author_names[i], config_.delta,
        commit_version_);
    ctr_speculative_rescores_->Increment();
    rescored = true;
  }
  if (rescored) {
    w->rescore_ns = clock_.Stage(rescore_start_ns, clock_.Now(),
                                 hist_rescore_us_,
                                 obs::TraceEventId::kPaperRescore, w->seq);
  }
  if (w->overlapped) {
    ctr_overlapped_papers_->Increment();
  } else {
    ctr_conflict_stalls_->Increment();  // every byline waited on a commit
  }
  // Health counters, on the committing thread (scatter tasks only score):
  // one papers_scored per shard that scored >= 1 byline, matching the
  // pre-pipeline accounting.
  std::vector<bool> shard_seen(shards_.size(), false);
  for (size_t i = 0; i < n; ++i) {
    Shard& owner = shards_[static_cast<size_t>(w->owners[i])];
    ++owner.health.bylines_scored;
    if (!shard_seen[static_cast<size_t>(w->owners[i])]) {
      shard_seen[static_cast<size_t>(w->owners[i])] = true;
      ++owner.health.papers_scored;
    }
  }

  // Same mutation order as the sequential path, then shard-targeted profile
  // folds — a touched vertex is only ever scored by its block's owner.
  const int64_t apply_start_ns = clock_.Now();
  std::vector<graph::VertexId> touched;
  auto applied = core::ApplyDecisions(w->paper, w->decisions, db_, result_,
                                      &touched);
  ++commit_version_;  // counts attempts: a failed apply may have written
  for (graph::VertexId v : touched) {
    const int s = placement_.ShardOf(result_->graph.vertex(v).name_id,
                                     result_->graph.NameOf(v));
    shards_[static_cast<size_t>(s)].sim->FoldProfile(v);
  }
  w->apply_ns = clock_.Stage(apply_start_ns, clock_.Now(), hist_apply_us_,
                             obs::TraceEventId::kPaperApply, w->seq);
  if (!applied.ok()) ctr_papers_failed_->Increment();
  if (applied.ok()) {
    ctr_papers_applied_->Increment();
    ctr_assignments_->Add(static_cast<int64_t>(applied->size()));
    for (size_t i = 0; i < applied->size(); ++i) {
      const auto& a = (*applied)[i];
      Shard& owner =
          shards_[static_cast<size_t>(placement_.ShardOf(a.name))];
      ++owner.health.assignments;
      if (a.created_new) {
        ctr_new_authors_->Increment();
        ++owner.health.new_authors;
      }
    }
    ++since_publish_;
    // The refresh this may make due runs in RunWindow once the window's
    // replies are out; the window cap in RouterLoop makes this paper the
    // window's last.
    ++since_refresh_;
  }
  return applied;
}

void ShardRouter::RefreshShards() {
  const int64_t refresh_start_ns = clock_.Now();
  // Same storage hygiene as the sequential path's Refresh(): fold the
  // adjacency overflow log into the packed base arrays between fences (the
  // router is the only graph mutator; published views never read it).
  result_->graph.Compact();
  // One snapshot-bound build — the WL refinement sweep runs across the
  // shard pool, byte-identical to the serial build the sequential path
  // does — then per-shard copies. Each copy shares the immutable WL state
  // (labels and the frozen adjacency) and frequency tables, and owns its
  // lazily filled profile and ball caches, written only by the shard's own
  // scatter task or the router thread. No ball is built here: a ball built
  // on first score equals the sequential path's, whenever that is. Each
  // shard's text/venue profiles (current: folded at every commit) move
  // into its new computer; placement never changes, so they stay with the
  // shard that scores their vertices.
  std::vector<std::unique_ptr<core::SimilarityComputer>> next(shards_.size());
  next[0] = std::make_unique<core::SimilarityComputer>(
      *db_, result_->graph, result_->embeddings, config_, pool_.get());
  for (size_t s = 1; s < shards_.size(); ++s) {
    next[s] = std::make_unique<core::SimilarityComputer>(*next[0]);
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (shards_[s].sim != nullptr) {
      next[s]->AdoptProfiles(std::move(*shards_[s].sim));
    }
    shards_[s].sim = std::move(next[s]);
  }
  since_refresh_ = 0;
  ctr_refreshes_->Increment();
  clock_.Stage(refresh_start_ns, clock_.Now(), hist_refresh_us_,
               obs::TraceEventId::kRefresh, commit_version_);
}

void ShardRouter::RouterLoop() {
  for (;;) {
    std::unique_lock<std::mutex> lock(mu_);
    ready_cv_.wait(lock, [&] {
      return stopping_ || pending_.count(next_apply_) > 0 ||
             (drain_waiters_ > 0 && published_through_ < next_apply_);
    });

    if (pending_.count(next_apply_) > 0) {
      // WINDOW: take up to pipeline_depth consecutive-sequence papers
      // already queued (never waiting for more), additionally capped by the
      // remaining refresh budget so a similarity-cache refresh can only
      // land at a window boundary — a full pipeline barrier at exactly the
      // sequential path's paper counts.
      const size_t limit = static_cast<size_t>(std::max(
          1, std::min(config_.pipeline_depth,
                      config_.incremental_refresh_interval -
                          since_refresh_)));
      std::vector<InFlight> window;
      window.reserve(limit);
      while (window.size() < limit) {
        auto it = pending_.find(next_apply_ + window.size());
        if (it == pending_.end()) break;
        InFlight w;
        w.seq = it->first;
        w.paper = std::move(it->second.paper);
        w.promise = std::move(it->second.promise);
        w.submit_ns = it->second.submit_ns;
        pending_.erase(it);
        window.push_back(std::move(w));
      }
      in_flight_hi_ = next_apply_ + static_cast<uint64_t>(window.size());
      gauge_queue_depth_->Set(static_cast<int64_t>(pending_.size()));
      lock.unlock();
      // RunWindow re-locks per committed paper to advance next_apply_; when
      // the last one lands, next_apply_ == in_flight_hi_ again.
      RunWindow(std::move(window));
      continue;
    }

    if (drain_waiters_ > 0 && published_through_ < next_apply_) {
      const uint64_t through = next_apply_;
      lock.unlock();
      // Drain's contract includes durability: everything applied before
      // the drain point is on disk when Drain() returns.
      if (wal_ != nullptr) (void)wal_->Flush();
      PublishView();
      lock.lock();
      published_through_ = through;
      durable_through_ = through;
      applied_cv_.notify_all();
      continue;
    }

    // stopping_, with no applicable sequence: fail whatever is stranded
    // behind a sequence hole, publish the final epoch, exit.
    std::map<uint64_t, Request> stranded;
    stranded.swap(pending_);
    lock.unlock();
    for (auto& [seq, req] : stranded) {
      req.promise.set_value(StoppedError());
    }
    if (wal_ != nullptr) (void)wal_->Flush();  // Stop leaves nothing buffered
    PublishView();
    lock.lock();
    published_through_ = next_apply_;
    durable_through_ = next_apply_;
    applied_cv_.notify_all();
    return;
  }
}

void ShardRouter::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  const uint64_t target = next_ticket_;
  ++drain_waiters_;
  ready_cv_.notify_one();  // an idle router may owe us a publish
  applied_cv_.wait(lock, [&] {
    return (next_apply_ >= target && published_through_ >= target &&
            (wal_ == nullptr || durable_through_ >= target)) ||
           (stopping_ && joined_);
  });
  --drain_waiters_;
}

void ShardRouter::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  ready_cv_.notify_all();
  admit_cv_.notify_all();
  applied_cv_.notify_all();
  bool join_here = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!joined_ && !join_claimed_) {
      join_claimed_ = true;
      join_here = true;
    }
  }
  if (join_here) {
    router_.join();
    std::lock_guard<std::mutex> lock(mu_);
    joined_ = true;
    applied_cv_.notify_all();
  } else {
    std::unique_lock<std::mutex> lock(mu_);
    applied_cv_.wait(lock, [&] { return joined_; });
  }
}

void ShardRouter::PublishView() {
  auto view = std::make_shared<ReadView>();
  view->shards.resize(shards_.size());
  const graph::CollabGraph& g = result_->graph;
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    if (!g.alive(v)) continue;
    const graph::Vertex& vx = g.vertex(v);
    ReadView::ShardView& sv = view->shards[static_cast<size_t>(
        placement_.ShardOf(vx.name_id, g.NameOf(v)))];
    sv.by_name[vx.name_id].push_back(
        {v, static_cast<int>(vx.papers.size())});
    sv.papers_of.emplace(v, vx.papers);
  }
  serve::ServiceStats& stats = view->stats;
  stats.epoch = epoch_++;
  // Registry-backed: the router thread is the sole writer of these
  // counters, so reading them here is exact, not racy-approximate.
  stats.papers_applied = ctr_papers_applied_->Value();
  stats.assignments = ctr_assignments_->Value();
  stats.new_authors = ctr_new_authors_->Value();
  stats.num_alive_vertices = g.num_alive();
  stats.num_edges = g.num_edges();
  stats.queue_capacity = config_.ingest_queue_capacity;
  stats.num_shards = placement_.num_shards();
  stats.pipeline_depth = config_.pipeline_depth;
  const int64_t windows = ctr_windows_->Value();
  stats.pipeline_windows = windows;
  stats.pipeline_occupancy =
      windows > 0 ? static_cast<double>(ctr_overlapped_papers_->Value()) /
                        static_cast<double>(windows)
                  : 0.0;
  stats.conflict_stalls = ctr_conflict_stalls_->Value();
  stats.speculative_rescores = ctr_speculative_rescores_->Value();
  for (const Shard& s : shards_) stats.shards.push_back(s.health);
  since_publish_ = 0;
  ctr_publishes_->Increment();
  std::lock_guard<std::mutex> lock(view_mu_);
  view_ = std::move(view);
}

std::shared_ptr<const ShardRouter::ReadView> ShardRouter::CurrentView()
    const {
  std::lock_guard<std::mutex> lock(view_mu_);
  return view_;
}

std::vector<serve::AuthorRecord> ShardRouter::AuthorsByName(
    const std::string& name) const {
  // Protocol boundary: resolve the string once, then the view is id-keyed.
  const util::NameId id = result_->graph.interner().Lookup(name);
  if (id == util::kInvalidNameId) return {};
  const auto view = CurrentView();
  const auto& sv = view->shards[static_cast<size_t>(placement_.ShardOf(id, name))];
  auto it = sv.by_name.find(id);
  if (it == sv.by_name.end()) return {};
  std::vector<serve::AuthorRecord> out = it->second;
  std::sort(out.begin(), out.end(),
            [](const serve::AuthorRecord& a, const serve::AuthorRecord& b) {
              return a.vertex < b.vertex;
            });
  return out;
}

std::vector<int> ShardRouter::PublicationsOf(graph::VertexId v) const {
  const auto view = CurrentView();
  for (const auto& sv : view->shards) {
    auto it = sv.papers_of.find(v);
    if (it != sv.papers_of.end()) return it->second;
  }
  return {};
}

serve::ServiceStats ShardRouter::Stats() const {
  serve::ServiceStats stats = CurrentView()->stats;
  stats.rss_mb = util::CurrentRssMb();
  stats.uptime_seconds =
      static_cast<double>(obs::NowNs() - start_ns_) / 1e9;
  stats.slow_commits = exemplars_.Snapshot();
  if (wal_ != nullptr) {
    stats.wal_appended = ctr_wal_appended_->Value();
    stats.wal_fsyncs = ctr_wal_fsyncs_->Value();
    stats.wal_bytes = ctr_wal_bytes_->Value();
    stats.recovery_replayed = ctr_recovery_replayed_->Value();
    stats.wal_last_checkpoint_seq = gauge_wal_ckpt_seq_->Value();
    const int64_t ckpt_ts = gauge_wal_ckpt_ts_->Value();
    stats.wal_last_checkpoint_age_s =
        ckpt_ts > 0
            ? static_cast<double>(std::time(nullptr) - ckpt_ts)
            : -1.0;
    stats.wal_fsync_wait_us_p99 =
        hist_wal_fsync_wait_us_->Snapshot().PercentileUs(99.0);
  }
  std::lock_guard<std::mutex> lock(mu_);
  stats.queued_now = static_cast<int>(pending_.size());
  // Everything buffered beyond the contiguous run from the next consumable
  // sequence is held for reordering: it cannot apply until a producer fills
  // the hole. The run starts after the in-flight window, whose sequences
  // sit in neither pending_ nor the applied range — otherwise every queued
  // paper on a healthy, loaded router would count as held.
  uint64_t expect = std::max(next_apply_, in_flight_hi_);
  for (const auto& [seq, req] : pending_) {
    if (seq == expect) {
      ++expect;
    } else {
      ++stats.reorder_held;
    }
  }
  return stats;
}

}  // namespace iuad::shard
