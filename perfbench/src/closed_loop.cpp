/// Closed-loop ingestion through shard::ShardRouter: one producer keeps
/// the admission window full via SubmitAt while the calling thread collects
/// the futures in order. The traced serve_mixed run uses it to load the
/// router to capacity, where scatter, rescore and commit show.

#include <algorithm>
#include <condition_variable>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "measure.h"
#include "shard/shard_router.h"

namespace iuad::perfbench {

bool RunRouterPass(const FittedSetup& setup, size_t count,
                   std::vector<double>* gaps_ms, SpanLog* collector,
                   SpanLog* producer_log, RouterPass* out, std::string* why) {
  data::PaperDatabase db = setup.history;
  auto snap = io::LoadSnapshot(setup.snapshot_path, db);
  if (!snap.ok()) {
    *why = "snapshot load failed: " + snap.status().ToString();
    return false;
  }
  const std::vector<data::Paper> stream(
      setup.stream.begin(),
      setup.stream.begin() +
          static_cast<std::ptrdiff_t>(std::min(count, setup.stream.size())));
  std::vector<std::future<serve::Frontend::Assignments>> futures(
      stream.size());
  // futures[i] is read only once the producer has handed it over.
  std::vector<char> handed(stream.size(), 0);
  std::mutex mu;
  std::condition_variable cv;
  core::IuadConfig cfg = snap->config;
  cfg.num_shards = Nproc();
  shard::ShardRouter router(&db, &snap->result, cfg);
  const int64_t start = NowNs();
  std::thread producer([&] {
    for (size_t i = 0; i < stream.size(); ++i) {
      const int64_t offered = NowNs();
      auto f = router.SubmitAt(i, stream[i]);
      if (producer_log != nullptr) {
        producer_log->Add("shard.submit", offered, NowNs(),
                          static_cast<int64_t>(i));
      }
      std::lock_guard<std::mutex> lock(mu);
      futures[i] = std::move(f);
      handed[i] = 1;
      cv.notify_one();
    }
  });
  int64_t last = start;
  for (size_t i = 0; i < stream.size(); ++i) {
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return handed[i] == 1; });
    }
    futures[i].wait();
    const int64_t now = NowNs();
    gaps_ms->push_back(static_cast<double>(now - last) / 1e6);
    if (collector != nullptr) {
      collector->Add("shard.commit", last, now, static_cast<int64_t>(i));
    }
    last = now;
  }
  producer.join();
  router.Drain();
  out->seconds = static_cast<double>(NowNs() - start) / 1e9;
  out->stats = router.Stats();
  out->registry = router.Metrics()->Snapshot();
  for (auto& f : futures) {
    auto r = f.get();
    if (!r.ok()) ++out->failed;
    out->digests.push_back(r.ok() ? AssignmentDigest(*r) : 0);
  }
  return true;
}

}  // namespace iuad::perfbench
