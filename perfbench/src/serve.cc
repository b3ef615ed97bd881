#include "serve.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <numeric>
#include <random>
#include <thread>

#include "alloc_count.h"
#include "mapped_array.h"
#include "serve/serving_model.h"
#include "serve/topk_scorer.h"
#include "stats.h"
#include "tensor/kernels.h"

namespace perfbench {
namespace {

using dtrec::Matrix;
using dtrec::serve::ModelRegistry;
using dtrec::serve::Recommendation;
using dtrec::serve::RecommendRequest;
using dtrec::serve::RecommendServer;
using dtrec::serve::ServeRung;
using dtrec::serve::ServerConfig;
using dtrec::serve::ServerStats;
using dtrec::serve::ServingModel;
using dtrec::serve::TopKScorer;

// World shape: KuaiRec's catalogue, a user population well past the
// score cache's default 1024 entries, and a serving dimension of 32.
constexpr size_t kItems = 10728;
constexpr size_t kUsers = 50000;
constexpr size_t kDim = 32;
constexpr size_t kK = 10;
// Item norms fall with popularity rank as (1 + rank)^-kNormDecay, so the
// norm-bound pruned sweep meets the skew it depends on.
constexpr double kNormDecay = 0.25;
constexpr double kPopularityExponent = 1.1;
// Workers plus the generator thread stay within the 4 CPUs the benchmark
// is sized for.
constexpr size_t kWorkers = 3;
constexpr size_t kColdOutstanding = 3;
// Above the cold loop's rate on any host the benchmark expects; sizes the
// per-request buffers.
constexpr double kColdMaxPerS = 40000.0;
constexpr double kZipfExponent = 1.1;
constexpr double kZipfRatePerS = 2000.0;
constexpr double kSwapPeriodS = 1.0;
constexpr size_t kWarmupCold = 200;
constexpr size_t kWarmupZipf = 2000;
// Full top-K completeness check on every 16th response and on the first
// responses of every new generation; every response gets the score check.
constexpr size_t kCheckEvery = 64;
constexpr size_t kChecksAfterSwap = 4;
constexpr size_t kMaxRecords = 16384;
constexpr size_t kMaxGenerations = 256;
constexpr size_t kZipfPending = 1024;
// Staged replay (traced runs).
constexpr size_t kReplayRequests = 2000;
constexpr size_t kReplayScored = 300;
constexpr size_t kReplayPublishes = 5;
const char* const kModeNames[] = {"dense", "pruned", "quantized"};

struct Factors {
  Matrix users;
  Matrix items;
  std::vector<double> popularity;
};

Factors MakeFactors(uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> normal(0.0, 1.0);
  Factors f{Matrix(kUsers, kDim), Matrix(kItems, kDim),
            std::vector<double>(kItems)};
  std::vector<uint32_t> rank(kItems);
  std::iota(rank.begin(), rank.end(), 0u);
  std::shuffle(rank.begin(), rank.end(), rng);
  const double user_scale = 1.0 / std::sqrt(static_cast<double>(kDim));
  for (size_t u = 0; u < kUsers; ++u) {
    for (size_t c = 0; c < kDim; ++c) f.users(u, c) = normal(rng) * user_scale;
  }
  double g[kDim];
  for (size_t i = 0; i < kItems; ++i) {
    double norm2 = 0.0;
    for (size_t c = 0; c < kDim; ++c) {
      g[c] = normal(rng);
      norm2 += g[c] * g[c];
    }
    const double r = 1.0 + rank[i];
    const double scale = 2.0 * std::pow(r, -kNormDecay) / std::sqrt(norm2);
    for (size_t c = 0; c < kDim; ++c) f.items(i, c) = g[c] * scale;
    f.popularity[i] = std::round(1e6 * std::pow(r, -kPopularityExponent));
  }
  return f;
}

RefModel CopyFactors(const Factors& f) {
  RefModel ref;
  ref.num_users = f.users.rows();
  ref.num_items = f.items.rows();
  ref.dim = f.users.cols();
  ref.users.assign(f.users.data(), f.users.data() + f.users.size());
  ref.items.assign(f.items.data(), f.items.data() + f.items.size());
  return ref;
}

std::vector<uint32_t> ZipfStream(uint64_t seed, size_t n) {
  std::vector<double> cdf(kUsers);
  double total = 0.0;
  for (size_t r = 0; r < kUsers; ++r) {
    total += std::pow(1.0 + r, -kZipfExponent);
    cdf[r] = total;
  }
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uniform(0.0, total);
  std::vector<uint32_t> stream(n);
  for (uint32_t& u : stream) {
    const size_t r = std::lower_bound(cdf.begin(), cdf.end(), uniform(rng)) -
                     cdf.begin();
    u = static_cast<uint32_t>(std::min(r, kUsers - 1));
  }
  return stream;
}

std::chrono::steady_clock::time_point AtUs(double us) {
  return std::chrono::steady_clock::now() +
         std::chrono::duration_cast<std::chrono::steady_clock::duration>(
             std::chrono::duration<double, std::micro>(us - NowUs()));
}

struct Pending {
  std::future<Recommendation> future;
  size_t n = 0;
  uint32_t user = 0;
  double due_us = 0.0;
  double submit_us = 0.0;
};

}  // namespace

struct ServeBench::World {
  Traffic traffic;
  uint64_t seed;
  double seconds;
  bool trace;
  SpanLog* spans;

  RefModel ref[2];
  ServingModel model[2];  // pristine candidates; published as copies
  size_t num_models = 1;
  ModelRegistry registry;
  std::unique_ptr<RecommendServer> server;
  std::array<std::atomic<int>, kMaxGenerations> gen_model;

  size_t cold_offset = 0;
  std::vector<uint32_t> stream;  // zipf users by request index
  size_t next = 0;               // next request index

  ServeResult result;  // filled window by window
  ServerStats before;  // after warm-up
  size_t first_measured = 0;
  size_t measured = 0;
  uint64_t measured_allocs = 0;
  size_t swaps = 0;
  std::string swap_error;  // written by the publisher thread only

  RungCounts own;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_error;
  uint64_t last_generation = 0;
  size_t post_swap_checks = 0;
  std::vector<SlateEntry> scratch;
  struct Record {
    uint32_t user;
    uint32_t model;
    std::array<SlateEntry, kK> slate;
  };
  // Fixed, pre-faulted buffers: the serving process's peak RSS must not
  // grow with how many requests a fast or slow host gets through.
  std::unique_ptr<MappedArray<Record>> records;
  std::unique_ptr<MappedArray<float>> latency_us;
  // Traced runs only (capacity 0 otherwise).
  std::unique_ptr<MappedArray<float>> late_us, queue_us, handle_us,
      handoff_us;

  uint32_t UserFor(size_t n) const {
    if (traffic == Traffic::kCold) {
      return static_cast<uint32_t>((cold_offset + n) % kUsers);
    }
    return stream[n % stream.size()];
  }

  Pending Send(double due_us) {
    Pending p;
    p.n = next++;
    p.user = UserFor(p.n);
    p.due_us = due_us;
    p.submit_us = NowUs();
    p.future = server->Submit(RecommendRequest{p.user, kK, -1.0});
    return p;
  }

  void Fail(const std::string& why) {
    ++failed;
    if (first_error.empty()) first_error = why;
  }

  // Counts the response's rung and checks its slate against the
  // reference of the generation it reports. Returns false on failure.
  bool Check(const Pending& p, const Recommendation& rec, bool sample) {
    ++attempted;
    ++own.requests;
    switch (rec.rung) {
      case ServeRung::kFullTopK: ++own.full; break;
      case ServeRung::kCachedSlate: ++own.cached; break;
      case ServeRung::kPopularity: ++own.popularity; break;
      case ServeRung::kShed: ++own.shed; break;
    }
    if (rec.rung != ServeRung::kFullTopK &&
        rec.rung != ServeRung::kCachedSlate) {
      Fail(std::string("request degraded to rung ") +
           dtrec::serve::ToString(rec.rung));
      return false;
    }
    const int idx = rec.generation < kMaxGenerations
                        ? gen_model[rec.generation].load()
                        : -1;
    if (idx < 0) {
      Fail("response reports an unpublished generation");
      return false;
    }
    scratch.clear();
    for (const auto& e : rec.items) scratch.push_back({e.item, e.score});
    const std::string err = CheckSlateScores(ref[idx], p.user, kK, scratch);
    if (!err.empty()) {
      Fail(err);
      return false;
    }
    if (rec.generation != last_generation) {
      last_generation = rec.generation;
      post_swap_checks = kChecksAfterSwap;
    }
    const bool after_swap = post_swap_checks > 0;
    if (after_swap) --post_swap_checks;
    if (sample || after_swap) {
      Record r{p.user, static_cast<uint32_t>(idx), {}};
      std::copy(scratch.begin(), scratch.end(), r.slate.begin());
      records->push_back(r);
    }
    return true;
  }

  RungCounts ServerCounts() const {
    const ServerStats s = server->Snapshot();
    return {s.requests, s.rung_full, s.rung_cached, s.rung_popularity,
            s.rung_shed};
  }
};

ServeBench::ServeBench(Traffic traffic, uint64_t seed, double seconds,
                       bool trace, SpanLog* spans)
    : w_(std::make_unique<World>()) {
  w_->traffic = traffic;
  w_->seed = seed;
  w_->seconds = seconds;
  w_->trace = trace;
  w_->spans = spans;
}

ServeBench::~ServeBench() = default;

std::string ServeBench::Setup() {
  World& w = *w_;
  for (auto& g : w.gen_model) g.store(-1);
  w.num_models = w.traffic == Traffic::kZipfSwap ? 2 : 1;
  std::seed_seq seq{w.seed, uint64_t{0x5e7e}};
  std::array<uint64_t, 4> seeds;
  seq.generate(seeds.begin(), seeds.end());
  for (size_t m = 0; m < w.num_models; ++m) {
    Factors f = MakeFactors(seeds[m]);
    w.ref[m] = CopyFactors(f);
    auto model = ServingModel::FromFactors(
        std::move(f.users), std::move(f.items), Matrix(), Matrix(),
        std::move(f.popularity));
    if (!model.ok()) return "FromFactors: " + model.status().ToString();
    w.model[m] = std::move(model).value();
  }
  w.cold_offset = seeds[2] % kUsers;
  if (w.traffic == Traffic::kZipfSwap) {
    // Each window may send one request more than its share.
    const size_t n = kWarmupZipf + 1024 +
                     static_cast<size_t>(kZipfRatePerS * w.seconds);
    w.stream = ZipfStream(seeds[3], n);
  }
  const size_t per_request =
      static_cast<size_t>(w.seconds * (w.traffic == Traffic::kCold
                                           ? kColdMaxPerS
                                           : kZipfRatePerS)) +
      1024;
  const size_t traced = w.trace ? per_request : 0;
  w.records = std::make_unique<MappedArray<World::Record>>(kMaxRecords, true);
  w.latency_us = std::make_unique<MappedArray<float>>(per_request, true);
  w.late_us = std::make_unique<MappedArray<float>>(traced);
  w.queue_us = std::make_unique<MappedArray<float>>(traced);
  w.handle_us = std::make_unique<MappedArray<float>>(traced);
  w.handoff_us = std::make_unique<MappedArray<float>>(traced);
  w.scratch.reserve(kK);

  uint64_t generation = 0;
  const dtrec::Status st = w.registry.TryPublish(w.model[0], &generation);
  if (!st.ok()) return "TryPublish: " + st.ToString();
  w.gen_model[generation].store(0);

  ServerConfig config;
  config.num_threads = kWorkers;
  config.default_k = kK;
  config.default_deadline_ms = -1.0;  // no deadline: a slow host degrades nothing
  w.server = std::make_unique<RecommendServer>(&w.registry, config);

  // Warm-up: closed loop, one request at a time.
  const size_t warmup =
      w.traffic == Traffic::kCold ? kWarmupCold : kWarmupZipf;
  for (size_t i = 0; i < warmup; ++i) {
    Pending p = w.Send(0.0);
    const Recommendation rec = p.future.get();
    w.Check(p, rec, false);
  }
  w.first_measured = w.next;
  w.before = w.server->Snapshot();
  w.result.publish_ms.reserve(256);
  if (w.trace) EnableAllocCounting();
  return w.first_error;
}

void ServeBench::Window(double seconds) {
  World& w = *w_;
  ServeResult& r = w.result;
  const AllocCount alloc0 = ReadAllocCount();
  const size_t first = w.next;

  const double start = NowUs();
  const double end = start + seconds * 1e6;
  const uint32_t window_span = w.spans->Open("serve_window", start);

  auto observe = [&](const Pending& p, const Recommendation& rec,
                     double ready) {
    const bool sample = (p.n - w.first_measured) % kCheckEvery == 0;
    w.Check(p, rec, sample);
    w.latency_us->push_back(float(ready - p.due_us));
    w.queue_us->push_back(float(rec.queue_us));
    w.handle_us->push_back(float(rec.total_us - rec.queue_us));
    w.handoff_us->push_back(float(ready - p.submit_us - rec.total_us));
    w.spans->Add("request", p.submit_us, ready, window_span);
  };

  if (w.traffic == Traffic::kCold) {
    // Closed loop: kColdOutstanding requests in flight, answered in
    // submission order; a request's latency runs from its submit.
    std::array<Pending, kColdOutstanding> ring;
    for (Pending& p : ring) {
      p = w.Send(0.0);
      p.due_us = p.submit_us;
    }
    size_t live = ring.size();
    for (size_t head = 0; live > 0; head = (head + 1) % ring.size()) {
      Pending& p = ring[head];
      if (!p.future.valid()) continue;
      const Recommendation rec = p.future.get();
      const double ready = NowUs();
      observe(p, rec, ready);
      if (ready < end) {
        p = w.Send(0.0);
        p.due_us = p.submit_us;
        w.late_us->push_back(float(p.submit_us - ready));
      } else {
        p.future = {};
        --live;
      }
    }
  } else {
    // Open loop at kZipfRatePerS, with a hot swap every kSwapPeriodS from
    // a publisher thread; latency runs from each request's due time.
    std::thread publisher([&w, &r, start, end] {
      for (size_t j = 0;; ++j) {
        const double at = start + (0.5 + j * kSwapPeriodS) * 1e6;
        if (at >= end) break;
        std::this_thread::sleep_until(AtUs(at));
        const size_t idx = (w.swaps + 1) % w.num_models;
        ServingModel candidate = w.model[idx];
        const uint64_t expect = w.registry.generation() + 1;
        if (expect < kMaxGenerations) w.gen_model[expect].store(int(idx));
        uint64_t generation = 0;
        const double t0 = NowUs();
        const dtrec::Status st =
            w.registry.TryPublish(std::move(candidate), &generation);
        r.publish_ms.push_back((NowUs() - t0) / 1e3);
        ++w.swaps;
        if ((!st.ok() || generation != expect) && w.swap_error.empty()) {
          w.swap_error = "hot swap failed: " + st.ToString();
        }
      }
    });
    const double interval = 1e6 / kZipfRatePerS;
    // pending[0, live) are in flight. The generator spins and polls every
    // one of them, so a response's ready time is when it completed: not
    // when this thread woke up, nor when the requests sent before it did.
    std::vector<Pending> pending(kZipfPending);
    size_t live = 0;
    double due = start;
    auto complete = [&](size_t i) {
      const Recommendation rec = pending[i].future.get();
      observe(pending[i], rec, NowUs());
      --live;
      if (i != live) pending[i] = std::move(pending[live]);
    };
    while (due < end || live > 0) {
      if (due < end && NowUs() >= due) {
        if (live == pending.size()) complete(0);
        Pending& slot = pending[live++];
        slot = w.Send(due);
        w.late_us->push_back(float(slot.submit_us - due));
        due += interval;
        continue;
      }
      for (size_t i = 0; i < live;) {
        if (pending[i].future.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
          complete(i);
        } else {
          ++i;
        }
      }
    }
    publisher.join();
  }
  const double stop = NowUs();
  w.spans->Close(window_span, stop);
  r.elapsed_s += (stop - start) / 1e6;
  w.measured += w.next - first;
  const AllocCount alloc1 = ReadAllocCount();
  w.measured_allocs += alloc1.calls - alloc0.calls;
}

ServeResult ServeBench::Finish() {
  World& w = *w_;
  ServeResult r = std::move(w.result);
  r.alloc_calls_per_request =
      w.measured == 0 ? 0.0 : double(w.measured_allocs) / w.measured;
  // Output checks, outside the timed windows.
  for (const World::Record& rec : *w.records) {
    const std::vector<SlateEntry> slate(rec.slate.begin(), rec.slate.end());
    const std::string err =
        CheckSlateComplete(w.ref[rec.model], rec.user, kK, slate);
    if (!err.empty()) w.Fail(err);
  }
  if (!w.swap_error.empty()) w.Fail(w.swap_error);
  const ServerStats after = w.server->Snapshot();
  const double hits = double(after.cache_hits - w.before.cache_hits);
  const double misses = double(after.cache_misses - w.before.cache_misses);
  r.cache_hit_ratio = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  const std::string count_err = CheckCountsMatch(w.own, w.ServerCounts());
  r.counts_match = count_err.empty();
  r.first_error = !count_err.empty() ? count_err : w.first_error;
  auto summarize = [](MappedArray<float>& a) {
    return SummarizeInPlace(a.data(), a.size());
  };
  r.latency_us = summarize(*w.latency_us);
  r.late_us = summarize(*w.late_us);
  r.queue_us = summarize(*w.queue_us);
  r.handle_us = summarize(*w.handle_us);
  r.handoff_us = summarize(*w.handoff_us);
  r.attempted = w.attempted;
  r.failed = w.failed;
  return r;
}

ReplayResult ServeBench::Replay() {
  World& w = *w_;
  ReplayResult out;
  SpanLog& spans = *w.spans;
  std::vector<double> acquire_ns, lookup_ns, fill_ns, fresh_us;
  TopKScorer scorer{dtrec::serve::ScoreCacheConfig{}};  // server default
  std::vector<dtrec::serve::ScoredItem> slate;
  for (size_t n = 0; n < kReplayRequests; ++n) {
    const uint32_t user = w.UserFor(n);
    const double t0 = NowUs();
    const uint32_t req = spans.Open("replay_request", t0);
    const auto model = w.registry.Acquire();
    const double t1 = NowUs();
    spans.Add("Acquire", t0, t1, req);
    acquire_ns.push_back((t1 - t0) * 1e3);
    const uint64_t gen = model->generation();
    const bool hit = scorer.CachedSlate(gen, user, kK, &slate);
    const double t2 = NowUs();
    spans.Add("CachedSlate", t1, t2, req);
    lookup_ns.push_back((t2 - t1) * 1e3);
    if (!hit) {
      slate = scorer.ScoreFresh(*model, user, kK);
      const double t3 = NowUs();
      spans.Add("ScoreFresh", t2, t3, req);
      fresh_us.push_back(t3 - t2);
      scorer.StoreSlate(gen, user, slate);
      const double t4 = NowUs();
      spans.Add("StoreSlate", t3, t4, req);
      fill_ns.push_back((t4 - t3) * 1e3);
    }
    spans.Close(req, NowUs());
  }
  out.acquire_ns = Quantile(acquire_ns, kTimeQuantile);
  out.lookup_ns = Quantile(lookup_ns, kTimeQuantile);
  out.fill_ns = Quantile(fill_ns, kTimeQuantile);
  out.score_fresh_us = Quantile(fresh_us, kTimeQuantile);

  const auto model = w.registry.Acquire();
  const RefModel& ref = w.ref[w.gen_model[model->generation()].load()];
  for (const char* name : kModeNames) {
    dtrec::serve::ScoreCacheConfig config;
    if (!dtrec::serve::ParseTopKMode(name, &config.mode)) continue;
    config.capacity = 0;
    TopKScorer mode_scorer(config);
    std::vector<double> us;
    for (size_t n = 0; n < kReplayScored; ++n) {
      const double t0 = NowUs();
      slate = mode_scorer.ScoreFresh(*model, w.UserFor(n), kK);
      const double t1 = NowUs();
      spans.Add("ScoreFresh", t0, t1);
      us.push_back(t1 - t0);
    }
    out.score_fresh_us_by_mode[name] = Quantile(us, kTimeQuantile);
  }

  // Heap/slate selection: the default ScoreFresh minus the bare sweep.
  std::vector<double> range_us, dot_us, fresh_default_us;
  std::vector<double> buf(kItems);
  for (size_t n = 0; n < kReplayScored; ++n) {
    const uint32_t user = w.UserFor(n);
    double t0 = NowUs();
    model->ScoreItemRange(user, 0, kItems, buf.data());
    double t1 = NowUs();
    spans.Add("ScoreItemRange", t0, t1);
    range_us.push_back(t1 - t0);
    t0 = NowUs();
    slate = scorer.ScoreFresh(*model, user, kK);
    t1 = NowUs();
    spans.Add("ScoreFresh", t0, t1);
    fresh_default_us.push_back(t1 - t0);
    t0 = NowUs();
    dtrec::kernels::BatchedRowDot(kItems, kDim, ref.items.data(), kDim,
                                  &ref.users[user * kDim], 0, buf.data());
    t1 = NowUs();
    spans.Add("BatchedRowDot", t0, t1);
    dot_us.push_back(t1 - t0);
  }
  out.select_us = Quantile(fresh_default_us, kTimeQuantile) -
                  Quantile(range_us, kTimeQuantile);
  out.row_dot_us = Quantile(dot_us, kTimeQuantile);
  const double flops = 2.0 * kItems * kDim;
  out.row_dot_gflops = flops / (out.row_dot_us * 1e3);
  out.row_dot_bytes = 8.0 * (kItems * kDim + kDim + kItems);

  // Publish into a private registry, so the live server is untouched.
  // The first two publishes fill its current and previous slots; each
  // timed one then also frees the generation it displaces, as a live
  // swap does.
  ModelRegistry registry;
  std::vector<double> publish_ms;
  for (size_t i = 0; i < 2 + kReplayPublishes; ++i) {
    ServingModel candidate = w.model[0];
    const double t0 = NowUs();
    const dtrec::Status st = registry.TryPublish(std::move(candidate));
    const double t1 = NowUs();
    spans.Add("TryPublish", t0, t1);
    if (st.ok() && i >= 2) publish_ms.push_back((t1 - t0) / 1e3);
  }
  out.publish_ms = Quantile(publish_ms, kTimeQuantile);
  return out;
}

}  // namespace perfbench
