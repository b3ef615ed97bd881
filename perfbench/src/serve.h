#ifndef PERFBENCH_SERVE_H_
#define PERFBENCH_SERVE_H_

// The serving part of every workload: a RecommendServer over a seeded
// KuaiRec-sized world (10,728 items, d = 32), driven through Submit by
// one generator thread, with every response checked against the
// benchmark's own copy of the factors.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "checks.h"
#include "stats.h"
#include "serve/model_registry.h"
#include "serve/recommend_server.h"
#include "spans.h"

namespace perfbench {

enum class Traffic {
  kCold,      ///< closed loop, users cycle past the cache: every lookup misses
  kZipfSwap,  ///< open loop, Zipf(1.1) users, a hot swap in every window
};

/// Everything the serving phase measured. Times in µs unless named.
struct ServeResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_error;  ///< first failed request or count mismatch
  bool counts_match = false;
  Summary latency_us;  ///< submit (cold) or due time (zipf) → ready
  // Traced runs only:
  Summary late_us;     ///< generator: send time − due time
  Summary queue_us;    ///< Recommendation::queue_us
  Summary handle_us;   ///< total_us − queue_us
  Summary handoff_us;  ///< submit → ready, minus total_us
  std::vector<double> publish_ms;  ///< hot swaps during the windows
  double elapsed_s = 0.0;
  double cache_hit_ratio = 0.0;
  double alloc_calls_per_request = 0.0;  ///< traced runs only
};

/// Layer timings from replaying a prefix of the request stream through
/// the staged public calls (traced runs only).
struct ReplayResult {
  double acquire_ns = 0.0;
  double lookup_ns = 0.0;
  double fill_ns = 0.0;
  double score_fresh_us = 0.0;  ///< server's default TopKMode
  std::map<std::string, double> score_fresh_us_by_mode;
  double select_us = 0.0;
  double row_dot_us = 0.0;
  double row_dot_gflops = 0.0;
  double row_dot_bytes = 0.0;
  double publish_ms = 0.0;
};

class ServeBench {
 public:
  /// `seconds`: the run's total serving time, over all windows.
  ServeBench(Traffic traffic, uint64_t seed, double seconds, bool trace,
             SpanLog* spans);
  ~ServeBench();
  ServeBench(const ServeBench&) = delete;
  ServeBench& operator=(const ServeBench&) = delete;

  /// Builds the world and models, publishes, starts the server and warms
  /// it up. Returns an error message, or "" on success.
  std::string Setup();

  /// One measured window of traffic, `seconds` long. A run's windows sum
  /// to the `seconds` given at construction.
  void Window(double seconds);

  /// The output checks over every window; returns what they measured.
  ServeResult Finish();

  ReplayResult Replay();

 private:
  struct World;
  std::unique_ptr<World> w_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_H_
