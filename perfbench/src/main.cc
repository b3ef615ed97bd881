// Benchmark harness for dtrec. One run of one workload:
//
//   perfbench_harness run --workload <cold|zipf_swap> --seed <n>
//                         --seconds <s> --trace <0|1> --out <dir>
//
// set-up (Coat world written to disk, serving models built and published,
// server warmed up), then training fits in fresh child processes (see
// TrainPlan) alternating with windows of serving traffic that add up to
// `seconds`. Prints one JSON result as the last line of standard output;
// run.py builds this binary and relays that line.
//
//   perfbench_harness fit <method> <prefix> <result> <trace>
//
// is the fit child (see train.h).

#include <sys/resource.h>
#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "data/io.h"
#include "serve.h"
#include "spans.h"
#include "stats.h"
#include "synth/coat_like.h"
#include "train.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have[5] = {};
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
      have[0] = true;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have[1] = *end == '\0' && !value.empty();
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      have[2] = *end == '\0' && args->seconds > 0.0 && args->seconds <= 120.0;
    } else if (key == "--trace") {
      args->trace = value == "1";
      have[3] = value == "0" || value == "1";
    } else if (key == "--out") {
      args->out = value;
      have[4] = !value.empty();
    } else {
      return false;
    }
  }
  return (argc % 2 == 0) && have[0] && have[1] && have[2] && have[3] &&
         have[4];
}

// The Coat world every run trains on, like the one real Coat dataset. Its
// seed stays fixed because the training step time is bimodal across
// worlds: the train-set size moves the fit's allocator regime, and DT-DR
// steps run ~27% faster on 2 of the worlds with seeds 1-10 (README.md).
// World 7 lands in the regime of most worlds; --seed drives the serving
// world and its traffic.
constexpr uint64_t kCoatWorldSeed = 7;

// Name of each method in metric names.
std::string MetricKey(const std::string& method) {
  if (method == "DT-IPS") return "dt_ips";
  if (method == "DT-DR") return "dt_dr";
  return "ips";
}

class Metrics {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    items_.push_back({name, {value, unit}});
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < items_.size(); ++i) {
      char buf[256];
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", items_[i].first.c_str(),
                    items_[i].second.first, items_[i].second.second);
      out += buf;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, const char*>>> items_;
};

Summary Summarize(std::vector<double> v) {
  return SummarizeInPlace(v.data(), v.size());
}

std::string Json(const Summary& s) {
  if (s.n == 0) return "null";
  char buf[384];
  std::snprintf(buf, sizeof(buf),
                "{\"n\": %zu, \"p01\": %.6g, \"p02\": %.6g, \"p05\": %.6g, "
                "\"p10\": %.6g, \"p20\": %.6g, \"p25\": %.6g, \"p50\": %.6g, "
                "\"p90\": %.6g, \"p99\": %.6g}",
                s.n, s.p01, s.p02, s.p05, s.p10, s.p20, s.p25, s.p50, s.p90,
                s.p99);
  return buf;
}

std::string List(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.6g", i == 0 ? "" : ", ", v[i]);
    out += buf;
  }
  return out + "]";
}

// One method's fits of a run, pooled: every step of every fit, and the
// per-fit figures side by side.
struct Pooled {
  std::vector<double> step_us, setup_ms, epoch_end_ms, eval_ms, load_ms;
  std::vector<double> fit_ms, utime_s, stime_s, minflt, proc_minflt,
      proc_maxrss_mb, auc;
  double alloc_calls = 0.0, alloc_bytes = 0.0;
  double fit_minflt = 0.0, fit_utime_s = 0.0, fit_stime_s = 0.0;

  void Add(const FitResult& f) {
    step_us.insert(step_us.end(), f.step_us.begin(), f.step_us.end());
    setup_ms.insert(setup_ms.end(), f.setup_ms.begin(), f.setup_ms.end());
    epoch_end_ms.insert(epoch_end_ms.end(), f.epoch_end_ms.begin(),
                        f.epoch_end_ms.end());
    eval_ms.push_back(f.eval_ms);
    load_ms.push_back(f.load_ms);
    fit_ms.push_back(f.fit_ms);
    utime_s.push_back(f.fit_utime_s);
    stime_s.push_back(f.fit_stime_s);
    minflt.push_back(f.fit_minflt);
    proc_minflt.push_back(f.proc_minflt);
    proc_maxrss_mb.push_back(f.proc_maxrss_mb);
    auc.push_back(f.auc);
    alloc_calls += f.alloc_calls;
    alloc_bytes += f.alloc_bytes;
    fit_minflt += f.fit_minflt;
    fit_utime_s += f.fit_utime_s;
    fit_stime_s += f.fit_stime_s;
  }
};

int Run(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s run --workload <cold|zipf_swap> --seed <n> "
                 "--seconds <s> --trace <0|1> --out <dir>\n",
                 argv[0]);
    return 2;
  }
  Traffic traffic;
  if (args.workload == "cold") {
    traffic = Traffic::kCold;
  } else if (args.workload == "zipf_swap") {
    traffic = Traffic::kZipfSwap;
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  ::mkdir(args.out.c_str(), 0755);
  const std::string tag = args.workload + "_s" + std::to_string(args.seed) +
                          "_t" + (args.trace ? "1" : "0");
  // Forked first, while this process is small (see FitLauncher).
  FitLauncher launcher;
  if (!launcher.Start(argv[0])) {
    std::fprintf(stderr, "cannot start the fit launcher\n");
    return 1;
  }
  // Request spans for the longest cold loop fit in this buffer.
  SpanLog spans(args.trace ? (1u << 20) : 0);

  // ---- set-up: Coat world on disk, serving models, publish, warm-up --
  // One dataset prefix for every run, so the fit children's allocation
  // history does not depend on the seed's digits.
  const std::string prefix = args.out + "/coat";
  const dtrec::Status saved =
      dtrec::SaveDataset(dtrec::MakeCoatLike(kCoatWorldSeed).dataset, prefix);
  if (!saved.ok()) {
    std::fprintf(stderr, "SaveDataset: %s\n", saved.ToString().c_str());
    return 1;
  }
  ServeBench bench(traffic, args.seed, args.seconds, args.trace, &spans);
  if (const std::string err = bench.Setup(); !err.empty()) {
    std::fprintf(stderr, "serving set-up failed: %s\n", err.c_str());
    return 1;
  }
  const double setup_s = NowUs() / 1e6;

  // ---- measured: serving windows between fresh-process fits ----------
  // Spreading both kinds of unit over the whole run keeps a slow episode
  // of the host shorter than the run from covering all of either.
  uint64_t attempted = 0, failed = 0;
  std::vector<FitResult> fits;
  const double window_s = args.seconds / (TrainPlan().size() + 1);
  bench.Window(window_s);
  for (const std::string& method : TrainPlan()) {
    fits.push_back(launcher.Run(method, prefix,
                                args.out + "/fit_" + tag + "_" +
                                    std::to_string(fits.size()) + ".txt",
                                args.trace));
    ++attempted;
    if (!fits.back().ok) {
      ++failed;
      std::fprintf(stderr, "%s fit failed: %s\n", method.c_str(),
                   fits.back().error.c_str());
    }
    bench.Window(window_s);
  }
  const ServeResult serve = bench.Finish();
  attempted += serve.attempted;
  failed += serve.failed;
  if (!serve.first_error.empty()) {
    std::fprintf(stderr, "serving: %s\n", serve.first_error.c_str());
  }
  ReplayResult replay;
  if (args.trace) replay = bench.Replay();

  // Each method's fits, pooled.
  std::map<std::string, Pooled> pooled;
  for (const FitResult& f : fits) pooled[f.method].Add(f);

  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  double peak_rss_mb = self.ru_maxrss / 1024.0;
  for (const FitResult& f : fits) {
    peak_rss_mb = std::max(peak_rss_mb, f.proc_maxrss_mb);
  }

  Metrics m;
  if (!args.trace) {
    m.Add("setup_s", setup_s, "s");
    m.Add("peak_rss_mb", peak_rss_mb, "MB");
    for (const std::string& method : TrainMethods()) {
      m.Add(MetricKey(method) + "_step_ms",
            Quantile(pooled[method].step_us, kTimeQuantile) / 1e3, "ms");
    }
    m.Add("latency_us", serve.latency_us.low, "us");
  } else {
    std::vector<double> load_ms;
    for (const std::string& method : TrainMethods()) {
      const Pooled& p = pooled[method];
      const std::string k = MetricKey(method);
      const double steps = static_cast<double>(p.step_us.size());
      m.Add("core.step_us." + k, Quantile(p.step_us, kTimeQuantile), "us");
      m.Add("core.setup_ms." + k, Quantile(p.setup_ms, kTimeQuantile), "ms");
      m.Add("core.epoch_end_ms." + k, Quantile(p.epoch_end_ms, kTimeQuantile),
            "ms");
      m.Add("alloc.calls_per_step." + k, p.alloc_calls / steps, "count");
      m.Add("alloc.bytes_per_step." + k, p.alloc_bytes / steps, "B");
      m.Add("alloc.faults_per_step." + k, p.fit_minflt / steps, "count");
      m.Add("alloc.sys_share." + k,
            p.fit_stime_s / (p.fit_utime_s + p.fit_stime_s), "ratio");
      m.Add("experiments.eval_ms." + k, Quantile(p.eval_ms, kTimeQuantile),
            "ms");
      load_ms.insert(load_ms.end(), p.load_ms.begin(), p.load_ms.end());
    }
    m.Add("data.load_ms", Quantile(load_ms, kTimeQuantile), "ms");
    m.Add("kernels.row_dot_us", replay.row_dot_us, "us");
    m.Add("kernels.row_dot_gflops", replay.row_dot_gflops, "GFLOP/s");
    m.Add("kernels.row_dot_bytes", replay.row_dot_bytes, "B");
    m.Add("sweep.score_fresh_us", replay.score_fresh_us, "us");
    for (const auto& [mode, us] : replay.score_fresh_us_by_mode) {
      m.Add("sweep.score_fresh_us." + mode, us, "us");
    }
    m.Add("slate.select_us", replay.select_us, "us");
    m.Add("cache.lookup_ns", replay.lookup_ns, "ns");
    m.Add("cache.fill_ns", replay.fill_ns, "ns");
    m.Add("cache.hit_ratio", serve.cache_hit_ratio, "ratio");
    m.Add("registry.acquire_ns", replay.acquire_ns, "ns");
    m.Add("registry.publish_ms", replay.publish_ms, "ms");
    m.Add("server.queue_us", serve.queue_us.low, "us");
    m.Add("server.handle_us", serve.handle_us.low, "us");
    m.Add("server.handoff_us", serve.handoff_us.low, "us");
    m.Add("server.latency_us", serve.latency_us.low, "us");
    m.Add("alloc.calls_per_request", serve.alloc_calls_per_request, "count");
    m.Add("generator.late_us", serve.late_us.p99, "us");
  }

  // Reference figures (not gated) for README.md's tables.
  const std::string details_dir = args.out + "/details";
  ::mkdir(details_dir.c_str(), 0755);
  if (std::FILE* f = std::fopen((details_dir + "/" + tag + ".json").c_str(),
                                "w")) {
    std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, ",
                 args.workload.c_str(),
                 static_cast<unsigned long long>(args.seed), args.trace);
    std::fprintf(f, "\"setup_s\": %.6f, \"peak_rss_mb\": %.3f, ", setup_s,
                 peak_rss_mb);
    std::fprintf(f, "\"serve_rss_mb\": %.3f, \"methods\": {",
                 self.ru_maxrss / 1024.0);
    const char* sep = "";
    for (const auto& [method, p] : pooled) {
      std::fprintf(f,
                   "%s\"%s\": {\"fits\": %zu, \"step_us\": %s, "
                   "\"fit_ms\": %s, \"fit_utime_s\": %s, "
                   "\"fit_stime_s\": %s, \"fit_minflt\": %s, "
                   "\"proc_minflt\": %s, \"proc_maxrss_mb\": %s, "
                   "\"auc\": %s}",
                   sep, MetricKey(method).c_str(), p.fit_ms.size(),
                   Json(Summarize(p.step_us)).c_str(), List(p.fit_ms).c_str(),
                   List(p.utime_s).c_str(), List(p.stime_s).c_str(),
                   List(p.minflt).c_str(), List(p.proc_minflt).c_str(),
                   List(p.proc_maxrss_mb).c_str(), List(p.auc).c_str());
      sep = ", ";
    }
    const double requests = static_cast<double>(serve.latency_us.n);
    std::fprintf(f,
                 "}, \"serve\": {\"latency_us\": %s, \"late_us\": %s, "
                 "\"requests\": %.0f, \"users_per_s\": %.3f, "
                 "\"publish_ms\": %s, \"cache_hit_ratio\": %.6f}}\n",
                 Json(serve.latency_us).c_str(),
                 Json(serve.late_us).c_str(), requests,
                 requests / serve.elapsed_s,
                 Json(Summarize(serve.publish_ms)).c_str(),
                 serve.cache_hit_ratio);
    std::fclose(f);
  }
  if (args.trace) {
    spans.WriteJson(args.out + "/trace_" + tag + ".json");
  }

  const bool correct = serve.counts_match;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), m.Json().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "fit") {
    return perfbench::FitChildMain(argc, argv);
  }
  if (argc >= 2 && std::string(argv[1]) == "run") {
    return perfbench::Run(argc, argv);
  }
  std::fprintf(stderr,
               "usage: %s run --workload <w> --seed <n> --seconds <s> "
               "--trace <0|1> --out <dir>\n       %s fit <method> <prefix> "
               "<result> <trace>\n",
               argv[0], argv[0]);
  return 2;
}
