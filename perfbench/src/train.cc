#include "train.h"

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>

#include "alloc_count.h"
#include "baselines/ips.h"
#include "checks.h"
#include "core/dt_dr.h"
#include "core/dt_ips.h"
#include "data/io.h"
#include "experiments/config.h"
#include "experiments/evaluator.h"
#include "mapped_array.h"
#include "spans.h"

extern char** environ;

namespace perfbench {
namespace {

using dtrec::Batch;
using dtrec::RatingDataset;
using dtrec::Status;
using dtrec::TrainConfig;

// Ranking cutoff of `dtrec_cli train` (its k=5 default).
constexpr size_t kEvalK = 5;
// Labels of the simulated Coat world are binarized to {0, 1}.
constexpr double kPositiveThreshold = 0.5;

// Timing buffers live off the malloc heap (see mapped_array.h), so the
// child's allocation history up to Fit is the one `dtrec_cli train` has.
// A CLI-default Coat fit makes 860 steps over 20 epochs.
struct Probe {
  MappedArray<double> step_us{4096};
  MappedArray<double> setup_ms{16};
  MappedArray<double> epoch_end_ms{256};
  AllocCount step_allocs;
  SpanLog* spans = nullptr;
  uint32_t fit_span = 0;
};

// Times the parent class's Setup/TrainStep/EpochEnd from outside: the
// trainers are driven through their public Fit, and these overrides only
// wrap the protected hooks Fit calls.
template <class Trainer>
class Timed : public Trainer {
 public:
  Timed(const TrainConfig& config, Probe* probe)
      : Trainer(config), probe_(probe) {}

 protected:
  Status Setup(const RatingDataset& dataset) override {
    const double t0 = NowUs();
    Status st = Trainer::Setup(dataset);
    const double t1 = NowUs();
    probe_->setup_ms.push_back((t1 - t0) / 1e3);
    probe_->spans->Add("Setup", t0, t1, probe_->fit_span);
    return st;
  }
  void TrainStep(const Batch& batch) override {
    const AllocCount a0 = ReadAllocCount();
    const double t0 = NowUs();
    Trainer::TrainStep(batch);
    const double t1 = NowUs();
    const AllocCount a1 = ReadAllocCount();
    probe_->step_us.push_back(t1 - t0);
    probe_->step_allocs.calls += a1.calls - a0.calls;
    probe_->step_allocs.bytes += a1.bytes - a0.bytes;
    probe_->spans->Add("TrainStep", t0, t1, probe_->fit_span);
  }
  void EpochEnd(size_t epoch) override {
    const double t0 = NowUs();
    Trainer::EpochEnd(epoch);
    const double t1 = NowUs();
    probe_->epoch_end_ms.push_back((t1 - t0) / 1e3);
    probe_->spans->Add("EpochEnd", t0, t1, probe_->fit_span);
  }

 private:
  Probe* probe_;
};

std::unique_ptr<dtrec::MfJointTrainerBase> MakeTimed(
    const std::string& method, Probe* probe) {
  // The CLI's default TrainConfig, tuned the way `dtrec_cli train` tunes it.
  const TrainConfig config = dtrec::TuneForMethod(method, TrainConfig());
  if (method == "DT-IPS") {
    return std::make_unique<Timed<dtrec::DtIpsTrainer>>(config, probe);
  }
  if (method == "DT-DR") {
    return std::make_unique<Timed<dtrec::DtDrTrainer>>(config, probe);
  }
  if (method == "IPS") {
    return std::make_unique<Timed<dtrec::IpsTrainer>>(config, probe);
  }
  return nullptr;
}

double Seconds(const timeval& tv) { return tv.tv_sec + tv.tv_usec / 1e6; }

void WriteList(std::ostream& out, const char* key,
               const MappedArray<double>& values) {
  out << key;
  for (double v : values) out << ' ' << v;
  out << '\n';
}

std::vector<double> ReadList(std::istringstream& in) {
  std::vector<double> out;
  double v = 0.0;
  while (in >> v) out.push_back(v);
  return out;
}

// Output checks on the trained model, made outside every timed section.
std::string CheckTrained(const dtrec::MfJointTrainerBase& trainer,
                         const RatingDataset& dataset, double library_auc) {
  std::vector<double> predictions;
  std::vector<bool> positive;
  predictions.reserve(dataset.test().size());
  for (const dtrec::RatingTriple& t : dataset.test()) {
    predictions.push_back(trainer.Predict(t.user, t.item));
    positive.push_back(t.rating >= kPositiveThreshold);
  }
  std::string err = CheckPredictions(predictions);
  if (err.empty()) {
    err = CheckAucMatches(MannWhitneyAuc(predictions, positive), library_auc);
  }
  if (err.empty()) err = CheckAucAboveChance(library_auc);
  if (err.empty()) {
    if (const auto* dt = dynamic_cast<const dtrec::DtIpsTrainer*>(&trainer)) {
      err = CheckDisentangleFall(dt->normalized_disentangle_history());
    }
  }
  return err;
}

}  // namespace

const std::vector<std::string>& TrainMethods() {
  static const std::vector<std::string> kMethods = {"DT-IPS", "DT-DR", "IPS"};
  return kMethods;
}

const std::vector<std::string>& TrainPlan() {
  static const std::vector<std::string> kPlan = {
      "IPS", "DT-IPS", "IPS", "DT-DR", "IPS", "DT-IPS", "IPS",
      "DT-DR", "IPS", "DT-IPS", "IPS", "DT-DR", "IPS"};
  return kPlan;
}

int FitChildMain(int argc, char** argv) {
  if (argc != 6) {
    std::fprintf(stderr, "usage: %s fit <method> <prefix> <result> <trace>\n",
                 argv[0]);
    return 2;
  }
  // Nothing here touches the heap before LoadDataset: the method names fit
  // std::string's inline buffer and the paths stay char pointers.
  const std::string method = argv[2];
  const char* prefix = argv[3];
  const char* result_path = argv[4];
  const bool trace = std::strcmp(argv[5], "1") == 0;

  Probe probe;
  SpanLog spans(trace ? 4096 : 0);
  probe.spans = &spans;
  if (trace) EnableAllocCounting();

  const double load0 = NowUs();
  auto dataset = dtrec::LoadDataset(prefix);
  const double load1 = NowUs();
  spans.Add("LoadDataset", load0, load1);
  std::ofstream out;
  if (!dataset.ok()) {
    out.open(result_path);
    out << "ok 0\nerror LoadDataset: " << dataset.status().ToString() << '\n';
    return 0;
  }
  auto trainer = MakeTimed(method, &probe);
  if (trainer == nullptr) {
    out.open(result_path);
    out << "ok 0\nerror unknown method " << method << '\n';
    return 0;
  }

  rusage r0{}, r1{};
  getrusage(RUSAGE_SELF, &r0);
  const double fit0 = NowUs();
  probe.fit_span = spans.Open("Fit", fit0);
  const Status st = trainer->Fit(dataset.value());
  const double fit1 = NowUs();
  getrusage(RUSAGE_SELF, &r1);
  spans.Close(probe.fit_span, fit1);

  const double eval0 = NowUs();
  const dtrec::RankingMetrics metrics =
      dtrec::EvaluateRanking(*trainer, dataset.value(), kEvalK);
  const double eval1 = NowUs();
  spans.Add("EvaluateRanking", eval0, eval1);

  std::string err;
  if (!st.ok()) {
    err = "Fit: " + st.ToString();
  } else {
    err = CheckTrained(*trainer, dataset.value(), metrics.auc);
  }

  out.open(result_path);
  out.precision(17);
  out << "ok " << (err.empty() ? 1 : 0) << '\n';
  if (!err.empty()) out << "error " << err << '\n';
  out << "load_ms " << (load1 - load0) / 1e3 << '\n'
      << "fit_ms " << (fit1 - fit0) / 1e3 << '\n'
      << "eval_ms " << (eval1 - eval0) / 1e3 << '\n'
      << "auc " << metrics.auc << '\n'
      << "fit_minflt " << (r1.ru_minflt - r0.ru_minflt) << '\n'
      << "fit_utime_s " << Seconds(r1.ru_utime) - Seconds(r0.ru_utime) << '\n'
      << "fit_stime_s " << Seconds(r1.ru_stime) - Seconds(r0.ru_stime) << '\n'
      << "alloc_calls " << probe.step_allocs.calls << '\n'
      << "alloc_bytes " << probe.step_allocs.bytes << '\n';
  WriteList(out, "step_us", probe.step_us);
  WriteList(out, "setup_ms", probe.setup_ms);
  WriteList(out, "epoch_end_ms", probe.epoch_end_ms);
  out.close();
  if (trace && !spans.WriteJson(std::string(result_path) + ".trace.json")) {
    return 1;
  }
  return out ? 0 : 1;
}

namespace {

// The launcher process: one command line per fit child in, one rusage
// line out. Exits when the command pipe closes.
[[noreturn]] void LauncherLoop(const char* self, int in_fd, int out_fd) {
  std::FILE* in = fdopen(in_fd, "r");
  std::FILE* out = fdopen(out_fd, "w");
  char line[4096];
  while (in != nullptr && out != nullptr &&
         std::fgets(line, sizeof(line), in) != nullptr) {
    char method[64], prefix[1024], result[1024], trace[4];
    int status = -1;
    rusage usage{};
    if (std::sscanf(line, "%63s %1023s %1023s %3s", method, prefix, result,
                    trace) == 4) {
      char fit[] = "fit";
      char* child_argv[] = {const_cast<char*>(self), fit,    method, prefix,
                            result,                  trace, nullptr};
      pid_t pid = 0;
      if (posix_spawn(&pid, self, nullptr, nullptr, child_argv, environ) ==
              0 &&
          wait4(pid, &status, 0, &usage) != pid) {
        status = -1;
      }
    }
    std::fprintf(out, "%d %ld %.6f %.6f %ld\n", status, usage.ru_minflt,
                 Seconds(usage.ru_utime), Seconds(usage.ru_stime),
                 usage.ru_maxrss);
    std::fflush(out);
  }
  _exit(0);
}

}  // namespace

bool FitLauncher::Start(const char* self) {
  int cmd[2], reply[2];
  if (pipe(cmd) != 0) return false;
  if (pipe(reply) != 0) {
    close(cmd[0]);
    close(cmd[1]);
    return false;
  }
  const pid_t pid = fork();
  if (pid == 0) {
    close(cmd[1]);
    close(reply[0]);
    LauncherLoop(self, cmd[0], reply[1]);
  }
  close(cmd[0]);
  close(reply[1]);
  if (pid < 0) {
    close(cmd[1]);
    close(reply[0]);
    return false;
  }
  pid_ = pid;
  to_ = fdopen(cmd[1], "w");
  from_ = fdopen(reply[0], "r");
  return to_ != nullptr && from_ != nullptr;
}

FitLauncher::~FitLauncher() {
  if (to_ != nullptr) std::fclose(to_);
  if (from_ != nullptr) std::fclose(from_);
  if (pid_ > 0) {
    int status = 0;
    waitpid(pid_, &status, 0);
  }
}

FitResult FitLauncher::Run(const std::string& method,
                           const std::string& prefix,
                           const std::string& result_path, bool trace) {
  FitResult result;
  result.method = method;
  std::remove(result_path.c_str());
  int status = -1;
  long minflt = 0, maxrss_kb = 0;
  double utime = 0.0, stime = 0.0;
  char reply[256];
  if (to_ == nullptr || from_ == nullptr ||
      std::fprintf(to_, "%s %s %s %d\n", method.c_str(), prefix.c_str(),
                   result_path.c_str(), trace ? 1 : 0) < 0 ||
      std::fflush(to_) != 0 || std::fgets(reply, sizeof(reply), from_) == nullptr ||
      std::sscanf(reply, "%d %ld %lf %lf %ld", &status, &minflt, &utime, &stime,
                  &maxrss_kb) != 5) {
    result.error = "fit launcher failed";
    return result;
  }
  result.proc_minflt = static_cast<double>(minflt);
  result.proc_utime_s = utime;
  result.proc_stime_s = stime;
  result.proc_maxrss_mb = maxrss_kb / 1024.0;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    result.error = "fit child exited abnormally";
    return result;
  }

  std::ifstream in(result_path);
  std::string line;
  bool ok = false;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "error") {
      std::getline(fields >> std::ws, result.error);
      continue;
    }
    const std::vector<double> values = ReadList(fields);
    const double v = values.empty() ? std::nan("") : values[0];
    if (key == "ok") ok = v == 1.0;
    else if (key == "load_ms") result.load_ms = v;
    else if (key == "fit_ms") result.fit_ms = v;
    else if (key == "eval_ms") result.eval_ms = v;
    else if (key == "auc") result.auc = v;
    else if (key == "fit_minflt") result.fit_minflt = v;
    else if (key == "fit_utime_s") result.fit_utime_s = v;
    else if (key == "fit_stime_s") result.fit_stime_s = v;
    else if (key == "alloc_calls") result.alloc_calls = v;
    else if (key == "alloc_bytes") result.alloc_bytes = v;
    else if (key == "step_us") result.step_us = values;
    else if (key == "setup_ms") result.setup_ms = values;
    else if (key == "epoch_end_ms") result.epoch_end_ms = values;
  }
  if (ok && result.step_us.empty()) {
    ok = false;
    result.error = "fit child reported no steps";
  }
  if (!ok && result.error.empty()) result.error = "fit child wrote no result";
  result.ok = ok;
  return result;
}

}  // namespace perfbench
