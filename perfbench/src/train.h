#ifndef PERFBENCH_TRAIN_H_
#define PERFBENCH_TRAIN_H_

// The training part of every workload: DT-IPS, DT-DR and IPS fits on the
// Coat-shaped world, each in a fresh child process that loads the dataset
// from disk the way `dtrec_cli train <method> <prefix>` does.

#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/// What one fit child measured and checked.
struct FitResult {
  std::string method;
  bool ok = false;      ///< Fit returned OK and every output check passed
  std::string error;    ///< first failure, when !ok
  std::vector<double> step_us;      ///< each TrainStep call
  std::vector<double> setup_ms;     ///< each Setup call (one per Fit)
  std::vector<double> epoch_end_ms; ///< each EpochEnd call
  double load_ms = 0.0;  ///< LoadDataset
  double fit_ms = 0.0;   ///< whole Fit wall time
  double eval_ms = 0.0;  ///< EvaluateRanking
  double auc = 0.0;
  // getrusage deltas around Fit, taken inside the child.
  double fit_minflt = 0.0;
  double fit_utime_s = 0.0;
  double fit_stime_s = 0.0;
  // operator new calls/bytes inside TrainStep (traced runs only).
  double alloc_calls = 0.0;
  double alloc_bytes = 0.0;
  // Whole child process, from wait4.
  double proc_minflt = 0.0;
  double proc_utime_s = 0.0;
  double proc_stime_s = 0.0;
  double proc_maxrss_mb = 0.0;
};

/// The methods every workload trains: DT-IPS and DT-DR run the DT graph,
/// IPS bypasses it.
const std::vector<std::string>& TrainMethods();

/// The fits of one run, in order: each DT method three times, and IPS,
/// whose fit lasts about half a second, between all of them. A fit runs
/// either at full speed or about 1.45x slower throughout; spreading a
/// method over several fits across the run leaves it some fits at full
/// speed, whose fastest steps the reported low quantile picks up.
const std::vector<std::string>& TrainPlan();

/// Entry point of a fit child:
///   perfbench_harness fit <method> <dataset-prefix> <result-path> <trace>
/// Writes `result-path` and, when trace is 1, `<result-path>.trace.json`.
int FitChildMain(int argc, char** argv);

/// Runs fit children. Start() forks a small launcher process, which spawns
/// each child and reports its rusage. A spawned child's ru_maxrss also
/// counts the pages of the process it was spawned from, up to its exec;
/// the launcher stays small while the serving process grows, so a child's
/// peak RSS is its own.
class FitLauncher {
 public:
  FitLauncher() = default;
  /// Closes the command pipe and waits for the launcher to exit.
  ~FitLauncher();
  FitLauncher(const FitLauncher&) = delete;
  FitLauncher& operator=(const FitLauncher&) = delete;

  /// Forks the launcher; `self` is this program's path. Call it early,
  /// while the process is small and has no other threads.
  bool Start(const char* self);

  /// Runs `self fit method prefix result_path trace` to its end and reads
  /// its result. Paths must not contain whitespace.
  FitResult Run(const std::string& method, const std::string& prefix,
                const std::string& result_path, bool trace);

 private:
  int pid_ = -1;
  std::FILE* to_ = nullptr;
  std::FILE* from_ = nullptr;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRAIN_H_
