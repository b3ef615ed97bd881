#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

// Output checks the benchmark makes apart from the program: every value
// the library returns is compared with what the benchmark computes from
// its own copy of the inputs, with its own loops. Each check returns an
// empty string on success and a one-line reason on failure.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Relative score tolerance: |served − reference| ≤ kScoreTol·max(|ref|, 1).
inline constexpr double kScoreTol = 1e-9;
/// Largest allowed |own AUC − library AUC|.
inline constexpr double kAucTol = 1e-12;
/// DT methods must cut the normalized disentangling loss by this factor
/// from the first epoch to the last.
inline constexpr double kMinDisentangleFall = 10.0;

struct SlateEntry {
  uint32_t item = 0;
  double score = 0.0;
};

/// The benchmark's own row-major copy of a serving model's factors
/// (no biases: the benchmark's worlds have none).
struct RefModel {
  size_t num_users = 0;
  size_t num_items = 0;
  size_t dim = 0;
  std::vector<double> users;  // num_users × dim
  std::vector<double> items;  // num_items × dim
};

double RefScore(const RefModel& model, size_t user, size_t item);

/// Top-k by the benchmark's own loop: score descending, ties by item id.
std::vector<SlateEntry> RefTopK(const RefModel& model, size_t user, size_t k);

/// Cheap per-response check: k entries, distinct in-range items, each
/// score within tolerance of the reference model's score, ordered by
/// score descending then item id ascending. A slate produced by another
/// model generation fails on its scores.
std::string CheckSlateScores(const RefModel& model, size_t user, size_t k,
                             const std::vector<SlateEntry>& slate);

/// CheckSlateScores plus completeness: no item outside the slate scores
/// above the slate's k-th score by more than the tolerance.
std::string CheckSlateComplete(const RefModel& model, size_t user, size_t k,
                               const std::vector<SlateEntry>& slate);

/// Mann–Whitney AUC of `score` for binary `positive`, ties counted half.
/// NaN when either class is empty.
double MannWhitneyAuc(const std::vector<double>& score,
                      const std::vector<bool>& positive);

std::string CheckAucMatches(double own_auc, double library_auc);
std::string CheckAucAboveChance(double auc);
/// Every prediction finite and strictly inside (0, 1).
std::string CheckPredictions(const std::vector<double>& predictions);
/// history.front() / history.back() ≥ kMinDisentangleFall.
std::string CheckDisentangleFall(const std::vector<double>& history);

/// Requests per ladder rung, as the benchmark counted them and as the
/// server's stats report them.
struct RungCounts {
  uint64_t requests = 0;
  uint64_t full = 0;
  uint64_t cached = 0;
  uint64_t popularity = 0;
  uint64_t shed = 0;
};
std::string CheckCountsMatch(const RungCounts& own, const RungCounts& server);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
