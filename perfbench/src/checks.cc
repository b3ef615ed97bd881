#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace perfbench {
namespace {

std::string Format(const char* fmt, double a, double b) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), fmt, a, b);
  return buf;
}

bool ScoreClose(double served, double reference) {
  return std::fabs(served - reference) <=
         kScoreTol * std::max(std::fabs(reference), 1.0);
}

// Score descending, then item id ascending.
bool RanksBefore(const SlateEntry& a, const SlateEntry& b) {
  return a.score > b.score || (a.score == b.score && a.item < b.item);
}

}  // namespace

double RefScore(const RefModel& model, size_t user, size_t item) {
  const double* p = &model.users[user * model.dim];
  const double* q = &model.items[item * model.dim];
  double dot = 0.0;
  for (size_t c = 0; c < model.dim; ++c) dot += p[c] * q[c];
  return dot;
}

std::vector<SlateEntry> RefTopK(const RefModel& model, size_t user,
                                size_t k) {
  std::vector<SlateEntry> all(model.num_items);
  for (size_t i = 0; i < model.num_items; ++i) {
    all[i] = {static_cast<uint32_t>(i), RefScore(model, user, i)};
  }
  k = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + k, all.end(), RanksBefore);
  all.resize(k);
  return all;
}

std::string CheckSlateScores(const RefModel& model, size_t user, size_t k,
                             const std::vector<SlateEntry>& slate) {
  if (user >= model.num_users) return "user out of range";
  const size_t want = std::min(k, model.num_items);
  if (slate.size() != want) {
    return Format("slate has %.0f entries, expected %.0f",
                  static_cast<double>(slate.size()),
                  static_cast<double>(want));
  }
  std::vector<uint32_t> ids;
  ids.reserve(slate.size());
  for (size_t j = 0; j < slate.size(); ++j) {
    const SlateEntry& e = slate[j];
    if (e.item >= model.num_items) return "item id out of range";
    const double ref = RefScore(model, user, e.item);
    if (!ScoreClose(e.score, ref)) {
      return Format("served score %.17g differs from reference %.17g",
                    e.score, ref);
    }
    if (j > 0 && !RanksBefore(slate[j - 1], e)) {
      return Format("slate out of order at position %.0f (item %.0f)",
                    static_cast<double>(j), static_cast<double>(e.item));
    }
    ids.push_back(e.item);
  }
  std::sort(ids.begin(), ids.end());
  if (std::adjacent_find(ids.begin(), ids.end()) != ids.end()) {
    return "duplicate item in slate";
  }
  return "";
}

std::string CheckSlateComplete(const RefModel& model, size_t user, size_t k,
                               const std::vector<SlateEntry>& slate) {
  std::string err = CheckSlateScores(model, user, k, slate);
  if (!err.empty() || slate.empty()) return err;
  const double kth = RefScore(model, user, slate.back().item);
  std::vector<bool> in_slate(model.num_items, false);
  for (const SlateEntry& e : slate) in_slate[e.item] = true;
  for (size_t i = 0; i < model.num_items; ++i) {
    if (in_slate[i]) continue;
    const double s = RefScore(model, user, i);
    if (s > kth && !ScoreClose(s, kth)) {
      return Format("item %.0f scores %.17g, above the k-th score",
                    static_cast<double>(i), s);
    }
  }
  return "";
}

double MannWhitneyAuc(const std::vector<double>& score,
                      const std::vector<bool>& positive) {
  const size_t n = score.size();
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return score[a] < score[b]; });
  // Sum of the positives' mid-ranks (1-based), tied groups averaged.
  double rank_sum = 0.0;
  double n_pos = 0.0;
  for (size_t lo = 0; lo < n;) {
    size_t hi = lo;
    while (hi + 1 < n && score[order[hi + 1]] == score[order[lo]]) ++hi;
    const double mid_rank = 0.5 * static_cast<double>(lo + hi) + 1.0;
    for (size_t j = lo; j <= hi; ++j) {
      if (positive[order[j]]) {
        rank_sum += mid_rank;
        n_pos += 1.0;
      }
    }
    lo = hi + 1;
  }
  const double n_neg = static_cast<double>(n) - n_pos;
  if (n_pos == 0.0 || n_neg == 0.0) return std::nan("");
  return (rank_sum - n_pos * (n_pos + 1.0) / 2.0) / (n_pos * n_neg);
}

std::string CheckAucMatches(double own_auc, double library_auc) {
  if (!(std::fabs(own_auc - library_auc) <= kAucTol)) {
    return Format("library AUC %.17g differs from own AUC %.17g",
                  library_auc, own_auc);
  }
  return "";
}

std::string CheckAucAboveChance(double auc) {
  if (!(auc > 0.5)) return Format("AUC %.6f is not above %.1f", auc, 0.5);
  return "";
}

std::string CheckPredictions(const std::vector<double>& predictions) {
  for (size_t i = 0; i < predictions.size(); ++i) {
    const double p = predictions[i];
    if (!std::isfinite(p) || p <= 0.0 || p >= 1.0) {
      return Format("prediction %.0f is %.17g, outside (0, 1)",
                    static_cast<double>(i), p);
    }
  }
  return "";
}

std::string CheckDisentangleFall(const std::vector<double>& history) {
  if (history.size() < 2) return "disentangle history has < 2 epochs";
  const double first = history.front();
  const double last = history.back();
  if (!std::isfinite(first) || !std::isfinite(last) || last < 0.0 ||
      !(first >= kMinDisentangleFall * last)) {
    return Format("disentangle loss fell from %.6g to %.6g, less than 10x",
                  first, last);
  }
  return "";
}

std::string CheckCountsMatch(const RungCounts& own, const RungCounts& server) {
  const struct {
    const char* name;
    uint64_t own, server;
  } rows[] = {{"requests", own.requests, server.requests},
              {"full", own.full, server.full},
              {"cached", own.cached, server.cached},
              {"popularity", own.popularity, server.popularity},
              {"shed", own.shed, server.shed}};
  for (const auto& row : rows) {
    if (row.own != row.server) {
      return std::string(row.name) +
             Format(": benchmark counted %.0f, server reports %.0f",
                    static_cast<double>(row.own),
                    static_cast<double>(row.server));
    }
  }
  return "";
}

}  // namespace perfbench
