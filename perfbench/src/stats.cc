#include "stats.h"

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return QuantileOfSorted(values.data(), values.size(), q);
}

}  // namespace perfbench
