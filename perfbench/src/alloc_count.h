#ifndef PERFBENCH_ALLOC_COUNT_H_
#define PERFBENCH_ALLOC_COUNT_H_

// Counts of global operator new calls, from the replacement operators in
// alloc_count.cc. Counting is off unless a traced run turns it on, so
// untraced runs pay one relaxed load per allocation.

#include <cstdint>

namespace perfbench {

struct AllocCount {
  uint64_t calls = 0;
  uint64_t bytes = 0;
};

void EnableAllocCounting();
AllocCount ReadAllocCount();

}  // namespace perfbench

#endif  // PERFBENCH_ALLOC_COUNT_H_
