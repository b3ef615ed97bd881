#ifndef PERFBENCH_MAPPED_ARRAY_H_
#define PERFBENCH_MAPPED_ARRAY_H_

// A fixed-capacity array in its own anonymous mapping. The benchmark keeps
// its timing buffers here rather than on the malloc heap: glibc's heap
// layout and dynamic mmap threshold depend on every earlier allocation,
// and training speed depends on them (README.md, "Allocator regime"), so
// the benchmark must not add to the history the program sees.

#include <sys/mman.h>

#include <cstddef>
#include <new>
#include <type_traits>

namespace perfbench {

template <class T>
class MappedArray {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  /// `prefault` maps every page up front, so the array's share of the
  /// process's RSS does not grow with the number of elements stored.
  explicit MappedArray(size_t capacity, bool prefault = false)
      : capacity_(capacity) {
    if (capacity_ == 0) return;
    void* p = mmap(nullptr, capacity_ * sizeof(T), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | (prefault ? MAP_POPULATE : 0),
                   -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    data_ = static_cast<T*>(p);
  }
  ~MappedArray() {
    if (data_ != nullptr) munmap(data_, capacity_ * sizeof(T));
  }
  MappedArray(const MappedArray&) = delete;
  MappedArray& operator=(const MappedArray&) = delete;

  /// False (and nothing stored) when full.
  bool push_back(const T& value) {
    if (size_ == capacity_) return false;
    data_[size_++] = value;
    return true;
  }
  T* data() { return data_; }
  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }
  size_t size() const { return size_; }
  size_t capacity() const { return capacity_; }

 private:
  T* data_ = nullptr;
  size_t size_ = 0;
  size_t capacity_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_MAPPED_ARRAY_H_
