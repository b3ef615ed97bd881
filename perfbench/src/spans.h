#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

// The benchmark's own spans, recorded around calls into the library's
// public surface (never inside it). Kept in memory and written as Chrome
// trace-event JSON when the run ends. Recording is single-threaded: only
// the thread that drives a phase records spans.

#include <cstdint>
#include <string>

#include "mapped_array.h"

namespace perfbench {

/// Microseconds on the steady clock since process start.
double NowUs();

class SpanLog {
 public:
  /// Fixed-size buffer; spans beyond `capacity` are counted as dropped
  /// rather than growing it mid-measurement. Capacity 0 disables it.
  explicit SpanLog(size_t capacity = 0) : spans_(capacity) {}

  bool enabled() const { return spans_.capacity() > 0; }

  /// Records a finished span and returns its id (0 when disabled or
  /// full). `parent` is the id of the span that caused it, or 0.
  uint32_t Add(const char* name, double start_us, double end_us,
               uint32_t parent = 0);

  /// Opens a span whose children are recorded before it ends; Close sets
  /// its end. Returns 0 when disabled or full (Close(0, …) is a no-op).
  uint32_t Open(const char* name, double start_us, uint32_t parent = 0) {
    return Add(name, start_us, start_us, parent);
  }
  void Close(uint32_t id, double end_us) {
    if (id != 0) spans_[id - 1].dur_us = end_us - spans_[id - 1].start_us;
  }

  /// Writes the spans as Chrome trace-event JSON ("X" events; args carry
  /// id and parent). Returns false when the file cannot be written.
  bool WriteJson(const std::string& path) const;

  size_t dropped() const { return dropped_; }

 private:
  struct Span {
    const char* name;
    double start_us;
    double dur_us;
    uint32_t id;
    uint32_t parent;
  };
  MappedArray<Span> spans_;
  size_t dropped_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
