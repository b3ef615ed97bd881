#include "spans.h"

#include <unistd.h>

#include <chrono>
#include <cstdio>

namespace perfbench {
namespace {

const std::chrono::steady_clock::time_point kProcessStart =
    std::chrono::steady_clock::now();

}  // namespace

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - kProcessStart)
      .count();
}

uint32_t SpanLog::Add(const char* name, double start_us, double end_us,
                      uint32_t parent) {
  const uint32_t id = static_cast<uint32_t>(spans_.size() + 1);
  if (!spans_.push_back({name, start_us, end_us - start_us, id, parent})) {
    if (enabled()) ++dropped_;
    return 0;
  }
  return id;
}

bool SpanLog::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int pid = static_cast<int>(::getpid());
  std::fprintf(f, "{\"traceEvents\":[");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,\"parent\":%u}}",
                 i == 0 ? "" : ",", s.name, pid, pid, s.start_us, s.dur_us,
                 s.id, s.parent);
  }
  std::fprintf(f, "\n],\"otherData\":{\"dropped\":%zu}}\n", dropped_);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
