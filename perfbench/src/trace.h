// In-memory span recorder for the traced benchmark run.
//
// Spans are opened by the benchmark around its calls into the library's
// public functions (the library itself is not instrumented). Disabled, a
// Span costs one relaxed atomic load. Enabled, each span appends one record
// under a mutex; parents are tracked per thread, so a span's self time is
// its duration minus the durations of the spans nested directly inside it
// on the same thread. Records stay in memory until write_chrome_json().
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common.h"

namespace perfbench::trace {

void set_enabled(bool on);
bool enabled();

/// RAII span on the calling thread.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int index_ = -1;
};

/// A finished interval recorded after the fact (e.g. one served request,
/// from its due time to its completion), tagged with a request id. It is
/// not part of any thread's nesting and has no self-time accounting.
void record_async(const char* name, Clock::time_point t0,
                  Clock::time_point t1, std::uint64_t id);

struct LayerTime {
  double self_ms = 0.0;
  double total_ms = 0.0;
  std::uint64_t calls = 0;
};

/// Per-span-name totals over every nested (non-async) span recorded so far.
std::map<std::string, LayerTime> summarize();

/// Chrome trace-event JSON (loads in Perfetto / chrome://tracing).
bool write_chrome_json(const std::string& path);

}  // namespace perfbench::trace
