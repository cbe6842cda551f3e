#include "trace.h"

#include <atomic>
#include <cstdio>
#include <mutex>
#include <thread>
#include <vector>

namespace perfbench::trace {

namespace {

struct Record {
  const char* name = nullptr;
  int parent = -1;  // index of the enclosing span on the same thread
  std::uint32_t tid = 0;
  std::uint64_t async_id = 0;
  bool async = false;
  Clock::time_point t0, t1;
};

std::atomic<bool> g_enabled{false};
std::mutex g_mu;
std::vector<Record> g_records;  // guarded by g_mu
std::atomic<std::uint32_t> g_next_tid{0};
const Clock::time_point g_origin = Clock::now();

struct ThreadState {
  std::uint32_t tid = g_next_tid.fetch_add(1);
  std::vector<int> stack;  // open span indices, innermost last
};
thread_local ThreadState t_state;

double us_since_origin(Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - g_origin).count();
}

}  // namespace

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

Span::Span(const char* name) {
  if (!enabled()) return;
  Record r;
  r.name = name;
  r.parent = t_state.stack.empty() ? -1 : t_state.stack.back();
  r.tid = t_state.tid;
  {
    std::lock_guard<std::mutex> lk(g_mu);
    index_ = static_cast<int>(g_records.size());
    r.t0 = Clock::now();
    g_records.push_back(r);
  }
  t_state.stack.push_back(index_);
}

Span::~Span() {
  if (index_ < 0) return;
  const Clock::time_point t1 = Clock::now();
  t_state.stack.pop_back();
  std::lock_guard<std::mutex> lk(g_mu);
  g_records[static_cast<std::size_t>(index_)].t1 = t1;
}

void record_async(const char* name, Clock::time_point t0,
                  Clock::time_point t1, std::uint64_t id) {
  if (!enabled()) return;
  Record r;
  r.name = name;
  r.tid = t_state.tid;
  r.async = true;
  r.async_id = id;
  r.t0 = t0;
  r.t1 = t1;
  std::lock_guard<std::mutex> lk(g_mu);
  g_records.push_back(r);
}

std::map<std::string, LayerTime> summarize() {
  std::lock_guard<std::mutex> lk(g_mu);
  std::vector<double> child_ms(g_records.size(), 0.0);
  for (const Record& r : g_records)
    if (!r.async && r.parent >= 0)
      child_ms[static_cast<std::size_t>(r.parent)] += ms_between(r.t0, r.t1);
  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < g_records.size(); ++i) {
    const Record& r = g_records[i];
    if (r.async) continue;
    LayerTime& lt = out[r.name];
    const double d = ms_between(r.t0, r.t1);
    lt.total_ms += d;
    lt.self_ms += d - child_ms[i];
    lt.calls++;
  }
  return out;
}

bool write_chrome_json(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lk(g_mu);
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (std::size_t i = 0; i < g_records.size(); ++i) {
    const Record& r = g_records[i];
    const double ts = us_since_origin(r.t0);
    const double dur = us_since_origin(r.t1) - ts;
    if (r.async)
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"b\",\"cat\":\"request\","
                   "\"id\":%llu,\"pid\":1,\"tid\":%u,\"ts\":%.3f},\n"
                   "{\"name\":\"%s\",\"ph\":\"e\",\"cat\":\"request\","
                   "\"id\":%llu,\"pid\":1,\"tid\":%u,\"ts\":%.3f}",
                   i ? "," : "", r.name,
                   static_cast<unsigned long long>(r.async_id), r.tid, ts,
                   r.name, static_cast<unsigned long long>(r.async_id), r.tid,
                   ts + dur);
    else
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f}\n",
                   i ? "," : "", r.name, r.tid, ts, dur);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench::trace
