// Repository benchmark binary. Usage:
//
//   mfn_perfbench --workload <train|superres|serve|dist_train>
//                 --seed N --seconds S --trace <0|1> [--work-dir DIR]
//
// Prints a host fingerprint line, then, as the last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}. Exits non-zero when a
// workload throws. perfbench/run.py builds this binary and forwards to it.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "backend/simd.h"
#include "common/failpoint.h"
#include "threading/thread_pool.h"
#include "trace.h"
#include "workloads.h"

namespace {

using namespace perfbench;

std::string json_escape(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) o += c;
  }
  return o;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  return "unknown";
}

std::string env_or(const char* name, const char* dflt) {
  const char* v = std::getenv(name);
  return v != nullptr ? v : dflt;
}

/// Results are comparable only when every field here matches.
void print_fingerprint() {
  std::printf(
      "{\"fingerprint\":{\"cpu\":\"%s\",\"nproc\":%ld,\"simd\":\"%s\","
      "\"mfn_num_threads\":\"%s\",\"pool_threads\":%d,\"build\":\"%s\","
      "\"mfn_force_scalar\":\"%s\",\"mfn_failpoints\":\"%s\"}}\n",
      json_escape(cpu_model()).c_str(), sysconf(_SC_NPROCESSORS_ONLN),
      mfn::simd::active_tier(),
      json_escape(env_or("MFN_NUM_THREADS", "")).c_str(),
      mfn::ThreadPool::global().size(), PERFBENCH_BUILD_TYPE,
      json_escape(env_or("MFN_FORCE_SCALAR", "")).c_str(),
      json_escape(env_or("MFN_FAILPOINTS", "")).c_str());
}

void print_result(const Outcome& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", r.metrics[i].name.c_str(),
                r.metrics[i].value, r.metrics[i].unit.c_str());
  std::printf("}}\n");
  std::fflush(stdout);
}

int usage() {
  std::fprintf(stderr,
               "usage: mfn_perfbench --workload "
               "<train|superres|serve|dist_train> --seed N --seconds S "
               "--trace <0|1> [--work-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "dist-rank") == 0)
    return perfbench::run_dist_rank(argc, argv);

  Options opt;
  opt.self = argv[0];
  opt.work_dir = ".bench_build/work";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") opt.workload = v;
    else if (k == "--seed") opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") opt.seconds = std::atof(v.c_str());
    else if (k == "--trace") opt.trace = v == "1";
    else if (k == "--work-dir") opt.work_dir = v;
    else return usage();
  }
  if (opt.workload.empty() || opt.seconds <= 0.0) return usage();

  // Pool threads plus the calling thread fill the cores without
  // oversubscribing them (the library default, one pool thread per core,
  // leaves five compute threads on four cores and swings run to run).
  // train leaves one more core free: at its model size two pool threads
  // train as fast as three (65-68 vs 63-68 patches/s on four cores), and
  // its runs swung less. An explicit MFN_NUM_THREADS wins; the fingerprint
  // records it.
  const long cores = sysconf(_SC_NPROCESSORS_ONLN);
  const long spare = opt.workload == "train" ? 2 : 1;
  setenv("MFN_NUM_THREADS",
         std::to_string(cores > spare ? cores - spare : 1).c_str(),
         /*overwrite=*/0);

  try {
    // Injected slowdowns for the self-check come in through the
    // environment (MFN_FAILPOINTS), exactly as for the mfn CLI.
    mfn::failpoint::arm_from_env();
    std::filesystem::create_directories(opt.work_dir);
    print_fingerprint();
    trace::set_enabled(opt.trace);
    Outcome r;
    if (opt.workload == "train") r = run_train(opt);
    else if (opt.workload == "superres") r = run_superres(opt);
    else if (opt.workload == "serve") r = run_serve(opt);
    else if (opt.workload == "dist_train") r = run_dist_train(opt);
    else return usage();
    if (opt.trace) {
      const std::string path = opt.work_dir + "/trace-" + opt.workload +
                               "-" + std::to_string(opt.seed) + ".json";
      if (!trace::write_chrome_json(path))
        std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
    }
    print_result(r);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
