// dist_train: multi-process data-parallel training over TCP on loopback.
//
// Each launch starts `world` copies of this executable as ranks (2 compute
// threads each: one pool thread plus the calling thread) running
// dist::run_train_worker on dist_tiny_model_config. Worlds 1 and 2 each
// run at two step counts, alternating, and rank 0 times its own
// run_train_worker call; the steady-state step time is the slope between
// the two step counts, so process start, model init and rendezvous cancel
// out. Set-up time is the wall time of a one-step world-2 job. The traced run also times
// ring_allreduce_average on the model's gradient size between two ranks.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sched.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

#include "common/error.h"
#include "common/failpoint.h"
#include "distributed/elastic.h"
#include "distributed/worker.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace mfn;

constexpr int kStepsShort = 100, kStepsLong = 1000;
constexpr int kAllreduceReps = 50;
constexpr double kLaunchTimeoutS = 60.0;

int free_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  MFN_CHECK(fd >= 0, "socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  const bool ok =
      ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0;
  ::close(fd);
  MFN_CHECK(ok, "could not pick a free port");
  return ntohs(addr.sin_port);
}

/// Start `world` rank processes with `args` (plus --rank), wait for all of
/// them, and kill the rest if one fails or the launch times out. Every
/// started process is reaped before this returns.
void launch(const Options& opt, int world, std::vector<std::string> args) {
  std::vector<pid_t> pids;
  for (int rank = 0; rank < world; ++rank) {
    std::vector<std::string> argv_s = {opt.self, "dist-rank", "--rank",
                                       std::to_string(rank)};
    argv_s.insert(argv_s.end(), args.begin(), args.end());
    std::vector<char*> argv_c;
    for (auto& s : argv_s) argv_c.push_back(s.data());
    argv_c.push_back(nullptr);
    const pid_t pid = ::fork();
    MFN_CHECK(pid >= 0, "fork failed");
    if (pid == 0) {
      // Rank r runs on cores 2r and 2r+1, so both worlds give each rank
      // the same two cores and the placement does not vary run to run.
      const long cores = sysconf(_SC_NPROCESSORS_ONLN);
      cpu_set_t set;
      CPU_ZERO(&set);
      for (int c = 2 * rank; c < 2 * rank + 2; ++c) CPU_SET(int(c % cores), &set);
      sched_setaffinity(0, sizeof(set), &set);
      ::execv(opt.self.c_str(), argv_c.data());
      std::_Exit(127);
    }
    pids.push_back(pid);
  }
  const auto t0 = Clock::now();
  std::size_t left = pids.size();
  bool failed = false;
  while (left > 0) {
    for (pid_t& pid : pids) {
      if (pid <= 0) continue;
      int status = 0;
      const pid_t r = ::waitpid(pid, &status, WNOHANG);
      if (r == pid) {
        failed = failed || !WIFEXITED(status) || WEXITSTATUS(status) != 0;
        pid = -1;
        --left;
      }
    }
    if (left > 0 && (failed || s_since(t0) > kLaunchTimeoutS)) {
      for (pid_t pid : pids)
        if (pid > 0) ::kill(pid, SIGKILL);
      for (pid_t& pid : pids)
        if (pid > 0) ::waitpid(pid, nullptr, 0), pid = -1;
      failed = true;
      left = 0;
    }
    if (left > 0) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  MFN_CHECK(!failed, "a dist_train rank failed or timed out");
}

struct RankReport {
  double wall_ms = 0.0;
  int final_world = 0, excised = 0, retries = 0, digest_mismatches = 0;
  std::vector<double> losses;
};

RankReport read_report(const std::string& path) {
  std::ifstream in(path);
  RankReport r;
  std::size_t n = 0;
  MFN_CHECK(in >> r.wall_ms >> r.final_world >> r.excised >> r.retries >>
                r.digest_mismatches >> n,
            "unreadable rank report " << path);
  r.losses.resize(n);
  for (double& l : r.losses) in >> l;
  MFN_CHECK(bool(in), "truncated rank report " << path);
  return r;
}

std::string arg(int argc, char** argv, const char* name, const char* dflt) {
  for (int i = 2; i + 1 < argc; i += 2)
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  return dflt;
}

/// Step time from consecutive short/long launch pairs (so a burst of host
/// noise moves one pair, not the figure): the median over pairs of the
/// slope between the two step counts, and the median intercept.
struct Fit {
  double step_ms = 0.0, intercept_ms = 0.0;
  std::vector<double> slopes;
};

Fit fit(const std::vector<double>& short_ms, const std::vector<double>& long_ms) {
  Fit f;
  std::vector<double> intercepts;
  for (std::size_t i = 0; i < std::min(short_ms.size(), long_ms.size()); ++i) {
    const double slope = (long_ms[i] - short_ms[i]) / double(kStepsLong - kStepsShort);
    f.slopes.push_back(slope);
    intercepts.push_back(short_ms[i] - slope * kStepsShort);
  }
  f.step_ms = median(f.slopes);
  f.intercept_ms = median(intercepts);
  return f;
}

}  // namespace

int run_dist_rank(int argc, char** argv) {
  // Two compute threads per rank: one pool thread plus the caller.
  setenv("MFN_NUM_THREADS", "1", 1);
  try {
    failpoint::arm_from_env();
    const std::string mode = arg(argc, argv, "--mode", "train");
    const int rank = std::atoi(arg(argc, argv, "--rank", "0").c_str());
    const std::string out = arg(argc, argv, "--out", "");
    if (mode == "allreduce") {
      // Two ranks on fixed ports form a ring and time the allreduce.
      const int ports[2] = {std::atoi(arg(argc, argv, "--port", "0").c_str()),
                            std::atoi(arg(argc, argv, "--port1", "0").c_str())};
      const std::int64_t count =
          std::atoll(arg(argc, argv, "--count", "0").c_str());
      dist::TcpChannelConfig cc;
      cc.listen_port = ports[rank];
      dist::TcpChannel channel(rank, cc);
      dist::Ring ring;
      ring.epoch = 1;
      ring.members = {{0, ports[0]}, {1, ports[1]}};
      dist::establish_ring(channel, ring, 10000);
      std::vector<float> data(static_cast<std::size_t>(count), 1.0f);
      std::vector<double> ms;
      for (int r = 0; r < kAllreduceReps; ++r) {
        const auto t0 = Clock::now();
        dist::ring_allreduce_average(channel, ring, data.data(), count, 10000);
        ms.push_back(1e3 * s_since(t0));
      }
      if (rank == 0) {
        std::ofstream os(out);
        os << median(ms) << "\n";
      }
      return 0;
    }
    dist::DistTrainConfig cfg;
    cfg.rank = rank;
    cfg.world = std::atoi(arg(argc, argv, "--world", "1").c_str());
    cfg.port = std::atoi(arg(argc, argv, "--port", "0").c_str());
    cfg.steps = std::atoi(arg(argc, argv, "--steps", "16").c_str());
    cfg.seed = std::strtoull(arg(argc, argv, "--seed", "0").c_str(), nullptr, 10);
    const auto t0 = Clock::now();
    const dist::DistTrainResult r = dist::run_train_worker(cfg);
    const double wall_ms = 1e3 * s_since(t0);
    if (rank == 0) {
      std::ofstream os(out);
      os.precision(17);
      os << wall_ms << " " << r.final_world << " " << r.excised_ranks.size()
         << " " << r.retries << " " << r.digest_mismatches << " "
         << r.step_loss.size() << "\n";
      for (double l : r.step_loss) os << l << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench dist-rank: %s\n", e.what());
    return 1;
  }
}

Outcome run_dist_train(const Options& opt) {
  Outcome out;
  const std::string seed = std::to_string(derive_seed(opt.seed, 20) % 1000000);
  std::map<int, std::vector<double>> short_ms, long_ms;     // by world
  std::vector<double> setup_s;
  std::map<std::pair<int, int>, std::vector<double>> losses;  // (world, steps)
  int retries = 0, mismatches = 0;
  const auto start = Clock::now();
  {
    trace::Span root("dist_train");
    for (int rep = 0; rep < 2 || s_since(start) < opt.seconds; ++rep) {
      // A one-step world-2 job: start, rendezvous, one step, digest audit,
      // exit. Its wall time is this workload's set-up time.
      // World 1's step time swings more launch to launch than world 2's,
      // so it gets two pairs per repetition.
      for (int world : {2, 1, 1})
        for (int steps : {1, kStepsShort, kStepsLong}) {
          if (steps == 1 && world == 1) continue;
          const std::string path = opt.work_dir + "/dist-rank0.txt";
          std::remove(path.c_str());
          const auto t0 = Clock::now();
          {
            trace::Span sp("distributed.worker.launch");
            launch(opt, world,
                   {"--world", std::to_string(world), "--port",
                    std::to_string(free_port()), "--steps",
                    std::to_string(steps), "--seed", seed, "--out", path});
          }
          if (steps == 1) setup_s.push_back(s_since(t0));
          const RankReport r = read_report(path);
          out.attempted++;
          const bool ok = r.final_world == world && r.excised == 0 &&
                          r.digest_mismatches == 0 &&
                          int(r.losses.size()) == steps;
          bool finite = true;
          for (double l : r.losses) finite = finite && std::isfinite(l);
          out.check(ok, "rank excised, digest mismatch or missing steps");
          out.check(finite, "non-finite dist_train loss");
          if (!ok || !finite) out.failed++;
          auto& seen = losses[{world, steps}];
          if (world == 2 && !seen.empty())
            out.check(seen == r.losses,
                      "world-2 loss sequence differs between identical runs");
          seen = r.losses;
          retries += r.retries;
          mismatches += r.digest_mismatches;
          if (steps != 1)
            (steps == kStepsShort ? short_ms : long_ms)[world].push_back(r.wall_ms);
        }
    }
  }
  const Fit w1 = fit(short_ms[1], long_ms[1]), w2 = fit(short_ms[2], long_ms[2]);
  out.check(w1.step_ms > 0 && w2.step_ms > 0, "non-positive fitted step time");

  if (!opt.trace) {
    out.add("setup_s", median(setup_s), "s");
    out.add("peak_rss_mib", peak_rss_mib(), "MiB");
    out.add("latency_ms", w2.step_ms, "ms");
    out.add("throughput_per_s",
            2.0 * dist::DistTrainConfig{}.batch_size * 1e3 / w2.step_ms, "1/s");
    return out;
  }

  Rng init(0);
  core::MeshfreeFlowNet probe(dist::dist_tiny_model_config(), init);
  const std::int64_t count = probe.num_parameters();
  const std::string path = opt.work_dir + "/dist-allreduce.txt";
  {
    trace::Span sp("distributed.elastic.probe");
    launch(opt, 2,
           {"--mode", "allreduce", "--port", std::to_string(free_port()),
            "--port1", std::to_string(free_port()), "--count",
            std::to_string(count), "--out", path});
  }
  double allreduce_ms = 0.0;
  std::ifstream(path) >> allreduce_ms;
  add_layer_times(out, "dist_train", double(out.attempted),
                  {"distributed.elastic.probe"});
  out.add("distributed.worker.step_ms.w1", w1.step_ms, "ms");
  out.add("distributed.worker.step_ms.w2", w2.step_ms, "ms");
  // World-2 patches/s over twice world-1 patches/s.
  out.add("distributed.weak_scaling_eff", w1.step_ms / w2.step_ms, "ratio");
  out.add("distributed.worker.setup_ms", w2.intercept_ms, "ms");
  out.add("distributed.worker.retries", retries, "count");
  out.add("distributed.worker.digest_mismatch", mismatches, "count");
  out.add("distributed.elastic.allreduce_ms", allreduce_ms, "ms");
  // Ring allreduce at world 2: each rank sends half the vector in the
  // reduce-scatter and half in the allgather.
  out.add("distributed.elastic.allreduce_bytes", double(count) * sizeof(float),
          "bytes");
  return out;
}

}  // namespace perfbench
