// serve: open-loop Poisson traffic from one generator thread against an
// InferenceEngine with two tenants, over a fixed ladder of rates.
//
//  - tenant 0 "hot": a working set that fits its cache share, so requests
//    are decode-bound on DecodePlan replay; it is hot-reloaded from a
//    checkpoint at a seeded point of every nominal-rate slice (load,
//    canary, cache and plan invalidation, re-encodes, recompiles), writes
//    beside the reads, so every slice carries the same disruption.
//  - tenant 1 "churn": Zipf traffic over a working set several times its
//    cache budget, which drives encodes and evictions.
//
// One generator thread schedules the arrivals, two submitter threads call
// InferenceEngine::query (and run the reloads), and a collector polls the
// futures. Every request is timed from the moment it was due, not from
// when a submitter got round to it, so a generator stall or an encode on
// the submitting thread shows up as latency (no coordinated omission);
// how late requests were handed to the engine is reported separately. A
// request that fails (deadline, shed, rejected, error) counts as an
// infinitely slow one in every percentile.
//
// Capacity is measured apart from the tail: closed-loop windows, where the
// two submitters each keep a fixed number of requests outstanding, are
// interleaved with the open-loop ones, and their median served rate is the
// end-to-end throughput. Under open-loop overload the engine spends work
// on requests that then expire, so served rate past saturation collapses
// (1900-4800 rps at 5500-8000 offered) instead of reading capacity.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <limits>
#include <map>
#include <mutex>
#include <thread>

#include "autodiff/variable.h"
#include "core/checkpoint.h"
#include "core/decode_plan.h"
#include "serve/engine.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace mfn;
using serve::TenantId;

constexpr TenantId kHot = 0, kChurn = 1;
constexpr std::int64_t kQueries = 256;     // query points per request
constexpr int kHotPatches = 24;            // fits the hot cache share
constexpr std::size_t kHotCacheLatents = 48;
constexpr int kChurnPatches = 512;         // 16x the churn cache budget
constexpr std::size_t kChurnCacheLatents = 32;
constexpr double kChurnZipf = 1.0;
constexpr double kHotShare = 0.5;          // of requests
constexpr int kCoordSets = 64;
// Latency limit on p99 (from due time) that defines the capacity figure,
// and the per-request deadline past which the engine fails a request.
constexpr double kSloMs = 25.0;
constexpr double kDeadlineMs = 100.0;
constexpr double kNominalRps = 1000.0;
// Fixed ladder of offered rates (requests/s) for the capacity figure; it
// reaches well past the SLO rate on a 4-core host.
constexpr double kLadder[] = {2000, 3000, 4000, 4500, 5000,
                              5500, 6000, 6500, 7000, 8000};
constexpr double kWarmupS = 0.2;  // unmeasured prefix of every window
constexpr int kSetupReps = 5;
constexpr int kCheckEvery = 37;  // every n-th request is verified
// Threads calling InferenceEngine::query (it encodes a missed latent on the
// calling thread). With the generator and the collector, the load uses
// four threads, one per core.
constexpr int kSubmitters = 2;
constexpr int kSweepUs = 100;  // collector polling period
constexpr std::size_t kSlices = 8;  // nominal-rate slices
// Closed-loop capacity windows, and requests each submitter keeps
// outstanding in them.
constexpr std::size_t kClosedWindows = 8;
constexpr std::size_t kClosedDepth = 16;

Tensor random_coords(Rng& rng) {
  Tensor c(Shape{kQueries, 3});
  for (std::int64_t i = 0; i < kQueries; ++i) {
    c.at({i, 0}) = static_cast<float>(rng.uniform(0.0, 3.0));
    c.at({i, 1}) = static_cast<float>(rng.uniform(0.0, 7.0));
    c.at({i, 2}) = static_cast<float>(rng.uniform(0.0, 7.0));
  }
  return c;
}

/// Zipf(s) cumulative weights over n ranks.
std::vector<double> zipf_cdf(int n, double s) {
  std::vector<double> cdf(static_cast<std::size_t>(n));
  double acc = 0.0;
  for (int i = 0; i < n; ++i) cdf[std::size_t(i)] = acc += 1.0 / std::pow(i + 1, s);
  for (double& c : cdf) c /= acc;
  return cdf;
}

struct Request {
  double due_s = 0.0;  // offset from the window start
  TenantId tenant = kHot;
  int patch = 0;
  int coords = 0;
};

struct Sample {  // a response kept for verification
  TenantId tenant;
  int patch, coords;
  std::uint64_t version;
  Tensor response;
};

struct Window {
  double rate = 0.0;
  std::size_t attempted = 0;
  std::vector<double> latency_ms;  // +inf for failures
  std::vector<double> lag_ms;      // generator lateness
  std::uint64_t failed = 0;
  std::size_t backlog_at_end = 0;  // outstanding when the last was sent
  std::vector<Sample> samples;
  std::vector<double> reload_ms;
};

class ServeBench {
 public:
  explicit ServeBench(const Options& opt) : opt_(opt) {}

  /// Build models, checkpoints, the engine, and warm it. Returns seconds.
  double setup() {
    const auto t0 = Clock::now();
    engine_.reset();
    Rng rng(derive_seed(opt_.seed, 10));
    const core::MFNConfig cfg = bench::bench_model_config();
    Rng ia(derive_seed(opt_.seed, 11)), ib(derive_seed(opt_.seed, 12)),
        ic(derive_seed(opt_.seed, 13));
    auto hot_a = std::make_unique<core::MeshfreeFlowNet>(cfg, ia);
    core::MeshfreeFlowNet hot_b(cfg, ib);
    auto churn = std::make_unique<core::MeshfreeFlowNet>(cfg, ic);
    ckpt_[0] = opt_.work_dir + "/serve_hot_a.ckpt";
    ckpt_[1] = opt_.work_dir + "/serve_hot_b.ckpt";
    ckpt_churn_ = opt_.work_dir + "/serve_churn.ckpt";
    {
      const auto s0 = Clock::now();
      optim::Adam adam(hot_a->parameters());
      core::save_checkpoint(ckpt_[0], *hot_a, adam, {});
      core::save_checkpoint(ckpt_[1], hot_b, adam, {});
      core::save_checkpoint(ckpt_churn_, *churn, adam, {});
      save_ms.push_back(1e3 * s_since(s0) / 3.0);
    }
    {
      // The engine prepares every snapshot it publishes; time one prepare
      // of the same architecture on its own.
      Rng ip(derive_seed(opt_.seed, 14));
      core::MeshfreeFlowNet probe(cfg, ip);
      const auto s0 = Clock::now();
      auto prepared = core::PreparedSnapshot::prepare(probe, 1);
      prepare_ms.push_back(1e3 * s_since(s0));
    }

    serve::InferenceEngineConfig ec;
    ec.cache_bytes = (kHotCacheLatents + kChurnCacheLatents) * latent_bytes();
    ec.batcher.admission = serve::AdmissionPolicy::kShedOldest;
    ec.batcher.max_queue_rows = 1024 * kQueries;
    engine_ = std::make_unique<serve::InferenceEngine>(std::move(hot_a), ec);
    serve::TenantConfig tc;
    tc.name = "churn";
    tc.cache_bytes = kChurnCacheLatents * latent_bytes();
    engine_->add_tenant(kChurn, std::move(churn), tc);
    // The hot tenant takes the rest of the pool; its working set must fit.
    hot_budget_ok_ = engine_->cache_stats(kHot).byte_budget >=
                     kHotPatches * latent_bytes();

    patches_.assign(2, {});
    for (int i = 0; i < kHotPatches; ++i)
      patches_[kHot].push_back(Tensor::randn(Shape{1, 4, 4, 8, 8}, rng, 0.5f));
    for (int i = 0; i < kChurnPatches; ++i)
      patches_[kChurn].push_back(Tensor::randn(Shape{1, 4, 4, 8, 8}, rng, 0.5f));
    coords_.clear();
    for (int i = 0; i < kCoordSets; ++i) coords_.push_back(random_coords(rng));
    churn_cdf_ = zipf_cdf(kChurnPatches, kChurnZipf);

    // Warm: hot latents cached, plans for the request shape compiled.
    for (int i = 0; i < kHotPatches; ++i)
      engine_->query_sync(kHot, pid(kHot, i), patches_[kHot][std::size_t(i)],
                          coords_[0]);
    for (int i = 0; i < int(kChurnCacheLatents); ++i)
      engine_->query_sync(kChurn, pid(kChurn, i),
                          patches_[kChurn][std::size_t(i)], coords_[0]);
    hot_version_ckpt_.assign(1, 0);  // version 1 = checkpoint a
    return s_since(t0);
  }

  /// Closed-loop window: kSubmitters threads each keep kClosedDepth
  /// requests of the open loop's mix outstanding, sending the next as soon
  /// as their oldest returns, for `warmup` + `seconds`. Returns requests
  /// served per second over the last `seconds`.
  double run_closed(double warmup, double seconds, std::uint64_t stream,
                    Outcome& out) {
    const Clock::time_point t_measure =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(warmup));
    const Clock::time_point t_end =
        t_measure + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(seconds));
    std::atomic<std::uint64_t> served{0}, attempted{0}, failed{0};
    std::vector<std::thread> submitters;
    for (int k = 0; k < kSubmitters; ++k)
      submitters.emplace_back([&, k] {
        trace::Span root("serve");
        Rng rng(derive_seed(opt_.seed, 3000 + kSubmitters * stream + k));
        std::deque<std::future<Tensor>> live;
        for (;;) {
          while (live.size() < kClosedDepth && Clock::now() < t_end) {
            const Request r = draw(rng);
            trace::Span sp("serve.engine.query");
            live.push_back(engine_->query(r.tenant, pid(r.tenant, r.patch),
                                          patches_[r.tenant][std::size_t(r.patch)],
                                          coords_[std::size_t(r.coords)]));
            attempted++;
          }
          if (live.empty()) break;
          try {
            {
              trace::Span idle("bench.submitter_idle");
              live.front().wait();
            }
            live.front().get();
            const Clock::time_point now = Clock::now();
            if (now >= t_measure && now <= t_end) served++;
          } catch (const std::exception&) {
            failed++;
          }
          live.pop_front();
        }
      });
    for (std::thread& t : submitters) t.join();
    out.attempted += attempted;
    out.failed += failed;
    return double(served) / seconds;
  }

  /// One open-loop window at `rate`: `warmup` unmeasured seconds, then
  /// `seconds` measured. `reloads` hot reloads run on a submitter thread at
  /// seeded times inside the measured part.
  Window run_window(double rate, double warmup, double seconds, int reloads,
                    std::uint64_t stream) {
    Window w;
    w.rate = rate;
    Rng rng(derive_seed(opt_.seed, 1000 + stream));
    std::vector<Request> plan;
    seconds += warmup;
    for (double t = 0.0;;) {
      t += -std::log(1.0 - rng.uniform()) / rate;
      if (t >= seconds) break;
      plan.push_back(draw(rng));
      plan.back().due_s = t;
    }
    std::vector<double> reload_at;
    for (int i = 0; i < reloads; ++i)
      reload_at.push_back(warmup + (seconds - warmup) * (0.1 + 0.8 * rng.uniform()));
    std::sort(reload_at.begin(), reload_at.end());

    const std::size_t n = plan.size();
    w.latency_ms.assign(n, std::numeric_limits<double>::infinity());
    w.lag_ms.assign(n, 0.0);

    struct Pending {
      std::size_t i;
      std::future<Tensor> fut;
      std::uint64_t version;  // 0: not a checked request
    };
    const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
    auto due = [&](double s) {
      return start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(s));
    };

    // generator -> submitters: request indices, or kReload; guarded by mu.
    constexpr std::size_t kReload = ~std::size_t{0};
    std::mutex mu;
    std::condition_variable cv;
    std::deque<std::size_t> dispatch;
    bool generating = true;
    std::deque<Pending> handoff;  // submitters -> collector, guarded by mu
    int submitters_left = kSubmitters;

    auto submit = [&](std::size_t i) {
      const Request& r = plan[i];
      const Clock::time_point d = due(r.due_s);
      w.lag_ms[i] = ms_between(d, Clock::now());
      Pending p{i, {}, 0};
      try {
        trace::Span sp("serve.engine.query");
        const std::uint64_t v0 = engine_->snapshot_version(r.tenant);
        p.fut = engine_->query(
            r.tenant, pid(r.tenant, r.patch),
            patches_[r.tenant][std::size_t(r.patch)],
            coords_[std::size_t(r.coords)], std::nullopt,
            d + std::chrono::microseconds(std::int64_t(kDeadlineMs * 1e3)));
        if (i % kCheckEvery == 0 && engine_->snapshot_version(r.tenant) == v0)
          p.version = v0;
      } catch (const std::exception&) {
        std::promise<Tensor> failed;
        failed.set_exception(std::current_exception());
        p.fut = failed.get_future();
      }
      std::lock_guard<std::mutex> lk(mu);
      handoff.push_back(std::move(p));
    };
    auto reload = [&] {
      const int next = 1 - hot_version_ckpt_.back();
      const auto t0 = Clock::now();
      try {
        trace::Span sp("serve.model_registry.reload");
        engine_->reload_from_checkpoint(kHot, ckpt_[next]);
        hot_version_ckpt_.push_back(next);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: reload failed: %s\n", e.what());
      }
      w.reload_ms.push_back(1e3 * s_since(t0));
    };

    std::vector<std::thread> submitters;
    for (int k = 0; k < kSubmitters; ++k)
      submitters.emplace_back([&] {
        trace::Span root("serve");
        for (;;) {
          std::size_t i = 0;
          {
            trace::Span idle("bench.submitter_idle");
            std::unique_lock<std::mutex> lk(mu);
            cv.wait(lk, [&] { return !dispatch.empty() || !generating; });
            if (dispatch.empty()) break;
            i = dispatch.front();
            dispatch.pop_front();
          }
          if (i == kReload) reload();  // only one reload is ever queued at once
          else submit(i);
        }
        std::lock_guard<std::mutex> lk(mu);
        --submitters_left;
      });

    std::thread generator([&] {
      std::size_t next_reload = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const double at = plan[i].due_s;
        const bool reload_due =
            next_reload < reload_at.size() && reload_at[next_reload] <= at;
        std::this_thread::sleep_until(
            due(reload_due ? reload_at[next_reload] : at));
        {
          std::lock_guard<std::mutex> lk(mu);
          if (reload_due) {
            dispatch.push_back(kReload);
            ++next_reload;
            --i;  // the request is still to come
          } else {
            dispatch.push_back(i);
          }
        }
        cv.notify_one();
      }
      std::lock_guard<std::mutex> lk(mu);
      generating = false;
      cv.notify_all();
    });

    // Collector (this thread): poll outstanding futures.
    std::vector<Pending> live;
    bool end_recorded = false;
    const Clock::time_point hard_stop =
        due(seconds) + std::chrono::milliseconds(int(4 * kDeadlineMs) + 2000);
    for (;;) {
      bool senders_done = false;
      {
        std::lock_guard<std::mutex> lk(mu);
        while (!handoff.empty()) {
          live.push_back(std::move(handoff.front()));
          handoff.pop_front();
        }
        senders_done = submitters_left == 0;
      }
      if (senders_done && !end_recorded) {
        w.backlog_at_end = live.size();
        end_recorded = true;
      }
      const Clock::time_point now = Clock::now();
      std::size_t keep = 0;
      for (std::size_t k = 0; k < live.size(); ++k) {
        Pending& p = live[k];
        if (p.fut.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          if (keep != k) live[keep] = std::move(p);
          ++keep;
          continue;
        }
        const Request& r = plan[p.i];
        try {
          Tensor out = p.fut.get();
          w.latency_ms[p.i] = ms_between(due(r.due_s), now);
          trace::record_async("request", due(r.due_s), now, p.i);
          if (p.version != 0)
            w.samples.push_back({r.tenant, r.patch, r.coords, p.version,
                                 std::move(out)});
        } catch (const std::exception&) {
          w.failed++;
        }
      }
      live.resize(keep);
      if (senders_done && live.empty()) break;
      if (now > hard_stop) break;  // stuck futures count as failed
      std::this_thread::sleep_for(std::chrono::microseconds(kSweepUs));
    }
    generator.join();
    for (std::thread& t : submitters) t.join();
    w.failed += live.size();
    // The warm-up prefix lets the batcher's estimators and the plan cache
    // settle at the new rate; its requests count as attempted and failed
    // but not in the latency percentiles.
    std::size_t first = 0;
    while (first < n && plan[first].due_s < warmup) ++first;
    w.attempted = n;
    w.latency_ms.erase(w.latency_ms.begin(), w.latency_ms.begin() + std::ptrdiff_t(first));
    w.lag_ms.erase(w.lag_ms.begin(), w.lag_ms.begin() + std::ptrdiff_t(first));
    return w;
  }

  /// Re-decode `s` directly: a fresh model with the snapshot's weights,
  /// prepared as the engine prepares it, encode + no-grad decode.
  bool verify(const Sample& s) {
    const std::string& path =
        s.tenant == kChurn
            ? ckpt_churn_
            : ckpt_[std::size_t(hot_version_ckpt_.at(s.version - 1))];
    auto& cached = oracle_[path];
    if (!cached) {
      Rng blank(0);
      cached = std::make_unique<core::MeshfreeFlowNet>(
          bench::bench_model_config(), blank);
      core::load_checkpoint_weights(path, *cached);
      core::PreparedSnapshot::prepare(*cached, 1);
    }
    ad::NoGradGuard no_grad;
    const Tensor want = cached->predict(patches_[s.tenant][std::size_t(s.patch)],
                                        coords_[std::size_t(s.coords)])
                            .value();
    return want.numel() == s.response.numel() &&
           std::memcmp(want.data(), s.response.data(),
                       sizeof(float) * std::size_t(want.numel())) == 0;
  }

  serve::InferenceEngine& engine() { return *engine_; }
  bool hot_budget_ok() const { return hot_budget_ok_; }
  std::vector<double> save_ms, prepare_ms;

 private:
  static std::size_t latent_bytes() { return 16 * 4 * 8 * 8 * sizeof(float); }
  /// One request of the traffic mix (due time left at 0).
  Request draw(Rng& rng) const {
    Request r;
    r.tenant = rng.uniform() < kHotShare ? kHot : kChurn;
    r.patch = r.tenant == kHot
                  ? int(rng.uniform_int(0, kHotPatches))
                  : int(std::lower_bound(churn_cdf_.begin(), churn_cdf_.end(),
                                         rng.uniform()) -
                        churn_cdf_.begin());
    r.patch = std::min(r.patch, r.tenant == kHot ? kHotPatches - 1
                                                 : kChurnPatches - 1);
    r.coords = int(rng.uniform_int(0, kCoordSets));
    return r;
  }
  static std::uint64_t pid(TenantId t, int patch) {
    return (std::uint64_t(t) << 32) | std::uint64_t(patch);
  }

  const Options& opt_;
  std::unique_ptr<serve::InferenceEngine> engine_;
  std::vector<std::vector<Tensor>> patches_;
  std::vector<Tensor> coords_;
  std::vector<double> churn_cdf_;
  std::string ckpt_[2], ckpt_churn_;
  std::vector<int> hot_version_ckpt_;  // [version - 1] -> checkpoint index
  std::map<std::string, std::unique_ptr<core::MeshfreeFlowNet>> oracle_;
  bool hot_budget_ok_ = false;
};

/// A window's p99 for the capacity fit, capped at the deadline. A window
/// that left a backlog reads the cap: by Little's law about rate * SLO
/// requests are in flight at the SLO latency, and twice that still
/// outstanding when the last was sent means the queue was growing.
double capped_p99(const Window& w) {
  const double allowed = 2.0 * w.rate * kSloMs / 1e3 + 4.0;
  if (double(w.backlog_at_end) > allowed) return kDeadlineMs;
  return std::min(quantile(w.latency_ms, 0.99), kDeadlineMs);
}

/// Offered rate at which p99 reaches the SLO. The points (rate, capped
/// p99), from (0, 0) up the ladder, are fitted non-decreasing in the rate
/// by pooling adjacent violators, so a rung hit by a burst of host noise
/// shifts the figure by part of a rung instead of setting it; the crossing
/// is interpolated between the two fitted points that bracket the SLO. A
/// ladder that never reaches the SLO reads its top rate.
double rate_at_slo(const std::vector<double>& rate, const std::vector<double>& p99) {
  struct Block { double sum; int n; };
  std::vector<Block> blocks;
  for (double y : p99) {
    blocks.push_back({y, 1});
    while (blocks.size() > 1) {
      Block& b = blocks[blocks.size() - 2];
      const Block& c = blocks.back();
      if (b.sum / b.n <= c.sum / c.n) break;
      b.sum += c.sum;
      b.n += c.n;
      blocks.pop_back();
    }
  }
  std::vector<double> fit;
  for (const Block& b : blocks) fit.insert(fit.end(), std::size_t(b.n), b.sum / b.n);
  for (std::size_t i = 1; i < fit.size(); ++i)
    if (fit[i] > kSloMs)
      return rate[i - 1] + (rate[i] - rate[i - 1]) * (kSloMs - fit[i - 1]) /
                               (fit[i] - fit[i - 1]);
  return rate.back();
}

}  // namespace

Outcome run_serve(const Options& opt) {
  Outcome out;
  ServeBench sb(opt);
  std::vector<double> setup_s;
  for (int r = 0; r < kSetupReps; ++r) setup_s.push_back(sb.setup());
  out.check(sb.hot_budget_ok(), "hot working set does not fit its cache share");

  // The nominal rate is measured in kSlices slices interleaved with the
  // ladder rungs, and its percentiles are medians over the slices.
  const std::size_t n_ladder = std::size(kLadder);
  const double slice_s = 0.3 * opt.seconds / double(kSlices) - kWarmupS;
  const double rung_s = 0.3 * opt.seconds / double(n_ladder) - kWarmupS;
  const double closed_s = 0.4 * opt.seconds / double(kClosedWindows) - kWarmupS;

  serve::InferenceEngine& eng = sb.engine();
  const auto c0h = eng.cache_stats(kHot), c0c = eng.cache_stats(kChurn);
  const auto e0h = eng.encode_stats(kHot), e0c = eng.encode_stats(kChurn);
  const auto p0h = eng.plan_stats(kHot), p0c = eng.plan_stats(kChurn);
  const auto b0 = eng.batcher_stats();
  const auto r0 = eng.reload_stats();

  double untraced_p50 = 0.0;
  if (opt.trace) {
    // One nominal slice untraced first, for the tracing overhead.
    trace::set_enabled(false);
    untraced_p50 =
        quantile(sb.run_window(kNominalRps, kWarmupS, slice_s, 0, 99).latency_ms, 0.5);
    trace::set_enabled(true);
    eng.batcher().set_timing_capture(true);
  }
  std::vector<Window> nominal, ladder;
  std::vector<double> capacity;
  for (std::size_t sl = 0, rung = 0, cw = 0; sl < kSlices; ++sl) {
    nominal.push_back(sb.run_window(kNominalRps, kWarmupS, slice_s, 1, 100 + sl));
    for (; rung < n_ladder * (sl + 1) / kSlices; ++rung)
      ladder.push_back(sb.run_window(kLadder[rung], kWarmupS, rung_s, 0, 200 + rung));
    for (; cw < kClosedWindows * (sl + 1) / kSlices; ++cw)
      capacity.push_back(sb.run_closed(kWarmupS, closed_s, cw, out));
  }

  std::vector<double> lag, reload_ms, slice_p50, slice_p99;
  std::uint64_t nominal_failed = 0;
  for (const Window& w : nominal) {
    slice_p50.push_back(quantile(w.latency_ms, 0.5));
    slice_p99.push_back(quantile(w.latency_ms, 0.99));
    nominal_failed += w.failed;
  }
  std::vector<double> fit_rate{0.0, kNominalRps},
      fit_p99{0.0, std::min(median(slice_p99), kDeadlineMs)};
  for (const Window& w : ladder) {
    fit_rate.push_back(w.rate);
    fit_p99.push_back(capped_p99(w));
  }
  const double max_rps = rate_at_slo(fit_rate, fit_p99);
  const double closed_rps = median(capacity);

  // attempted/failed cover the closed-loop windows, the nominal slices and
  // the rungs at or below the SLO rate; requests failed on the rungs above
  // it (shed or expired under overload, by design) are reported here and
  // in the per-layer shed/expired counts.
  std::size_t checked = 0, mismatched = 0;
  std::uint64_t overload_failed = 0;
  for (const auto* ws : {&nominal, &ladder})
    for (const Window& w : *ws) {
      if (w.rate <= max_rps) {
        out.attempted += w.attempted;
        out.failed += w.failed;
      } else {
        overload_failed += w.failed;
      }
      lag.insert(lag.end(), w.lag_ms.begin(), w.lag_ms.end());
      reload_ms.insert(reload_ms.end(), w.reload_ms.begin(), w.reload_ms.end());
      for (const Sample& s : w.samples) {
        ++checked;
        if (!sb.verify(s)) ++mismatched;
      }
    }
  out.check(checked > 0 && mismatched == 0,
            "served responses differ from a direct decode (" +
                std::to_string(mismatched) + " of " + std::to_string(checked) +
                ")");
  if (nominal_failed > 0)
    std::fprintf(stderr, "perfbench serve: %llu requests failed at the nominal rate\n",
                 static_cast<unsigned long long>(nominal_failed));
  std::fprintf(stderr, "perfbench serve: nominal slices p50/p99 ms:");
  for (std::size_t i = 0; i < slice_p50.size(); ++i)
    std::fprintf(stderr, " %.2f/%.2f", slice_p50[i], slice_p99[i]);
  std::fprintf(stderr, "\n");
  for (const Window& w : ladder)
    std::fprintf(stderr,
                 "perfbench serve: %.0f rps: p50 %.2f p99 %.2f ms, failed %llu, "
                 "backlog %zu, generator lag p99 %.2f ms\n",
                 w.rate, quantile(w.latency_ms, 0.5), quantile(w.latency_ms, 0.99),
                 (unsigned long long)w.failed, w.backlog_at_end, quantile(w.lag_ms, 0.99));
  std::fprintf(stderr,
               "perfbench serve: p99 reaches %.0f ms at %.0f rps; %llu requests "
               "failed above it\n",
               kSloMs, max_rps, static_cast<unsigned long long>(overload_failed));
  std::fprintf(stderr, "perfbench serve: closed-loop windows rps:");
  for (double c : capacity) std::fprintf(stderr, " %.0f", c);
  std::fprintf(stderr, "\n");

  if (!opt.trace) {
    out.add("setup_s", median(setup_s), "s");
    out.add("peak_rss_mib", peak_rss_mib(), "MiB");
    out.add("latency_ms", median(slice_p50), "ms");
    out.add("throughput_per_s", closed_rps, "1/s");
    return out;
  }

  const auto c1h = eng.cache_stats(kHot), c1c = eng.cache_stats(kChurn);
  const auto e1h = eng.encode_stats(kHot), e1c = eng.encode_stats(kChurn);
  const auto p1h = eng.plan_stats(kHot), p1c = eng.plan_stats(kChurn);
  const auto b1 = eng.batcher_stats();
  const auto r1 = eng.reload_stats();
  const auto timing = eng.batcher().take_timing_samples();
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

  add_layer_times(out, "serve", 1.0, {"serve.model_registry.reload"});
  // The tail figures are reported with the layers, without a bound: on a
  // shared 4-vCPU host, bursts of host noise set the p99 of a third to a
  // half of the slices (clean ones read ~2 ms, hit ones 4-20 ms), so p99
  // swings run to run by more than any bound the benchmark may set
  // (0.44-0.82 quartile spread over ten seeds), and with it the rate at
  // which p99 reaches the SLO (0.215 over ten seeds; 2000-5000 rps over
  // five seeds when a burst hit a low rung).
  out.add("serve_p99_ms", median(slice_p99), "ms");
  out.add("serve.rate_at_slo_per_s", max_rps, "1/s");
  out.add("serve.query_batcher.queue_wait_p50_ms", quantile(timing.queue_wait_ms, 0.5), "ms");
  out.add("serve.query_batcher.queue_wait_p99_ms", quantile(timing.queue_wait_ms, 0.99), "ms");
  out.add("serve.query_batcher.decode_unit_p99_ms", quantile(timing.decode_ms, 0.99), "ms");
  out.add("serve.query_batcher.requests_per_flush",
          ratio(double(b1.requests - b0.requests), double(b1.flushes - b0.flushes)),
          "count");
  out.add("serve.query_batcher.shed", double(b1.admission_shed - b0.admission_shed), "count");
  out.add("serve.query_batcher.expired",
          double(b1.expired_submit + b1.expired_queue - b0.expired_submit - b0.expired_queue),
          "count");
  out.add("serve.query_batcher.rejected",
          double(b1.admission_rejected - b0.admission_rejected), "count");
  out.add("serve.latent_cache.hit_ratio.hot",
          ratio(double(c1h.hits - c0h.hits),
                double(c1h.hits + c1h.misses - c0h.hits - c0h.misses)),
          "ratio");
  out.add("serve.latent_cache.hit_ratio.churn",
          ratio(double(c1c.hits - c0c.hits),
                double(c1c.hits + c1c.misses - c0c.hits - c0c.misses)),
          "ratio");
  out.add("serve.latent_cache.evictions",
          double(c1h.evictions + c1c.evictions - c0h.evictions - c0c.evictions),
          "count");
  const double encodes = double(e1h.encodes + e1c.encodes - e0h.encodes - e0c.encodes);
  const double dedup = double(e1h.dedup_encodes + e1c.dedup_encodes -
                              e0h.dedup_encodes - e0c.dedup_encodes);
  out.add("serve.engine.encodes", encodes, "count");
  out.add("serve.engine.dedup_ratio", ratio(dedup, encodes + dedup), "ratio");
  out.add("core.decode_plan.plan_hit_ratio",
          ratio(double(p1h.hits + p1c.hits - p0h.hits - p0c.hits),
                double(p1h.hits + p1h.misses + p1c.hits + p1c.misses - p0h.hits -
                       p0h.misses - p0c.hits - p0c.misses)),
          "ratio");
  out.add("serve.model_registry.reload_ms", median(reload_ms), "ms");
  out.add("serve.model_registry.rollbacks", double(r1.rollbacks - r0.rollbacks), "count");
  out.add("bench.generator_lag_p99_ms", quantile(lag, 0.99), "ms");
  out.add("core.checkpoint.save_ms", median(sb.save_ms), "ms");
  out.add("core.decode_plan.prepare_ms", median(sb.prepare_ms), "ms");
  out.add("bench.trace_overhead_pct",
          100.0 * (median(slice_p50) / untraced_p50 - 1.0), "%");
  return out;
}

}  // namespace perfbench
