#include "serve/serve_bench.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

#include "common/error.h"
#include "common/rng.h"
#include "common/stopwatch.h"

namespace mfn::serve {

namespace {

using Clock = std::chrono::steady_clock;

Tensor random_coords(Rng& rng, std::int64_t q, std::int64_t nt,
                     std::int64_t nz, std::int64_t nx) {
  Tensor c = Tensor::uninitialized(Shape{q, 3});
  float* p = c.data();
  for (std::int64_t b = 0; b < q; ++b) {
    p[b * 3 + 0] =
        static_cast<float>(rng.uniform(0.0, static_cast<double>(nt - 1)));
    p[b * 3 + 1] =
        static_cast<float>(rng.uniform(0.0, static_cast<double>(nz - 1)));
    p[b * 3 + 2] =
        static_cast<float>(rng.uniform(0.0, static_cast<double>(nx - 1)));
  }
  return c;
}

std::optional<QueryBatcher::Deadline> deadline_from(
    const ServeBenchConfig& cfg) {
  if (cfg.deadline_ms <= 0) return std::nullopt;
  return Clock::now() + std::chrono::microseconds(static_cast<std::int64_t>(
                            cfg.deadline_ms * 1e3));
}

/// Per-request outcome tallies shared across client/harvester threads.
struct Outcomes {
  std::atomic<std::uint64_t> issued{0}, ok{0}, expired{0}, overloaded{0},
      failed{0};
};

/// Resolve one response future, classifying the overload outcomes.
/// Returns true (and the submit->response latency) only for a delivered
/// response.
bool harvest(std::future<Tensor>& fut, std::int64_t want_rows,
             Outcomes& out) {
  try {
    Tensor t = fut.get();
    MFN_CHECK(t.dim(0) == want_rows, "serve bench: short response");
    out.ok.fetch_add(1, std::memory_order_relaxed);
    return true;
  } catch (const DeadlineExceeded&) {
    out.expired.fetch_add(1, std::memory_order_relaxed);
  } catch (const Overloaded&) {
    out.overloaded.fetch_add(1, std::memory_order_relaxed);
  } catch (const std::exception&) {
    out.failed.fetch_add(1, std::memory_order_relaxed);
  }
  return false;
}

/// Zipf CDF over tenants 0..n-1: P(k) ∝ 1 / (k + 1)^s. Tenant 0 is the
/// head of the popularity curve.
std::vector<double> zipf_cdf(int n, double s) {
  std::vector<double> cdf(static_cast<std::size_t>(n));
  double total = 0.0;
  for (int k = 0; k < n; ++k)
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
  double cum = 0.0;
  for (int k = 0; k < n; ++k) {
    cum += 1.0 / std::pow(static_cast<double>(k + 1), s) / total;
    cdf[static_cast<std::size_t>(k)] = cum;
  }
  cdf.back() = 1.0;  // guard against accumulated rounding
  return cdf;
}

int pick_tenant(const std::vector<double>& cdf, double u) {
  for (std::size_t k = 0; k < cdf.size(); ++k)
    if (u <= cdf[k]) return static_cast<int>(k);
  return static_cast<int>(cdf.size()) - 1;
}

}  // namespace

ServeBenchResult run_serve_bench(InferenceEngine& engine,
                                 const ServeBenchConfig& cfg) {
  MFN_CHECK(cfg.clients >= 1, "serve bench needs >= 1 client");
  MFN_CHECK(cfg.requests_per_client >= 1, "need >= 1 request per client");
  MFN_CHECK(cfg.hot_patches >= 1, "need >= 1 hot patch");
  MFN_CHECK(cfg.queries_per_request >= 1, "need >= 1 query per request");
  MFN_CHECK(!cfg.open_loop || cfg.arrival_rps > 0,
            "open-loop mode needs arrival_rps > 0");
  MFN_CHECK(cfg.tenants >= 1, "need >= 1 tenant");
  MFN_CHECK(cfg.zipf_s >= 0, "zipf exponent must be >= 0");
  const int T = cfg.tenants;
  for (int t = 0; t < T; ++t)
    MFN_CHECK(engine.has_tenant(static_cast<TenantId>(t)),
              "serve bench drives tenants 0.." << (T - 1) << " but tenant "
                                               << t << " is not registered");

  Rng rng(cfg.seed);

  // Per-tenant hot latent working sets. Ids are namespaced by the tenant's
  // snapshot version so back-to-back runs on one engine key the same
  // content identically.
  std::vector<std::uint64_t> id_base(static_cast<std::size_t>(T));
  std::vector<std::vector<Tensor>> patches(static_cast<std::size_t>(T));
  for (int t = 0; t < T; ++t) {
    const TenantId tid = static_cast<TenantId>(t);
    id_base[static_cast<std::size_t>(t)] = engine.snapshot_version(tid)
                                           << 32;
    const std::int64_t in_ch = engine.model_config(tid).unet.in_channels;
    auto& set = patches[static_cast<std::size_t>(t)];
    set.reserve(static_cast<std::size_t>(cfg.hot_patches));
    for (int i = 0; i < cfg.hot_patches; ++i)
      set.push_back(Tensor::randn(
          Shape{1, in_ch, cfg.patch_nt, cfg.patch_nz, cfg.patch_nx}, rng,
          0.5f));
  }

  // Per-client query coordinates, pre-generated outside the timed loop.
  std::vector<Tensor> client_coords;
  client_coords.reserve(static_cast<std::size_t>(cfg.clients));
  for (int c = 0; c < cfg.clients; ++c)
    client_coords.push_back(random_coords(rng, cfg.queries_per_request,
                                          cfg.patch_nt, cfg.patch_nz,
                                          cfg.patch_nx));

  const std::vector<double> cdf = zipf_cdf(T, cfg.zipf_s);

  if (cfg.warm_cache)
    for (int t = 0; t < T; ++t)
      for (int i = 0; i < cfg.hot_patches; ++i)
        engine.prewarm(static_cast<TenantId>(t),
                       id_base[static_cast<std::size_t>(t)] +
                           static_cast<std::uint64_t>(i),
                       patches[static_cast<std::size_t>(t)]
                              [static_cast<std::size_t>(i)]);

  // Window baselines: aggregate and per-tenant.
  std::vector<LatentCache::Stats> cache0(static_cast<std::size_t>(T));
  std::vector<EncodeStats> enc0(static_cast<std::size_t>(T));
  for (int t = 0; t < T; ++t) {
    cache0[static_cast<std::size_t>(t)] =
        engine.cache_stats(static_cast<TenantId>(t));
    enc0[static_cast<std::size_t>(t)] =
        engine.encode_stats(static_cast<TenantId>(t));
  }
  const core::PlanCache::Stats plans0 = engine.plan_stats();
  const QueryBatcher::Stats batcher0 = engine.batcher_stats();
  // Capture per-request queue waits and per-unit decode times so the
  // latency report can split end-to-end p99 (which includes the batching
  // queue) from the decode itself.
  engine.batcher().set_timing_capture(true);
  // latencies[c][t]: delivered end-to-end millis, per client per tenant.
  std::vector<std::vector<std::vector<double>>> latencies(
      static_cast<std::size_t>(cfg.clients),
      std::vector<std::vector<double>>(static_cast<std::size_t>(T)));
  std::vector<Outcomes> outcomes(static_cast<std::size_t>(T));

  Stopwatch wall;
  if (!cfg.open_loop) {
    // Closed loop: each client blocks on its response before the next
    // request, so offered load self-limits to capacity.
    std::vector<std::thread> clients;
    clients.reserve(static_cast<std::size_t>(cfg.clients));
    for (int c = 0; c < cfg.clients; ++c) {
      clients.emplace_back([&, c] {
        auto& lat = latencies[static_cast<std::size_t>(c)];
        const Tensor& coords = client_coords[static_cast<std::size_t>(c)];
        // Per-client tenant sampler: deterministic across runs, distinct
        // across clients.
        Rng trng(cfg.seed ^ (0x5EEDB0B5ull + 77ull *
                                                 static_cast<std::uint64_t>(
                                                     c)));
        for (int m = 0; m < cfg.requests_per_client; ++m) {
          const int t = T == 1 ? 0 : pick_tenant(cdf, trng.uniform());
          // Stride clients across the hot set so concurrent requests both
          // collide on shared latents (coalescing) and span several.
          const int pid = (c + m) % cfg.hot_patches;
          Outcomes& out = outcomes[static_cast<std::size_t>(t)];
          out.issued.fetch_add(1, std::memory_order_relaxed);
          Stopwatch sw;
          std::future<Tensor> fut = engine.query(
              static_cast<TenantId>(t),
              id_base[static_cast<std::size_t>(t)] +
                  static_cast<std::uint64_t>(pid),
              patches[static_cast<std::size_t>(t)]
                     [static_cast<std::size_t>(pid)],
              coords, cfg.precision, deadline_from(cfg));
          if (harvest(fut, cfg.queries_per_request, out))
            lat[static_cast<std::size_t>(t)].push_back(sw.millis());
        }
      });
    }
    for (auto& t : clients) t.join();
  } else {
    // Open loop: a Poisson dispatcher issues at cfg.arrival_rps whether or
    // not earlier responses have landed — arrival above capacity builds a
    // real backlog, which is the point. Harvester threads resolve the
    // futures FIFO (the batcher serves FIFO, so head-of-line blocking on
    // get() is negligible).
    const std::uint64_t total =
        cfg.total_requests > 0
            ? static_cast<std::uint64_t>(cfg.total_requests)
            : static_cast<std::uint64_t>(cfg.clients) *
                  static_cast<std::uint64_t>(cfg.requests_per_client);
    struct Pending {
      std::future<Tensor> fut;
      int tenant = 0;
      Clock::time_point submitted;
    };
    std::deque<Pending> inflight;
    std::mutex mu;
    std::condition_variable cv;
    bool dispatch_done = false;

    std::vector<std::thread> harvesters;
    harvesters.reserve(static_cast<std::size_t>(cfg.clients));
    for (int c = 0; c < cfg.clients; ++c) {
      harvesters.emplace_back([&, c] {
        auto& lat = latencies[static_cast<std::size_t>(c)];
        for (;;) {
          Pending p;
          {
            std::unique_lock<std::mutex> lk(mu);
            cv.wait(lk, [&] { return dispatch_done || !inflight.empty(); });
            if (inflight.empty()) return;  // dispatch_done && drained
            p = std::move(inflight.front());
            inflight.pop_front();
          }
          if (harvest(p.fut, cfg.queries_per_request,
                      outcomes[static_cast<std::size_t>(p.tenant)]))
            lat[static_cast<std::size_t>(p.tenant)].push_back(
                std::chrono::duration<double, std::milli>(Clock::now() -
                                                          p.submitted)
                    .count());
        }
      });
    }

    Rng arrivals(cfg.seed ^ 0x9E3779B97F4A7C15ull);
    Clock::time_point next = Clock::now();
    for (std::uint64_t i = 0; i < total; ++i) {
      // Exponential inter-arrival times: a Poisson process at arrival_rps.
      const double u = std::min(arrivals.uniform(), 0.999999);
      next += std::chrono::nanoseconds(static_cast<std::int64_t>(
          -std::log(1.0 - u) / cfg.arrival_rps * 1e9));
      std::this_thread::sleep_until(next);
      const int t = T == 1 ? 0 : pick_tenant(cdf, arrivals.uniform());
      const int pid = static_cast<int>(i) % cfg.hot_patches;
      const int slot = static_cast<int>(i) % cfg.clients;
      outcomes[static_cast<std::size_t>(t)].issued.fetch_add(
          1, std::memory_order_relaxed);
      Pending p;
      p.tenant = t;
      p.submitted = Clock::now();
      p.fut = engine.query(
          static_cast<TenantId>(t),
          id_base[static_cast<std::size_t>(t)] +
              static_cast<std::uint64_t>(pid),
          patches[static_cast<std::size_t>(t)][static_cast<std::size_t>(pid)],
          client_coords[static_cast<std::size_t>(slot)], cfg.precision,
          deadline_from(cfg));
      {
        std::lock_guard<std::mutex> lk(mu);
        inflight.push_back(std::move(p));
      }
      cv.notify_one();
    }
    {
      std::lock_guard<std::mutex> lk(mu);
      dispatch_done = true;
    }
    cv.notify_all();
    for (auto& t : harvesters) t.join();
  }
  const double seconds = wall.seconds();

  ServeBenchResult res;
  res.seconds = seconds;
  std::uint64_t issued = 0;
  for (const Outcomes& o : outcomes) {
    issued += o.issued.load();
    res.ok_requests += o.ok.load();
    res.expired_requests += o.expired.load();
    res.overloaded_requests += o.overloaded.load();
    res.failed_requests += o.failed.load();
  }
  res.requests = issued;
  res.deadline_hit_rate =
      issued == 0 ? 0.0
                  : static_cast<double>(res.ok_requests) /
                        static_cast<double>(issued);
  // Throughput counts delivered work only: shed/expired requests consumed
  // admission decisions, not decodes.
  const double total_queries = static_cast<double>(res.ok_requests) *
                               static_cast<double>(cfg.queries_per_request);
  res.qps = total_queries / seconds;
  res.rps = static_cast<double>(res.ok_requests) / seconds;

  auto pct = [](std::vector<double>& v, std::size_t num, std::size_t den) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t i = (v.size() * num) / den;
    return v[i >= v.size() ? v.size() - 1 : i];
  };

  std::vector<double> all;
  all.reserve(static_cast<std::size_t>(res.ok_requests));
  for (auto& lat : latencies)
    for (auto& per_tenant : lat)
      all.insert(all.end(), per_tenant.begin(), per_tenant.end());
  if (!all.empty()) {
    res.p50_ms = pct(all, 1, 2);
    res.p99_ms = pct(all, 99, 100);
    res.max_ms = all.back();
  }

  QueryBatcher::TimingSamples timing =
      engine.batcher().take_timing_samples();
  engine.batcher().set_timing_capture(false);
  res.queue_p50_ms = pct(timing.queue_wait_ms, 1, 2);
  res.queue_p99_ms = pct(timing.queue_wait_ms, 99, 100);
  res.decode_p50_ms = pct(timing.decode_ms, 1, 2);
  res.decode_p99_ms = pct(timing.decode_ms, 99, 100);

  res.batcher = engine.batcher_stats();
  res.plans = engine.plan_stats();
  res.window_plan_hits = res.plans.hits - plans0.hits;
  res.window_plan_misses = res.plans.misses - plans0.misses;
  const std::uint64_t plan_lookups =
      res.window_plan_hits + res.window_plan_misses;
  res.plan_hit_rate = plan_lookups == 0
                          ? 0.0
                          : static_cast<double>(res.window_plan_hits) /
                                static_cast<double>(plan_lookups);

  // Per-tenant slices, then aggregate cache counters as their sum (the
  // caches themselves are per tenant).
  res.tenants.resize(static_cast<std::size_t>(T));
  for (int t = 0; t < T; ++t) {
    const std::size_t k = static_cast<std::size_t>(t);
    const TenantId tid = static_cast<TenantId>(t);
    TenantBenchResult& tr = res.tenants[k];
    tr.tenant = tid;
    tr.issued = outcomes[k].issued.load();
    tr.ok = outcomes[k].ok.load();
    tr.expired = outcomes[k].expired.load();
    tr.overloaded = outcomes[k].overloaded.load();
    tr.share = issued == 0 ? 0.0
                           : static_cast<double>(tr.issued) /
                                 static_cast<double>(issued);
    tr.qps = static_cast<double>(tr.ok) *
             static_cast<double>(cfg.queries_per_request) / seconds;
    tr.rps = static_cast<double>(tr.ok) / seconds;
    std::vector<double> tl;
    tl.reserve(static_cast<std::size_t>(tr.ok));
    for (auto& lat : latencies)
      tl.insert(tl.end(), lat[k].begin(), lat[k].end());
    tr.p50_ms = pct(tl, 1, 2);
    tr.p99_ms = pct(tl, 99, 100);

    const LatentCache::Stats cs = engine.cache_stats(tid);
    tr.window_hits = cs.hits - cache0[k].hits;
    tr.window_misses = cs.misses - cache0[k].misses;
    tr.window_evictions = cs.evictions - cache0[k].evictions;
    const std::uint64_t lookups = tr.window_hits + tr.window_misses;
    tr.hit_rate = lookups == 0
                      ? 0.0
                      : static_cast<double>(tr.window_hits) /
                            static_cast<double>(lookups);
    const EncodeStats es = engine.encode_stats(tid);
    tr.encodes = es.encodes - enc0[k].encodes;
    tr.dedup_encodes = es.dedup_encodes - enc0[k].dedup_encodes;
    auto pt = res.batcher.per_tenant.find(tid);
    if (pt != res.batcher.per_tenant.end()) {
      const auto& now_c = pt->second;
      QueryBatcher::Stats::TenantCounters was_c;
      auto pt0 = batcher0.per_tenant.find(tid);
      if (pt0 != batcher0.per_tenant.end()) was_c = pt0->second;
      tr.shed = now_c.shed - was_c.shed;
      tr.rejected = now_c.rejected - was_c.rejected;
      tr.degraded = now_c.degraded_requests - was_c.degraded_requests;
    }

    // Aggregate cache view: sum of the driven tenants' caches.
    res.cache.hits += cs.hits;
    res.cache.misses += cs.misses;
    res.cache.evictions += cs.evictions;
    res.cache.invalidations += cs.invalidations;
    res.cache.entries += cs.entries;
    res.cache.bytes_in_use += cs.bytes_in_use;
    res.cache.byte_budget += cs.byte_budget;
    res.window_hits += tr.window_hits;
    res.window_misses += tr.window_misses;
  }
  const std::uint64_t lookups = res.window_hits + res.window_misses;
  res.hit_rate = lookups == 0
                     ? 0.0
                     : static_cast<double>(res.window_hits) /
                           static_cast<double>(lookups);

  res.precision = cfg.precision;
  res.window_int8_units = res.batcher.planned_int8 - batcher0.planned_int8;
  res.window_precision_fallbacks =
      res.batcher.precision_fallbacks - batcher0.precision_fallbacks;

  res.window_shed = res.batcher.admission_shed - batcher0.admission_shed;
  res.window_rejected =
      res.batcher.admission_rejected - batcher0.admission_rejected;
  res.window_expired_submit =
      res.batcher.expired_submit - batcher0.expired_submit;
  res.window_expired_queue =
      res.batcher.expired_queue - batcher0.expired_queue;
  res.window_degraded_requests =
      res.batcher.degraded_requests - batcher0.degraded_requests;
  res.window_degraded_units =
      res.batcher.degraded_units - batcher0.degraded_units;
  res.window_brownout_enters =
      res.batcher.brownout_enters - batcher0.brownout_enters;
  res.window_brownout_exits =
      res.batcher.brownout_exits - batcher0.brownout_exits;
  res.brownout_hit_rate =
      res.ok_requests == 0
          ? 0.0
          : static_cast<double>(res.window_degraded_requests) /
                static_cast<double>(res.ok_requests);

  // Accuracy probe (outside the timed window): decode one request per hot
  // patch of tenant 0 at the bench tier and at fp32 and report the worst
  // absolute deviation, so every reduced-precision qps line carries its
  // error bound.
  if (cfg.precision != backend::Precision::kFp32) {
    double max_err = 0.0;
    const Tensor& coords = client_coords.front();
    for (int i = 0; i < cfg.hot_patches; ++i) {
      const std::uint64_t pid =
          id_base.front() + static_cast<std::uint64_t>(i);
      const Tensor& patch = patches.front()[static_cast<std::size_t>(i)];
      Tensor lo = engine.query_sync(pid, patch, coords, cfg.precision);
      Tensor ref = engine.query_sync(pid, patch, coords,
                                     backend::Precision::kFp32);
      const float* a = lo.data();
      const float* b = ref.data();
      for (std::int64_t j = 0; j < lo.numel(); ++j)
        max_err = std::max(
            max_err, static_cast<double>(std::abs(a[j] - b[j])));
    }
    res.max_abs_err_vs_fp32 = max_err;
  }
  return res;
}

}  // namespace mfn::serve
