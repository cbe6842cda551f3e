// Multi-client load generator for the inference engine.
//
// Two drive modes:
//  - closed loop (default): N client threads issue continuous-query
//    requests against a small hot set of patches, each waiting for its
//    response before sending the next — the engine sees many small
//    heterogeneous query batches against few cached latents, and offered
//    load self-limits to capacity.
//  - open loop (cfg.open_loop): a Poisson dispatcher issues requests at
//    cfg.arrival_rps regardless of completions, so arrival > capacity
//    builds a real backlog. This is the overload harness: with deadlines,
//    admission policies, and brownout configured on the engine, the bench
//    reports how much traffic met its deadline, was shed/rejected, or was
//    served degraded — and whether queue-wait p99 stayed bounded.
//
// Used by the `mfn serve-bench` CLI subcommand and the bench_micro_ops
// `mfn_perf` serve lines.
#pragma once

#include <cstdint>
#include <vector>

#include "serve/engine.h"

namespace mfn::serve {

struct ServeBenchConfig {
  int clients = 4;
  int requests_per_client = 32;
  std::int64_t queries_per_request = 256;
  /// Distinct hot patches cycled by the clients (the latent working set).
  int hot_patches = 8;
  /// LR patch geometry (must satisfy the encoder's pooling divisibility).
  std::int64_t patch_nt = 4, patch_nz = 8, patch_nx = 8;
  std::uint64_t seed = 1234;
  /// Pre-encode every hot patch before the timed window (steady-state
  /// serving: the bench then measures a warm cache).
  bool warm_cache = true;
  /// Decode precision tier every bench request asks for (per-request
  /// override — the engine's own default is untouched). Non-fp32 runs also
  /// measure max-abs-err vs an fp32 reference decode.
  backend::Precision precision = backend::Precision::kFp32;
  /// Open-loop mode: Poisson arrivals at arrival_rps (must be > 0),
  /// total_requests issued in all (0 falls back to
  /// clients * requests_per_client); cfg.clients threads harvest the
  /// responses. Closed-loop ignores these.
  bool open_loop = false;
  double arrival_rps = 0.0;
  int total_requests = 0;
  /// Per-request latency budget, milliseconds from submit; 0 = none.
  /// Honored in both modes.
  double deadline_ms = 0.0;
  /// Multi-tenant traffic: requests spread across tenants 0..tenants-1
  /// (every id must already be registered on the engine, each with its own
  /// hot set of hot_patches patches) with Zipf(zipf_s) popularity skew —
  /// tenant 0 is the hottest. 1 keeps the single-tenant behavior exactly.
  int tenants = 1;
  /// Zipf exponent: P(tenant k) ∝ 1 / (k + 1)^zipf_s. 0 is uniform;
  /// ~1.1 gives the classic heavy head (tenant 0 at several times the
  /// coldest tenant's rate).
  double zipf_s = 1.0;
};

/// Per-tenant slice of a multi-tenant bench run (window counters only).
struct TenantBenchResult {
  TenantId tenant = 0;
  std::uint64_t issued = 0;
  std::uint64_t ok = 0, expired = 0, overloaded = 0;
  double share = 0.0;  ///< issued / total issued
  double qps = 0.0;    ///< delivered query points per second
  double rps = 0.0;    ///< delivered requests per second
  double p50_ms = 0.0, p99_ms = 0.0;  ///< end-to-end, delivered only
  /// This tenant's latent-cache window hit rate (per-tenant caches make
  /// this exact, not apportioned).
  double hit_rate = 0.0;
  std::uint64_t window_hits = 0, window_misses = 0, window_evictions = 0;
  /// Batcher per-tenant window counters.
  std::uint64_t shed = 0, rejected = 0, degraded = 0;
  /// Single-flight encode window counters.
  std::uint64_t encodes = 0, dedup_encodes = 0;
};

struct ServeBenchResult {
  double seconds = 0.0;
  double qps = 0.0;         ///< query points decoded per second
  double rps = 0.0;         ///< requests per second
  double hit_rate = 0.0;    ///< latent cache hit rate over the timed window
  /// Cache lookups inside the timed window only (prewarm encodes and any
  /// earlier runs against the same engine excluded) — the counters
  /// hit_rate is computed from.
  std::uint64_t window_hits = 0, window_misses = 0;
  /// End-to-end request latency: submit to response, INCLUDING the
  /// batcher's coalescing queue wait. Not decode latency — see the split
  /// percentiles below.
  double p50_ms = 0.0, p99_ms = 0.0, max_ms = 0.0;
  /// The end-to-end latency split: time a request spent queued waiting to
  /// coalesce vs time its decode unit actually spent decoding.
  double queue_p50_ms = 0.0, queue_p99_ms = 0.0;
  double decode_p50_ms = 0.0, decode_p99_ms = 0.0;
  std::uint64_t requests = 0;
  LatentCache::Stats cache;      ///< cumulative engine counters at the end
  QueryBatcher::Stats batcher;
  core::PlanCache::Stats plans;  ///< decode-plan cache counters at the end
  /// Plan cache lookups inside the timed window only.
  std::uint64_t window_plan_hits = 0, window_plan_misses = 0;
  double plan_hit_rate = 0.0;
  /// The tier requested and how the window's decode units were actually
  /// served: int8 plan units vs fp32 fallbacks of int8 requests (fallback
  /// is visible, never silent).
  backend::Precision precision = backend::Precision::kFp32;
  std::uint64_t window_int8_units = 0;
  std::uint64_t window_precision_fallbacks = 0;
  /// Max |reduced-tier value - fp32 value| over one post-window probe
  /// request per hot patch (0 when cfg.precision is fp32).
  double max_abs_err_vs_fp32 = 0.0;
  // -- robustness outcomes (per issued request) -----------------------
  std::uint64_t ok_requests = 0;       ///< responses delivered in full
  std::uint64_t expired_requests = 0;  ///< failed with DeadlineExceeded
  std::uint64_t overloaded_requests = 0;  ///< failed with Overloaded
                                          ///< (shed or rejected)
  std::uint64_t failed_requests = 0;   ///< any other exception (must be 0)
  /// ok / issued — 1.0 when every request beat its deadline (or no
  /// deadline was set and nothing was shed).
  double deadline_hit_rate = 0.0;
  // -- robustness counters, timed window only -------------------------
  std::uint64_t window_shed = 0, window_rejected = 0;
  std::uint64_t window_expired_submit = 0, window_expired_queue = 0;
  std::uint64_t window_degraded_requests = 0, window_degraded_units = 0;
  std::uint64_t window_brownout_enters = 0, window_brownout_exits = 0;
  /// Fraction of delivered responses served below their requested tier.
  double brownout_hit_rate = 0.0;
  /// One entry per driven tenant (size cfg.tenants; a single-tenant run
  /// still reports its one entry). Aggregate fields above sum over these.
  std::vector<TenantBenchResult> tenants;
};

/// Drive `engine` with cfg.clients closed-loop client threads and return
/// aggregate throughput/latency/cache statistics. Synthesizes the hot
/// patch set from cfg.seed with the engine's input-channel count; patch
/// ids are offset by the engine's snapshot version so repeated runs
/// against one engine still exercise the cache coherently.
ServeBenchResult run_serve_bench(InferenceEngine& engine,
                                 const ServeBenchConfig& cfg);

}  // namespace mfn::serve
