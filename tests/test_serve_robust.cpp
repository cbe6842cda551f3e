// Overload & fault-tolerance suite for the serving subsystem: deadline
// expiry (submit-time and in-queue), every admission policy, precision
// brownout hysteresis, and checkpoint-reload rollback under injected
// faults — all driven deterministically through the fail-point registry
// (src/common/failpoint.h). The rollback tests run with live client
// traffic and assert zero failed client requests: a broken checkpoint
// must never be observable from the serving path.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <limits>
#include <thread>
#include <vector>

#include "autodiff/variable.h"
#include "common/error.h"
#include "common/failpoint.h"
#include "core/checkpoint.h"
#include "core/meshfree_flownet.h"
#include "optim/adam.h"
#include "serve/engine.h"
#include "serve/query_batcher.h"
#include "threading/thread_pool.h"

namespace mfn {
namespace {

using Clock = std::chrono::steady_clock;

const bool kForcePool = [] {
  setenv("MFN_NUM_THREADS", "4", /*overwrite=*/0);
  return true;
}();

std::unique_ptr<core::MeshfreeFlowNet> make_model(std::uint64_t seed) {
  Rng rng(seed);
  auto model = std::make_unique<core::MeshfreeFlowNet>(
      core::MFNConfig::small_default(), rng);
  model->set_training(false);
  return model;
}

Tensor make_patch(Rng& rng) {
  return Tensor::randn(Shape{1, 4, 4, 8, 8}, rng, 0.5f);
}

Tensor make_coords(Rng& rng, std::int64_t q) {
  Tensor c = Tensor::uninitialized(Shape{q, 3});
  for (std::int64_t b = 0; b < q; ++b) {
    c.data()[b * 3 + 0] = static_cast<float>(rng.uniform(0.0, 3.0));
    c.data()[b * 3 + 1] = static_cast<float>(rng.uniform(0.0, 7.0));
    c.data()[b * 3 + 2] = static_cast<float>(rng.uniform(0.0, 7.0));
  }
  return c;
}

failpoint::Spec sleep_ms(double ms) {
  failpoint::Spec s;
  s.arg = ms;
  return s;
}

failpoint::Spec fire_times(std::uint64_t n) {
  failpoint::Spec s;
  s.count = n;
  return s;
}

double max_abs_diff(const Tensor& a, const Tensor& b) {
  EXPECT_EQ(a.numel(), b.numel());
  double m = 0.0;
  for (std::int64_t i = 0; i < a.numel(); ++i)
    m = std::max(m, std::abs(static_cast<double>(a.data()[i]) -
                             static_cast<double>(b.data()[i])));
  return m;
}

/// Spin until the batcher has drained at least `flushes` flushes (so a
/// submitted request is known to be *inside* a decode, not still queued).
void wait_for_flushes(serve::InferenceEngine& engine, std::uint64_t flushes) {
  const auto limit = Clock::now() + std::chrono::seconds(10);
  while (engine.batcher_stats().flushes < flushes) {
    ASSERT_LT(Clock::now(), limit) << "batcher never flushed";
    std::this_thread::yield();
  }
}

/// Tests arm global fail points; never leak one into the next test.
class ServeRobust : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::reset(); }
};

// ------------------------------------------------------------ fail points

TEST_F(ServeRobust, FailpointDisarmedPollsAreFree) {
  EXPECT_FALSE(failpoint::poll("never.armed").has_value());
  EXPECT_EQ(failpoint::hit_count("never.armed"), 0u);
}

TEST_F(ServeRobust, FailpointSkipAndCountAreExact) {
  failpoint::Spec spec;
  spec.skip = 1;
  spec.count = 2;
  spec.arg = 7.5;
  failpoint::arm("t.point", spec);
  EXPECT_FALSE(failpoint::poll("t.point").has_value());  // skipped
  auto f1 = failpoint::poll("t.point");
  ASSERT_TRUE(f1.has_value());
  EXPECT_DOUBLE_EQ(f1->arg, 7.5);
  EXPECT_TRUE(failpoint::poll("t.point").has_value());
  EXPECT_FALSE(failpoint::poll("t.point").has_value());  // count exhausted
  EXPECT_EQ(failpoint::hit_count("t.point"), 4u);
  EXPECT_EQ(failpoint::fire_count("t.point"), 2u);
  failpoint::disarm("t.point");
  EXPECT_FALSE(failpoint::poll("t.point").has_value());
  // Counters survive disarm for post-mortem asserts.
  EXPECT_EQ(failpoint::fire_count("t.point"), 2u);
}

TEST_F(ServeRobust, ScopedFailDisarmsOnExit) {
  {
    failpoint::ScopedFail inject("t.scoped");
    EXPECT_TRUE(failpoint::poll("t.scoped").has_value());
  }
  EXPECT_FALSE(failpoint::poll("t.scoped").has_value());
}

// -------------------------------------------------------------- deadlines

TEST_F(ServeRobust, ExpiredDeadlineFailsFastWithoutADecode) {
  serve::InferenceEngine engine(make_model(7));
  Rng rng(8);
  const Tensor patch = make_patch(rng);
  const Tensor coords = make_coords(rng, 32);
  engine.prewarm(1, patch);
  const auto before = engine.batcher_stats();

  auto fut = engine.query(1, patch, coords, std::nullopt,
                          Clock::now() - std::chrono::milliseconds(1));
  EXPECT_THROW(fut.get(), serve::DeadlineExceeded);

  const auto after = engine.batcher_stats();
  EXPECT_EQ(after.expired_submit, before.expired_submit + 1);
  // The request never entered the queue, let alone a decode.
  EXPECT_EQ(after.requests, before.requests);
  EXPECT_EQ(after.decode_calls, before.decode_calls);
}

TEST_F(ServeRobust, QueuedRequestExpiresBeforeWastingADecode) {
  serve::InferenceEngineConfig ecfg;
  ecfg.batcher.workers = 1;
  ecfg.batcher.max_wait_us = 0;
  serve::InferenceEngine engine(std::move(make_model(9)), ecfg);
  Rng rng(10);
  const Tensor patch = make_patch(rng);
  const Tensor coords = make_coords(rng, 32);
  engine.prewarm(1, patch);

  // The lone worker sleeps 200 ms inside its next decode; a 20 ms-deadline
  // request queued behind it must expire in the queue, not get decoded.
  failpoint::ScopedFail slow("serve.slow_decode", sleep_ms(200.0));
  const std::uint64_t flushes0 = engine.batcher_stats().flushes;
  auto blocker = engine.query(1, patch, coords);
  wait_for_flushes(engine, flushes0 + 1);

  auto doomed = engine.query(1, patch, coords, std::nullopt,
                             Clock::now() + std::chrono::milliseconds(20));
  EXPECT_THROW(doomed.get(), serve::DeadlineExceeded);
  EXPECT_NO_THROW(blocker.get());
  EXPECT_GE(engine.batcher_stats().expired_queue, 1u);
}

// ------------------------------------------------------ admission control

TEST_F(ServeRobust, RejectPolicyFailsNewArrivalsWhenFull) {
  serve::InferenceEngineConfig ecfg;
  ecfg.batcher.workers = 1;
  ecfg.batcher.max_wait_us = 0;
  ecfg.batcher.max_batch_rows = 32;
  ecfg.batcher.max_queue_rows = 32;  // one 32-row request fills the queue
  ecfg.batcher.admission = serve::AdmissionPolicy::kReject;
  serve::InferenceEngine engine(std::move(make_model(11)), ecfg);
  Rng rng(12);
  const Tensor patch = make_patch(rng);
  const Tensor coords = make_coords(rng, 32);
  engine.prewarm(1, patch);

  failpoint::ScopedFail slow("serve.slow_decode", sleep_ms(200.0));
  const std::uint64_t flushes0 = engine.batcher_stats().flushes;
  auto in_flight = engine.query(1, patch, coords);  // taken by the worker
  wait_for_flushes(engine, flushes0 + 1);
  auto queued = engine.query(1, patch, coords);   // empty queue: admitted
  auto rejected = engine.query(1, patch, coords); // full: rejected

  EXPECT_THROW(rejected.get(), serve::Overloaded);
  EXPECT_NO_THROW(in_flight.get());
  EXPECT_NO_THROW(queued.get());
  EXPECT_EQ(engine.batcher_stats().admission_rejected, 1u);
  EXPECT_EQ(engine.batcher_stats().admission_shed, 0u);
}

TEST_F(ServeRobust, ShedOldestFailsTheOldestQueuedRequest) {
  serve::InferenceEngineConfig ecfg;
  ecfg.batcher.workers = 1;
  ecfg.batcher.max_wait_us = 0;
  ecfg.batcher.max_batch_rows = 32;
  ecfg.batcher.max_queue_rows = 32;
  ecfg.batcher.admission = serve::AdmissionPolicy::kShedOldest;
  serve::InferenceEngine engine(std::move(make_model(13)), ecfg);
  Rng rng(14);
  const Tensor patch = make_patch(rng);
  const Tensor coords = make_coords(rng, 32);
  engine.prewarm(1, patch);

  failpoint::ScopedFail slow("serve.slow_decode", sleep_ms(200.0));
  const std::uint64_t flushes0 = engine.batcher_stats().flushes;
  auto in_flight = engine.query(1, patch, coords);
  wait_for_flushes(engine, flushes0 + 1);
  auto oldest = engine.query(1, patch, coords);  // queued
  auto newest = engine.query(1, patch, coords);  // sheds `oldest`

  EXPECT_THROW(oldest.get(), serve::Overloaded);  // the victim is the OLD one
  EXPECT_NO_THROW(in_flight.get());
  EXPECT_NO_THROW(newest.get());  // the new arrival was admitted
  EXPECT_EQ(engine.batcher_stats().admission_shed, 1u);
  EXPECT_EQ(engine.batcher_stats().admission_rejected, 0u);
}

TEST_F(ServeRobust, BlockPolicyCompletesEverythingUnderPressure) {
  serve::InferenceEngineConfig ecfg;
  ecfg.batcher.workers = 2;
  ecfg.batcher.max_batch_rows = 64;
  ecfg.batcher.max_queue_rows = 64;  // real backpressure
  ecfg.batcher.max_wait_us = 50;
  serve::InferenceEngine engine(std::move(make_model(15)), ecfg);
  Rng rng(16);
  const Tensor patch = make_patch(rng);
  const Tensor coords = make_coords(rng, 32);
  engine.prewarm(1, patch);

  constexpr int kClients = 4, kReqs = 16;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c)
    clients.emplace_back([&] {
      for (int m = 0; m < kReqs; ++m) {
        try {
          (void)engine.query_sync(1, patch, coords);
        } catch (const std::exception&) {
          failures.fetch_add(1);
        }
      }
    });
  for (auto& t : clients) t.join();
  // Block never drops: every request blocks for room and completes.
  EXPECT_EQ(failures.load(), 0);
  const auto bs = engine.batcher_stats();
  EXPECT_EQ(bs.requests, static_cast<std::uint64_t>(kClients * kReqs));
  EXPECT_EQ(bs.admission_rejected, 0u);
  EXPECT_EQ(bs.admission_shed, 0u);
}

// ------------------------------------------------------ precision brownout

TEST_F(ServeRobust, BrownoutDegradesUnderBacklogAndRecoversWithHysteresis) {
  serve::InferenceEngineConfig ecfg;
  ecfg.batcher.workers = 1;
  ecfg.batcher.max_wait_us = 0;
  ecfg.batcher.max_batch_rows = 32;  // one request per flush
  ecfg.batcher.brownout.enabled = true;
  ecfg.batcher.brownout.high_rows = 64;  // >= 2 queued requests
  // Depth is sampled pre-take, so a lone sequential request shows 32
  // queued rows: recovery means "at most one request waiting".
  ecfg.batcher.brownout.low_rows = 32;
  ecfg.batcher.brownout.dwell_flushes = 1;
  serve::InferenceEngine engine(std::move(make_model(17)), ecfg);
  Rng rng(18);
  const Tensor patch = make_patch(rng);
  const Tensor coords = make_coords(rng, 32);
  engine.prewarm(1, patch);
  const Tensor want = engine.query_sync(1, patch, coords);

  // Build a real backlog: the worker sleeps 20 ms per decode while 12
  // requests pile up, driving queued rows far over high_rows. The level
  // is sampled after every response: the last flushes of the backlog
  // already see the queue near empty and may step the ladder back down.
  int max_level = 0;
  {
    failpoint::ScopedFail slow("serve.slow_decode", sleep_ms(20.0));
    std::vector<std::future<Tensor>> futs;
    for (int i = 0; i < 12; ++i) futs.push_back(engine.query(1, patch, coords));
    for (auto& f : futs) {
      // Degraded responses are still delivered — at a reduced tier, so
      // only loosely comparable to the fp32 reference.
      Tensor out;
      ASSERT_NO_THROW(out = f.get());
      EXPECT_LT(max_abs_diff(out, want), 1.0);
      max_level = std::max(max_level, engine.batcher_stats().brownout_level);
    }
  }
  auto bs = engine.batcher_stats();
  EXPECT_GE(bs.brownout_enters, 1u);
  EXPECT_GE(bs.degraded_requests, 1u);
  EXPECT_GE(bs.degraded_units, 1u);
  EXPECT_EQ(max_level, 1) << "the ladder has a single rung";
  // Every degraded unit ran the int8 plan; none fell back to the tape.
  EXPECT_GE(bs.planned_int8, bs.degraded_units);
  EXPECT_EQ(bs.precision_fallbacks, 0u);

  // Recovery: sequential traffic drains the queue to empty each flush;
  // with dwell_flushes=1 the ladder steps back down to fp32.
  for (int i = 0; i < 8; ++i)
    EXPECT_LT(max_abs_diff(engine.query_sync(1, patch, coords), want), 1.0);
  bs = engine.batcher_stats();
  EXPECT_EQ(bs.brownout_level, 0);
  EXPECT_GE(bs.brownout_exits, 1u);
  // Hysteresis held: the ladder never slammed past its enter/exit pairs.
  EXPECT_EQ(bs.brownout_enters - bs.brownout_exits, 0u);

  // Back at level 0, responses are exact fp32 again.
  EXPECT_LT(max_abs_diff(engine.query_sync(1, patch, coords), want), 2e-5);
}

// Regression: brownout used to lower every drained request's tier without
// looking at its snapshot. A decoder too wide for the prepacked panels has
// no plan at any tier, so the tape served those requests fp32 anyway — yet
// each was counted as degraded, and each unit as a precision fallback the
// client never asked for.
TEST_F(ServeRobust, BrownoutLeavesUnplannableRequestsAtTheirTier) {
  core::MFNConfig cfg = core::MFNConfig::small_default();
  cfg.decoder.hidden = {400, 16};  // K = 400 > sgemm_prepacked_max_k()
  Rng mrng(27);
  auto model = std::make_unique<core::MeshfreeFlowNet>(cfg, mrng);
  model->set_training(false);
  serve::InferenceEngineConfig ecfg;
  ecfg.batcher.workers = 1;
  ecfg.batcher.max_wait_us = 0;
  ecfg.batcher.max_batch_rows = 32;  // one request per flush
  ecfg.batcher.brownout.enabled = true;
  ecfg.batcher.brownout.high_rows = 64;
  ecfg.batcher.brownout.low_rows = 32;
  ecfg.batcher.brownout.dwell_flushes = 1;
  serve::InferenceEngine engine(std::move(model), ecfg);
  Rng rng(28);
  const Tensor patch = make_patch(rng);
  const Tensor coords = make_coords(rng, 32);
  engine.prewarm(1, patch);
  const Tensor want = engine.query_sync(1, patch, coords);

  {
    failpoint::ScopedFail slow("serve.slow_decode", sleep_ms(20.0));
    std::vector<std::future<Tensor>> futs;
    for (int i = 0; i < 12; ++i) futs.push_back(engine.query(1, patch, coords));
    for (auto& f : futs) {
      Tensor out;
      ASSERT_NO_THROW(out = f.get());
      EXPECT_LT(max_abs_diff(out, want), 2e-5);
    }
  }
  const auto bs = engine.batcher_stats();
  EXPECT_GE(bs.brownout_enters, 1u) << "backlog never tripped the brownout";
  EXPECT_EQ(bs.planned_decodes, 0u);
  EXPECT_EQ(bs.degraded_requests, 0u);
  EXPECT_EQ(bs.degraded_units, 0u);
  EXPECT_EQ(bs.precision_fallbacks, 0u);
}

// Regression: a brownout configured with ONLY the latency watermark
// (high_wait_ms set, low_wait_ms left at its 0 default) used to latch —
// exit required wait_ewma <= 0, and the EWMA never returns to exactly
// zero after the first burst, so the engine served degraded tiers
// forever. The constructor now defaults a missing low watermark to
// high/2; this test drives a burst in and then requires the ladder to
// step all the way back down on idle traffic.
TEST_F(ServeRobust, BrownoutWaitOnlyConfigExitsAfterBurst) {
  serve::InferenceEngineConfig ecfg;
  ecfg.batcher.workers = 1;
  ecfg.batcher.max_wait_us = 0;
  ecfg.batcher.max_batch_rows = 32;  // one request per flush
  ecfg.batcher.brownout.enabled = true;
  ecfg.batcher.brownout.high_wait_ms = 4.0;  // latency watermark ONLY
  ecfg.batcher.brownout.dwell_flushes = 1;
  serve::InferenceEngine engine(std::move(make_model(25)), ecfg);
  Rng rng(26);
  const Tensor patch = make_patch(rng);
  const Tensor coords = make_coords(rng, 32);
  engine.prewarm(1, patch);

  // Burst: the worker sleeps 15 ms per decode while 12 requests pile up,
  // so per-flush queue waits climb well past high_wait_ms.
  {
    failpoint::ScopedFail slow("serve.slow_decode", sleep_ms(15.0));
    std::vector<std::future<Tensor>> futs;
    for (int i = 0; i < 12; ++i)
      futs.push_back(engine.query(1, patch, coords));
    for (auto& f : futs) ASSERT_NO_THROW(f.get());
  }
  const auto mid = engine.batcher_stats();
  ASSERT_GE(mid.brownout_enters, 1u) << "burst never tripped the brownout";

  // Idle recovery: sequential requests wait ~0 in the queue, decaying the
  // EWMA geometrically. Pre-fix this loop leaves brownout_level pinned.
  for (int i = 0; i < 48; ++i)
    ASSERT_NO_THROW((void)engine.query_sync(1, patch, coords));
  const auto bs = engine.batcher_stats();
  EXPECT_EQ(bs.brownout_level, 0)
      << "wait-signal-only brownout latched at a degraded tier";
  EXPECT_GE(bs.brownout_exits, 1u);
  EXPECT_EQ(bs.brownout_enters, bs.brownout_exits);
}

// ------------------------------------------------- single-flight encodes

TEST_F(ServeRobust, RacingMissesRunOneEncode) {
  serve::InferenceEngine engine(make_model(27));
  Rng rng(28);
  const Tensor patch = make_patch(rng);
  const Tensor coords = make_coords(rng, 32);

  // Pin the leader inside its encode long enough for followers to arrive.
  failpoint::ScopedFail slow("serve.slow_encode", sleep_ms(250.0));
  Tensor leader_out;
  std::thread leader(
      [&] { leader_out = engine.query_sync(7, patch, coords); });
  const auto limit = Clock::now() + std::chrono::seconds(10);
  while (failpoint::fire_count("serve.slow_encode") < 1) {
    ASSERT_LT(Clock::now(), limit) << "leader never reached the encode";
    std::this_thread::yield();
  }

  constexpr int kFollowers = 4;
  std::vector<Tensor> outs(kFollowers);
  std::vector<std::thread> followers;
  for (int c = 0; c < kFollowers; ++c)
    followers.emplace_back(
        [&, c] { outs[c] = engine.query_sync(7, patch, coords); });
  for (auto& t : followers) t.join();
  leader.join();

  // One Context Generation Network forward total; every racer was either
  // the leader or deduplicated onto its flight.
  const auto es = engine.encode_stats();
  EXPECT_EQ(es.encodes, 1u);
  EXPECT_EQ(es.dedup_encodes, static_cast<std::uint64_t>(kFollowers));
  // Cache accounting stays exact: one get() per request, all misses (the
  // followers raced the leader, none re-reads the cache afterwards).
  const auto cs = engine.cache_stats();
  EXPECT_EQ(cs.misses, static_cast<std::uint64_t>(kFollowers) + 1);
  EXPECT_EQ(cs.hits, 0u);
  // Everyone got the same latent, so responses are bitwise identical.
  for (const Tensor& out : outs)
    EXPECT_EQ(max_abs_diff(out, leader_out), 0.0);
}

// ------------------------------------------------- checkpoint load guards

TEST_F(ServeRobust, LoadCheckpointWeightsRejectsNonFiniteNamingTheTensor) {
  auto model = make_model(19);
  auto params = model->parameters();
  ASSERT_FALSE(params.empty());
  const std::string bad_name = model->named_parameters().front().first;
  params.front()->value().data()[0] =
      std::numeric_limits<float>::quiet_NaN();
  const std::string path = ::testing::TempDir() + "robust_nan.ckpt";
  {
    optim::Adam opt(model->parameters());
    core::save_checkpoint(path, *model, opt, core::CheckpointData{});
  }

  auto fresh = make_model(20);
  try {
    core::load_checkpoint_weights(path, *fresh);
    FAIL() << "non-finite checkpoint was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("non-finite"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find(bad_name), std::string::npos)
        << "error must name the offending tensor: " << e.what();
  }
  std::remove(path.c_str());
}

// ------------------------------------------------------- reload hardening

/// Fixture bits shared by the rollback tests: a serving engine, a good
/// checkpoint with different weights, and a burst of live client traffic
/// across the reload.
struct ReloadHarness {
  ReloadHarness() : engine(make_model(21), tuned_config()) {
    Rng rng(22);
    patch = make_patch(rng);
    coords = make_coords(rng, 32);
    engine.prewarm(1, patch);
    before = engine.query_sync(1, patch, coords);

    auto trained = make_model(23);
    path = ::testing::TempDir() + "robust_reload.ckpt";
    optim::Adam opt(trained->parameters());
    core::save_checkpoint(path, *trained, opt, core::CheckpointData{});
  }
  ~ReloadHarness() { std::remove(path.c_str()); }

  static serve::InferenceEngineConfig tuned_config() {
    serve::InferenceEngineConfig cfg;
    cfg.reload.backoff_initial_ms = 1;  // keep retry tests fast
    return cfg;
  }

  /// Run `fn` while client threads hammer the engine; returns the number
  /// of client requests that failed (must be zero — reload problems are
  /// the operator's, never the clients').
  template <typename Fn>
  int with_traffic(Fn&& fn) {
    std::atomic<bool> stop{false};
    std::atomic<int> failures{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < 3; ++c)
      clients.emplace_back([&] {
        while (!stop.load(std::memory_order_relaxed)) {
          try {
            Tensor out = engine.query_sync(1, patch, coords);
            if (out.dim(0) != coords.dim(0)) failures.fetch_add(1);
          } catch (const std::exception&) {
            failures.fetch_add(1);
          }
        }
      });
    fn();
    stop.store(true);
    for (auto& t : clients) t.join();
    return failures.load();
  }

  serve::InferenceEngine engine;
  Tensor patch, coords, before;
  std::string path;
};

TEST_F(ServeRobust, CorruptCheckpointRollsBackMidTrafficZeroClientFailures) {
  ReloadHarness h;
  const std::uint64_t v0 = h.engine.snapshot_version();

  // Every load attempt sees a NaN-poisoned weight: the reload must retry,
  // give up, roll back, and rethrow — while live traffic never fails and
  // never observes non-last-good weights.
  failpoint::ScopedFail nan("ckpt.nan_weight");
  const int client_failures = h.with_traffic([&] {
    EXPECT_THROW(h.engine.reload_from_checkpoint(h.path), Error);
  });
  EXPECT_EQ(client_failures, 0);
  EXPECT_EQ(h.engine.snapshot_version(), v0);  // candidate never published

  const auto rs = h.engine.reload_stats();
  EXPECT_EQ(rs.reloads, 0u);
  EXPECT_EQ(rs.attempts, 3u);  // default max_attempts
  EXPECT_EQ(rs.retries, 2u);
  EXPECT_EQ(rs.rollbacks, 1u);
  EXPECT_NE(rs.last_error.find("non-finite"), std::string::npos);

  // Serving continues bit-identically on the last-good snapshot.
  EXPECT_EQ(max_abs_diff(h.engine.query_sync(1, h.patch, h.coords),
                         h.before),
            0.0);
}

TEST_F(ServeRobust, TransientIOFailureRetriesThenPublishes) {
  ReloadHarness h;
  const std::uint64_t v0 = h.engine.snapshot_version();

  // The first two open attempts fail, the third succeeds: capped backoff
  // must carry the reload through without a rollback.
  failpoint::ScopedFail io("ckpt.transient_io", fire_times(2));
  const int client_failures =
      h.with_traffic([&] { h.engine.reload_from_checkpoint(h.path); });
  EXPECT_EQ(client_failures, 0);
  EXPECT_EQ(h.engine.snapshot_version(), v0 + 1);

  const auto rs = h.engine.reload_stats();
  EXPECT_EQ(rs.reloads, 1u);
  EXPECT_EQ(rs.attempts, 3u);
  EXPECT_EQ(rs.retries, 2u);
  EXPECT_EQ(rs.rollbacks, 0u);

  // New traffic serves the checkpoint's weights, not the old snapshot's.
  EXPECT_GT(max_abs_diff(h.engine.query_sync(1, h.patch, h.coords),
                         h.before),
            1e-3);
}

TEST_F(ServeRobust, CanaryRejectsNumericallyBrokenCheckpoint) {
  ReloadHarness h;
  const std::uint64_t v0 = h.engine.snapshot_version();

  // Finite but numerically broken weights: scale one parameter to 1e18.
  // The finite scan passes; the canary decode must catch it before
  // publication.
  {
    auto broken = make_model(24);
    float* w = broken->parameters().front()->value().data();
    for (std::int64_t i = 0;
         i < broken->parameters().front()->value().numel(); ++i)
      w[i] *= 1e18f;
    optim::Adam opt(broken->parameters());
    core::save_checkpoint(h.path, *broken, opt, core::CheckpointData{});
  }

  EXPECT_THROW(h.engine.reload_from_checkpoint(h.path), Error);
  EXPECT_EQ(h.engine.snapshot_version(), v0);
  const auto rs = h.engine.reload_stats();
  EXPECT_EQ(rs.rollbacks, 1u);
  EXPECT_NE(rs.last_error.find("canary"), std::string::npos);
  EXPECT_EQ(max_abs_diff(h.engine.query_sync(1, h.patch, h.coords),
                         h.before),
            0.0);
}

TEST_F(ServeRobust, TruncatedCheckpointRollsBackThenGoodReloadLands) {
  ReloadHarness h;
  const std::uint64_t v0 = h.engine.snapshot_version();

  {
    // Truncation on every attempt: rollback.
    failpoint::ScopedFail trunc("ckpt.truncate");
    EXPECT_THROW(h.engine.reload_from_checkpoint(h.path), Error);
  }
  EXPECT_EQ(h.engine.snapshot_version(), v0);
  EXPECT_EQ(h.engine.reload_stats().rollbacks, 1u);

  // The fault cleared (ScopedFail disarmed): the same reload now lands.
  h.engine.reload_from_checkpoint(h.path);
  EXPECT_EQ(h.engine.snapshot_version(), v0 + 1);
  EXPECT_EQ(h.engine.reload_stats().reloads, 1u);
}

}  // namespace
}  // namespace mfn
