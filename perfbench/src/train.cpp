// train: closed-loop training to a fixed held-out reconstruction error.
//
// Trials run core::Trainer (gamma = 0.0125, so the PDE derivative bundle
// and its backward are on) on solver-generated fields until the held-out
// MSE reaches kTargetMse or kStepCap steps pass; trials repeat until the
// run's time is used. The held-out checks are not timed. The traced run
// replays Trainer::run_epoch's step through the same public calls with a
// span around each layer, and alternates with untraced Trainer trials to
// measure the tracing overhead.
#include <cmath>
#include <cstdio>

#include "autodiff/variable.h"
#include "backend/sgemm.h"
#include "backend/workspace.h"
#include "core/losses.h"
#include "optim/optimizer.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace mfn;

constexpr double kGamma = 0.0125;
constexpr double kTargetMse = 0.30;  // normalized units, all 4 channels
constexpr int kEvalEvery = 4;        // steps between held-out checks
constexpr int kStepCap = 400;
constexpr std::int64_t kBatch = 2;   // patches per step
// Distinct solver fields per run, one set-up each (setup_s is their
// median); trials rotate over them, so one field's difficulty does not set
// the run's time to target.
constexpr int kFields = 3;

core::TrainerConfig trainer_config(std::uint64_t seed) {
  core::TrainerConfig cfg = bench::bench_trainer_config(kGamma, seed);
  cfg.batches_per_epoch = kEvalEvery;
  cfg.batch_size = kBatch;
  cfg.lr_decay = 1.0;
  return cfg;
}

/// Held-out reconstruction MSE: the model's eval-mode, no-tape values on a
/// fixed regular grid of query points in patches tiling the field,
/// against the HR data (normalized units, all four channels).
double heldout_mse(core::MeshfreeFlowNet& model,
                   const std::vector<data::SampleBatch>& held) {
  trace::Span span("core.evaluation.heldout");
  ad::NoGradGuard no_grad;
  model.set_training(false);
  double sum = 0.0;
  std::int64_t n = 0;
  for (const data::SampleBatch& b : held) {
    const Tensor pred = model.predict(b.lr_patch, b.query_coords).value();
    const float* p = pred.data();
    const float* t = b.target.data();
    for (std::int64_t i = 0; i < pred.numel(); ++i)
      sum += (double(p[i]) - t[i]) * (double(p[i]) - t[i]);
    n += pred.numel();
  }
  model.set_training(true);
  return sum / static_cast<double>(n);
}

/// Computed forward FLOPs of the U-Net on one (kBatch, 4, lt, lz, lx)
/// batch: 2 * Cout * Cin * k^3 per output voxel for every convolution, at
/// the resolution of the level it runs on (stem/head/up0 at level 0,
/// down{i} at level i+1, up{i} at level i).
double unet_forward_flops(core::MeshfreeFlowNet& model,
                          const data::PatchSamplerConfig& pc) {
  const auto& pools = model.config().unet.pools;
  std::vector<double> voxels{double(kBatch * pc.patch_nt * pc.patch_nz *
                                    pc.patch_nx)};
  for (const auto& p : pools)
    voxels.push_back(voxels.back() / double(p[0] * p[1] * p[2]));
  double flops = 0.0;
  for (auto& [name, var] : model.encoder().named_parameters()) {
    const Shape& s = var->value().shape();
    if (s.ndim() != 5) continue;  // conv weights only
    std::size_t level = 0;
    if (name.rfind("down", 0) == 0) level = std::stoul(name.substr(4)) + 1;
    else if (name.rfind("up", 0) == 0) level = std::stoul(name.substr(2));
    flops += 2.0 * double(s.numel()) * voxels[level];
  }
  return flops;
}

/// Best-of-5 GFLOP/s of a 384^3 sgemm on this run's thread pool.
double sgemm_peak_gflops() {
  constexpr std::int64_t n = 384;
  std::vector<float> a(n * n, 0.5f), b(n * n, 0.25f), c(n * n, 0.0f);
  double best = 0.0;
  for (int r = 0; r < 6; ++r) {
    const auto t0 = Clock::now();
    backend::sgemm(backend::Trans::kNo, backend::Trans::kNo, n, n, n, 1.0f,
                   a.data(), b.data(), 0.0f, c.data());
    const double s = s_since(t0);
    if (r > 0) best = std::max(best, 2.0 * n * n * n / s / 1e9);
  }
  return best;
}

struct Setup {
  data::SRPair pair;
  std::unique_ptr<data::PatchSampler> sampler;
  core::EquationLossConfig eq;
  std::vector<data::SampleBatch> held;
};

void build_setup(Setup& s, std::uint64_t seed) {
  {
    trace::Span span("solver.generate");
    s.pair = solve_field(seed);
  }
  s.sampler = std::make_unique<data::PatchSampler>(s.pair,
                                                   bench::bench_patch_config());
  s.eq = bench::equation_config(*s.sampler, 1e6);
  s.held.clear();
  const std::int64_t lr_nx = s.pair.lr_norm.nx();
  const std::int64_t px = s.sampler->config().patch_nx;
  for (std::int64_t x0 = 0; x0 + px <= lr_nx; x0 += px / 2)
    s.held.push_back(s.sampler->grid_batch(0, 0, x0, 8, 16, 16));
}

struct Trial {
  double train_s = 0.0;
  std::vector<double> step_ms;  // one per held-out check: its steps' mean
  int steps = 0;
  bool reached = false;
  bool finite = true;
};

/// One untraced trial through core::Trainer.
Trial trial_trainer(const Setup& s, std::uint64_t seed) {
  Rng init(derive_seed(seed, 3));
  core::MeshfreeFlowNet model(bench::bench_model_config(), init);
  core::Trainer trainer(model, *s.sampler, s.eq, trainer_config(seed));
  Trial t;
  while (t.steps < kStepCap) {
    const core::EpochStats e = trainer.run_epoch();
    t.train_s += e.wall_seconds;
    t.step_ms.push_back(1e3 * e.wall_seconds / kEvalEvery);
    t.steps += kEvalEvery;
    t.finite = t.finite && std::isfinite(e.total_loss);
    if (!t.finite) break;
    if (heldout_mse(model, s.held) <= kTargetMse) {
      t.reached = true;
      break;
    }
  }
  return t;
}

/// One traced trial: Trainer::run_epoch's step, call for call, with a span
/// around each layer (same seeds, so the same patches are drawn).
Trial trial_traced(const Setup& s, std::uint64_t seed) {
  Rng init(derive_seed(seed, 3));
  core::MeshfreeFlowNet model(bench::bench_model_config(), init);
  const core::TrainerConfig cfg = trainer_config(seed);
  optim::Adam adam(model.parameters(), cfg.adam);
  Rng rng(cfg.seed * 0x51ED2701ull + 77ull);
  Trial t;
  model.set_training(true);
  while (t.steps < kStepCap) {
    const auto t0 = Clock::now();
    {
      trace::Span root("train");
      for (int b = 0; b < kEvalEvery; ++b) {
        rng.uniform_int(0, 1);  // Trainer's sampler pick (one sampler)
        data::BatchedSample batch;
        {
          trace::Span sp("data.sample_batch");
          batch = s.sampler->sample_batch(cfg.batch_size, rng);
        }
        {
          trace::Span sp("optim.zero_grad");
          adam.zero_grad();
        }
        ad::Var latent;
        {
          trace::Span sp("nn.encode_train");
          latent = model.encode(batch.lr_patches);
        }
        core::DecodeDerivs d;
        {
          trace::Span sp("core.decoder.derivs");
          d = model.decoder().decode_with_derivatives(latent,
                                                      batch.query_coords);
        }
        ad::Var loss;
        {
          trace::Span sp("core.losses");
          ad::Var lp = core::prediction_loss(d.value, batch.targets);
          core::EquationResiduals res = core::equation_loss(d, s.eq);
          loss = ad::add(lp, ad::mul_scalar(res.total,
                                            static_cast<float>(cfg.gamma)));
        }
        {
          trace::Span sp("autodiff.backward");
          ad::backward(loss);
        }
        {
          trace::Span sp("optim.clip_step");
          optim::clip_grad_norm(adam.params(), cfg.grad_clip);
          adam.step();
        }
        {
          trace::Span sp("backend.alloc_epoch");
          backend::CachingAllocator::instance().next_step();
        }
        t.finite = t.finite && std::isfinite(loss.value().item());
      }
    }
    t.step_ms.push_back(1e3 * s_since(t0) / kEvalEvery);
    t.train_s += s_since(t0);
    t.steps += kEvalEvery;
    if (!t.finite) break;
    if (heldout_mse(model, s.held) <= kTargetMse) {
      t.reached = true;
      break;
    }
  }
  return t;
}

}  // namespace

Outcome run_train(const Options& opt) {
  Outcome out;
  std::vector<std::unique_ptr<Setup>> fields;  // samplers point into them
  std::vector<double> setup_s;
  for (int f = 0; f < kFields; ++f) {
    const auto t0 = Clock::now();
    fields.push_back(std::make_unique<Setup>());
    build_setup(*fields.back(), derive_seed(opt.seed, 30 + f));
    setup_s.push_back(s_since(t0));
  }

  const double flops_per_step = [&] {
    Rng init(0);
    core::MeshfreeFlowNet probe(bench::bench_model_config(), init);
    return unet_forward_flops(probe, bench::bench_patch_config());
  }();
  const double peak = opt.trace ? sgemm_peak_gflops() : 0.0;
  const backend::CachingAllocator::Stats a0 =
      backend::CachingAllocator::instance().stats();

  std::vector<double> tt, step_ms, traced_ms_step, plain_ms_step, steps_to_target;
  int total_steps = 0, traced_steps = 0;
  const auto start = Clock::now();
  // The traced run needs one trial of each kind for the overhead figure.
  const std::uint64_t min_trials = opt.trace ? 2 : 1;
  for (std::uint64_t k = 0; k < min_trials || s_since(start) < opt.seconds;
       ++k) {
    const std::uint64_t trial_seed = derive_seed(opt.seed, 100 + k);
    const bool traced = opt.trace && k % 2 == 1;
    trace::set_enabled(traced);
    const Setup& s = *fields[k % kFields];
    const Trial t = traced ? trial_traced(s, trial_seed)
                           : trial_trainer(s, trial_seed);
    trace::set_enabled(opt.trace);
    out.attempted++;
    if (!t.reached || !t.finite) out.failed++;
    out.check(t.finite, "non-finite training loss");
    out.check(t.reached, "held-out MSE target not reached within the cap");
    std::fprintf(stderr, "perfbench train: trial %llu field %d%s: %d steps, %.3f s\n",
                 static_cast<unsigned long long>(k), int(k % kFields),
                 traced ? " traced" : "", t.steps, t.train_s);
    if (!traced) {
      tt.push_back(t.train_s);
      step_ms.insert(step_ms.end(), t.step_ms.begin(), t.step_ms.end());
    }
    steps_to_target.push_back(t.steps);
    total_steps += t.steps;
    (traced ? traced_ms_step : plain_ms_step)
        .push_back(1e3 * t.train_s / t.steps);
    if (traced) traced_steps += t.steps;
  }

  // Mean over the untraced trials. A trial's steps to target swing about
  // 25% with its init, patch draws and field, so a run's mean time to
  // target moves 0.12-0.2 (quartile spread over five seeds) and is
  // reported with the layers, without a bound; the end-to-end latency is
  // the step time.
  double time_to_target_s = 0.0;
  for (double t : tt) time_to_target_s += t / double(tt.size());
  std::fprintf(stderr, "perfbench train: mean time to target %.3f s\n",
               time_to_target_s);

  if (!opt.trace) {
    out.add("setup_s", median(setup_s), "s");
    out.add("peak_rss_mib", peak_rss_mib(), "MiB");
    // Medians, so a burst of host noise in one stretch of the run does not
    // set the figure: of the held-out checks' mean step time, and of the
    // trials' patches/s.
    out.add("latency_ms", median(step_ms), "ms");
    out.add("throughput_per_s", kBatch * 1e3 / median(plain_ms_step), "1/s");
    return out;
  }
  const backend::CachingAllocator::Stats a1 =
      backend::CachingAllocator::instance().stats();
  add_layer_times(out, "train", traced_steps,
                  {"solver.generate", "core.evaluation.heldout"});
  const auto layers = trace::summarize();
  const double encode_ms = layers.count("nn.encode_train")
                               ? layers.at("nn.encode_train").self_ms /
                                     traced_steps
                               : 0.0;
  const double allocs = double(a1.allocs - a0.allocs);
  const double heap = double(a1.heap_allocs - a0.heap_allocs);
  out.add("backend.heap_allocs_per_step", heap / total_steps, "count");
  out.add("backend.alloc_cache_hit_ratio",
          allocs > 0 ? 1.0 - heap / allocs : 0.0, "ratio");
  out.add("nn.encode_train_gflops",
          encode_ms > 0 ? flops_per_step / (encode_ms * 1e6) : 0.0,
          "GFLOP/s");
  out.add("backend.sgemm_peak_gflops", peak, "GFLOP/s");
  out.add("core.trainer.steps_to_target", median(steps_to_target), "count");
  out.add("core.trainer.time_to_target_s", time_to_target_s, "s");
  out.add("solver.generate_s", span_mean_ms("solver.generate") / 1e3, "s");
  out.add("bench.trace_overhead_pct",
          plain_ms_step.empty() || traced_ms_step.empty()
              ? 0.0
              : 100.0 * (median(traced_ms_step) / median(plain_ms_step) - 1),
          "%");
  return out;
}

}  // namespace perfbench
