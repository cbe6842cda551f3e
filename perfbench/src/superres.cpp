// superres: offline continuous super-resolution of a solver-generated
// field with core::super_resolve_at, sampled on a grid finer than the HR
// grid in every axis (the paper's "any resolution" claim). It bypasses the
// serving stack (engine, latent cache, batcher, DecodePlan).
//
// The traced run replays super_resolve_at through the same public calls
// (encode, then decode per chunk) with spans, checks the replay is bitwise
// identical to the library call, and alternates with untraced calls to
// measure the tracing overhead.
#include <cmath>
#include <cstring>

#include "autodiff/variable.h"
#include "core/checkpoint.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace mfn;

// HR is (16, 32, 64); sample at 2x HR in every axis (8x LR).
constexpr std::int64_t kNT = 32, kNZ = 64, kNX = 128;
constexpr std::int64_t kChunk = 8192;  // super_resolve_at's default
constexpr int kSetupReps = 3;
constexpr int kCheckedPoints = 256;

/// super_resolve_at's body, call for call, with spans around the layers.
data::Grid4D traced_super_resolve_at(core::MeshfreeFlowNet& model,
                                     const data::SRPair& pair) {
  trace::Span body("core.evaluation.unattributed");
  ad::NoGradGuard no_grad;
  model.set_training(false);
  const data::Grid4D& lr = pair.lr_norm;
  ad::Var latent;
  {
    trace::Span sp("nn.encode_nograd");
    latent = model.encode(lr.data.reshape(
        Shape{1, lr.channels(), lr.nt(), lr.nz(), lr.nx()}));
  }
  const double ft = double(kNT) / double(lr.nt());
  const double fz = double(kNZ) / double(lr.nz());
  const double fx = double(kNX) / double(lr.nx());
  data::Grid4D out;
  out.data = Tensor(Shape{lr.channels(), kNT, kNZ, kNX});
  out.dt = lr.dt / ft;
  out.dz_cell = lr.dz_cell / fz;
  out.dx_cell = lr.dx_cell / fx;
  out.t0 = lr.t0 - 0.5 * (ft - 1.0) * out.dt;
  const std::int64_t total = kNT * kNZ * kNX, sz = kNZ * kNX;
  for (std::int64_t begin = 0; begin < total; begin += kChunk) {
    const std::int64_t end = std::min(begin + kChunk, total);
    Tensor coords(Shape{end - begin, 3});
    for (std::int64_t q = begin; q < end; ++q) {
      const std::int64_t t = q / sz, rz = (q % sz) / kNX, rx = q % kNX;
      coords.at({q - begin, 0}) = static_cast<float>((double(t) + 0.5) / ft - 0.5);
      coords.at({q - begin, 1}) = static_cast<float>((double(rz) + 0.5) / fz - 0.5);
      coords.at({q - begin, 2}) = static_cast<float>((double(rx) + 0.5) / fx - 0.5);
    }
    Tensor rows;
    {
      trace::Span sp("core.decoder.decode_streamed");
      rows = model.decoder().decode(latent, coords).value().clone();
    }
    pair.stats.denormalize_rows(rows);
    for (std::int64_t q = begin; q < end; ++q) {
      const std::int64_t t = q / sz, rz = (q % sz) / kNX, rx = q % kNX;
      for (int c = 0; c < data::kNumChannels; ++c)
        out.data.at({c, t, rz, rx}) = rows.at({q - begin, c});
    }
  }
  return out;
}

/// Largest error of `grid` at seeded sample points against a tape
/// predict (grad mode on, so the decode takes the tape path rather than
/// the streamed kernel), relative to each channel's HR spread.
double tape_check_error(core::MeshfreeFlowNet& model, const data::SRPair& pair,
                        const data::Grid4D& grid, std::uint64_t seed) {
  const data::Grid4D& lr = pair.lr_norm;
  const double ft = double(kNT) / double(lr.nt());
  const double fz = double(kNZ) / double(lr.nz());
  const double fx = double(kNX) / double(lr.nx());
  Rng rng(seed);
  Tensor coords(Shape{kCheckedPoints, 3});
  std::vector<std::array<std::int64_t, 3>> idx;
  for (std::int64_t i = 0; i < kCheckedPoints; ++i) {
    const std::int64_t t = rng.uniform_int(0, kNT), z = rng.uniform_int(0, kNZ),
                       x = rng.uniform_int(0, kNX);
    idx.push_back({t, z, x});
    coords.at({i, 0}) = static_cast<float>((double(t) + 0.5) / ft - 0.5);
    coords.at({i, 1}) = static_cast<float>((double(z) + 0.5) / fz - 0.5);
    coords.at({i, 2}) = static_cast<float>((double(x) + 0.5) / fx - 0.5);
  }
  model.set_training(false);
  Tensor rows = model
                    .predict(lr.data.reshape(Shape{1, lr.channels(), lr.nt(),
                                                   lr.nz(), lr.nx()}),
                             coords)
                    .value()
                    .clone();
  pair.stats.denormalize_rows(rows);
  double worst = 0.0;
  for (std::int64_t i = 0; i < kCheckedPoints; ++i)
    for (int c = 0; c < data::kNumChannels; ++c) {
      const auto [t, z, x] = idx[static_cast<std::size_t>(i)];
      const double err = std::abs(double(grid.data.at({c, t, z, x})) -
                                  rows.at({i, c}));
      worst = std::max(worst, err / pair.stats.stddev[static_cast<std::size_t>(c)]);
    }
  return worst;
}

}  // namespace

Outcome run_superres(const Options& opt) {
  Outcome out;
  data::SRPair pair;
  std::unique_ptr<core::MeshfreeFlowNet> model;
  std::vector<double> setup_s, solve_s, save_ms, load_ms;
  const std::string ckpt = opt.work_dir + "/superres.ckpt";
  for (int r = 0; r < kSetupReps; ++r) {
    const auto t0 = Clock::now();
    pair = solve_field(opt.seed);
    solve_s.push_back(s_since(t0));
    Rng init(derive_seed(opt.seed, 3));
    core::MeshfreeFlowNet trained(bench::bench_model_config(), init);
    optim::Adam adam(trained.parameters());
    auto t1 = Clock::now();
    core::save_checkpoint(ckpt, trained, adam, {});
    save_ms.push_back(1e3 * s_since(t1));
    Rng blank(0);
    model = std::make_unique<core::MeshfreeFlowNet>(bench::bench_model_config(),
                                                    blank);
    t1 = Clock::now();
    core::load_checkpoint_weights(ckpt, *model);
    load_ms.push_back(1e3 * s_since(t1));
    setup_s.push_back(s_since(t0));
  }

  const double points = double(kNT * kNZ * kNX);
  std::vector<double> rate, traced_ms, plain_ms;
  const auto start = Clock::now();
  const std::uint64_t min_calls = opt.trace ? 4 : 2;
  for (std::uint64_t k = 0; k < min_calls || s_since(start) < opt.seconds; ++k) {
    const bool traced = opt.trace && k % 2 == 1;
    const auto t0 = Clock::now();
    data::Grid4D grid;
    if (traced) {
      trace::Span root("superres");
      grid = traced_super_resolve_at(*model, pair);
    } else {
      trace::set_enabled(false);
      grid = core::super_resolve_at(*model, pair, kNT, kNZ, kNX, kChunk);
      trace::set_enabled(opt.trace);
    }
    const double s = s_since(t0);
    out.attempted++;
    (traced ? traced_ms : plain_ms).push_back(1e3 * s);
    if (!traced) rate.push_back(points / s);
    if (k < 2) {
      // Check the first call of each kind against the tape; the traced
      // replay must also equal the library call bit for bit.
      const double err = tape_check_error(*model, pair, grid,
                                          derive_seed(opt.seed, 4));
      const bool ok = err < 1e-4;
      out.check(ok, "super_resolve_at differs from a tape predict");
      if (!ok) out.failed++;
      if (traced) {
        trace::set_enabled(false);
        const data::Grid4D ref =
            core::super_resolve_at(*model, pair, kNT, kNZ, kNX, kChunk);
        trace::set_enabled(true);
        out.check(std::memcmp(ref.data.data(), grid.data.data(),
                              sizeof(float) * std::size_t(ref.data.numel())) == 0,
                  "traced replay differs from super_resolve_at");
      }
    }
  }

  if (!opt.trace) {
    out.add("setup_s", median(setup_s), "s");
    out.add("peak_rss_mib", peak_rss_mib(), "MiB");
    out.add("latency_ms", median(plain_ms), "ms");
    out.add("throughput_per_s", median(rate), "1/s");
    return out;
  }
  add_layer_times(out, "superres", traced_ms.size());
  out.add("solver.generate_s", median(solve_s), "s");
  out.add("core.checkpoint.save_ms", median(save_ms), "ms");
  out.add("core.checkpoint.load_ms", median(load_ms), "ms");
  out.add("bench.trace_overhead_pct",
          100.0 * (median(traced_ms) / median(plain_ms) - 1.0), "%");
  return out;
}

}  // namespace perfbench
