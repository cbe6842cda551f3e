// The four benchmark workloads. Each returns end-to-end metrics when
// tracing is off and per-layer metrics when it is on.
#pragma once

#include "bench_common.h"
#include "common.h"

namespace perfbench {

Outcome run_train(const Options& opt);
Outcome run_superres(const Options& opt);
Outcome run_serve(const Options& opt);
Outcome run_dist_train(const Options& opt);

/// One rank of a dist_train job, when this executable is re-executed as a
/// worker process. Returns the process exit code.
int run_dist_rank(int argc, char** argv);

/// The solver-generated field train and superres share: an RB run at
/// Ra = 1e6 on the bench grid (64 x 32 cells), 16 snapshots, paired with
/// its LR copy at the bench factors (t 4, space 4).
mfn::data::SRPair solve_field(std::uint64_t seed);

/// Self times of the spans recorded so far, added as per-layer metrics
/// `<span>_ms` divided by `per`, except for the spans in `skip`. The self
/// time of the span named `root` (the part of the traced window no layer
/// span covers) is reported as bench.unattributed_ms and its duration as
/// bench.traced_wall_ms, both divided by `per`.
void add_layer_times(Outcome& out, const std::string& root, double per,
                     const std::vector<std::string>& skip = {});

/// Mean duration of the spans named `name`, in milliseconds.
double span_mean_ms(const std::string& name);

}  // namespace perfbench
