#include <algorithm>

#include "trace.h"
#include "workloads.h"

namespace perfbench {

mfn::data::SRPair solve_field(std::uint64_t seed) {
  mfn::data::DatasetConfig cfg =
      mfn::bench::BenchDataset::dataset_config(1e6, seed);
  cfg.spinup_time = 4.0;
  cfg.duration = 4.0;
  cfg.num_snapshots = 16;
  return mfn::data::make_sr_pair(mfn::data::generate_rb_dataset(cfg),
                                 mfn::bench::BenchDataset::kTimeFactor,
                                 mfn::bench::BenchDataset::kSpaceFactor);
}

void add_layer_times(Outcome& out, const std::string& root, double per,
                     const std::vector<std::string>& skip) {
  for (const auto& [name, t] : trace::summarize()) {
    if (std::find(skip.begin(), skip.end(), name) != skip.end()) continue;
    if (name == root) {
      out.add("bench.unattributed_ms", t.self_ms / per, "ms");
      out.add("bench.traced_wall_ms", t.total_ms / per, "ms");
    } else {
      out.add(name + "_ms", t.self_ms / per, "ms");
    }
  }
}

double span_mean_ms(const std::string& name) {
  const auto all = trace::summarize();
  const auto it = all.find(name);
  return it == all.end() || it->second.calls == 0
             ? 0.0
             : it->second.total_ms / double(it->second.calls);
}

}  // namespace perfbench
