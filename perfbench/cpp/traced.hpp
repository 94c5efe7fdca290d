// The traced run: the same workload wired by hand from the components
// Testbed uses, with every registered tick function wrapped in a timer, and
// each land's trace replayed through the streaming analysis consumers with
// one timer per call. It yields the per-layer split, and the reference
// digests and fingerprints every untraced run is checked against.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

struct TracedLand {
  LandOutcome outcome;  // digest of the traced rig + reference fingerprint
  // Empty when every internal cross-check of this land passed; otherwise
  // what disagreed.
  std::string error;
};

struct TracedRun {
  double pipeline_s{0.0};
  std::vector<TracedLand> lands;
  // Per-layer metrics by name, in a fixed order.
  std::vector<std::pair<std::string, double>> layers;
};

TracedRun run_traced(const Params& p);

}  // namespace perfbench
