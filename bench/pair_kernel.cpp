// pair_kernel: throughput and exactness gates for the batched proximity
// kernel (src/analysis/pair_kernel.*).
//
// The bench keeps a faithful replica of the pre-kernel SpatialGrid — a
// per-snapshot unordered_map hash grid with one sqrt per candidate pair —
// and, for every land archetype:
//  * times a full-trace pair enumeration sweep at the WiFi range for both
//    implementations (min of 3 passes) and gates the kernel at >= 1.5x the
//    legacy single-thread throughput in aggregate;
//  * asserts exact pair-set identity (same pairs, same distances, bitwise)
//    between legacy and kernel on every snapshot, with and without coverage
//    gaps (fault scenario "blackouts" supplies the gapped trace);
//  * asserts IncrementalProximity (delta updates across snapshots) emits
//    the same per-snapshot pair sets as a fresh kernel pass;
//  * asserts the warm kernel path performs zero heap allocations (second
//    full-trace pass, counted by the operator-new override compiled into
//    this binary only).
//
// Results land in the "pair_kernel" section of BENCH_analysis.json.
//
//   pair_kernel [--hours H] [--seed S] [--quick] [--out FILE]
//               [--ci-floor PAIRS_PER_SEC]
//
// --ci-floor makes the bench fail when kernel single-thread enumeration
// throughput (pairs/s, aggregate over lands) drops below the floor — the
// release-job perf smoke runs it on a 2 h trace against a committed value.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "alloc_counter.hpp"
#include "analysis/incremental_proximity.hpp"
#include "analysis/pair_kernel.hpp"
#include "bench_common.hpp"

using namespace slmob;
using namespace slmob::bench;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// Replica of the pre-kernel SpatialGrid (hash-map cells, one distance2d_to
// per candidate), kept local to the bench so the speedup gate always
// compares against what this repo shipped before the kernel.
namespace legacy {

struct PairDist {
  std::uint32_t i;
  std::uint32_t j;
  double distance;
};

class Grid {
 public:
  Grid(const std::vector<Vec3>& positions, double radius)
      : positions_(positions), radius_(radius), cell_(radius) {
    coords_.reserve(positions_.size());
    cells_.reserve(positions_.size());
    for (std::uint32_t i = 0; i < positions_.size(); ++i) {
      const auto cx = static_cast<std::int32_t>(std::floor(positions_[i].x / cell_));
      const auto cy = static_cast<std::int32_t>(std::floor(positions_[i].y / cell_));
      coords_.push_back({cx, cy});
      cells_[pack(cx, cy)].push_back(i);
    }
  }

  [[nodiscard]] std::vector<PairDist> pairs_within_distance() const {
    std::vector<PairDist> out;
    out.reserve(positions_.size());
    for (std::uint32_t i = 0; i < positions_.size(); ++i) {
      const auto [cx, cy] = coords_[i];
      for (std::int32_t dx = -1; dx <= 1; ++dx) {
        for (std::int32_t dy = -1; dy <= 1; ++dy) {
          const auto it = cells_.find(pack(cx + dx, cy + dy));
          if (it == cells_.end()) continue;
          for (const std::uint32_t j : it->second) {
            if (j <= i) continue;
            const double d = positions_[i].distance2d_to(positions_[j]);
            if (d <= radius_) out.push_back({i, j, d});
          }
        }
      }
    }
    return out;
  }

 private:
  [[nodiscard]] static std::uint64_t pack(std::int32_t cx, std::int32_t cy) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cx)) << 32) |
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(cy));
  }

  const std::vector<Vec3>& positions_;
  double radius_;
  double cell_;
  std::vector<std::pair<std::int32_t, std::int32_t>> coords_;
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> cells_;
};

}  // namespace legacy

std::uint64_t bits_of(double d) {
  std::uint64_t b = 0;
  std::memcpy(&b, &d, sizeof b);
  return b;
}

using DistPair = std::tuple<std::uint32_t, std::uint32_t, std::uint64_t>;

const char* land_slug(LandArchetype a) {
  switch (a) {
    case LandArchetype::kApfelLand: return "apfel_land";
    case LandArchetype::kDanceIsland: return "dance_island";
    case LandArchetype::kIsleOfView: return "isle_of_view";
  }
  return "unknown";
}

std::vector<std::vector<Vec3>> snapshot_positions(const Trace& trace) {
  std::vector<std::vector<Vec3>> out;
  out.reserve(trace.size());
  for (const auto& snap : trace.snapshots()) {
    std::vector<Vec3> pos;
    pos.reserve(snap.fixes.size());
    for (const auto& fix : snap.fixes) pos.push_back(fix.pos);
    out.push_back(std::move(pos));
  }
  return out;
}

struct SweepTiming {
  double legacy_seconds{0.0};
  double kernel_seconds{0.0};
  std::uint64_t pairs{0};
};

// Times full-trace pair enumeration at r for both implementations, min of
// `repeats` passes each, and verifies bitwise (i, j, distance) set identity
// on every snapshot during the first pass.
SweepTiming time_sweep(const std::vector<std::vector<Vec3>>& snaps, double r,
                       int repeats, bool* identical) {
  SweepTiming t;
  t.legacy_seconds = 1e300;
  t.kernel_seconds = 1e300;
  PairKernel kernel;
  for (int rep = 0; rep < repeats; ++rep) {
    std::uint64_t legacy_pairs = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (const auto& pos : snaps) {
      const legacy::Grid grid(pos, r);
      legacy_pairs += grid.pairs_within_distance().size();
    }
    t.legacy_seconds = std::min(t.legacy_seconds, seconds_since(t0));

    std::uint64_t kernel_pairs = 0;
    const auto t1 = std::chrono::steady_clock::now();
    for (const auto& pos : snaps) {
      kernel.run(pos, r);
      kernel_pairs += kernel.hits().size();
    }
    t.kernel_seconds = std::min(t.kernel_seconds, seconds_since(t1));
    t.pairs = kernel_pairs;
    if (legacy_pairs != kernel_pairs) *identical = false;
  }
  for (const auto& pos : snaps) {
    const legacy::Grid grid(pos, r);
    std::set<DistPair> want;
    for (const auto& p : grid.pairs_within_distance()) {
      want.insert({p.i, p.j, bits_of(p.distance)});
    }
    kernel.run(pos, r);
    std::set<DistPair> got;
    for (const auto& h : kernel.hits()) got.insert({h.i, h.j, bits_of(std::sqrt(h.d2))});
    if (got != want) {
      *identical = false;
      return t;
    }
  }
  return t;
}

// IncrementalProximity must converge to the pair sets a fresh kernel pass
// classifies for every snapshot, at every radius.
bool incremental_matches_rebuild(const Trace& trace, const std::vector<double>& ranges) {
  IncrementalProximity inc(ranges);
  PairKernel kernel;
  std::vector<PairKernel::PairList> fresh(ranges.size());
  std::vector<Vec3> pos;
  for (const auto& snap : trace.snapshots()) {
    inc.advance(snap);
    pos.clear();
    for (const auto& fix : snap.fixes) pos.push_back(fix.pos);
    for (auto& l : fresh) l.clear();
    if (!pos.empty()) {
      kernel.run(pos, ranges.back());
      kernel.classify(ranges, fresh.data());
    }
    for (std::size_t ri = 0; ri < ranges.size(); ++ri) {
      auto a = inc.pairs(ri);
      std::sort(a.begin(), a.end());
      std::sort(fresh[ri].begin(), fresh[ri].end());
      if (a != fresh[ri]) return false;
    }
  }
  return true;
}

// Second full-trace pass over an already-warm kernel must not allocate.
std::size_t warm_pass_allocations(const std::vector<std::vector<Vec3>>& snaps,
                                  const std::vector<double>& ranges) {
  PairKernel kernel;
  std::vector<PairKernel::PairList> lists(ranges.size());
  const auto pass = [&] {
    for (const auto& pos : snaps) {
      if (pos.empty()) continue;
      kernel.run(pos, ranges.back());
      for (auto& l : lists) l.clear();
      kernel.classify(ranges, lists.data());
    }
  };
  pass();  // warm: scratch grows to the largest snapshot
  const std::size_t before = bench::allocation_count();
  pass();
  return bench::allocation_count() - before;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions options = BenchOptions::parse(argc, argv);
  std::string out_path = "BENCH_analysis.json";
  double ci_floor = 0.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out_path = argv[i + 1];
    if (std::strcmp(argv[i], "--ci-floor") == 0 && i + 1 < argc) {
      ci_floor = std::strtod(argv[i + 1], nullptr);
    }
  }
  print_title("Batched proximity kernel vs legacy hash grid",
              "infrastructure bench (no paper figure)");

  const std::vector<double> ranges{kBluetoothRange, kWifiRange};
  const std::vector<LandArchetype> lands{
      LandArchetype::kApfelLand, LandArchetype::kDanceIsland, LandArchetype::kIsleOfView};
  prewarm_lands(lands, options);

  // Gapped traces: same lands under the blackout scenario, capped at 6 h —
  // they feed the identity checks only, never the timing.
  const double gap_hours = std::min(options.hours, 6.0);

  struct LandRow {
    std::string slug;
    std::size_t snapshots;
    std::uint64_t pairs;
    double legacy_seconds;
    double kernel_seconds;
  };
  std::vector<LandRow> rows;
  bool bitwise_identical = true;
  bool incremental_ok = true;
  bool gapped_ok = true;
  double legacy_total = 0.0;
  double kernel_total = 0.0;
  std::uint64_t pairs_total = 0;

  for (const LandArchetype land : lands) {
    const ExperimentResults& base = land_results(land, options);
    const auto snaps = snapshot_positions(base.trace);
    const SweepTiming t = time_sweep(snaps, kWifiRange, 3, &bitwise_identical);
    legacy_total += t.legacy_seconds;
    kernel_total += t.kernel_seconds;
    pairs_total += t.pairs;
    rows.push_back({land_slug(land), snaps.size(), t.pairs, t.legacy_seconds,
                    t.kernel_seconds});
    std::printf("%-14s %5zu snaps %9llu pairs   legacy %7.3f s   kernel %7.3f s   %5.2fx\n",
                land_slug(land), snaps.size(),
                static_cast<unsigned long long>(t.pairs), t.legacy_seconds,
                t.kernel_seconds,
                t.kernel_seconds > 0.0 ? t.legacy_seconds / t.kernel_seconds : 0.0);

    if (!incremental_matches_rebuild(base.trace, ranges)) incremental_ok = false;

    ExperimentConfig cfg;
    cfg.archetype = land;
    cfg.duration = gap_hours * kSecondsPerHour;
    cfg.seed = options.seed;
    cfg.fault_scenario = "blackouts";
    cfg.analysis_threads = 1;
    const ExperimentResults gapped = run_experiment(cfg);
    const auto gap_snaps = snapshot_positions(gapped.trace);
    bool gap_identical = true;
    (void)time_sweep(gap_snaps, kWifiRange, 1, &gap_identical);
    if (!gap_identical || !incremental_matches_rebuild(gapped.trace, ranges)) {
      gapped_ok = false;
    }
    std::printf("%-14s gapped trace: %zu snaps, %zu gaps, identity %s\n",
                land_slug(land), gapped.trace.size(), gapped.trace.gaps().size(),
                gapped_ok ? "yes" : "NO");
  }

  const ExperimentResults& iov = land_results(LandArchetype::kIsleOfView, options);
  const std::size_t warm_allocs = warm_pass_allocations(snapshot_positions(iov.trace), ranges);

  const double speedup = kernel_total > 0.0 ? legacy_total / kernel_total : 0.0;
  const double kernel_pairs_per_s =
      kernel_total > 0.0 ? static_cast<double>(pairs_total) / kernel_total : 0.0;
  std::printf("aggregate: %.2fx speedup, %.3g pairs/s kernel, warm allocs %zu\n",
              speedup, kernel_pairs_per_s, warm_allocs);

  const bool speedup_ok = speedup >= 1.5;
  const bool allocs_ok = warm_allocs == 0;
  const bool floor_ok = ci_floor <= 0.0 || kernel_pairs_per_s >= ci_floor;
  if (!bitwise_identical) {
    std::fprintf(stderr, "ERROR: kernel pairs/distances differ from legacy grid\n");
  }
  if (!incremental_ok) {
    std::fprintf(stderr, "ERROR: incremental pair lists differ from a fresh kernel pass\n");
  }
  if (!gapped_ok) std::fprintf(stderr, "ERROR: identity failed on gapped traces\n");
  if (!speedup_ok) std::fprintf(stderr, "ERROR: speedup %.2fx below 1.5x gate\n", speedup);
  if (!allocs_ok) {
    std::fprintf(stderr, "ERROR: %zu allocations on the warm kernel path\n", warm_allocs);
  }
  if (!floor_ok) {
    std::fprintf(stderr, "ERROR: %.3g pairs/s below committed floor %.3g\n",
                 kernel_pairs_per_s, ci_floor);
  }

  std::string body;
  appendf(body, "{\n");
  appendf(body, "    \"hours\": %.3f,\n", options.hours);
  appendf(body, "    \"seed\": %llu,\n", static_cast<unsigned long long>(options.seed));
  appendf(body, "    \"range\": %.1f,\n", kWifiRange);
  appendf(body, "    \"lands\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const LandRow& r = rows[i];
    appendf(body,
            "      {\"land\": \"%s\", \"snapshots\": %zu, \"pairs\": %llu, "
            "\"legacy_seconds\": %.6f, \"kernel_seconds\": %.6f, \"speedup\": %.3f}%s\n",
            r.slug.c_str(), r.snapshots, static_cast<unsigned long long>(r.pairs),
            r.legacy_seconds, r.kernel_seconds,
            r.kernel_seconds > 0.0 ? r.legacy_seconds / r.kernel_seconds : 0.0,
            i + 1 == rows.size() ? "" : ",");
  }
  appendf(body, "    ],\n");
  appendf(body, "    \"single_thread_speedup\": %.3f,\n", speedup);
  appendf(body, "    \"kernel_pairs_per_second\": %.1f,\n", kernel_pairs_per_s);
  appendf(body, "    \"bitwise_identical_to_legacy\": %s,\n",
          bitwise_identical ? "true" : "false");
  appendf(body, "    \"incremental_matches_rebuild\": %s,\n",
          incremental_ok ? "true" : "false");
  appendf(body, "    \"identical_on_gapped_traces\": %s,\n", gapped_ok ? "true" : "false");
  appendf(body, "    \"warm_path_allocations\": %zu,\n", warm_allocs);
  appendf(body, "    \"speedup_gate_1_5x\": %s\n", speedup_ok ? "true" : "false");
  appendf(body, "  }");
  update_bench_json(out_path, "pair_kernel", body);
  std::printf("wrote %s\n", out_path.c_str());

  const bool ok = bitwise_identical && incremental_ok && gapped_ok && speedup_ok &&
                  allocs_ok && floor_ok;
  return ok ? 0 : 1;
}
