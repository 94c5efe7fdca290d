// IncrementalProximity, the per-snapshot proximity engine of the analysis
// pipeline, against a brute-force oracle on both its rebuild and its delta
// path. (The ProximityCache suite name is kept from the per-trace cache
// these cases were first written for.)
#include "analysis/incremental_proximity.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "analysis/contacts.hpp"
#include "analysis/graphs.hpp"
#include "analysis/spatial_index.hpp"
#include "util/rng.hpp"

namespace slmob {
namespace {

using PairSet = std::set<std::pair<std::uint32_t, std::uint32_t>>;

// Fresh random positions every snapshot: mostly the full-rebuild path.
Trace random_trace(std::uint64_t seed, std::size_t snapshots, std::size_t max_users) {
  Rng rng(seed);
  Trace t("proximity-test", 10.0);
  for (std::size_t s = 0; s < snapshots; ++s) {
    Snapshot snap;
    snap.time = static_cast<double>(s) * 10.0;
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(max_users)));
    for (std::size_t i = 0; i < n; ++i) {
      // Clustered positions so both radii produce non-trivial pair sets.
      const double cx = rng.uniform(0.0, 1.0) < 0.5 ? 64.0 : 192.0;
      snap.fixes.push_back({AvatarId{static_cast<std::uint32_t>(i + 1)},
                            {cx + rng.uniform(-40.0, 40.0), 128.0 + rng.uniform(-40.0, 40.0), 22.0}});
    }
    t.add(std::move(snap));
  }
  return t;
}

// Persistent avatars, a few of which move or log in/out per snapshot: the
// delta path.
Trace drifting_trace(std::uint64_t seed, std::size_t snapshots, std::size_t users) {
  Rng rng(seed);
  std::vector<Vec3> pos(users);
  std::vector<bool> online(users, true);
  for (std::size_t u = 0; u < users; ++u) {
    const double cx = (u % 2 == 0) ? 64.0 : 192.0;
    pos[u] = {cx + rng.uniform(-40.0, 40.0), 128.0 + rng.uniform(-40.0, 40.0), 22.0};
  }
  Trace t("proximity-drift", 10.0);
  for (std::size_t s = 0; s < snapshots; ++s) {
    Snapshot snap;
    snap.time = static_cast<double>(s) * 10.0;
    for (std::size_t u = 0; u < users; ++u) {
      if (rng.uniform(0.0, 1.0) < 0.02) online[u] = !online[u];
      if (!online[u]) continue;
      if (rng.uniform(0.0, 1.0) < 0.1) {
        pos[u].x = std::clamp(pos[u].x + rng.uniform(-6.0, 6.0), 0.0, 255.0);
        pos[u].y = std::clamp(pos[u].y + rng.uniform(-6.0, 6.0), 0.0, 255.0);
      }
      snap.fixes.push_back({AvatarId{static_cast<std::uint32_t>(u + 1)}, pos[u]});
    }
    t.add(std::move(snap));
  }
  return t;
}

// O(n^2) oracle: all index pairs within `range`.
PairSet brute_force_pairs(const Snapshot& snap, double range) {
  PairSet out;
  for (std::uint32_t i = 0; i < snap.fixes.size(); ++i) {
    for (std::uint32_t j = i + 1; j < snap.fixes.size(); ++j) {
      if (snap.fixes[i].pos.distance2d_to(snap.fixes[j].pos) <= range) {
        out.insert({i, j});
      }
    }
  }
  return out;
}

PairSet to_set(const IncrementalProximity::PairList& pairs) {
  return {pairs.begin(), pairs.end()};
}

TEST(ProximityCache, MatchesBruteForceOracleAtEveryRadius) {
  const std::vector<double> radii{10.0, 30.0, 80.0};
  for (const Trace& t : {random_trace(7, 40, 50), drifting_trace(8, 60, 60)}) {
    IncrementalProximity prox(radii);
    for (std::size_t s = 0; s < t.size(); ++s) {
      prox.advance(t.snapshots()[s]);
      for (std::size_t ri = 0; ri < radii.size(); ++ri) {
        EXPECT_EQ(to_set(prox.pairs(ri)), brute_force_pairs(t.snapshots()[s], radii[ri]))
            << t.land_name() << " snapshot " << s << " range " << radii[ri];
      }
    }
    EXPECT_GT(prox.rebuilds(), 0u);
    if (t.land_name() == "proximity-drift") {
      EXPECT_GT(prox.delta_updates(), 0u);
    }
  }
}

TEST(ProximityCache, SmallerRadiusIsSubsetOfLarger) {
  const Trace t = drifting_trace(11, 25, 60);
  IncrementalProximity prox({10.0, 80.0});
  for (const auto& snap : t.snapshots()) {
    prox.advance(snap);
    const PairSet small = to_set(prox.pairs(0));
    const PairSet large = to_set(prox.pairs(1));
    EXPECT_TRUE(std::includes(large.begin(), large.end(), small.begin(), small.end()));
  }
}

TEST(ProximityCache, AgreesWithDirectSpatialGrid) {
  const Trace t = drifting_trace(3, 20, 40);
  IncrementalProximity prox({10.0, 80.0});
  for (const auto& snap : t.snapshots()) {
    prox.advance(snap);
    std::vector<Vec3> positions;
    for (const auto& fix : snap.fixes) positions.push_back(fix.pos);
    EXPECT_EQ(prox.positions(), positions);
    for (std::size_t ri = 0; ri < prox.ranges().size(); ++ri) {
      if (positions.empty()) {
        EXPECT_TRUE(prox.pairs(ri).empty());
        continue;
      }
      const SpatialGrid grid(positions, prox.ranges()[ri]);
      PairSet grid_set;
      for (const auto& p : grid.pairs_within()) grid_set.insert(p);
      EXPECT_EQ(to_set(prox.pairs(ri)), grid_set);
    }
  }
}

TEST(ProximityCache, RangesAreSortedAndDeduplicated) {
  const IncrementalProximity prox({80.0, 10.0, 80.0});
  ASSERT_EQ(prox.ranges().size(), 2u);
  EXPECT_DOUBLE_EQ(prox.ranges()[0], 10.0);
  EXPECT_DOUBLE_EQ(prox.ranges()[1], 80.0);
  EXPECT_EQ(prox.range_index(10.0), 0u);
  EXPECT_EQ(prox.range_index(80.0), 1u);
}

// The exception's message, or "" when `fn` does not throw invalid_argument.
template <typename Fn>
std::string invalid_argument_message(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(ProximityCache, UnknownRangeThrows) {
  const IncrementalProximity prox({10.0});
  const std::string what = invalid_argument_message([&] { (void)prox.range_index(80.0); });
  EXPECT_EQ(what, "IncrementalProximity: range was not requested at construction");
}

TEST(ProximityCache, NonPositiveRangeThrows) {
  for (const double r : {0.0, -5.0}) {
    const std::string what =
        invalid_argument_message([&] { const IncrementalProximity prox({10.0, r}); });
    EXPECT_EQ(what, "IncrementalProximity: ranges must be positive") << r;
  }
}

TEST(ProximityCache, EmptyTraceAndEmptyRanges) {
  IncrementalProximity prox({10.0});
  prox.advance(Snapshot{0.0, {}});
  EXPECT_TRUE(prox.positions().empty());
  EXPECT_TRUE(prox.pairs(0).empty());

  const Trace t = random_trace(4, 5, 10);
  IncrementalProximity no_ranges({});
  EXPECT_TRUE(no_ranges.ranges().empty());
  for (const auto& snap : t.snapshots()) {
    no_ranges.advance(snap);
    EXPECT_EQ(no_ranges.positions().size(), snap.fixes.size());
  }
}

// Contact and graph streams fed by the incremental pairs must equal the
// same streams fed by the oracle's pairs (in ascending order).
IncrementalProximity::PairList oracle_list(const Snapshot& snap, double r) {
  const PairSet set = brute_force_pairs(snap, r);
  return {set.begin(), set.end()};
}

TEST(ProximityCache, ContactsViaCacheMatchDirectAnalysis) {
  const Trace t = drifting_trace(21, 60, 40);
  const GapTracker gaps;
  for (const double r : {10.0, 80.0}) {
    IncrementalProximity prox({r});
    ContactStream direct_stream(r, t.sampling_interval(), gaps);
    ContactStream cached_stream(r, t.sampling_interval(), gaps);
    for (const auto& snap : t.snapshots()) {
      prox.advance(snap);
      direct_stream.on_snapshot(snap, oracle_list(snap, r));
      cached_stream.on_snapshot(snap, prox.pairs(0));
    }
    const ContactAnalysis direct = direct_stream.finish();
    const ContactAnalysis cached = cached_stream.finish();
    ASSERT_FALSE(direct.intervals.empty());
    ASSERT_EQ(direct.intervals.size(), cached.intervals.size());
    for (std::size_t i = 0; i < direct.intervals.size(); ++i) {
      EXPECT_EQ(direct.intervals[i].a, cached.intervals[i].a);
      EXPECT_EQ(direct.intervals[i].b, cached.intervals[i].b);
      EXPECT_EQ(direct.intervals[i].start, cached.intervals[i].start);
      EXPECT_EQ(direct.intervals[i].end, cached.intervals[i].end);
    }
    EXPECT_EQ(direct.users_seen, cached.users_seen);
    EXPECT_EQ(direct.users_with_contact, cached.users_with_contact);
    const auto ds = direct.inter_contact_times.sorted();
    const auto cs = cached.inter_contact_times.sorted();
    ASSERT_EQ(ds.size(), cs.size());
    for (std::size_t i = 0; i < ds.size(); ++i) EXPECT_EQ(ds[i], cs[i]);
  }
}

TEST(ProximityCache, GraphsViaCacheMatchDirectAnalysis) {
  const Trace t = drifting_trace(23, 40, 40);
  for (const double r : {10.0, 80.0}) {
    IncrementalProximity prox({r});
    GraphStream direct_stream(r);
    GraphStream cached_stream(r);
    for (const auto& snap : t.snapshots()) {
      prox.advance(snap);
      direct_stream.on_snapshot(snap.fixes.size(), oracle_list(snap, r));
      cached_stream.on_snapshot(snap.fixes.size(), prox.pairs(0));
    }
    const GraphMetrics direct = direct_stream.finish();
    const GraphMetrics cached = cached_stream.finish();
    EXPECT_EQ(direct.snapshots_analyzed, cached.snapshots_analyzed);
    EXPECT_EQ(direct.isolated_fraction, cached.isolated_fraction);
    for (const auto& [d, c] : {std::pair{&direct.degrees, &cached.degrees},
                               std::pair{&direct.diameters, &cached.diameters},
                               std::pair{&direct.clustering, &cached.clustering}}) {
      ASSERT_EQ(d->size(), c->size());
      for (std::size_t i = 0; i < d->size(); ++i) EXPECT_EQ(d->sorted()[i], c->sorted()[i]);
    }
  }
}

}  // namespace
}  // namespace slmob
