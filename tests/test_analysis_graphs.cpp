#include "analysis/graphs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>

#include "core/experiment.hpp"
#include "util/rng.hpp"

namespace slmob {
namespace {

using PairList = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

Snapshot line_of_users(std::size_t n, double spacing) {
  Snapshot s;
  s.time = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    s.fixes.push_back(
        {AvatarId{static_cast<std::uint32_t>(i + 1)}, {static_cast<double>(i) * spacing, 0.0, 22.0}});
  }
  return s;
}

// In-range pairs (i < j) of one snapshot, straight from the definition.
PairList pairs_within(const Snapshot& s, double range) {
  PairList out;
  for (std::uint32_t i = 0; i < s.fixes.size(); ++i) {
    for (std::uint32_t j = i + 1; j < s.fixes.size(); ++j) {
      if (s.fixes[i].pos.distance2d_to(s.fixes[j].pos) <= range) out.emplace_back(i, j);
    }
  }
  return out;
}

// The line-of-sight graph of one snapshot, as GraphStream sees it, plus
// reference answers computed independently of GraphStream's kernel. (The
// LosGraph suite name predates GraphStream being the only graph kernel.)
struct SnapshotGraph {
  SnapshotGraph(const Snapshot& s, double range)
      : n(s.fixes.size()), pairs(pairs_within(s, range)), adj(n) {
    for (const auto& [i, j] : pairs) {
      adj[i].push_back(j);
      adj[j].push_back(i);
    }
  }

  // GraphStream's metrics of this graph as the only snapshot.
  [[nodiscard]] GraphMetrics metrics(double range = 10.0) const {
    GraphStream stream(range);
    stream.on_snapshot(n, pairs);
    return stream.finish();
  }
  [[nodiscard]] std::size_t diameter() const {
    const GraphMetrics m = metrics();
    return m.diameters.empty() ? 0 : static_cast<std::size_t>(m.diameters.max());
  }
  [[nodiscard]] double mean_clustering() const {
    const GraphMetrics m = metrics();
    return m.clustering.empty() ? 0.0 : m.clustering.max();
  }
  [[nodiscard]] std::size_t edge_count() const { return pairs.size(); }
  [[nodiscard]] std::size_t degree(std::size_t i) const { return adj[i].size(); }
  // Connected components by plain BFS.
  [[nodiscard]] std::size_t component_count() const {
    std::vector<char> seen(n, 0);
    std::size_t count = 0;
    for (std::size_t start = 0; start < n; ++start) {
      if (seen[start]) continue;
      ++count;
      std::deque<std::size_t> queue{start};
      seen[start] = 1;
      while (!queue.empty()) {
        const std::size_t u = queue.front();
        queue.pop_front();
        for (const std::size_t v : adj[u]) {
          if (!seen[v]) {
            seen[v] = 1;
            queue.push_back(v);
          }
        }
      }
    }
    return count;
  }
  // Watts-Strogatz clustering coefficient of node i (0 when degree < 2).
  [[nodiscard]] double clustering(std::size_t i) const {
    const auto& nbrs = adj[i];
    const std::size_t k = nbrs.size();
    if (k < 2) return 0.0;
    std::size_t links = 0;
    for (std::size_t a = 0; a < k; ++a) {
      for (std::size_t b = a + 1; b < k; ++b) {
        const auto& na = adj[nbrs[a]];
        if (std::find(na.begin(), na.end(), nbrs[b]) != na.end()) ++links;
      }
    }
    return 2.0 * static_cast<double>(links) /
           (static_cast<double>(k) * static_cast<double>(k - 1));
  }

  std::size_t n;
  PairList pairs;
  std::vector<std::vector<std::uint32_t>> adj;
};

// Graph metrics of a whole trace through the analysis pipeline.
GraphMetrics graphs_of(const Trace& t, double range) {
  return analyze_trace(Trace(t), {range}, kDefaultLandSize, 1).graphs.at(range);
}

TEST(LosGraph, EmptySnapshot) {
  const Snapshot s{};
  const SnapshotGraph g(s, 10.0);
  EXPECT_EQ(g.edge_count(), 0u);
  // An empty snapshot has no graph: nothing is sampled at all.
  const GraphMetrics m = g.metrics();
  EXPECT_EQ(m.snapshots_analyzed, 0u);
  EXPECT_TRUE(m.degrees.empty());
  EXPECT_TRUE(m.diameters.empty());
  EXPECT_TRUE(m.clustering.empty());
  EXPECT_EQ(m.isolated_fraction, 0.0);
}

TEST(LosGraph, PathGraphMetrics) {
  // 5 users spaced 8 m apart with r=10: a path graph P5.
  const SnapshotGraph g(line_of_users(5, 8.0), 10.0);
  EXPECT_EQ(g.metrics().degrees.size(), 5u);
  EXPECT_EQ(g.edge_count(), 4u);
  EXPECT_EQ(g.diameter(), 4u);
  EXPECT_EQ(g.component_count(), 1u);
  // Path graphs have zero clustering.
  EXPECT_DOUBLE_EQ(g.mean_clustering(), 0.0);
}

TEST(LosGraph, CliqueMetrics) {
  // 4 users within 10 m of each other: K4.
  Snapshot s;
  s.time = 0.0;
  s.fixes = {{AvatarId{1}, {0.0, 0.0, 22.0}},
             {AvatarId{2}, {3.0, 0.0, 22.0}},
             {AvatarId{3}, {0.0, 3.0, 22.0}},
             {AvatarId{4}, {3.0, 3.0, 22.0}}};
  const SnapshotGraph g(s, 10.0);
  EXPECT_EQ(g.edge_count(), 6u);
  EXPECT_EQ(g.diameter(), 1u);
  EXPECT_DOUBLE_EQ(g.mean_clustering(), 1.0);
}

TEST(LosGraph, DisconnectedComponents) {
  // Two pairs far apart.
  Snapshot s;
  s.time = 0.0;
  s.fixes = {{AvatarId{1}, {0.0, 0.0, 22.0}},
             {AvatarId{2}, {5.0, 0.0, 22.0}},
             {AvatarId{3}, {200.0, 200.0, 22.0}},
             {AvatarId{4}, {205.0, 200.0, 22.0}},
             {AvatarId{5}, {100.0, 100.0, 22.0}}};
  const SnapshotGraph g(s, 10.0);
  EXPECT_EQ(g.component_count(), 3u);
  EXPECT_EQ(g.diameter(), 1u);
  EXPECT_EQ(g.degree(4), 0u);
  // Degree samples in node order: 1, 1, 1, 1, 0.
  const GraphMetrics m = g.metrics();
  EXPECT_NEAR(m.isolated_fraction, 1.0 / 5.0, 1e-12);
  EXPECT_DOUBLE_EQ(m.degrees.min(), 0.0);
  EXPECT_DOUBLE_EQ(m.degrees.max(), 1.0);
}

TEST(LosGraph, TrianglePlusTailClustering) {
  // Nodes 0-1-2 form a triangle; node 3 hangs off node 2 (positions chosen
  // so only 2-3 are within range).
  Snapshot s;
  s.time = 0.0;
  s.fixes = {{AvatarId{1}, {0.0, 0.0, 22.0}},
             {AvatarId{2}, {6.0, 0.0, 22.0}},
             {AvatarId{3}, {3.0, 5.0, 22.0}},
             {AvatarId{4}, {3.0, 14.0, 22.0}}};
  const SnapshotGraph g(s, 10.0);
  ASSERT_EQ(g.edge_count(), 4u);
  // Clustering: node0=1, node1=1, node2=1/3 (3 neighbors, 1 link), node3=0.
  EXPECT_NEAR(g.clustering(0), 1.0, 1e-12);
  EXPECT_NEAR(g.clustering(1), 1.0, 1e-12);
  EXPECT_NEAR(g.clustering(2), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(g.clustering(3), 0.0, 1e-12);
  EXPECT_NEAR(g.mean_clustering(), (1.0 + 1.0 + 1.0 / 3.0 + 0.0) / 4.0, 1e-12);
}

TEST(LosGraph, SingletonDiameterZero) {
  Snapshot s;
  s.time = 0.0;
  s.fixes = {{AvatarId{1}, {10.0, 10.0, 22.0}}};
  const SnapshotGraph g(s, 10.0);
  EXPECT_EQ(g.diameter(), 0u);
  const GraphMetrics m = g.metrics();
  EXPECT_EQ(m.snapshots_analyzed, 1u);
  EXPECT_DOUBLE_EQ(m.isolated_fraction, 1.0);
  EXPECT_DOUBLE_EQ(m.clustering.max(), 0.0);
}

TEST(AnalyzeGraphs, AggregatesOverSnapshots) {
  Trace t("x", 10.0);
  t.add(line_of_users(3, 8.0));   // P3: diameter 2
  Snapshot s2 = line_of_users(2, 5.0);  // P2: diameter 1
  s2.time = 10.0;
  t.add(std::move(s2));
  const GraphMetrics m = graphs_of(t, 10.0);
  EXPECT_EQ(m.snapshots_analyzed, 2u);
  EXPECT_EQ(m.degrees.size(), 5u);  // 3 + 2 degree samples
  EXPECT_EQ(m.diameters.size(), 2u);
  EXPECT_DOUBLE_EQ(m.diameters.max(), 2.0);
  EXPECT_DOUBLE_EQ(m.diameters.min(), 1.0);
}

TEST(AnalyzeGraphs, IsolatedFraction) {
  Trace t("x", 10.0);
  Snapshot s;
  s.time = 0.0;
  s.fixes = {{AvatarId{1}, {0.0, 0.0, 22.0}},
             {AvatarId{2}, {5.0, 0.0, 22.0}},
             {AvatarId{3}, {100.0, 100.0, 22.0}}};
  t.add(std::move(s));
  const GraphMetrics m = graphs_of(t, 10.0);
  EXPECT_NEAR(m.isolated_fraction, 1.0 / 3.0, 1e-12);
}

TEST(AnalyzeGraphs, EmptySnapshotsSkipped) {
  Trace t("x", 10.0);
  t.add(Snapshot{0.0, {}});
  t.add(line_of_users(2, 5.0));
  const GraphMetrics m = graphs_of(t, 10.0);
  EXPECT_EQ(m.snapshots_analyzed, 1u);
}

TEST(AnalyzeGraphs, UncoveredSnapshotsSkipped) {
  Trace t("x", 10.0);
  t.add(line_of_users(3, 8.0));
  Snapshot s2 = line_of_users(5, 8.0);  // falls inside the coverage gap
  s2.time = 10.0;
  t.add(std::move(s2));
  Snapshot s3 = line_of_users(2, 5.0);
  s3.time = 20.0;
  t.add(std::move(s3));
  t.add_gap(5.0, 15.0);
  const GraphMetrics m = graphs_of(t, 10.0);
  EXPECT_EQ(m.snapshots_analyzed, 2u);
  EXPECT_EQ(m.degrees.size(), 5u);  // 3 + 2, nothing from the gap snapshot
}

TEST(AnalyzeGraphs, DiameterShrinksWithLargerRange) {
  // The paper's Fig 2(b)/(e): larger radio range, smaller diameter (for a
  // connected population).
  Trace t("x", 10.0);
  t.add(line_of_users(10, 9.0));
  const GraphMetrics small_r = graphs_of(t, 10.0);
  const GraphMetrics large_r = graphs_of(t, 80.0);
  EXPECT_GT(small_r.diameters.max(), large_r.diameters.max());
}

TEST(GraphStream, AppendedSlicesEqualOneStream) {
  // Contiguous slices analysed by separate streams and appended in order
  // give exactly the one-stream result, sample order included.
  Rng rng(77);
  std::vector<Snapshot> snaps;
  for (int k = 0; k < 10; ++k) {
    Snapshot s;
    s.time = k * 10.0;
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 30));
    for (std::size_t i = 0; i < n; ++i) {
      s.fixes.push_back({AvatarId{static_cast<std::uint32_t>(i + 1)},
                         {rng.uniform(0.0, 60.0), rng.uniform(0.0, 60.0), 22.0}});
    }
    snaps.push_back(std::move(s));
  }
  GraphStream whole(20.0);
  for (const auto& s : snaps) whole.on_snapshot(s.fixes.size(), pairs_within(s, 20.0));

  GraphStream joined(20.0);
  GraphStream slice(20.0);
  for (const auto& [lo, hi] : {std::pair<std::size_t, std::size_t>{0, 3},
                                std::pair<std::size_t, std::size_t>{3, 7},
                                std::pair<std::size_t, std::size_t>{7, 10}}) {
    for (std::size_t k = lo; k < hi; ++k) {
      slice.on_snapshot(snaps[k].fixes.size(), pairs_within(snaps[k], 20.0));
    }
    joined.append(slice);
  }
  const GraphMetrics a = whole.finish();
  const GraphMetrics b = joined.finish();
  EXPECT_EQ(a.snapshots_analyzed, b.snapshots_analyzed);
  EXPECT_EQ(a.isolated_fraction, b.isolated_fraction);
  for (const auto& [x, y] : {std::pair{&a.degrees, &b.degrees},
                             std::pair{&a.diameters, &b.diameters},
                             std::pair{&a.clustering, &b.clustering}}) {
    ASSERT_EQ(x->size(), y->size());
    for (std::size_t i = 0; i < x->size(); ++i) EXPECT_EQ(x->sorted()[i], y->sorted()[i]);
  }
  // The appended-from stream is left empty.
  const GraphMetrics rest = slice.finish();
  EXPECT_EQ(rest.snapshots_analyzed, 0u);
  EXPECT_TRUE(rest.degrees.empty());
}

// Property: invariants over random snapshots.
class GraphProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GraphProperty, Invariants) {
  Rng rng(GetParam());
  Snapshot s;
  s.time = 0.0;
  const auto n = static_cast<std::size_t>(rng.uniform_int(1, 80));
  for (std::size_t i = 0; i < n; ++i) {
    s.fixes.push_back({AvatarId{static_cast<std::uint32_t>(i + 1)},
                       {rng.uniform(0.0, 256.0), rng.uniform(0.0, 256.0), 22.0}});
  }
  const SnapshotGraph g(s, 20.0);
  // Diameter < n; clustering in [0,1]; degree sum = 2*edges; the stream's
  // degree samples and mean clustering equal the definitions'.
  const GraphMetrics m = g.metrics(20.0);
  EXPECT_LT(g.diameter(), n);
  ASSERT_EQ(m.degrees.size(), n);
  double degree_sum = 0.0;
  for (const double d : m.degrees.sorted()) degree_sum += d;
  EXPECT_EQ(degree_sum, 2.0 * static_cast<double>(g.edge_count()));
  double clustering_sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double c = g.clustering(i);
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0);
    clustering_sum += c;
  }
  EXPECT_NEAR(m.clustering.max(), clustering_sum / static_cast<double>(n), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

}  // namespace
}  // namespace slmob
