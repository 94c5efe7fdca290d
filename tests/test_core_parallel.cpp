// Determinism of the parallel analysis pipeline: analyze_trace must produce
// bit-identical results (ECDF sample sequences, interval lists, zone and trip
// statistics) for any thread count, equal to fingerprints pinned from the
// original batch pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/experiment.hpp"
#include "util/rng.hpp"

namespace slmob {
namespace {

// A seeded trace of avatars random-walking around two hotspots, with churn
// (avatars joining/leaving), so all analyses produce non-trivial output.
Trace seeded_trace(std::uint64_t seed, std::size_t snapshots, std::size_t users) {
  Rng rng(seed);
  std::vector<Vec3> pos(users);
  std::vector<bool> online(users, false);
  for (std::size_t u = 0; u < users; ++u) {
    const double cx = (u % 2 == 0) ? 64.0 : 192.0;
    pos[u] = {cx + rng.uniform(-30.0, 30.0), 128.0 + rng.uniform(-30.0, 30.0), 22.0};
    online[u] = rng.uniform(0.0, 1.0) < 0.7;
  }
  Trace t("determinism", 10.0);
  for (std::size_t s = 0; s < snapshots; ++s) {
    Snapshot snap;
    snap.time = static_cast<double>(s) * 10.0;
    for (std::size_t u = 0; u < users; ++u) {
      if (rng.uniform(0.0, 1.0) < 0.02) online[u] = !online[u];
      if (!online[u]) continue;
      pos[u].x = std::clamp(pos[u].x + rng.uniform(-5.0, 5.0), 0.0, 255.0);
      pos[u].y = std::clamp(pos[u].y + rng.uniform(-5.0, 5.0), 0.0, 255.0);
      snap.fixes.push_back({AvatarId{static_cast<std::uint32_t>(u + 1)}, pos[u]});
    }
    t.add(std::move(snap));
  }
  return t;
}

void expect_same_ecdf(const Ecdf& a, const Ecdf& b, const char* what) {
  const auto sa = a.sorted();
  const auto sb = b.sorted();
  ASSERT_EQ(sa.size(), sb.size()) << what;
  for (std::size_t i = 0; i < sa.size(); ++i) {
    ASSERT_EQ(sa[i], sb[i]) << what << " sample " << i;  // exact, not approx
  }
}

void expect_same_results(const ExperimentResults& a, const ExperimentResults& b) {
  ASSERT_EQ(a.contacts.size(), b.contacts.size());
  for (const auto& [r, ca] : a.contacts) {
    const auto& cb = b.contacts.at(r);
    ASSERT_EQ(ca.intervals.size(), cb.intervals.size()) << "range " << r;
    for (std::size_t i = 0; i < ca.intervals.size(); ++i) {
      ASSERT_EQ(ca.intervals[i].a, cb.intervals[i].a);
      ASSERT_EQ(ca.intervals[i].b, cb.intervals[i].b);
      ASSERT_EQ(ca.intervals[i].start, cb.intervals[i].start);
      ASSERT_EQ(ca.intervals[i].end, cb.intervals[i].end);
    }
    expect_same_ecdf(ca.contact_times, cb.contact_times, "contact_times");
    expect_same_ecdf(ca.inter_contact_times, cb.inter_contact_times, "inter_contact_times");
    expect_same_ecdf(ca.first_contact_times, cb.first_contact_times, "first_contact_times");
    ASSERT_EQ(ca.users_seen, cb.users_seen);
    ASSERT_EQ(ca.users_with_contact, cb.users_with_contact);
  }
  ASSERT_EQ(a.graphs.size(), b.graphs.size());
  for (const auto& [r, ga] : a.graphs) {
    const auto& gb = b.graphs.at(r);
    expect_same_ecdf(ga.degrees, gb.degrees, "degrees");
    expect_same_ecdf(ga.diameters, gb.diameters, "diameters");
    expect_same_ecdf(ga.clustering, gb.clustering, "clustering");
    ASSERT_EQ(ga.snapshots_analyzed, gb.snapshots_analyzed);
    ASSERT_EQ(ga.isolated_fraction, gb.isolated_fraction);
  }
  expect_same_ecdf(a.zones.occupancy, b.zones.occupancy, "zone occupancy");
  ASSERT_EQ(a.zones.empty_fraction, b.zones.empty_fraction);
  ASSERT_EQ(a.zones.max_occupancy, b.zones.max_occupancy);
  ASSERT_EQ(a.zones.mean_per_cell, b.zones.mean_per_cell);
  expect_same_ecdf(a.trips.travel_lengths, b.trips.travel_lengths, "travel_lengths");
  expect_same_ecdf(a.trips.travel_times, b.trips.travel_times, "travel_times");
  ASSERT_EQ(a.trips.sessions, b.trips.sessions);
}

// Pinned from the original batch pipeline at ranges {10, 80} m.
constexpr std::uint32_t kTrace99 = 0x0cac47a0u;   // seeded_trace(99, 120, 60)
constexpr std::uint32_t kTrace7 = 0x59a0bbfbu;    // seeded_trace(7, 60, 40)
constexpr std::uint32_t kApfel17 = 0x63eaf796u;   // Apfelland, 0.5 h, seed 17

std::uint32_t fingerprint(const ExperimentResults& res) {
  return analysis_fingerprint(to_analysis_report(res));
}

TEST(ParallelAnalysis, IdenticalResultsFor1And2And8Threads) {
  const Trace trace = seeded_trace(99, 120, 60);
  const auto run = [&](std::size_t threads) {
    return analyze_trace(trace, {kBluetoothRange, kWifiRange}, kDefaultLandSize, threads);
  };
  const ExperimentResults one = run(1);
  // Non-trivial workload sanity: something to actually compare.
  ASSERT_FALSE(one.contacts.at(kBluetoothRange).contact_times.empty());
  ASSERT_FALSE(one.graphs.at(kWifiRange).degrees.empty());
  expect_same_results(one, run(2));
  expect_same_results(one, run(8));
  EXPECT_EQ(fingerprint(one), kTrace99);
}

TEST(ParallelAnalysis, PinnedFingerprintAt1To4Threads) {
  const Trace trace = seeded_trace(99, 120, 60);
  for (const std::size_t threads : {1u, 2u, 3u, 4u}) {
    EXPECT_EQ(fingerprint(analyze_trace(trace, {kBluetoothRange, kWifiRange},
                                        kDefaultLandSize, threads)),
              kTrace99)
        << threads << " threads";
  }
}

TEST(ParallelAnalysis, RepeatedRunsAtSameThreadCountAreIdentical) {
  const Trace trace = seeded_trace(7, 60, 40);
  const auto run = [&] {
    return analyze_trace(trace, {kBluetoothRange, kWifiRange}, kDefaultLandSize, 4);
  };
  const ExperimentResults a = run();
  const ExperimentResults b = run();
  expect_same_results(a, b);
  EXPECT_EQ(fingerprint(a), kTrace7);
}

TEST(ParallelAnalysis, SingleRangeAndEmptyRanges) {
  const Trace trace = seeded_trace(3, 30, 20);
  const ExperimentResults single =
      analyze_trace(trace, {10.0}, kDefaultLandSize, 4);
  EXPECT_EQ(single.contacts.size(), 1u);
  EXPECT_EQ(single.graphs.size(), 1u);
  const ExperimentResults none = analyze_trace(trace, {}, kDefaultLandSize, 4);
  EXPECT_TRUE(none.contacts.empty());
  EXPECT_TRUE(none.graphs.empty());
  EXPECT_FALSE(none.zones.mean_per_cell.empty());
}

TEST(ParallelAnalysis, DuplicateRangesCollapse) {
  const Trace trace = seeded_trace(5, 20, 20);
  const ExperimentResults res =
      analyze_trace(trace, {10.0, 10.0, 80.0}, kDefaultLandSize, 4);
  EXPECT_EQ(res.contacts.size(), 2u);
  EXPECT_EQ(res.graphs.size(), 2u);
}

TEST(ParallelAnalysis, ExperimentConfigThreadsPlumbing) {
  // run_experiment with explicit analysis_threads matches the default.
  ExperimentConfig cfg;
  cfg.archetype = LandArchetype::kApfelLand;
  cfg.duration = 0.5 * kSecondsPerHour;
  cfg.seed = 17;
  const ExperimentResults def = run_experiment(cfg);
  cfg.analysis_threads = 2;
  const ExperimentResults two = run_experiment(cfg);
  expect_same_results(def, two);
  EXPECT_EQ(fingerprint(two), kApfel17);
}

}  // namespace
}  // namespace slmob
