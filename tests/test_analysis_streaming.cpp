// StreamingAnalyzer against pinned goldens and across routes: its
// AnalysisReport must equal the fingerprints pinned from the original batch
// pipeline — every Ecdf sample, interval and scalar — on gap-free and gapped
// traces, on every land archetype and under fault scenarios, at 1 to 4
// analysis threads (3 cuts the window into uneven slices). Every route into
// the engine — analyze_trace, .slt and .sltj files, a salvaged torn
// journal, the crawler's live feed — must agree. Failures print
// analysis_diff, which names the first differing field.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <initializer_list>
#include <string>
#include <vector>

#include "analysis/streaming.hpp"
#include "core/experiment.hpp"
#include "core/testbed.hpp"
#include "trace/journal.hpp"
#include "trace/serialize.hpp"
#include "util/rng.hpp"

namespace slmob {
namespace {

// Avatars random-walking around two hotspots with churn, so every analysis
// produces non-trivial output (same generator as test_core_parallel).
Trace seeded_trace(std::uint64_t seed, std::size_t snapshots, std::size_t users) {
  Rng rng(seed);
  std::vector<Vec3> pos(users);
  std::vector<bool> online(users, false);
  for (std::size_t u = 0; u < users; ++u) {
    const double cx = (u % 2 == 0) ? 64.0 : 192.0;
    pos[u] = {cx + rng.uniform(-30.0, 30.0), 128.0 + rng.uniform(-30.0, 30.0), 22.0};
    online[u] = rng.uniform(0.0, 1.0) < 0.7;
  }
  Trace t("streaming-golden", 10.0);
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

// The analyze_trace route (an in-memory trace, as run_experiment uses).
AnalysisReport trace_report(const Trace& trace, std::size_t threads = 1) {
  return to_analysis_report(
      analyze_trace(Trace(trace), {kBluetoothRange, kWifiRange}, kDefaultLandSize, threads));
}

AnalysisReport stream_report(const Trace& trace, StreamingOptions options = {}) {
  MemoryTraceStream stream(trace);
  return analyze_stream(stream, options);
}

void expect_equivalent(const AnalysisReport& want, const AnalysisReport& got) {
  const std::string diff = analysis_diff(want, got);
  EXPECT_TRUE(diff.empty()) << diff;
  EXPECT_EQ(analysis_fingerprint(want), analysis_fingerprint(got));
}

// Fingerprints pinned from the original batch pipeline (analyze_trace over
// a whole-trace proximity cache) at ranges {10, 80} m.
constexpr std::uint32_t kGapFree99 = 0x0cac47a0u;   // seeded_trace(99, 120, 60)
constexpr std::uint32_t kGapped7 = 0xdabf1153u;     // seeded_trace(7, 150, 50) + 2 gaps
constexpr std::uint32_t kGapped13 = 0xf3faab28u;    // seeded_trace(13, 80, 40) + 1 gap
constexpr std::uint32_t kStripped21 = 0xa8a7b066u;  // seeded_trace(21, 60, 30)

void expect_pinned(const AnalysisReport& report, std::uint32_t want) {
  EXPECT_EQ(analysis_fingerprint(report), want)
      << std::hex << "fingerprint 0x" << analysis_fingerprint(report) << " != pinned 0x"
      << want;
}

// Streams `trace` at `threads` and checks the report against the pinned
// fingerprint and, field by field, against the 1-thread report.
void expect_pinned_at(const Trace& trace, std::uint32_t want,
                      std::initializer_list<std::size_t> thread_counts) {
  StreamingOptions single;
  single.threads = 1;
  const AnalysisReport one = stream_report(trace, single);
  expect_pinned(one, want);
  for (const std::size_t threads : thread_counts) {
    StreamingOptions opt;
    opt.threads = threads;
    SCOPED_TRACE(testing::Message() << threads << " threads");
    const AnalysisReport report = stream_report(trace, opt);
    expect_equivalent(one, report);
    expect_pinned(report, want);
  }
}

TEST(StreamingEquivalence, GapFreeTraceAt1And2And4Threads) {
  const Trace trace = seeded_trace(99, 120, 60);
  ASSERT_FALSE(trace_report(trace).contacts.at(kBluetoothRange).contact_times.empty());
  expect_pinned_at(trace, kGapFree99, {1u, 2u, 4u});
}

TEST(StreamingEquivalence, GappedTraceAt1And2And4Threads) {
  Trace trace = seeded_trace(7, 150, 50);
  trace.add_gap(295.0, 355.0);
  trace.add_gap(820.0, 900.0);
  expect_pinned_at(trace, kGapped7, {1u, 2u, 4u});
}

TEST(StreamingEquivalence, UnevenWindowSlicesAt3Threads) {
  // 3 threads cut each 64-snapshot window into 12 graph slices of 5 or 6
  // snapshots, and the partial last windows (56 and 22 covered snapshots)
  // into other uneven slices.
  expect_pinned_at(seeded_trace(99, 120, 60), kGapFree99, {3u});
  Trace gapped = seeded_trace(7, 150, 50);
  gapped.add_gap(295.0, 355.0);
  gapped.add_gap(820.0, 900.0);
  expect_pinned_at(gapped, kGapped7, {3u});
}

TEST(StreamingEquivalence, BatchThreadCountDoesNotMatterEither) {
  // analyze_trace's thread count is the engine's: any value gives the
  // pinned report.
  Trace trace = seeded_trace(13, 80, 40);
  trace.add_gap(205.0, 245.0);
  for (const std::size_t threads : {1u, 2u, 3u, 4u}) {
    expect_pinned(trace_report(trace, threads), kGapped13);
  }
  expect_equivalent(trace_report(trace, 4), stream_report(trace));
}

TEST(StreamingEquivalence, StripSittingFixesMatchesWholeTraceStrip) {
  // A trace with origin fixes: streaming's per-snapshot strip must equal
  // Trace::strip_sitting_fixes on the whole trace before analyze_trace.
  Trace trace = seeded_trace(21, 60, 30);
  Trace polluted(trace.land_name(), trace.sampling_interval());
  for (const auto& snap : trace.snapshots()) {
    Snapshot copy = snap;
    copy.fixes.push_back({AvatarId{9999}, {0.0, 0.0, 0.0}});
    polluted.add(std::move(copy));
  }
  Trace stripped = polluted;  // deep copy, then strip whole-trace
  stripped.strip_sitting_fixes();
  StreamingOptions opt;
  opt.strip_sitting_fixes = true;
  const AnalysisReport streamed = stream_report(polluted, opt);
  expect_equivalent(trace_report(stripped), streamed);
  expect_pinned(streamed, kStripped21);
}

// run_experiment of a 2 h, seed-42 Isle of View / Dance / Apfel run. Its
// report and the streamed report of its (stripped) trace must match the
// fingerprint pinned from the original batch pipeline at every thread count.
void expect_land_golden(LandArchetype archetype, const std::string& scenario,
                        std::uint32_t want) {
  ExperimentConfig cfg;
  cfg.archetype = archetype;
  cfg.duration = 2.0 * kSecondsPerHour;
  cfg.seed = 42;
  cfg.fault_scenario = scenario;
  const ExperimentResults results = run_experiment(cfg);
  if (scenario == "chaos") {
    // Chaos must actually have censored something for this to test gap paths.
    EXPECT_FALSE(results.trace.gaps().empty());
  }
  expect_pinned(to_analysis_report(results), want);
  // results.trace is the stripped trace run_experiment analysed, so
  // streaming it without re-stripping must match.
  expect_pinned_at(results.trace, want, {2u, 3u, 4u});
}

TEST(StreamingGolden, IsleOfView) {
  expect_land_golden(LandArchetype::kIsleOfView, "none", 0x46b7ae5eu);
}

TEST(StreamingGolden, DanceIsland) {
  expect_land_golden(LandArchetype::kDanceIsland, "none", 0x8fff07ccu);
}

TEST(StreamingGolden, ApfelLand) {
  expect_land_golden(LandArchetype::kApfelLand, "none", 0xf5216e58u);
}

TEST(StreamingGolden, ChaosScenario) {
  expect_land_golden(LandArchetype::kIsleOfView, "chaos", 0x84656560u);
}

TEST(StreamingGolden, CollectorCrashScenario) {
  // A collector crash only touches the sensor path: the crawler's analysis
  // equals the fault-free one.
  expect_land_golden(LandArchetype::kIsleOfView, "collector-crash", 0x46b7ae5eu);
}

TEST(StreamingEquivalence, SalvagedTornJournal) {
  // A journal torn mid-frame streams exactly what salvage_journal keeps —
  // including the synthetic trailing gap — and analyzes identically.
  Trace trace = seeded_trace(31, 40, 25);
  const std::string path = ::testing::TempDir() + "streaming_torn.sltj";
  {
    TraceJournalWriter w(path, 400.0);
    w.begin(trace.land_name(), trace.sampling_interval());
    for (std::size_t i = 0; i < trace.snapshots().size(); ++i) {
      if (i == 10) {
        w.append_gap_open(95.0);
        w.append_gap_close(95.0, 100.0);
      }
      w.append_snapshot(trace.snapshots()[i]);
    }
    w.append_end(400.0);
  }
  // Tear off the last 31 bytes: the kEnd frame and part of the final
  // snapshot frame are lost, forcing a trailing censoring gap.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long full = std::ftell(f);
  // slmob-lint: allow(checked-durability) -- read-only stream; close failure cannot lose data
  std::fclose(f);
  ASSERT_EQ(truncate(path.c_str(), full - 31), 0);

  const JournalSalvage salvage = salvage_journal(path);
  EXPECT_TRUE(salvage.torn);
  ASSERT_FALSE(salvage.trace.gaps().empty());  // trailing censoring gap

  StreamingProgress progress;
  const AnalysisReport streamed = analyze_stream_file(path, {}, &progress);
  expect_equivalent(trace_report(salvage.trace), streamed);
  EXPECT_EQ(progress.snapshots, salvage.trace.snapshots().size());
  std::remove(path.c_str());
}

TEST(StreamingEquivalence, SltFileMatchesInMemory) {
  Trace trace = seeded_trace(17, 50, 30);
  trace.add_gap(125.0, 165.0);
  const std::string path = ::testing::TempDir() + "streaming_file.slt";
  save_trace(trace, path);
  // The in-memory route loads the same file: .slt stores f32 positions, so
  // equivalence is against the loaded trace, not the pre-save doubles.
  expect_equivalent(trace_report(load_trace(path)), analyze_stream_file(path));
  std::remove(path.c_str());
}

TEST(StreamingEquivalence, FlightsMatchAnalyzeFlights) {
  const Trace trace = seeded_trace(43, 100, 40);
  StreamingOptions opt;
  opt.flights = true;
  const AnalysisReport streamed = stream_report(trace, opt);
  ASSERT_TRUE(streamed.flights.has_value());

  AnalysisReport expected = trace_report(trace);
  expected.flights = analyze_flights(trace, opt.flight_options);
  expect_equivalent(expected, streamed);
  EXPECT_GT(streamed.flights->sessions_analyzed, 0u);
}

TEST(StreamingEquivalence, RelationsMatchRelationGraph) {
  const Trace trace = seeded_trace(47, 100, 40);
  StreamingOptions opt;
  opt.relations = true;
  const AnalysisReport streamed = stream_report(trace, opt);
  ASSERT_TRUE(streamed.relations.has_value());

  AnalysisReport expected = trace_report(trace);
  const RelationGraph graph(expected.contacts.at(opt.relation_range).intervals,
                            opt.relation_options);
  expected.relations = summarize_relations(graph);
  expect_equivalent(expected, streamed);
  EXPECT_GT(streamed.relations->relations.size(), 0u);
}

TEST(StreamingEquivalence, CrawlerLiveSinkMatchesBatchOnTakenTrace) {
  // The crawler feeds an attached analyzer the same events it records; at
  // take_trace time the live report must equal analyze_trace of the taken
  // trace (strip enabled on both sides, as run_experiment does).
  TestbedConfig cfg;
  cfg.archetype = LandArchetype::kApfelLand;
  cfg.seed = 11;
  Testbed bed(cfg);
  ASSERT_NE(bed.crawler(), nullptr);

  StreamingOptions opt;
  opt.strip_sitting_fixes = true;
  StreamingAnalyzer live(opt);
  bed.crawler()->attach_live_sink(&live);
  bed.run_until(1.0 * kSecondsPerHour);

  Trace trace = bed.crawler()->take_trace();
  trace.strip_sitting_fixes();
  const AnalysisReport taken = trace_report(trace);
  const AnalysisReport streamed = live.finish();
  const std::string diff = analysis_diff(taken, streamed);
  EXPECT_TRUE(diff.empty()) << diff;
  EXPECT_GT(streamed.summary.snapshot_count, 0u);
}

TEST(StreamingAnalyzer, ProgressCountersTrackTheStream) {
  Trace trace = seeded_trace(3, 30, 20);
  trace.add_gap(95.0, 125.0);  // covers snapshots at t=100, 110, 120
  StreamingAnalyzer analyzer;
  MemoryTraceStream stream(trace);
  drive_stream(stream, analyzer);

  const StreamingProgress p = analyzer.progress();
  const TraceSummary want = trace.summary();
  EXPECT_EQ(p.snapshots, trace.snapshots().size());
  EXPECT_EQ(p.covered_snapshots, trace.snapshots().size() - 3);
  EXPECT_EQ(p.gaps, 1u);
  EXPECT_EQ(p.users_seen, want.unique_users);
  EXPECT_EQ(p.max_concurrent, want.max_concurrent);
  EXPECT_EQ(p.last_time, trace.snapshots().back().time);
  EXPECT_GT(p.proximity_rebuilds + p.proximity_delta_updates, 0u);

  const AnalysisReport report = analyzer.finish();
  EXPECT_EQ(report.summary.snapshot_count, want.snapshot_count);
  EXPECT_EQ(report.summary.gap_count, want.gap_count);
  EXPECT_EQ(report.summary.gap_seconds, want.gap_seconds);
}

TEST(StreamingAnalyzer, EmptyStreamYieldsEmptyReport) {
  StreamingAnalyzer analyzer;
  analyzer.on_begin("empty", 10.0);
  const AnalysisReport report = analyzer.finish();
  EXPECT_EQ(report.summary.snapshot_count, 0u);
  EXPECT_EQ(report.summary.unique_users, 0u);
  EXPECT_EQ(report.summary.duration, 0.0);
  EXPECT_TRUE(report.contacts.at(kBluetoothRange).contact_times.empty());
}

TEST(StreamingAnalyzer, FinishWithoutBeginIsAnEmptyReport) {
  StreamingAnalyzer analyzer;
  const AnalysisReport report = analyzer.finish();
  EXPECT_EQ(report.summary.snapshot_count, 0u);
}

TEST(StreamingAnalyzer, UsageErrors) {
  {
    StreamingOptions opt;
    opt.ranges = {10.0, -1.0};
    EXPECT_THROW(StreamingAnalyzer{opt}, std::invalid_argument);
  }
  {
    StreamingOptions opt;
    opt.relations = true;
    opt.relation_range = 42.0;  // not in ranges
    EXPECT_THROW(StreamingAnalyzer{opt}, std::invalid_argument);
  }
  {
    StreamingAnalyzer analyzer;
    Snapshot snap;
    EXPECT_THROW(analyzer.on_snapshot(snap), std::logic_error);
  }
  {
    StreamingAnalyzer analyzer;
    analyzer.on_begin("x", 10.0);
    (void)analyzer.finish();
    EXPECT_THROW((void)analyzer.finish(), std::logic_error);
  }
}

TEST(AnalysisReportDiff, NamesTheFirstDifferingField) {
  const Trace trace = seeded_trace(5, 20, 15);
  const AnalysisReport a = trace_report(trace);
  AnalysisReport b = a;
  EXPECT_TRUE(analysis_equal(a, b));
  b.summary.snapshot_count += 1;
  const std::string diff = analysis_diff(a, b);
  EXPECT_FALSE(diff.empty());
  EXPECT_NE(diff.find("snapshot_count"), std::string::npos) << diff;
  EXPECT_NE(analysis_fingerprint(a), analysis_fingerprint(b));
}

}  // namespace
}  // namespace slmob
