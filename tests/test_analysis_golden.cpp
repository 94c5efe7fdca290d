// Pinned analysis goldens: the analysis_fingerprint of every land under the
// fault-free, blackout and flash-crowd scenarios, on 2 h runs analysed at
// both of the paper's radii. The constants were taken from the batch
// analyze_trace of the original two-engine pipeline, so any change to an
// analysis result — at any thread count, through run_experiment,
// analyze_trace or a trace stream — fails here and prints the fingerprint
// it produced instead.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>

#include "analysis/streaming.hpp"
#include "core/experiment.hpp"

namespace slmob {
namespace {

struct Golden {
  LandArchetype land;
  const char* scenario;
  std::uint32_t fingerprint;
};

// 2 h, seed 42, ranges {10, 80} m, sitting fixes stripped (run_experiment).
constexpr Golden kGoldens[] = {
    {LandArchetype::kIsleOfView, "none", 0x46b7ae5eu},
    {LandArchetype::kIsleOfView, "blackouts", 0x91b6e2dfu},
    {LandArchetype::kIsleOfView, "overload", 0x4802aa41u},
    {LandArchetype::kDanceIsland, "none", 0x8fff07ccu},
    {LandArchetype::kDanceIsland, "blackouts", 0x2c740229u},
    {LandArchetype::kDanceIsland, "overload", 0x9a4b0439u},
    {LandArchetype::kApfelLand, "none", 0xf5216e58u},
    {LandArchetype::kApfelLand, "blackouts", 0xa7d30157u},
    {LandArchetype::kApfelLand, "overload", 0x5f25b1f9u},
};

std::string hex(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "0x%08xu", v);
  return buf;
}

void PrintTo(const Golden& g, std::ostream* os) {
  *os << archetype_name(g.land) << "/" << g.scenario;
}

class AnalysisGolden : public ::testing::TestWithParam<Golden> {};

TEST_P(AnalysisGolden, FingerprintAtEveryThreadCount) {
  const Golden& g = GetParam();
  ExperimentConfig cfg;
  cfg.archetype = g.land;
  cfg.duration = 2.0 * kSecondsPerHour;
  cfg.seed = 42;
  cfg.fault_scenario = g.scenario;
  cfg.analysis_threads = 1;
  const ExperimentResults res = run_experiment(cfg);
  if (std::string(g.scenario) == "blackouts") {
    ASSERT_FALSE(res.trace.gaps().empty()) << "the gapped case must carry gaps";
  }
  const std::uint32_t want = g.fingerprint;
  ASSERT_EQ(hex(analysis_fingerprint(to_analysis_report(res))), hex(want))
      << "run_experiment";

  for (const std::size_t threads : {1u, 2u, 3u, 4u}) {
    const ExperimentResults again =
        analyze_trace(Trace(res.trace), cfg.ranges, kDefaultLandSize, threads);
    EXPECT_EQ(hex(analysis_fingerprint(to_analysis_report(again))), hex(want))
        << "analyze_trace at " << threads << " threads";

    StreamingOptions options;
    options.ranges = cfg.ranges;
    options.threads = threads;
    MemoryTraceStream stream(res.trace);
    EXPECT_EQ(hex(analysis_fingerprint(analyze_stream(stream, options))), hex(want))
        << "analyze_stream at " << threads << " threads";
  }
}

std::string golden_name(const ::testing::TestParamInfo<Golden>& info) {
  std::string name = archetype_name(info.param.land) + "_" + info.param.scenario;
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(Lands, AnalysisGolden, ::testing::ValuesIn(kGoldens), golden_name);

}  // namespace
}  // namespace slmob
