// Experiment: the one-call public API.
//
// Reproduces the paper's full methodology: run a 24 h (configurable)
// crawler measurement on a target land, then compute every metric of §3 —
// contact opportunities (CT/ICT/FT) at the Bluetooth and WiFi ranges,
// line-of-sight graph properties, zone occupation and trip statistics.
//
//   ExperimentConfig cfg;
//   cfg.archetype = LandArchetype::kDanceIsland;
//   cfg.duration = 24 * kSecondsPerHour;
//   ExperimentResults res = run_experiment(cfg);
//   res.contacts.at(kBluetoothRange).contact_times.median();
#pragma once

#include <map>
#include <optional>
#include <string>

#include "analysis/analysis_report.hpp"
#include "analysis/contacts.hpp"
#include "analysis/graphs.hpp"
#include "analysis/trips.hpp"
#include "analysis/zones.hpp"
#include "core/testbed.hpp"
#include "util/thread_pool.hpp"

namespace slmob {

// The paper's two communication ranges: Bluetooth and 802.11a WiFi.
inline constexpr double kBluetoothRange = 10.0;
inline constexpr double kWifiRange = 80.0;

struct ExperimentConfig {
  LandArchetype archetype{LandArchetype::kIsleOfView};
  Seconds duration{kSecondsPerDay};
  std::uint64_t seed{42};
  std::vector<double> ranges{kBluetoothRange, kWifiRange};
  TestbedConfig testbed;  // archetype/seed fields here are overwritten
  // Analyse the ground-truth trace instead of the crawler's (for
  // architecture-comparison studies).
  bool analyze_ground_truth{false};
  // Total threads for the analysis pipeline (the simulation itself stays
  // single-threaded for determinism). 0 = SLMOB_THREADS env var if set,
  // else hardware_concurrency(). Results are identical for any value.
  std::size_t analysis_threads{0};
  // Named chaos scenario (FaultSchedule::scenario): "none", "blackouts",
  // "burst-loss", "region-flaps" or "chaos". Ignored when testbed.faults is
  // already populated. Scenario randomness comes from `fault_seed`
  // (0 = derive from `seed`), so faults can vary independently of the world.
  std::string fault_scenario{"none"};
  std::uint64_t fault_seed{0};
};

struct ExperimentResults {
  Trace trace;  // the analysed trace
  TraceSummary summary;
  std::map<double, ContactAnalysis> contacts;  // keyed by range
  std::map<double, GraphMetrics> graphs;       // keyed by range
  ZoneAnalysis zones;
  TripAnalysis trips;
  WorldStats world_stats;
  SimServerStats server_stats;  // region admission / shed counters
  CrawlerStats crawler_stats;   // zero-initialised when crawler disabled
  NetworkStats network_stats;
  CircuitStats circuit_stats;   // crawler client, summed across relogins
  std::optional<Trace> ground_truth;
};

// The exact TestbedConfig run_experiment builds from `config` (archetype,
// seed and fault scenario resolved). Exposed so the checkpointed runner
// (core/checkpoint.hpp) wires a bit-identical rig.
TestbedConfig make_testbed_config(const ExperimentConfig& config);

// Runs the testbed for cfg.duration and computes all analyses.
ExperimentResults run_experiment(const ExperimentConfig& config);

// Runs only the analyses on an existing trace (e.g. loaded from disk).
//
// Streams the trace through a StreamingAnalyzer (analysis/streaming.hpp)
// over a MemoryTraceStream — the same engine `slmob analyze` and a live
// crawler use — on `threads` total threads (0 = SLMOB_THREADS env var, else
// hardware_concurrency()). Output is bit-identical for every thread count.
// The trace is moved into the result afterwards.
ExperimentResults analyze_trace(Trace trace, const std::vector<double>& ranges,
                                double land_size = kDefaultLandSize,
                                std::size_t threads = 0);

// The analysis slice of `results` as an AnalysisReport, enabling direct
// analysis_diff / analysis_equal comparison with any other report. Flights
// and relations stay empty — the experiment does not compute them.
AnalysisReport to_analysis_report(const ExperimentResults& results);

}  // namespace slmob
