// The benchmark's three workloads, their rig set-up and their untraced
// pipelines. Each pipeline calls only the library's public entry points, the
// way `slmob run` / `slmob analyze` / a live-analysis rig would.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/streaming.hpp"
#include "core/experiment.hpp"
#include "trace/trace.hpp"

namespace perfbench {

enum class Workload { kPaperDay, kCrawlWeek, kChaosLive };

// Throws std::invalid_argument on an unknown name.
Workload parse_workload(const std::string& name);

struct Params {
  Workload workload{Workload::kPaperDay};
  std::uint64_t seed{42};
  std::size_t threads{1};  // the thread budget T
  double hours{0.0};       // 0 = the workload's: 168 on crawl_week, else 24
  std::string dir;         // scratch directory owned by this process
};

// The paper's two radii (Bluetooth, WiFi).
inline const std::vector<double> kRanges{10.0, 80.0};
// chaos_live runs the `chaos` scenario; its fault schedule is drawn from this
// seed for every land, so the fault load is the same on every run and only
// the world varies with --seed.
inline constexpr std::uint64_t kChaosFaultSeed = 2008;

// crawl_week's checkpoint interval (virtual seconds).
inline constexpr double kCheckpointEvery = 3600.0;

// One config per land — Isle of View, Dance Island, Apfel Land — with
// seeds seed, seed+1, seed+2 (as `slmob run --land isle,dance,apfel`).
std::vector<slmob::ExperimentConfig> land_configs(const Params& p);

// Threads chaos_live spends: one per land, within the budget.
std::size_t chaos_threads(const Params& p);

// CRC-32 of encode_trace(trace).
std::uint32_t trace_digest(const slmob::Trace& trace);
// The trace digest every run compares: CRC-32 of a saved .slt, which is
// encode_trace of the land's sitting-stripped trace.
std::uint32_t slt_digest(const std::string& path);

// crawl_week's product fingerprint: CRC-32 over the final .slt, the journal
// and the last checkpoint of one shard.
std::uint32_t durable_fingerprint(const std::string& slt_path, const std::string& shard_dir);

// Path helpers shared by untraced and traced runs.
std::string slt_path(const std::string& dir, std::size_t land_index);
std::string shard_dir(const std::string& dir, std::size_t land_index,
                      slmob::LandArchetype archetype);

// chaos_live's live analyzer: one thread, sitting fixes stripped.
slmob::StreamingOptions live_options();

// The analysis slice of a streaming report wrapped for render_report.
slmob::ExperimentResults as_results(const slmob::AnalysisReport& report);

struct LandOutcome {
  std::string land;
  std::uint32_t digest{0};
  // Analysis fingerprint (paper_day, chaos_live) or durable fingerprint
  // (crawl_week).
  std::uint32_t fingerprint{0};
  double covered_s{0.0};
  double crawled_s{0.0};
};

struct UntracedRun {
  std::vector<double> setup_s;  // one entry per set-up repetition
  double pipeline_s{0.0};
  double cpu_s{0.0};
  double peak_rss_mib{0.0};
  double bytes_written_mib{0.0};
  std::vector<LandOutcome> lands;
};

// Set-up samples per process: enough that their median is steady although
// one set-up takes only tens of microseconds.
inline constexpr int kSetupsPerProcess = 101;

// Builds (and tears down) the rigs kSetupsPerProcess times, then runs one
// pipeline.
UntracedRun run_untraced(const Params& p);

}  // namespace perfbench
