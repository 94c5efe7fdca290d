#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <stdexcept>

#include "analysis/streaming.hpp"
#include "core/checkpoint.hpp"
#include "core/report.hpp"
#include "core/shards.hpp"
#include "core/testbed.hpp"
#include "probe.hpp"
#include "trace/serialize.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {
namespace fs = std::filesystem;
using namespace slmob;

Workload parse_workload(const std::string& name) {
  if (name == "paper_day") return Workload::kPaperDay;
  if (name == "crawl_week") return Workload::kCrawlWeek;
  if (name == "chaos_live") return Workload::kChaosLive;
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::vector<ExperimentConfig> land_configs(const Params& p) {
  static constexpr LandArchetype kLands[] = {
      LandArchetype::kIsleOfView, LandArchetype::kDanceIsland, LandArchetype::kApfelLand};
  const double hours =
      p.hours > 0.0 ? p.hours : (p.workload == Workload::kCrawlWeek ? 168.0 : 24.0);
  std::vector<ExperimentConfig> out;
  for (std::size_t i = 0; i < std::size(kLands); ++i) {
    ExperimentConfig cfg;
    cfg.archetype = kLands[i];
    cfg.duration = hours * kSecondsPerHour;
    cfg.seed = p.seed + i;
    cfg.ranges = {};  // collection only; analysis is driven explicitly
    if (p.workload == Workload::kChaosLive) {
      cfg.fault_scenario = "chaos";
      cfg.fault_seed = kChaosFaultSeed;
    }
    out.push_back(cfg);
  }
  return out;
}

std::size_t chaos_threads(const Params& p) { return std::min<std::size_t>(3, p.threads); }

std::uint32_t trace_digest(const Trace& trace) { return crc32(encode_trace(trace)); }

std::uint32_t slt_digest(const std::string& path) { return files_crc({path}); }

std::string slt_path(const std::string& dir, std::size_t land_index) {
  return dir + "/land-" + std::to_string(land_index) + ".slt";
}

std::string shard_dir(const std::string& dir, std::size_t land_index,
                      LandArchetype archetype) {
  return dir + "/ck/" + shard_dir_name(land_index, archetype);
}

std::uint32_t durable_fingerprint(const std::string& slt, const std::string& shard) {
  return files_crc({slt, shard + "/" + kJournalFileName, shard + "/" + kCheckpointFileName});
}

ExperimentResults as_results(const AnalysisReport& report) {
  ExperimentResults res;
  res.summary = report.summary;
  res.contacts = report.contacts;
  res.graphs = report.graphs;
  res.zones = report.zones;
  res.trips = report.trips;
  return res;
}

StreamingOptions live_options() {
  StreamingOptions so;
  so.ranges = kRanges;
  so.threads = 1;
  so.strip_sitting_fixes = true;  // as run_experiment strips before analysing
  return so;
}

namespace {

// Wall time to build every rig of the workload — pool, worlds, servers,
// networks, crawlers (and live analyzers on chaos_live) — up to the first
// tick. Tear-down is not timed. Scratch directories are not part of it:
// run_sharded creates crawl_week's shard directories inside the pipeline,
// and a mkdir's time is the file system's, which swamped the rigs' own
// ~35 us here.
double setup_once(const Params& p) {
  const auto cfgs = land_configs(p);
  const std::int64_t t0 = now_ns();
  ThreadPool pool(p.workload == Workload::kChaosLive ? chaos_threads(p) : p.threads);
  std::vector<std::unique_ptr<Testbed>> beds;
  std::vector<std::unique_ptr<StreamingAnalyzer>> analyzers;
  for (const auto& cfg : cfgs) {
    beds.push_back(std::make_unique<Testbed>(make_testbed_config(cfg)));
    if (p.workload == Workload::kChaosLive) {
      analyzers.push_back(std::make_unique<StreamingAnalyzer>(live_options()));
    }
  }
  return ns_to_s(now_ns() - t0);
}

LandOutcome outcome_of(const ExperimentConfig& cfg, const Trace& raw) {
  LandOutcome o;
  o.land = archetype_name(cfg.archetype);
  o.crawled_s = cfg.duration;
  o.covered_s = cfg.duration - raw.gap_seconds();
  return o;
}

// `slmob run` (3 lands, sharded) then `slmob analyze` per land then the
// Markdown report.
void paper_day(const Params& p, Meter& m, UntracedRun& run) {
  const auto cfgs = land_configs(p);
  ShardRunOptions options;
  options.threads = p.threads;
  auto shards = run_sharded(cfgs, options);
  for (std::size_t i = 0; i < shards.size(); ++i) {
    run.lands.push_back(outcome_of(cfgs[i], shards[i].trace));
    Trace trace = std::move(shards[i].trace);
    trace.strip_sitting_fixes();
    save_trace(trace, slt_path(p.dir, i));
  }
  shards.clear();
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    const ExperimentResults res =
        analyze_trace(load_trace(slt_path(p.dir, i)), kRanges, kDefaultLandSize, p.threads);
    const std::string report = render_report(res);
    m.stop();
    run.lands[i].fingerprint = analysis_fingerprint(to_analysis_report(res));
    m.start();
  }
}

// `slmob run --hours 168 --checkpoint <dir>`: journaled, checkpointed,
// final trace per shard.
void crawl_week(const Params& p, UntracedRun& run) {
  const auto cfgs = land_configs(p);
  ShardRunOptions options;
  options.threads = p.threads;
  options.checkpoint_dir = p.dir + "/ck";
  options.checkpoint_every = kCheckpointEvery;
  for (std::size_t i = 0; i < cfgs.size(); ++i) options.out_paths.push_back(slt_path(p.dir, i));
  auto shards = run_sharded(cfgs, options);
  for (std::size_t i = 0; i < shards.size(); ++i) {
    run.lands.push_back(outcome_of(cfgs[i], shards[i].trace));
    Trace trace = std::move(shards[i].trace);
    trace.strip_sitting_fixes();
    save_trace(trace, slt_path(p.dir, i));
  }
}

// One Testbed per land on its own thread, under the chaos scenario; each
// crawler feeds a StreamingAnalyzer live and the final trace is saved.
void chaos_live(const Params& p, Meter& m, UntracedRun& run) {
  const auto cfgs = land_configs(p);
  struct Land {
    Trace raw;
    AnalysisReport report;
  };
  ThreadPool pool(chaos_threads(p));
  auto lands = parallel_map<Land>(pool, cfgs.size(), [&](std::size_t i) {
    Testbed bed(make_testbed_config(cfgs[i]));
    StreamingAnalyzer analyzer(live_options());
    bed.crawler()->attach_live_sink(&analyzer);
    bed.run_until(cfgs[i].duration);
    Land land;
    land.raw = bed.crawler()->take_trace();  // closes a trailing outage gap first
    land.report = analyzer.finish();
    const std::string md = render_report(as_results(land.report));
    return land;
  });
  for (std::size_t i = 0; i < lands.size(); ++i) {
    run.lands.push_back(outcome_of(cfgs[i], lands[i].raw));
    m.stop();
    run.lands[i].fingerprint = analysis_fingerprint(lands[i].report);
    m.start();
    Trace trace = std::move(lands[i].raw);
    trace.strip_sitting_fixes();
    save_trace(trace, slt_path(p.dir, i));
  }
}

}  // namespace

UntracedRun run_untraced(const Params& p) {
  UntracedRun run;
  fs::create_directories(p.dir);
  for (int k = 0; k < kSetupsPerProcess; ++k) run.setup_s.push_back(setup_once(p));

  // The process's lifetime peak: the set-up above frees everything it
  // builds, and one process runs one pipeline.
  Meter m;
  m.start();
  switch (p.workload) {
    case Workload::kPaperDay: paper_day(p, m, run); break;
    case Workload::kCrawlWeek: crawl_week(p, run); break;
    case Workload::kChaosLive: chaos_live(p, m, run); break;
  }
  m.stop();
  run.pipeline_s = m.wall_s();
  run.cpu_s = m.cpu_s();
  run.peak_rss_mib = peak_rss_mib();
  run.bytes_written_mib = static_cast<double>(artefact_bytes(p.dir)) / (1024.0 * 1024.0);
  // Read back only now, so the checks add nothing to the peak above.
  const auto cfgs = land_configs(p);
  for (std::size_t i = 0; i < run.lands.size(); ++i) {
    run.lands[i].digest = slt_digest(slt_path(p.dir, i));
    if (p.workload == Workload::kCrawlWeek) {
      run.lands[i].fingerprint =
          durable_fingerprint(slt_path(p.dir, i), shard_dir(p.dir, i, cfgs[i].archetype));
    }
  }
  return run;
}

}  // namespace perfbench
