#include "traced.hpp"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <stdexcept>

#include "analysis/contacts.hpp"
#include "analysis/graphs.hpp"
#include "analysis/incremental_proximity.hpp"
#include "analysis/streaming.hpp"
#include "analysis/trips.hpp"
#include "analysis/zones.hpp"
#include "core/checkpoint.hpp"
#include "core/report.hpp"
#include "core/shards.hpp"
#include "probe.hpp"
#include "trace/journal.hpp"
#include "trace/serialize.hpp"
#include "trace/sessions.hpp"
#include "trace/stream.hpp"
#include "util/fileio.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {
namespace fs = std::filesystem;
using namespace slmob;

namespace {

// Runs `fn` and adds its wall time to `acc`.
template <typename Fn>
decltype(auto) timed(std::int64_t& acc, Fn&& fn) {
  struct Guard {
    std::int64_t& acc;
    std::int64_t t0;
    ~Guard() { acc += now_ns() - t0; }
  } guard{acc, now_ns()};
  return fn();
}

// ---------------------------------------------------------------------------
// Rig layers

struct RigCounts {
  std::int64_t world_ns{0};
  std::int64_t server_ns{0};
  std::int64_t net_ns{0};
  std::int64_t client_ns{0};
  std::int64_t crawler_ns{0};
  std::uint64_t avatar_ticks{0};  // avatars online after each World::tick
  std::uint64_t relogins{0};      // logins the crawler issues after the first
  std::uint64_t snapshots{0};     // snapshots the crawler hands its sink
  double gap_s{0.0};              // coverage gaps the crawler reports
  std::int64_t live_sink_ns{0};   // spent downstream of the crawler, in the sink
  // Counters only the library can see (no public hook exposes single
  // datagrams or coarse updates), read once at the end of the run.
  std::uint64_t coarse_updates{0};
  std::uint64_t datagrams{0};
  std::uint64_t undelivered{0};
  std::uint64_t retransmits{0};
};

// Sits between the crawler and its (optional) downstream sink: counts what
// the crawler emits and times each downstream on_snapshot call.
class ObservingSink final : public LiveTraceSink {
 public:
  ObservingSink(RigCounts& counts, LiveTraceSink* next) : counts_(counts), next_(next) {}

  void on_begin(const std::string& land, Seconds interval) override {
    if (next_ != nullptr) next_->on_begin(land, interval);
  }
  void on_snapshot(const Snapshot& snapshot) override {
    ++counts_.snapshots;
    if (next_ == nullptr) return;
    const std::int64_t t0 = now_ns();
    next_->on_snapshot(snapshot);
    const std::int64_t ns = now_ns() - t0;
    counts_.live_sink_ns += ns;
    snapshot_us.push_back(static_cast<double>(ns) * 1e-3);
  }
  void on_gap(Seconds start, Seconds end) override {
    counts_.gap_s += end - start;
    if (next_ != nullptr) timed(counts_.live_sink_ns, [&] { next_->on_gap(start, end); });
  }
  void on_rate_change(Seconds time, std::uint32_t factor) override {
    if (next_ != nullptr) next_->on_rate_change(time, factor);
  }

  std::vector<double> snapshot_us;

 private:
  RigCounts& counts_;
  LiveTraceSink* next_;
};

// The rig Testbed wires — same components, seeds, node registration order,
// engine priorities and flash-crowd hook — with every tick function timed.
class TracedRig {
 public:
  TracedRig(const TestbedConfig& config, RigCounts& counts)
      : config_(config),
        counts_(counts),
        engine_(config.tick_length),
        world_(make_world(config.archetype, config.seed)),
        network_(config.network, config.seed ^ 0x9e3779b97f4a7c15ULL) {
    if (!config_.with_crawler || config_.with_ground_truth) {
      throw std::logic_error("TracedRig: crawler-only rigs are traced");
    }
    if (config_.curiosity) world_->set_curiosity(*config_.curiosity);
    SimServerParams server_params = config_.server;
    if (!config_.faults.empty()) {
      network_.set_faults(config_.faults);
      server_params.faults = config_.faults;
    }
    server_ = std::make_unique<SimServer>(network_, *world_, server_params);
    if (!config_.faults.empty()) {
      engine_.add(kPriorityWorld, [this](Seconds now, Seconds /*dt*/) {
        world_->set_arrival_boost(config_.faults.flash_crowd_factor_at(now));
      });
    }
    engine_.add(kPriorityWorld, [this](Seconds now, Seconds dt) {
      timed(counts_.world_ns, [&] { world_->tick(now, dt); });
      counts_.avatar_ticks += world_->concurrent();
    });
    engine_.add(kPriorityServer, [this](Seconds now, Seconds dt) {
      timed(counts_.server_ns, [&] { server_->tick(now, dt); });
    });
    engine_.add(kPriorityNetwork, [this](Seconds now, Seconds dt) {
      timed(counts_.net_ns, [&] { network_.tick(now, dt); });
    });
    client_ = std::make_unique<MetaverseClient>(network_, server_->address(), "slmob",
                                                "crawler");
    crawler_ = std::make_unique<Crawler>(*client_, config_.crawler, config_.seed ^ 0xabcd);
    engine_.add(kPriorityClient, [this](Seconds now, Seconds dt) {
      timed(counts_.client_ns, [&] { client_->tick(now, dt); });
    });
    engine_.add(kPriorityMonitor, [this](Seconds now, Seconds dt) {
      const ClientState before = client_->state();
      // The live analyzer runs inside Crawler::tick; its time is the
      // analysis layer's, not the crawler's.
      const std::int64_t sink_before = counts_.live_sink_ns;
      timed(counts_.crawler_ns, [&] { crawler_->tick(now, dt); });
      counts_.crawler_ns -= counts_.live_sink_ns - sink_before;
      if (before != ClientState::kLoggingIn && client_->state() == ClientState::kLoggingIn) {
        ++counts_.relogins;
      }
    });
  }

  void run_until(Seconds until) {
    if (!started_) {
      started_ = true;
      crawler_->start();
    }
    engine_.run_until(until);
  }

  void read_internal_counters() {
    counts_.coarse_updates = server_->stats().coarse_updates_sent;
    counts_.datagrams = network_.stats().sent;
    counts_.undelivered = network_.stats().sent - network_.stats().delivered;
    counts_.retransmits = client_->total_circuit_stats().retransmits;
  }

  // The replay witness run_durable records (see fill_checkpoint_witness).
  void fill_witness(CheckpointState& ck) const {
    ck.engine_tick = static_cast<std::uint64_t>(engine_.tick());
    ck.world_rng = world_->rng_state();
    ck.network_rng = network_.rng_state();
    ck.crawler_backoff_level = crawler_->backoff_level();
    ck.crawler_snapshots = crawler_->stats().snapshots_taken;
    ck.crawler_relogins = crawler_->stats().relogins;
    ck.crawler_coverage_gaps = crawler_->stats().coverage_gaps;
    ck.world_logins = world_->stats().total_logins;
    ck.network_sent = network_.stats().sent;
  }

  SimEngine& engine() { return engine_; }
  Crawler& crawler() { return *crawler_; }

 private:
  TestbedConfig config_;
  RigCounts& counts_;
  SimEngine engine_;
  std::unique_ptr<World> world_;
  SimNetwork network_;
  std::unique_ptr<SimServer> server_;
  std::unique_ptr<MetaverseClient> client_;
  std::unique_ptr<Crawler> crawler_;
  bool started_{false};
};

struct ShardOut {
  Trace raw;
  RigCounts counts;
  std::int64_t busy_ns{0};
  // crawl_week
  std::uint64_t checkpoints{0};
  std::uint64_t checkpoint_bytes{0};
  std::int64_t checkpoint_ns{0};
  // chaos_live
  AnalysisReport live_report;
  std::vector<double> snapshot_us;
  std::int64_t finish_ns{0};
};

struct ShardJob {
  const ExperimentConfig* cfg{nullptr};
  std::string durable_dir;  // crawl_week: journal + checkpoints go here
  std::string out_path;     // crawl_week: recorded in every checkpoint
  bool live{false};         // chaos_live: StreamingAnalyzer on the crawler
};

ShardOut run_shard(const ShardJob& job) {
  ShardOut out;
  const std::int64_t t0 = now_ns();
  const ExperimentConfig& cfg = *job.cfg;
  TracedRig rig(make_testbed_config(cfg), out.counts);

  std::unique_ptr<StreamingAnalyzer> analyzer;
  if (job.live) analyzer = std::make_unique<StreamingAnalyzer>(live_options());
  ObservingSink sink(out.counts, analyzer.get());
  rig.crawler().attach_live_sink(&sink);

  if (job.durable_dir.empty()) {
    rig.run_until(cfg.duration);
    out.raw = rig.crawler().take_trace();
  } else {
    // run_durable's loop: journal every record, checkpoint on schedule.
    fs::create_directories(job.durable_dir);
    TraceJournalWriter writer(job.durable_dir + "/" + kJournalFileName, cfg.duration);
    rig.crawler().attach_journal(&writer);
    CheckpointState base;
    base.archetype = cfg.archetype;
    base.duration = cfg.duration;
    base.seed = cfg.seed;
    base.fault_scenario = cfg.fault_scenario;
    base.fault_seed = cfg.fault_seed;
    base.out_path = job.out_path;
    base.checkpoint_every = kCheckpointEvery;
    const std::string ck_file = job.durable_dir + "/" + kCheckpointFileName;
    for (Seconds t = 0.0; t < cfg.duration;) {
      const Seconds next = std::min(t + base.checkpoint_every, cfg.duration);
      rig.run_until(next);
      t = next;
      CheckpointState ck = base;
      ck.time = t;
      ck.journal_offset = writer.offset();
      rig.fill_witness(ck);
      timed(out.checkpoint_ns, [&] { save_checkpoint(ck, job.durable_dir); });
      ++out.checkpoints;
      out.checkpoint_bytes += fs::file_size(ck_file);
    }
    out.raw = rig.crawler().take_trace();
    writer.append_end(rig.engine().now());
  }
  if (analyzer) {
    out.live_report = timed(out.finish_ns, [&] { return analyzer->finish(); });
    out.snapshot_us = std::move(sink.snapshot_us);
  }
  rig.read_internal_counters();
  out.busy_ns = now_ns() - t0;
  return out;
}

// ---------------------------------------------------------------------------
// Analysis split: the streaming consumers driven one call at a time, in the
// order StreamingAnalyzer feeds them, over a trace file read by SltFileStream.

struct SplitCounts {
  std::int64_t read_ns{0};
  std::int64_t proximity_ns{0};
  std::int64_t contacts_ns[2]{0, 0};
  std::int64_t graphs_ns[2]{0, 0};
  std::int64_t zones_ns{0};
  std::int64_t trips_ns{0};
  std::uint64_t pairs[2]{0, 0};
  std::uint64_t rebuilds{0};
  std::uint64_t graph_nodes{0};
  std::uint64_t graph_edges{0};
};

AnalysisReport split_replay(const std::string& slt, const TraceSummary& summary,
                            SplitCounts& c) {
  SltFileStream stream(slt);
  GapTracker gaps;
  DegradationTracker rates;
  IncrementalProximity prox(kRanges);
  std::vector<std::unique_ptr<ContactStream>> contacts;
  std::vector<std::unique_ptr<GraphStream>> graphs;
  for (const double r : prox.ranges()) {
    contacts.push_back(std::make_unique<ContactStream>(r, stream.sampling_interval(), gaps));
    graphs.push_back(std::make_unique<GraphStream>(r));
  }
  ZoneStream zones(kDefaultLandSize);
  const SessionExtractionOptions session_options;
  SessionStream sessions(gaps, session_options);
  TripStream trips(session_options);
  sessions.set_sink([&](Session&& s) { trips.on_session(s); });

  for (;;) {
    const StreamEvent ev = timed(c.read_ns, [&] { return stream.next(); });
    if (ev.kind == StreamEventKind::kEnd) break;
    if (ev.kind == StreamEventKind::kGap) gaps.add(ev.gap.start, ev.gap.end);
    if (ev.kind == StreamEventKind::kRateChange) rates.set_factor(ev.time, ev.factor);
    if (ev.kind != StreamEventKind::kSnapshot) continue;
    const Snapshot& snap = *ev.snapshot;
    if (!gaps.covered_at(snap.time)) continue;
    timed(c.proximity_ns, [&] { prox.advance(snap); });
    for (std::size_t ri = 0; ri < contacts.size(); ++ri) {
      const auto& pairs = prox.pairs(ri);
      c.pairs[ri] += pairs.size();
      timed(c.contacts_ns[ri], [&] { contacts[ri]->on_snapshot(snap, pairs); });
      timed(c.graphs_ns[ri], [&] { graphs[ri]->on_snapshot(snap.fixes.size(), pairs); });
      if (!snap.fixes.empty()) {
        c.graph_nodes += snap.fixes.size();
        c.graph_edges += pairs.size();
      }
    }
    timed(c.zones_ns, [&] { zones.on_snapshot(prox.positions(), rates.current_factor()); });
    timed(c.trips_ns, [&] { sessions.on_snapshot(snap); });
  }
  c.rebuilds += prox.rebuilds();

  AnalysisReport report;
  report.summary = summary;
  for (std::size_t ri = 0; ri < contacts.size(); ++ri) {
    const double r = prox.ranges()[ri];
    report.contacts[r] = timed(c.contacts_ns[ri], [&] { return contacts[ri]->finish(); });
    report.graphs[r] = timed(c.graphs_ns[ri], [&] { return graphs[ri]->finish(); });
  }
  report.zones = timed(c.zones_ns, [&] { return zones.finish(); });
  report.trips = timed(c.trips_ns, [&] {
    sessions.finish();
    return trips.finish();
  });
  return report;
}

// ---------------------------------------------------------------------------
// Metrics

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

std::string hex(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%08x", v);
  return buf;
}

struct Totals {
  RigCounts rig;
  SplitCounts split;
  std::int64_t encode_ns{0};
  std::int64_t write_ns{0};
  std::int64_t report_ns{0};
  std::int64_t batch_ns{0};
  double batch_cpu_s{0.0};
  std::uint64_t journal_bytes{0};
  std::uint64_t slt_bytes{0};
  std::uint64_t checkpoints{0};
  std::uint64_t checkpoint_bytes{0};
  std::int64_t checkpoint_ns{0};
  std::int64_t finish_ns{0};
  std::vector<double> snapshot_us;
  std::vector<std::int64_t> shard_busy_ns;
  std::int64_t shard_wall_ns{0};
  std::size_t shard_threads{1};
};

void add_rig(RigCounts& a, const RigCounts& b) {
  a.world_ns += b.world_ns;
  a.server_ns += b.server_ns;
  a.net_ns += b.net_ns;
  a.client_ns += b.client_ns;
  a.crawler_ns += b.crawler_ns;
  a.avatar_ticks += b.avatar_ticks;
  a.relogins += b.relogins;
  a.snapshots += b.snapshots;
  a.gap_s += b.gap_s;
  a.coarse_updates += b.coarse_updates;
  a.datagrams += b.datagrams;
  a.undelivered += b.undelivered;
  a.retransmits += b.retransmits;
}

void add_split(SplitCounts& a, const SplitCounts& b) {
  a.read_ns += b.read_ns;
  a.proximity_ns += b.proximity_ns;
  for (int i = 0; i < 2; ++i) {
    a.contacts_ns[i] += b.contacts_ns[i];
    a.graphs_ns[i] += b.graphs_ns[i];
    a.pairs[i] += b.pairs[i];
  }
  a.zones_ns += b.zones_ns;
  a.trips_ns += b.trips_ns;
  a.rebuilds += b.rebuilds;
  a.graph_nodes += b.graph_nodes;
  a.graph_edges += b.graph_edges;
}

std::vector<std::pair<std::string, double>> layer_metrics(const Totals& t,
                                                          std::size_t threads) {
  const RigCounts& r = t.rig;
  const SplitCounts& s = t.split;
  double busy_max = 0.0;
  double busy_sum = 0.0;
  for (const auto ns : t.shard_busy_ns) {
    busy_max = std::max(busy_max, ns_to_s(ns));
    busy_sum += ns_to_s(ns);
  }
  const double busy_mean =
      t.shard_busy_ns.empty() ? 0.0 : busy_sum / static_cast<double>(t.shard_busy_ns.size());
  const double shard_wall = ns_to_s(t.shard_wall_ns);
  const double batch_wall = ns_to_s(t.batch_ns);
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  return {
      {"world.tick_s", ns_to_s(r.world_ns)},
      {"world.avatar_ticks_per_s",
       r.world_ns > 0 ? d(r.avatar_ticks) / ns_to_s(r.world_ns) : 0.0},
      {"server.tick_s", ns_to_s(r.server_ns)},
      {"server.coarse_updates", d(r.coarse_updates)},
      {"net.tick_s", ns_to_s(r.net_ns)},
      {"net.datagrams", d(r.datagrams)},
      {"net.dropped", d(r.undelivered)},
      {"client.tick_s", ns_to_s(r.client_ns)},
      {"client.retransmits", d(r.retransmits)},
      {"crawler.tick_s", ns_to_s(r.crawler_ns)},
      {"crawler.snapshots", d(r.snapshots)},
      {"crawler.relogins", d(r.relogins)},
      {"crawler.gap_s", r.gap_s},
      {"trace.encode_s", ns_to_s(t.encode_ns)},
      {"trace.write_s", ns_to_s(t.write_ns)},
      {"trace.read_s", ns_to_s(s.read_ns)},
      {"trace.journal_bytes", d(t.journal_bytes)},
      {"trace.slt_bytes", d(t.slt_bytes)},
      {"core.shard_s.max", busy_max},
      {"core.shard_imbalance", busy_mean > 0.0 ? busy_max / busy_mean : 0.0},
      {"core.pool_busy_frac",
       shard_wall > 0.0 ? busy_sum / (static_cast<double>(t.shard_threads) * shard_wall) : 0.0},
      {"core.checkpoints", d(t.checkpoints)},
      {"core.checkpoint_bytes", d(t.checkpoint_bytes)},
      {"core.checkpoint_s", ns_to_s(t.checkpoint_ns)},
      {"core.report_s", ns_to_s(t.report_ns)},
      {"analysis.proximity_s", ns_to_s(s.proximity_ns)},
      {"analysis.pairs_r10", d(s.pairs[0])},
      {"analysis.pairs_r80", d(s.pairs[1])},
      {"analysis.proximity_rebuilds", d(s.rebuilds)},
      {"analysis.contacts_r10_s", ns_to_s(s.contacts_ns[0])},
      {"analysis.contacts_r80_s", ns_to_s(s.contacts_ns[1])},
      {"analysis.graphs_r10_s", ns_to_s(s.graphs_ns[0])},
      {"analysis.graphs_r80_s", ns_to_s(s.graphs_ns[1])},
      {"analysis.graph_nodes", d(s.graph_nodes)},
      {"analysis.graph_edges", d(s.graph_edges)},
      {"analysis.zones_s", ns_to_s(s.zones_ns)},
      {"analysis.trips_s", ns_to_s(s.trips_ns)},
      {"analysis.batch_s", batch_wall},
      {"analysis.batch_busy_frac",
       batch_wall > 0.0 ? t.batch_cpu_s / (static_cast<double>(threads) * batch_wall) : 0.0},
      {"analysis.live_snapshot_us.p50", percentile(t.snapshot_us, 0.5)},
      {"analysis.live_snapshot_us.p99.9", percentile(t.snapshot_us, 0.999)},
      {"analysis.live_finish_s", ns_to_s(t.finish_ns)},
  };
}

// Batch analysis of a saved (sitting-stripped) trace, timed as one call.
AnalysisReport batch_analysis(const std::string& slt, const Params& p, Totals& t) {
  Trace trace = timed(t.split.read_ns, [&] { return load_trace(slt); });
  const std::int64_t t0 = now_ns();
  const double cpu0 = process_cpu_s();
  ExperimentResults res = analyze_trace(std::move(trace), kRanges, kDefaultLandSize, p.threads);
  t.batch_ns += now_ns() - t0;
  t.batch_cpu_s += process_cpu_s() - cpu0;
  if (p.workload == Workload::kPaperDay) {
    const std::string md = timed(t.report_ns, [&] { return render_report(res); });
  }
  return to_analysis_report(res);
}

}  // namespace

TracedRun run_traced(const Params& p) {
  fs::create_directories(p.dir);
  const auto cfgs = land_configs(p);
  const std::size_t n = cfgs.size();
  Totals t;
  TracedRun run;
  run.lands.resize(n);

  std::vector<ShardJob> jobs(n);
  for (std::size_t i = 0; i < n; ++i) {
    jobs[i].cfg = &cfgs[i];
    jobs[i].live = p.workload == Workload::kChaosLive;
    if (p.workload == Workload::kCrawlWeek) {
      jobs[i].durable_dir = shard_dir(p.dir, i, cfgs[i].archetype);
      jobs[i].out_path = slt_path(p.dir, i);
    }
  }

  const std::int64_t wall0 = now_ns();
  std::int64_t untimed_ns = 0;
  t.shard_threads = p.workload == Workload::kChaosLive ? chaos_threads(p) : p.threads;
  std::vector<ShardOut> shards;
  {
    ThreadPool pool(t.shard_threads);
    shards = parallel_map<ShardOut>(pool, n, [&](std::size_t i) { return run_shard(jobs[i]); });
  }
  t.shard_wall_ns = now_ns() - wall0;

  std::vector<AnalysisReport> batch(n);
  std::vector<TraceSummary> summaries(n);
  std::vector<std::uint32_t> raw_digests(n);
  for (std::size_t i = 0; i < n; ++i) {
    ShardOut& s = shards[i];
    add_rig(t.rig, s.counts);
    t.shard_busy_ns.push_back(s.busy_ns);
    t.checkpoints += s.checkpoints;
    t.checkpoint_bytes += s.checkpoint_bytes;
    t.checkpoint_ns += s.checkpoint_ns;
    t.finish_ns += s.finish_ns;
    t.snapshot_us.insert(t.snapshot_us.end(), s.snapshot_us.begin(), s.snapshot_us.end());
    LandOutcome& o = run.lands[i].outcome;
    o.land = archetype_name(cfgs[i].archetype);
    o.crawled_s = cfgs[i].duration;
    o.covered_s = cfgs[i].duration - s.raw.gap_seconds();
    if (p.workload == Workload::kChaosLive) {
      const std::string md =
          timed(t.report_ns, [&] { return render_report(as_results(s.live_report)); });
    }
    // Checks are bookkeeping, not pipeline: untimed, as in untraced runs.
    const std::int64_t check0 = now_ns();
    if (p.workload == Workload::kCrawlWeek) raw_digests[i] = trace_digest(s.raw);
    Trace trace = std::move(s.raw);
    trace.strip_sitting_fixes();
    summaries[i] = trace.summary();
    untimed_ns += now_ns() - check0;
    // save_trace, split into its encode and its atomic write.
    const auto bytes = timed(t.encode_ns, [&] { return encode_trace(trace); });
    timed(t.write_ns, [&] { write_file_atomic(slt_path(p.dir, i), bytes); });
    t.slt_bytes += bytes.size();
    o.digest = crc32(bytes);  // = slt_digest of the file just written
  }
  if (p.workload == Workload::kPaperDay) {
    // `slmob analyze` per land, then the report: the rest of the pipeline.
    for (std::size_t i = 0; i < n; ++i) batch[i] = batch_analysis(slt_path(p.dir, i), p, t);
  }
  run.pipeline_s = ns_to_s(now_ns() - wall0 - untimed_ns);

  // Cross-checks and the analysis split, outside the timed pipeline.
  if (p.workload == Workload::kCrawlWeek) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::string dir = shard_dir(p.dir, i, cfgs[i].archetype);
      t.journal_bytes += fs::file_size(dir + "/" + kJournalFileName);
      const JournalSalvage salvage =
          timed(t.split.read_ns, [&] { return salvage_journal(dir + "/" + kJournalFileName); });
      TracedLand& land = run.lands[i];
      land.outcome.fingerprint = durable_fingerprint(slt_path(p.dir, i), dir);
      const std::uint32_t salvaged = trace_digest(salvage.trace);
      if (salvaged != raw_digests[i]) {
        land.error = "journal salvage digest " + hex(salvaged) + " != crawler trace digest " +
                     hex(raw_digests[i]);
      }
    }
    run.layers = layer_metrics(t, p.threads);
    return run;
  }

  // The reference each untraced run is held to: the consumers driven one by
  // one on paper_day, analyze_trace on the crawler's final trace on
  // chaos_live. The traced run also computes the other route and checks that
  // both agree.
  const bool paper = p.workload == Workload::kPaperDay;
  if (!paper) {
    for (std::size_t i = 0; i < n; ++i) batch[i] = batch_analysis(slt_path(p.dir, i), p, t);
  }
  std::vector<AnalysisReport> consumers(n);
  std::vector<SplitCounts> split(n);
  {
    ThreadPool pool(std::min(n, p.threads));
    parallel_for(pool, n, [&](std::size_t i) {
      consumers[i] = split_replay(slt_path(p.dir, i), summaries[i], split[i]);
    });
  }
  for (const auto& c : split) add_split(t.split, c);
  for (std::size_t i = 0; i < n; ++i) {
    TracedLand& land = run.lands[i];
    const AnalysisReport& reference = paper ? consumers[i] : batch[i];
    land.outcome.fingerprint = analysis_fingerprint(reference);
    std::string diff;
    if (!paper) diff = analysis_diff(reference, shards[i].live_report);
    if (diff.empty()) diff = analysis_diff(reference, paper ? batch[i] : consumers[i]);
    if (!diff.empty()) land.error = "analysis routes disagree: " + diff;
  }
  run.layers = layer_metrics(t, p.threads);
  return run;
}

}  // namespace perfbench
