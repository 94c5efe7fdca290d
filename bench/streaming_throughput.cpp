// Analysis throughput bench: throughput (snapshots/s) and peak RSS of the
// streaming analysis engine (StreamingAnalyzer, the pipeline behind
// analyze_trace and `slmob analyze`) on an Isle-of-View trace at 1, 2, 3 and
// 4 analysis threads, written to BENCH_analysis.json under the
// "streaming_throughput" section.
//
// Peak RSS (VmHWM) is a process-lifetime high-water mark and fork inherits
// the parent's resident pages, so every heavyweight step gets its own forked
// child: one child generates and saves the trace (keeping the full
// ExperimentResults out of the parent — a parent that held the 24 h trace
// would inflate every later child's measured peak), then each pipeline child
// streams it cold and reports digest/seconds/rss through a small k=v file.
// Each configuration is run three times (fastest run scores throughput,
// largest scores RSS, digests must agree). On non-unix builds everything
// runs in-process and the RSS ceiling is skipped.
//
// Gates (exit 1 on failure):
//  * every thread count must produce the same analysis fingerprint, and for
//    the pinned configurations (seed 42 at 2, 4 and 24 h) it must equal the
//    fingerprint pinned from the original batch pipeline;
//  * for the pinned configurations, 1-thread throughput must reach the
//    committed snapshots/s floor and 1-thread peak RSS must stay under the
//    committed ceiling. Both were set from measurements of the previous
//    (two-engine) pipeline on a 4-vCPU x86-64 host (hardware_concurrency 4,
//    g++ 12, Release): the floor at about a quarter of its streaming
//    throughput, so a slow shared runner passes while an order-of-magnitude
//    regression fails, and the ceiling at 1.5x its streaming peak RSS.
//
//   streaming_throughput [--hours H] [--seed S] [--quick] [--out FILE]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__)
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "analysis/analysis_report.hpp"
#include "analysis/streaming.hpp"
#include "bench_common.hpp"
#include "trace/serialize.hpp"
#include "util/sysinfo.hpp"
#include "util/thread_pool.hpp"

using namespace slmob;
using namespace slmob::bench;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

struct PipelineResult {
  std::uint32_t digest{0};
  double seconds{0.0};
  double rss_mib{0.0};
  std::size_t snapshots{0};
  // IncrementalProximity path statistics (streaming pipelines only): how
  // many snapshots needed a full kernel rebuild vs a delta update.
  std::size_t proximity_rebuilds{0};
  std::size_t proximity_delta_updates{0};
  bool ok{false};
};

// One pipeline at `threads` analysis threads, run to completion in this
// process. The saved trace already has sitting fixes stripped
// (run_experiment strips before analysis), so the strip option stays off.
//
// seconds and rss_mib are sampled the moment the pipeline returns its
// report: the fingerprint computed afterwards serialises every sample into
// one buffer (tens of MiB on a 24 h trace), which is equality-check
// machinery, not pipeline cost, and would otherwise dominate the
// high-water mark.
PipelineResult run_pipeline(const std::string& trace_path, std::size_t threads) {
  PipelineResult out;
  const auto t0 = std::chrono::steady_clock::now();
  StreamingOptions options;
  options.threads = threads;
  StreamingProgress progress;
  const AnalysisReport report = analyze_stream_file(trace_path, options, &progress);
  out.snapshots = progress.snapshots;
  out.proximity_rebuilds = progress.proximity_rebuilds;
  out.proximity_delta_updates = progress.proximity_delta_updates;
  out.seconds = seconds_since(t0);
  out.rss_mib = peak_rss_mib();
  out.digest = analysis_fingerprint(report);
  out.ok = true;
  return out;
}

// Committed expectations for the configurations the CI smoke (2 h), the
// --quick run (4 h) and the paper-length run (24 h) use, all at seed 42.
struct Pinned {
  double hours;
  std::uint32_t fingerprint;        // from the original batch analyze_trace
  double snapshots_per_second_floor;  // 1 thread
  double peak_rss_ceiling_mib;        // 1 thread
};
// Previous-pipeline streaming at 1 thread measured 952 / 1135 / 1313
// snap/s and 9.3 / 13.2 / 44.3 MiB peak RSS at 2 / 4 / 24 h.
constexpr Pinned kPinned[] = {
    {2.0, 0x46b7ae5eu, 240.0, 14.0},
    {4.0, 0xe72b9759u, 280.0, 20.0},
    {24.0, 0x0df97e84u, 330.0, 66.0},
};

const Pinned* pinned_for(const BenchOptions& options) {
  if (options.seed != 42) return nullptr;
  for (const Pinned& p : kPinned) {
    if (p.hours == options.hours) return &p;
  }
  return nullptr;
}

struct TraceStats {
  std::size_t snapshots{0};
  std::size_t unique_users{0};
  std::size_t gaps{0};
  bool ok{false};
};

// Runs the Isle-of-View experiment and saves its trace to `trace_path`.
TraceStats generate_trace(const BenchOptions& options, const std::string& trace_path) {
  const ExperimentResults& base = land_results(LandArchetype::kIsleOfView, options);
  save_trace(base.trace, trace_path);
  TraceStats st;
  st.snapshots = base.trace.size();
  st.unique_users = base.summary.unique_users;
  st.gaps = base.trace.gaps().size();
  st.ok = true;
  return st;
}

#if defined(__unix__)
// Forks a child to generate the trace so the parent never materialises the
// ExperimentResults; stats come back through `stats_path`.
TraceStats generate_trace_forked(const BenchOptions& options,
                                 const std::string& trace_path,
                                 const std::string& stats_path) {
  TraceStats out;
  const pid_t pid = fork();
  if (pid == 0) {
    const TraceStats st = generate_trace(options, trace_path);
    std::FILE* f = std::fopen(stats_path.c_str(), "wb");
    bool wrote = false;
    if (f != nullptr) {
      std::fprintf(f, "snapshots=%zu\nunique_users=%zu\ngaps=%zu\n", st.snapshots,
                   st.unique_users, st.gaps);
      // The parent parses this file; a truncated write must fail the child.
      wrote = std::fflush(f) == 0 && std::fclose(f) == 0;
    }
    std::_Exit(st.ok && wrote ? 0 : 1);
  }
  if (pid < 0) {
    std::perror("fork");
    return out;
  }
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "trace generation child failed\n");
    return out;
  }
  std::FILE* f = std::fopen(stats_path.c_str(), "rb");
  if (f == nullptr) return out;
  char line[256];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    std::sscanf(line, "snapshots=%zu", &out.snapshots);
    std::sscanf(line, "unique_users=%zu", &out.unique_users);
    std::sscanf(line, "gaps=%zu", &out.gaps);
  }
  // slmob-lint: allow(checked-durability) -- read-only stream; close failure cannot lose data
  std::fclose(f);
  std::remove(stats_path.c_str());
  out.ok = true;
  return out;
}

// Forks a child that runs one pipeline and reports through `result_path`.
PipelineResult run_pipeline_forked(const std::string& trace_path, std::size_t threads,
                                   const std::string& result_path) {
  const pid_t pid = fork();
  if (pid == 0) {
    const PipelineResult r = run_pipeline(trace_path, threads);
    std::FILE* f = std::fopen(result_path.c_str(), "wb");
    bool wrote = false;
    if (f != nullptr) {
      std::fprintf(f,
                   "digest=%u\nseconds=%.9f\nrss_mib=%.6f\nsnapshots=%zu\n"
                   "proximity_rebuilds=%zu\nproximity_delta_updates=%zu\n",
                   r.digest, r.seconds, r.rss_mib, r.snapshots, r.proximity_rebuilds,
                   r.proximity_delta_updates);
      // The parent parses this file; a truncated write must fail the child.
      wrote = std::fflush(f) == 0 && std::fclose(f) == 0;
    }
    std::_Exit(wrote ? 0 : 1);
  }
  PipelineResult out;
  if (pid < 0) {
    std::perror("fork");
    return out;
  }
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "pipeline child failed (threads=%zu)\n", threads);
    return out;
  }
  std::FILE* f = std::fopen(result_path.c_str(), "rb");
  if (f == nullptr) return out;
  char line[256];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    unsigned digest = 0;
    if (std::sscanf(line, "digest=%u", &digest) == 1) out.digest = digest;
    std::sscanf(line, "seconds=%lf", &out.seconds);
    std::sscanf(line, "rss_mib=%lf", &out.rss_mib);
    std::sscanf(line, "snapshots=%zu", &out.snapshots);
    std::sscanf(line, "proximity_rebuilds=%zu", &out.proximity_rebuilds);
    std::sscanf(line, "proximity_delta_updates=%zu", &out.proximity_delta_updates);
  }
  // slmob-lint: allow(checked-durability) -- read-only stream; close failure cannot lose data
  std::fclose(f);
  std::remove(result_path.c_str());
  out.ok = true;
  return out;
}
#endif

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions options = BenchOptions::parse(argc, argv);
  std::string out_path = "BENCH_analysis.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out_path = argv[i + 1];
  }
  print_title("Streaming analysis throughput (Isle of View)",
              "infrastructure bench (no paper figure)");

  const std::string trace_path =
      "streaming_throughput_" + std::to_string(options.seed) + ".slt";
#if defined(__unix__)
  const bool forked = true;
  const TraceStats stats =
      generate_trace_forked(options, trace_path, trace_path + ".stats");
  auto run = [&](std::size_t threads) {
    return run_pipeline_forked(trace_path, threads,
                               trace_path + "." + std::to_string(threads) + ".result");
  };
#else
  const bool forked = false;
  const TraceStats stats = generate_trace(options, trace_path);
  auto run = [&](std::size_t threads) { return run_pipeline(trace_path, threads); };
#endif
  if (!stats.ok) {
    std::fprintf(stderr, "ERROR: trace generation failed\n");
    return 1;
  }
  std::printf("trace: %zu snapshots, %zu unique users, %zu gaps\n", stats.snapshots,
              stats.unique_users, stats.gaps);

  // One run's wall time jitters by a few percent on a busy host — more than
  // the throughput gate's margin — so each configuration runs three times:
  // throughput scores the fastest run (the usual noise-robust estimate of a
  // pipeline's cost), peak RSS the largest (the conservative side of its
  // gate), and every repeat must reproduce the same digest.
  constexpr int kRepeats = 3;
  auto run_best = [&](std::size_t threads) {
    PipelineResult best;
    for (int rep = 0; rep < kRepeats; ++rep) {
      const PipelineResult r = run(threads);
      if (!r.ok) return r;
      if (rep == 0) {
        best = r;
      } else {
        if (r.digest != best.digest) {
          std::fprintf(stderr,
                       "ERROR: digest varies across repeats (threads=%zu)\n", threads);
          best.ok = false;
          return best;
        }
        best.seconds = std::min(best.seconds, r.seconds);
        best.rss_mib = std::max(best.rss_mib, r.rss_mib);
      }
    }
    return best;
  };

  const std::vector<std::size_t> thread_counts{1, 2, 3, 4};
  std::vector<PipelineResult> runs;
  for (const std::size_t t : thread_counts) runs.push_back(run_best(t));
  std::remove(trace_path.c_str());

  const bool all_ok =
      std::all_of(runs.begin(), runs.end(), [](const PipelineResult& r) { return r.ok; });
  if (!all_ok) {
    std::fprintf(stderr, "ERROR: a pipeline run failed\n");
    return 1;
  }

  const PipelineResult& s1 = runs.front();
  const Pinned* pinned = pinned_for(options);
  bool identical = true;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& r = runs[i];
    const double rate =
        r.seconds > 0.0 ? static_cast<double>(r.snapshots) / r.seconds : 0.0;
    identical = identical && r.digest == s1.digest;
    std::printf("%-28s %8.3f s  %8.0f snap/s  %8.1f MiB  digest %08x%s\n",
                ("threads=" + std::to_string(thread_counts[i])).c_str(), r.seconds, rate,
                r.rss_mib, r.digest, r.digest == s1.digest ? "" : "  MISMATCH");
  }
  const double s1_rate =
      s1.seconds > 0.0 ? static_cast<double>(s1.snapshots) / s1.seconds : 0.0;
  // RSS is only meaningful when each pipeline got its own process.
  const bool rss_gate_enforced = forked && pinned != nullptr && s1.rss_mib > 0.0;

  bool pass = true;
  if (!identical) {
    std::fprintf(stderr, "ERROR: fingerprint differs across thread counts\n");
    pass = false;
  }
  if (pinned != nullptr && s1.digest != pinned->fingerprint) {
    std::fprintf(stderr, "ERROR: fingerprint %08x != pinned %08x\n", s1.digest,
                 pinned->fingerprint);
    pass = false;
  }
  if (pinned != nullptr && s1_rate < pinned->snapshots_per_second_floor) {
    std::fprintf(stderr, "ERROR: 1-thread throughput %.0f snap/s < floor %.0f snap/s\n",
                 s1_rate, pinned->snapshots_per_second_floor);
    pass = false;
  }
  if (rss_gate_enforced && s1.rss_mib > pinned->peak_rss_ceiling_mib) {
    std::fprintf(stderr, "ERROR: 1-thread peak RSS %.1f MiB > ceiling %.1f MiB\n",
                 s1.rss_mib, pinned->peak_rss_ceiling_mib);
    pass = false;
  }
  if (pinned != nullptr) {
    std::printf("pinned: fingerprint %08x, floor %.0f snap/s, ceiling %.1f MiB%s\n",
                pinned->fingerprint, pinned->snapshots_per_second_floor,
                pinned->peak_rss_ceiling_mib,
                rss_gate_enforced ? "" : "  (RSS ceiling skipped: no fork)");
  } else {
    std::printf("no pinned expectations for %.3f h / seed %llu: only the thread-count "
                "identity gate applies\n",
                options.hours, static_cast<unsigned long long>(options.seed));
  }

  std::string body;
  appendf(body, "{\n");
  appendf(body, "    \"land\": \"isle_of_view\",\n");
  appendf(body, "    \"hours\": %.3f,\n", options.hours);
  appendf(body, "    \"seed\": %llu,\n", static_cast<unsigned long long>(options.seed));
  appendf(body, "    \"snapshots\": %zu,\n", s1.snapshots);
  appendf(body, "    \"hardware_concurrency\": %u,\n",
          std::thread::hardware_concurrency());
  appendf(body, "    \"default_concurrency\": %zu,\n", ThreadPool::default_concurrency());
  appendf(body, "    \"forked\": %s,\n", forked ? "true" : "false");
  appendf(body, "    \"repeats\": %d,\n", kRepeats);
  appendf(body, "    \"streaming\": [\n");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& r = runs[i];
    appendf(body,
            "      {\"threads\": %zu, \"seconds\": %.6f, "
            "\"snapshots_per_second\": %.1f, \"peak_rss_mib\": %.2f, "
            "\"proximity_rebuilds\": %zu, \"proximity_delta_updates\": %zu}%s\n",
            thread_counts[i], r.seconds,
            r.seconds > 0.0 ? static_cast<double>(r.snapshots) / r.seconds : 0.0,
            r.rss_mib, r.proximity_rebuilds, r.proximity_delta_updates,
            i + 1 == runs.size() ? "" : ",");
  }
  appendf(body, "    ],\n");
  appendf(body, "    \"fingerprint\": \"%08x\",\n", s1.digest);
  appendf(body, "    \"identical_across_threads\": %s,\n", identical ? "true" : "false");
  if (pinned != nullptr) {
    appendf(body, "    \"pinned_fingerprint\": \"%08x\",\n", pinned->fingerprint);
    appendf(body, "    \"snapshots_per_second_floor\": %.1f,\n",
            pinned->snapshots_per_second_floor);
    appendf(body, "    \"peak_rss_ceiling_mib\": %.1f,\n", pinned->peak_rss_ceiling_mib);
  }
  appendf(body, "    \"rss_gate_enforced\": %s,\n", rss_gate_enforced ? "true" : "false");
  appendf(body, "    \"gates_passed\": %s\n", pass ? "true" : "false");
  appendf(body, "  }");
  update_bench_json(out_path, "streaming_throughput", body);
  std::printf("wrote %s\n", out_path.c_str());
  return pass ? 0 : 1;
}
