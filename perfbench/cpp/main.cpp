// slmob_perfbench: one measurement process of the outside-in benchmark.
//
//   slmob_perfbench stamp
//   slmob_perfbench run|traced|calibrate --workload W --seed S --threads T --dir D [--hours H]
//
// `run` builds the rigs kSetupsPerProcess times, then runs one untraced
// pipeline; `traced` runs the traced rig and the analysis split, which also
// yield the reference digests and fingerprints; `calibrate` times
// kCalibrationPasses passes of the calibration kernel on the threads the
// workload uses, in a process of its own so the pipeline's process is left
// as it was. Each prints one JSON object on its last stdout line.
// perfbench/run.py drives these processes (one pipeline per process, so
// peak RSS is per run) and aggregates them.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "calibrate.hpp"
#include "traced.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string lands_json(const std::vector<LandOutcome>& lands,
                       const std::vector<std::string>& errors) {
  std::string out = "[";
  for (std::size_t i = 0; i < lands.size(); ++i) {
    const LandOutcome& l = lands[i];
    if (i > 0) out += ",";
    out += "{\"land\":" + str(l.land) + ",\"digest\":" + std::to_string(l.digest) +
           ",\"fingerprint\":" + std::to_string(l.fingerprint) +
           ",\"covered_s\":" + num(l.covered_s) + ",\"crawled_s\":" + num(l.crawled_s) +
           ",\"error\":" + str(errors.empty() ? "" : errors[i]) + "}";
  }
  return out + "]";
}

int usage() {
  std::fprintf(stderr,
               "usage: slmob_perfbench stamp\n"
               "       slmob_perfbench run|traced|calibrate --workload W --seed S --threads T "
               "--dir D [--hours H]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  if (mode == "stamp") {
    std::printf("{\"hardware_concurrency\":%u,\"compiler\":%s,\"build_type\":%s}\n",
                std::thread::hardware_concurrency(), str(PERFBENCH_COMPILER).c_str(),
                str(PERFBENCH_BUILD_TYPE).c_str());
    return 0;
  }
  if (mode != "run" && mode != "traced" && mode != "calibrate") return usage();

  Params p;
  std::string workload;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      workload = val;
    } else if (key == "--seed") {
      p.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--threads") {
      p.threads = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--dir") {
      p.dir = val;
    } else if (key == "--hours") {
      p.hours = std::strtod(val.c_str(), nullptr);
    } else {
      return usage();
    }
  }
  if (workload.empty() || p.dir.empty() || p.threads == 0) return usage();

  try {
    p.workload = parse_workload(workload);
    if (mode == "calibrate") {
      const std::size_t busy =
          p.workload == Workload::kChaosLive ? chaos_threads(p) : p.threads;
      std::string passes = "[";
      for (int k = 0; k < kCalibrationPasses; ++k) {
        passes += (k > 0 ? "," : "") + num(calibration_pass(busy));
      }
      std::printf("{\"calibration_s\":%s]}\n", passes.c_str());
    } else if (mode == "run") {
      const UntracedRun r = run_untraced(p);
      std::string setup = "[";
      for (std::size_t i = 0; i < r.setup_s.size(); ++i) {
        setup += (i > 0 ? "," : "") + num(r.setup_s[i]);
      }
      setup += "]";
      std::printf(
          "{\"setup_s\":%s,\"pipeline_s\":%s,\"cpu_s\":%s,\"peak_rss_mib\":%s,"
          "\"bytes_written_mib\":%s,\"lands\":%s}\n",
          setup.c_str(), num(r.pipeline_s).c_str(), num(r.cpu_s).c_str(),
          num(r.peak_rss_mib).c_str(), num(r.bytes_written_mib).c_str(),
          lands_json(r.lands, {}).c_str());
    } else {
      const TracedRun r = run_traced(p);
      std::vector<LandOutcome> lands;
      std::vector<std::string> errors;
      for (const auto& l : r.lands) {
        lands.push_back(l.outcome);
        errors.push_back(l.error);
      }
      std::string layers = "{";
      for (std::size_t i = 0; i < r.layers.size(); ++i) {
        layers += (i > 0 ? "," : "") + str(r.layers[i].first) + ":" + num(r.layers[i].second);
      }
      layers += "}";
      std::printf("{\"pipeline_s\":%s,\"lands\":%s,\"layers\":%s}\n",
                  num(r.pipeline_s).c_str(), lands_json(lands, errors).c_str(),
                  layers.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "slmob_perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
