#include "core/experiment.hpp"

#include <stdexcept>
#include <utility>

#include "analysis/streaming.hpp"

namespace slmob {

TestbedConfig make_testbed_config(const ExperimentConfig& config) {
  TestbedConfig tb = config.testbed;
  tb.archetype = config.archetype;
  tb.seed = config.seed;
  if (config.analyze_ground_truth) tb.with_ground_truth = true;
  if (tb.faults.empty() && config.fault_scenario != "none") {
    const std::uint64_t fseed =
        config.fault_seed != 0 ? config.fault_seed : config.seed;
    tb.faults = FaultSchedule::scenario(config.fault_scenario, config.duration, fseed);
  }
  return tb;
}

ExperimentResults run_experiment(const ExperimentConfig& config) {
  Testbed bed(make_testbed_config(config));
  bed.run_until(config.duration);

  Trace trace;
  if (config.analyze_ground_truth) {
    trace = bed.ground_truth()->take_trace();
  } else if (bed.crawler() != nullptr) {
    trace = bed.crawler()->take_trace();
  } else if (bed.ground_truth() != nullptr) {
    trace = bed.ground_truth()->take_trace();
  } else {
    throw std::logic_error("run_experiment: no trace source configured");
  }
  trace.strip_sitting_fixes();

  ExperimentResults results = analyze_trace(std::move(trace), config.ranges,
                                            bed.world().land().size(),
                                            config.analysis_threads);
  results.world_stats = bed.world().stats();
  results.server_stats = bed.server().stats();
  if (bed.crawler() != nullptr) results.crawler_stats = bed.crawler()->stats();
  results.network_stats = bed.network().stats();
  if (bed.client() != nullptr) results.circuit_stats = bed.client()->total_circuit_stats();
  if (!config.analyze_ground_truth && bed.ground_truth() != nullptr) {
    results.ground_truth = bed.ground_truth()->take_trace();
  }
  return results;
}

ExperimentResults analyze_trace(Trace trace, const std::vector<double>& ranges,
                                double land_size, std::size_t threads) {
  StreamingOptions options;
  options.ranges = ranges;
  options.land_size = land_size;
  options.threads = threads;
  StreamingAnalyzer analyzer(options);
  MemoryTraceStream stream(trace);
  drive_stream(stream, analyzer);
  AnalysisReport report = analyzer.finish();

  ExperimentResults results;
  results.summary = report.summary;
  results.contacts = std::move(report.contacts);
  results.graphs = std::move(report.graphs);
  results.zones = std::move(report.zones);
  results.trips = std::move(report.trips);
  results.trace = std::move(trace);
  return results;
}

AnalysisReport to_analysis_report(const ExperimentResults& results) {
  AnalysisReport report;
  report.summary = results.summary;
  report.contacts = results.contacts;
  report.graphs = results.graphs;
  report.zones = results.zones;
  report.trips = results.trips;
  return report;
}

}  // namespace slmob
