#include "core/shards.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "util/thread_pool.hpp"

namespace slmob {
namespace {

// One shard, in-memory: wire the rig, run it, hand over the raw trace.
ShardResult run_shard_in_memory(const ExperimentConfig& config) {
  ShardResult result;
  result.archetype = config.archetype;
  result.seed = config.seed;

  Testbed bed(make_testbed_config(config));
  bed.run_until(config.duration);

  if (bed.crawler() != nullptr) {
    result.trace = bed.crawler()->take_trace();
  } else if (bed.ground_truth() != nullptr) {
    result.trace = bed.ground_truth()->take_trace();
  } else {
    throw std::logic_error("run_sharded: shard has no trace source configured");
  }
  capture_rig_stats(bed, result);
  return result;
}

// Either generation counts: a kill inside save_checkpoint_rotating, between
// its rename and its write, leaves only checkpoint.prev.slck.
bool has_checkpoint(const std::filesystem::path& dir) {
  return std::filesystem::exists(dir / kCheckpointFileName) ||
         std::filesystem::exists(dir / kCheckpointPrevFileName);
}

std::string slug(std::string name) {
  for (char& c : name) {
    if (c >= 'A' && c <= 'Z') {
      c = static_cast<char>(c - 'A' + 'a');
    } else if (!(c >= 'a' && c <= 'z') && !(c >= '0' && c <= '9')) {
      c = '-';
    }
  }
  return name;
}

}  // namespace

std::string shard_dir_name(std::size_t index, LandArchetype archetype) {
  char prefix[32];
  std::snprintf(prefix, sizeof prefix, "shard-%02zu-", index);
  return prefix + slug(archetype_name(archetype));
}

std::vector<ShardResult> run_sharded(const std::vector<ExperimentConfig>& shards,
                                     const ShardRunOptions& options) {
  const bool durable = !options.checkpoint_dir.empty();
  if (durable) std::filesystem::create_directories(options.checkpoint_dir);

  ThreadPool pool(options.threads);
  return parallel_map<ShardResult>(pool, shards.size(), [&](std::size_t i) {
    const ExperimentConfig& config = shards[i];
    if (!durable) return run_shard_in_memory(config);
    DurableRunOptions durable_options;
    durable_options.config = config;
    durable_options.dir = options.checkpoint_dir + "/" + shard_dir_name(i, config.archetype);
    durable_options.checkpoint_every = options.checkpoint_every;
    if (!options.out_paths.empty()) durable_options.out_path = options.out_paths[i];
    durable_options.kill_at = options.kill_at;
    return run_durable(durable_options);
  });
}

std::vector<ShardResult> resume_sharded(const std::string& checkpoint_dir,
                                        std::size_t threads,
                                        std::optional<Seconds> kill_at) {
  namespace fs = std::filesystem;
  std::vector<std::string> dirs;
  if (has_checkpoint(checkpoint_dir)) {
    // A single shard's own directory (the layout older `slmob run
    // --checkpoint` versions wrote for a one-land run).
    dirs.push_back(checkpoint_dir);
  } else {
    for (const auto& entry : fs::directory_iterator(checkpoint_dir)) {
      if (!entry.is_directory()) continue;
      const std::string name = entry.path().filename().string();
      if (name.rfind("shard-", 0) != 0) continue;
      if (!has_checkpoint(entry.path())) continue;
      dirs.push_back(entry.path().string());
    }
    // directory_iterator order is unspecified; shard-NN- prefixes make the
    // sorted order the original shard order.
    std::sort(dirs.begin(), dirs.end());
  }
  if (dirs.empty()) {
    throw std::runtime_error("resume_sharded: no shard checkpoints in " + checkpoint_dir);
  }

  ThreadPool pool(threads);
  return parallel_map<ShardResult>(
      pool, dirs.size(), [&](std::size_t i) { return resume_durable(dirs[i], kill_at); });
}

std::vector<ExperimentResults> run_experiments_sharded(
    const std::vector<ExperimentConfig>& shards, std::size_t threads) {
  ThreadPool pool(threads);
  return parallel_map<ExperimentResults>(pool, shards.size(), [&](std::size_t i) {
    ExperimentConfig config = shards[i];
    // Shard-level parallelism only: nested analysis fan-out would
    // oversubscribe the pool's workers.
    config.analysis_threads = 1;
    return run_experiment(config);
  });
}

}  // namespace slmob
