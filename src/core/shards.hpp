// Sharded multi-land simulation engine.
//
// A shard is one complete measurement rig — world, sim server, network,
// client/crawler, monitors — for one land, and is a pure function of its
// config (all randomness flows from the shard's seeds). Shards share no
// state, so a multi-land study runs them concurrently on a thread pool and
// every shard's trace is bit-identical to a serial run at any thread count.
//
// Two execution modes:
//  * in-memory (run_sharded with an empty checkpoint_dir): fastest, nothing
//    on disk;
//  * durable (checkpoint_dir set): each shard is a DurableShard
//    (core/checkpoint.hpp), journaled + checkpointed in its own subdirectory
//    (shard-NN-<land>), so a killed multi-land run resumes per shard via
//    resume_sharded — a shard that had already finished restores from its
//    final checkpoint and appends nothing but the journal's end frame.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/experiment.hpp"

namespace slmob {

struct ShardRunOptions {
  // Total worker threads across shards, counting the caller (ThreadPool
  // semantics): 1 = serial, 0 = SLMOB_THREADS env var / hardware default.
  std::size_t threads{0};
  // When set, every shard runs journaled + checkpointed under
  // <checkpoint_dir>/shard-NN-<land>/.
  std::string checkpoint_dir;
  Seconds checkpoint_every{300.0};
  // Optional, parallel to the shard configs: destination trace path per
  // shard, stamped into each checkpoint (surfaced again on resume).
  std::vector<std::string> out_paths;
  // Test/bench hook: durable shards stop abruptly at this virtual time,
  // leaving resumable on-disk state (see DurableRunOptions::kill_at).
  std::optional<Seconds> kill_at;
};

// Subdirectory name of shard `index`: "shard-03-dance" etc. Zero-padded so
// lexicographic directory order equals shard order.
[[nodiscard]] std::string shard_dir_name(std::size_t index, LandArchetype archetype);

// Runs every shard (one per config) and returns results in config order.
// Results are bit-identical for any `threads` value.
std::vector<ShardResult> run_sharded(const std::vector<ExperimentConfig>& shards,
                                     const ShardRunOptions& options = {});

// Resumes a killed run_sharded from its checkpoint directory: accepts either
// a directory of shard-* subdirectories or a single shard's own directory
// (checkpoint generations directly inside). Shards resume concurrently;
// results are in shard (directory) order and bit-identical to the
// never-killed run's.
std::vector<ShardResult> resume_sharded(const std::string& checkpoint_dir,
                                        std::size_t threads = 0,
                                        std::optional<Seconds> kill_at = std::nullopt);

// Full experiments (simulation + analysis pipeline) for every config,
// sharded across `threads`. Each cell's analysis runs single-threaded inside
// its shard — the parallelism budget is spent across cells, as in `slmob
// sweep`. Results are in config order and thread-count independent.
std::vector<ExperimentResults> run_experiments_sharded(
    const std::vector<ExperimentConfig>& shards, std::size_t threads = 0);

}  // namespace slmob
