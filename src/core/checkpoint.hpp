// Checkpoint/resume for long measurement runs.
//
// The paper's 24 h crawls died and were restarted by hand; this module makes
// a killed run resumable. A checkpoint directory holds two files:
//
//   trace.sltj       write-ahead journal of everything captured so far
//   checkpoint.slck  CRC-framed snapshot of the run's identity and progress
//
// A checkpoint records the run identity (archetype, duration, seed, fault
// scenario), the progress frontier (virtual time, engine tick, journal byte
// offset) and a replay-verification witness: the world and network RNG
// stream positions, the crawler's backoff level, and key component counters.
//
// Resume reconstructs state by *deterministic replay*: the rig is rebuilt
// from the recorded identity and re-run silently to the checkpointed tick —
// the whole simulator is a pure function of its seeds, so this recreates
// every avatar, in-flight datagram and crawler timer exactly, without
// serializing any of them. The recorded witness is then compared against the
// replayed state; any mismatch (code drift, edited config, cosmic-ray
// checkpoint corruption survived by CRC) aborts the resume instead of
// silently producing a franken-trace. After verification the journal is
// truncated to the recorded offset (replay regenerates any frames past it
// bit-for-bit) and capture continues, so the post-resume trace is
// bit-identical to the trace of a run that was never killed.
#pragma once

#include <array>
#include <functional>
#include <optional>
#include <string>

#include "core/experiment.hpp"
#include "trace/journal.hpp"

namespace slmob {

inline constexpr const char* kCheckpointFileName = "checkpoint.slck";
// Previous generation kept by save_checkpoint_rotating: when the newest
// checkpoint turns out truncated or bit-flipped (CRC failure), the loader
// falls back to this one instead of abandoning the run.
inline constexpr const char* kCheckpointPrevFileName = "checkpoint.prev.slck";
inline constexpr const char* kJournalFileName = "trace.sltj";

struct CheckpointState {
  // Run identity: enough to rebuild the rig. Only runs with a default
  // TestbedConfig (the `slmob run` shape) are checkpointable; programmatic
  // rigs with custom testbed knobs must carry their own config to resume.
  LandArchetype archetype{LandArchetype::kIsleOfView};
  Seconds duration{0.0};
  std::uint64_t seed{0};
  std::string fault_scenario{"none"};
  std::uint64_t fault_seed{0};
  std::string out_path;
  Seconds checkpoint_every{0.0};

  // Progress frontier.
  Seconds time{0.0};
  std::uint64_t engine_tick{0};
  std::uint64_t journal_offset{0};

  // Replay-verification witness.
  std::array<std::uint64_t, 4> world_rng{};
  std::array<std::uint64_t, 4> network_rng{};
  std::uint32_t crawler_backoff_level{0};
  std::uint64_t crawler_snapshots{0};
  std::uint64_t crawler_relogins{0};
  std::uint64_t crawler_coverage_gaps{0};
  std::uint64_t world_logins{0};
  std::uint64_t network_sent{0};

  friend bool operator==(const CheckpointState&, const CheckpointState&) = default;
};

// Binary encoding (magic "SLCK" | u16 version | u32 crc32(payload) |
// payload). decode throws DecodeError on bad magic/version/CRC/truncation.
std::vector<std::uint8_t> encode_checkpoint(const CheckpointState& state);
CheckpointState decode_checkpoint(std::span<const std::uint8_t> bytes);

// Atomic write to <dir>/checkpoint.slck: a kill during the save leaves the
// previous checkpoint intact, never a torn file.
void save_checkpoint(const CheckpointState& state, const std::string& dir);
// Throws std::runtime_error when the file is missing or unreadable.
CheckpointState load_checkpoint(const std::string& dir);

// Like save_checkpoint, but first rotates the current checkpoint.slck to
// checkpoint.prev.slck, so two independent generations exist on disk. Every
// durable run saves this way: losing the newest checkpoint to corruption
// then costs one extra replay segment, not the whole run.
void save_checkpoint_rotating(const CheckpointState& state, const std::string& dir);

// Result of a fallback-aware load. `state` is empty when no generation
// decoded cleanly; `diagnostic` names every file that was rejected and why
// (missing, truncated, CRC mismatch, ...), so a corrupted checkpoint is a
// loud, explained event rather than UB or a silent cold start.
struct CheckpointLoadResult {
  std::optional<CheckpointState> state;
  bool used_fallback{false};  // state came from checkpoint.prev.slck
  std::string diagnostic;     // non-empty whenever any generation was rejected
};

// Tries checkpoint.slck, then checkpoint.prev.slck. Never throws on corrupt
// or missing files — corruption is reported in `diagnostic` and the next
// generation is tried; the caller decides between resume and cold restart.
CheckpointLoadResult try_load_checkpoint(const std::string& dir);

// Raw capture of one shard. The trace is exactly what the shard's
// measurement instrument recorded (not sitting-stripped), which is what
// determinism digests compare.
struct ShardResult {
  LandArchetype archetype{LandArchetype::kIsleOfView};
  std::uint64_t seed{0};
  Trace trace;
  CrawlerStats crawler_stats;
  WorldStats world_stats;
  SimServerStats server_stats;
  NetworkStats network_stats;
  // Crawler-client transport stats, summed over every circuit (relogins
  // retire circuits); zero-initialised for ground-truth-only shards.
  CircuitStats circuit_stats;
  bool killed{false};                 // durable runs only
  std::size_t checkpoints_written{0}; // durable runs only
  // Durable runs: where the finished trace should land, recorded in the
  // shard's checkpoint so a resume needs no re-specification.
  std::string out_path;
};

// Copies the rig's counter structs (crawler, world, server, network and the
// crawler client's circuits, where present) into `out`.
void capture_rig_stats(Testbed& bed, ShardResult& out);

// One journaled measurement rig: the Testbed, its write-ahead journal in
// <dir>/trace.sltj and the checkpoint identity. It is the only durable
// capture loop; run_durable, resume_durable, run_sharded's durable mode,
// resume_sharded and the run supervisor (core/supervisor.hpp) all drive it.
//
// Checkpoints rotate two generations (save_checkpoint_rotating) and land at
// every multiple of `checkpoint_every` the run reaches, plus one at
// `duration`, so a finished shard resumes from its tail. With
// checkpoint_every = 0 the run is journaled only: salvageable, not
// resumable.
class DurableShard {
 public:
  // Builds the rig for `config` (which must have a crawler, else
  // std::logic_error). Nothing touches `dir` until start() or restore().
  DurableShard(const ExperimentConfig& config, std::string dir, Seconds checkpoint_every,
               std::string out_path);

  DurableShard(const DurableShard&) = delete;
  DurableShard& operator=(const DurableShard&) = delete;

  // Cold start from t = 0: creates `dir` and attaches a fresh (truncated)
  // journal.
  void start();
  // Continues from `ck`: silent replay to ck.time in steps of at most
  // `replay_step` virtual seconds (<= 0: one step), calling `after_step`
  // after each; then verifies the replay witness (std::runtime_error naming
  // the first mismatching component), truncates the journal to the
  // checkpointed offset and attaches it.
  void restore(const CheckpointState& ck, Seconds replay_step = 0.0,
               const std::function<void()>& after_step = {});

  // Runs to min(until, duration), checkpointing on the way (see above).
  void advance(Seconds until);
  // Hands over the capture: at `duration` the trace, a kEnd journal frame
  // and the counters. Called earlier it models a SIGKILL at now(): counters
  // only, no trace handover, no kEnd frame, `killed` set.
  ShardResult finish();

  [[nodiscard]] Seconds now() const { return now_; }
  [[nodiscard]] Seconds duration() const { return identity_.duration; }
  [[nodiscard]] Testbed& bed() { return bed_; }
  [[nodiscard]] TraceJournalWriter& journal() { return *writer_; }
  [[nodiscard]] std::size_t checkpoints_written() const { return checkpoints_written_; }

 private:
  void checkpoint();

  CheckpointState identity_;  // progress and witness fields unused
  std::string dir_;
  // Declared before bed_, so the rig (whose crawler points at the writer)
  // is destroyed first.
  std::optional<TraceJournalWriter> writer_;
  Testbed bed_;
  Seconds now_{0.0};
  std::size_t checkpoints_written_{0};
};

struct DurableRunOptions {
  // Only archetype/duration/seed/fault_scenario/fault_seed are recorded in
  // the checkpoint; the testbed config must stay default for a resume to
  // rebuild the identical rig.
  ExperimentConfig config;
  std::string dir;                 // checkpoint directory, created if missing
  Seconds checkpoint_every{0.0};   // 0 = journal only (salvageable, not resumable)
  std::string out_path;            // recorded for `slmob run --resume`
  // Test/bench hook simulating a SIGKILL: the run stops abruptly at this
  // virtual time — no trace handover, no journal finalization, exactly the
  // on-disk state a killed process leaves behind.
  std::optional<Seconds> kill_at;
};

// Runs a journaled (and, when checkpoint_every > 0, checkpointed)
// measurement from t = 0. Requires a crawler-equipped config. The journal
// is <dir>/trace.sltj (kJournalFileName).
ShardResult run_durable(const DurableRunOptions& options);

// Resumes a killed run from the newest loadable checkpoint generation in
// `dir` (falling back to checkpoint.prev.slck when checkpoint.slck is
// corrupt), then replays, verifies, truncates the journal and continues.
// Throws std::runtime_error when no generation loads or the replay witness
// does not match. Deterministic: resuming the same directory twice produces
// bit-identical traces, equal to the never-killed run's.
ShardResult resume_durable(const std::string& dir,
                           std::optional<Seconds> kill_at = std::nullopt);

}  // namespace slmob
