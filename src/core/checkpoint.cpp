#include "core/checkpoint.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <stdexcept>

#include "util/bytes.hpp"
#include "util/fileio.hpp"
#include "util/log.hpp"

namespace slmob {
namespace {

constexpr std::uint8_t kCheckpointMagic[4] = {'S', 'L', 'C', 'K'};
constexpr std::uint16_t kCheckpointVersion = 1;

std::string checkpoint_path(const std::string& dir) {
  return dir + "/" + kCheckpointFileName;
}

std::string journal_path(const std::string& dir) { return dir + "/" + kJournalFileName; }

// The replay-verification witness of the rig's current state.
void fill_witness(CheckpointState& ck, Testbed& bed) {
  ck.engine_tick = static_cast<std::uint64_t>(bed.engine().tick());
  ck.world_rng = bed.world().rng_state();
  ck.network_rng = bed.network().rng_state();
  ck.crawler_backoff_level = bed.crawler()->backoff_level();
  ck.crawler_snapshots = bed.crawler()->stats().snapshots_taken;
  ck.crawler_relogins = bed.crawler()->stats().relogins;
  ck.crawler_coverage_gaps = bed.crawler()->stats().coverage_gaps;
  ck.world_logins = bed.world().stats().total_logins;
  ck.network_sent = bed.network().stats().sent;
}

// Throws std::runtime_error naming the first mismatching component.
void verify_replay(const CheckpointState& ck, Testbed& bed) {
  const auto check = [](bool ok, const char* what) {
    if (!ok) {
      throw std::runtime_error(
          std::string("checkpoint resume: replay mismatch on ") + what +
          " — the checkpoint was taken under a different build, config or seed; "
          "refusing to resume into a diverged run");
    }
  };
  check(static_cast<std::uint64_t>(bed.engine().tick()) == ck.engine_tick, "engine tick");
  check(bed.world().rng_state() == ck.world_rng, "world RNG stream");
  check(bed.network().rng_state() == ck.network_rng, "network RNG stream");
  check(bed.crawler()->backoff_level() == ck.crawler_backoff_level,
        "crawler backoff level");
  check(bed.crawler()->stats().snapshots_taken == ck.crawler_snapshots,
        "crawler snapshot count");
  check(bed.crawler()->stats().relogins == ck.crawler_relogins, "crawler relogins");
  check(bed.crawler()->stats().coverage_gaps == ck.crawler_coverage_gaps,
        "crawler coverage gaps");
  check(bed.world().stats().total_logins == ck.world_logins, "world login count");
  check(bed.network().stats().sent == ck.network_sent, "network datagram count");
}

}  // namespace

std::vector<std::uint8_t> encode_checkpoint(const CheckpointState& state) {
  ByteWriter payload;
  payload.u8(static_cast<std::uint8_t>(state.archetype));
  payload.f64(state.duration);
  payload.u64(state.seed);
  payload.str(state.fault_scenario);
  payload.u64(state.fault_seed);
  payload.str(state.out_path);
  payload.f64(state.checkpoint_every);
  payload.f64(state.time);
  payload.u64(state.engine_tick);
  payload.u64(state.journal_offset);
  for (const std::uint64_t word : state.world_rng) payload.u64(word);
  for (const std::uint64_t word : state.network_rng) payload.u64(word);
  payload.u32(state.crawler_backoff_level);
  payload.u64(state.crawler_snapshots);
  payload.u64(state.crawler_relogins);
  payload.u64(state.crawler_coverage_gaps);
  payload.u64(state.world_logins);
  payload.u64(state.network_sent);

  ByteWriter out;
  out.raw(kCheckpointMagic);
  out.u16(kCheckpointVersion);
  out.u32(crc32(payload.bytes()));
  out.raw(payload.bytes());
  return out.take();
}

CheckpointState decode_checkpoint(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < 10 ||
      !std::equal(bytes.begin(), bytes.begin() + 4, kCheckpointMagic)) {
    throw DecodeError("decode_checkpoint: bad magic");
  }
  ByteReader head(bytes.subspan(4, 6));
  if (head.u16() != kCheckpointVersion) {
    throw DecodeError("decode_checkpoint: unsupported version");
  }
  const std::uint32_t crc = head.u32();
  const auto payload = bytes.subspan(10);
  if (crc32(payload) != crc) {
    throw DecodeError("decode_checkpoint: CRC mismatch (torn or corrupted checkpoint)");
  }
  ByteReader r(payload);
  CheckpointState state;
  state.archetype = static_cast<LandArchetype>(r.u8());
  state.duration = r.f64();
  state.seed = r.u64();
  state.fault_scenario = r.str();
  state.fault_seed = r.u64();
  state.out_path = r.str();
  state.checkpoint_every = r.f64();
  state.time = r.f64();
  state.engine_tick = r.u64();
  state.journal_offset = r.u64();
  for (auto& word : state.world_rng) word = r.u64();
  for (auto& word : state.network_rng) word = r.u64();
  state.crawler_backoff_level = r.u32();
  state.crawler_snapshots = r.u64();
  state.crawler_relogins = r.u64();
  state.crawler_coverage_gaps = r.u64();
  state.world_logins = r.u64();
  state.network_sent = r.u64();
  if (!r.at_end()) throw DecodeError("decode_checkpoint: trailing bytes");
  return state;
}

void save_checkpoint(const CheckpointState& state, const std::string& dir) {
  write_file_atomic(checkpoint_path(dir), encode_checkpoint(state));
}

namespace {

std::vector<std::uint8_t> read_file_bytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw std::runtime_error("cannot open " + path);
  }
  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) bytes.insert(bytes.end(), buf, buf + n);
  // slmob-lint: allow(checked-durability) -- read-only stream; close failure cannot lose data
  std::fclose(f);
  return bytes;
}

}  // namespace

CheckpointState load_checkpoint(const std::string& dir) {
  const std::string path = checkpoint_path(dir);
  std::vector<std::uint8_t> bytes;
  try {
    bytes = read_file_bytes(path);
  } catch (const std::runtime_error&) {
    throw std::runtime_error("load_checkpoint: cannot open " + path);
  }
  return decode_checkpoint(bytes);
}

void save_checkpoint_rotating(const CheckpointState& state, const std::string& dir) {
  const std::string path = checkpoint_path(dir);
  const std::string prev = dir + "/" + kCheckpointPrevFileName;
  std::error_code ec;
  if (std::filesystem::exists(path, ec)) {
    // rename is atomic on POSIX: at every instant either generation is a
    // complete file, so a kill inside this function costs at most the
    // newest checkpoint, never both.
    std::filesystem::rename(path, prev, ec);
    if (ec) {
      throw std::runtime_error("save_checkpoint_rotating: cannot rotate " + path +
                               ": " + ec.message());
    }
  }
  write_file_atomic(path, encode_checkpoint(state));
}

CheckpointLoadResult try_load_checkpoint(const std::string& dir) {
  CheckpointLoadResult result;
  const struct {
    std::string path;
    bool fallback;
  } generations[] = {{checkpoint_path(dir), false},
                     {dir + "/" + kCheckpointPrevFileName, true}};
  for (const auto& gen : generations) {
    std::error_code ec;
    if (!std::filesystem::exists(gen.path, ec)) {
      if (gen.fallback && !result.diagnostic.empty()) {
        result.diagnostic += "; " + gen.path + ": missing (no fallback generation)";
      }
      continue;
    }
    try {
      result.state = decode_checkpoint(read_file_bytes(gen.path));
      result.used_fallback = gen.fallback;
      return result;
    } catch (const std::exception& e) {
      if (!result.diagnostic.empty()) result.diagnostic += "; ";
      result.diagnostic += gen.path + ": " + e.what();
    }
  }
  return result;
}

void capture_rig_stats(Testbed& bed, ShardResult& out) {
  if (bed.crawler() != nullptr) out.crawler_stats = bed.crawler()->stats();
  out.world_stats = bed.world().stats();
  out.server_stats = bed.server().stats();
  out.network_stats = bed.network().stats();
  if (bed.client() != nullptr) out.circuit_stats = bed.client()->total_circuit_stats();
}

DurableShard::DurableShard(const ExperimentConfig& config, std::string dir,
                           Seconds checkpoint_every, std::string out_path)
    : dir_(std::move(dir)), bed_(make_testbed_config(config)) {
  if (bed_.crawler() == nullptr) {
    throw std::logic_error("DurableShard: config has no crawler to journal");
  }
  identity_.archetype = config.archetype;
  identity_.duration = config.duration;
  identity_.seed = config.seed;
  identity_.fault_scenario = config.fault_scenario;
  identity_.fault_seed = config.fault_seed;
  identity_.out_path = std::move(out_path);
  identity_.checkpoint_every = checkpoint_every;
}

void DurableShard::start() {
  std::filesystem::create_directories(dir_);
  writer_.emplace(journal_path(dir_), identity_.duration);
  bed_.crawler()->attach_journal(&*writer_);
}

void DurableShard::restore(const CheckpointState& ck, Seconds replay_step,
                           const std::function<void()>& after_step) {
  // Silent replay to the checkpointed frontier: the simulator is a pure
  // function of its seeds, so this reconstructs every avatar, datagram and
  // crawler timer without serializing any of them. No journal is attached —
  // the frames for this prefix already sit in the journal file. Step
  // boundaries never change simulation results.
  while (now_ < ck.time) {
    now_ = replay_step > 0.0 ? std::min(ck.time, now_ + replay_step) : ck.time;
    bed_.run_until(now_);
    if (after_step) after_step();
  }
  verify_replay(ck, bed_);
  writer_.emplace(
      TraceJournalWriter::resume(journal_path(dir_), ck.journal_offset, identity_.duration));
  bed_.crawler()->attach_journal(&*writer_);
}

void DurableShard::advance(Seconds until) {
  const Seconds duration = identity_.duration;
  const Seconds every = identity_.checkpoint_every;
  until = std::min(until, duration);
  while (now_ < until) {
    const Seconds boundary =
        every > 0.0 ? std::min(duration, every * (std::floor(now_ / every + 1e-9) + 1.0))
                    : duration;
    const Seconds next = std::min(until, boundary);
    bed_.run_until(next);
    now_ = next;
    if (every > 0.0 && now_ == boundary) checkpoint();
  }
}

void DurableShard::checkpoint() {
  CheckpointState ck = identity_;
  ck.time = now_;
  ck.journal_offset = writer_->offset();
  fill_witness(ck, bed_);
  save_checkpoint_rotating(ck, dir_);
  ++checkpoints_written_;
}

ShardResult DurableShard::finish() {
  ShardResult result;
  result.archetype = identity_.archetype;
  result.seed = identity_.seed;
  result.out_path = identity_.out_path;
  result.checkpoints_written = checkpoints_written_;
  if (now_ < identity_.duration) {
    result.killed = true;
  } else {
    result.trace = bed_.crawler()->take_trace();
    writer_->append_end(bed_.engine().now());
  }
  capture_rig_stats(bed_, result);
  return result;
}

ShardResult run_durable(const DurableRunOptions& options) {
  if (options.dir.empty()) {
    throw std::invalid_argument("run_durable: checkpoint directory required");
  }
  DurableShard shard(options.config, options.dir, options.checkpoint_every,
                     options.out_path);
  shard.start();
  shard.advance(options.kill_at.value_or(shard.duration()));
  return shard.finish();
}

ShardResult resume_durable(const std::string& dir, std::optional<Seconds> kill_at) {
  const CheckpointLoadResult loaded = try_load_checkpoint(dir);
  if (!loaded.state) {
    throw std::runtime_error("resume_durable: no loadable checkpoint in " + dir +
                             (loaded.diagnostic.empty() ? "" : " (" + loaded.diagnostic + ")"));
  }
  if (loaded.used_fallback) {
    log_warn("checkpoint", "resuming " + dir + " from " + kCheckpointPrevFileName +
                               (loaded.diagnostic.empty() ? "" : ": " + loaded.diagnostic));
  }
  const CheckpointState& ck = *loaded.state;
  ExperimentConfig config;
  config.archetype = ck.archetype;
  config.duration = ck.duration;
  config.seed = ck.seed;
  config.fault_scenario = ck.fault_scenario;
  config.fault_seed = ck.fault_seed;
  DurableShard shard(config, dir, ck.checkpoint_every, ck.out_path);
  shard.restore(ck);
  shard.advance(kill_at.value_or(shard.duration()));
  return shard.finish();
}

}  // namespace slmob
