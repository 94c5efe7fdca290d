// Incrementally maintained proximity pairs for streaming analysis.
//
// Rebuilding a spatial index from scratch for every snapshot wastes work:
// at tau = 10 s most avatars have not moved between samples, so nearly all
// of it recomputes pairs that cannot have changed. IncrementalProximity
// keeps a persistent structure-of-arrays state across snapshots — one slot
// per live avatar (id, position, grid cell) plus a cell -> slots map and a
// per-slot adjacency list of (partner, twin index, planar distance) — and
// on each advance() only touches avatars that entered, left or moved:
//
//   departures  drop the slot, its cell entry and its adjacency edges;
//   moves       drop the slot's edges and re-home its cell entry;
//   arrivals    allocate a slot (from the free list) and a cell entry;
//   finally every entered-or-moved ("dirty") slot rescans its 3x3 cell
//   neighbourhood, re-adding edges with freshly computed distances.
//
// Invariant after every advance: the edge set is exactly { (a, b) live :
// dist2d(a, b) <= r_max }, each edge stored once per endpoint with the same
// distance value SpatialGrid would compute. Stored distances stay bit-exact
// across snapshots because distance2d_to of two unmoved points is a pure
// function of their coordinates, so emitted pair lists equal a fresh
// per-snapshot SpatialGrid's as sets (emission order differs, which no
// downstream consumer observes).
//
// When more than kChurnThreshold of the avatars changed, the delta path
// would touch most slots anyway, so the snapshot is answered by a full
// rebuild (identical to a fresh SpatialGrid) that also reseeds the
// persistent state. A snapshot containing duplicate avatar ids (two fixes,
// one id) cannot be represented by the id-keyed state; it is answered by a
// transient grid and the next snapshot rebuilds.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/pair_kernel.hpp"
#include "trace/trace.hpp"
#include "util/vec3.hpp"

namespace slmob {

class IncrementalProximity {
 public:
  using PairList = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

  // `ranges` are deduplicated and sorted ascending; each must be > 0
  // (throws std::invalid_argument otherwise). Pairs are maintained at the
  // largest radius; smaller radii filter by the recorded distance.
  explicit IncrementalProximity(std::vector<double> ranges);

  // Advances to the next snapshot (must be fed in time order). Afterwards
  // positions() and pairs() describe exactly this snapshot.
  void advance(const Snapshot& snapshot);

  // Requested radii, ascending and deduplicated.
  [[nodiscard]] const std::vector<double>& ranges() const { return ranges_; }
  // Index into pairs() for `range`; throws std::invalid_argument when the
  // range was not requested at construction.
  [[nodiscard]] std::size_t range_index(double range) const;

  // Positions of the current snapshot's fixes, in fix order.
  [[nodiscard]] const std::vector<Vec3>& positions() const { return positions_; }
  // Pairs (i < j, fix indices) of the current snapshot within ranges()[ri].
  [[nodiscard]] const PairList& pairs(std::size_t ri) const { return lists_[ri]; }

  [[nodiscard]] std::size_t rebuilds() const { return rebuilds_; }
  [[nodiscard]] std::size_t delta_updates() const { return delta_updates_; }

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  // Fraction of changed (entered + departed + moved) avatars per snapshot
  // above which a full rebuild replaces the delta update.
  static constexpr double kChurnThreshold = 0.35;

  struct Slot {
    AvatarId id{};
    Vec3 pos{};
    std::int32_t cx{0};
    std::int32_t cy{0};
  };
  // Half-edge: each pair is stored once per endpoint, and `twin` is the
  // index of the mirror entry inside adj_[peer]. Removing a slot's edges is
  // then O(1) per edge (swap-remove the twin, re-point the swapped-in
  // edge's own twin) instead of a linear scan of every peer's list — the
  // scan made delta updates O(degree^2) per mover, which at WiFi range
  // (degree ~50) cost more than a full grid rebuild.
  struct Edge {
    std::uint32_t peer{0};
    std::uint32_t twin{0};
    double distance{0.0};
  };

  [[nodiscard]] static std::uint64_t pack(std::int32_t cx, std::int32_t cy);
  [[nodiscard]] std::int32_t cell_of(double v) const;

  void full_rebuild(const Snapshot& snapshot);
  void delta_update(const Snapshot& snapshot);
  void transient_snapshot();
  void reset_state();
  void emit_lists(const Snapshot& snapshot);
  void add_edge(std::uint32_t a, std::uint32_t b, double distance);
  void remove_adjacency(std::uint32_t slot);
  void remove_from_cell(std::uint32_t slot);
  void mark_dirty(std::uint32_t slot);
  std::uint32_t alloc_slot();

  std::vector<double> ranges_;
  double cell_{0.0};  // grid cell size = largest range

  // Persistent SoA state (valid_ == true between snapshots on the delta path).
  bool valid_{false};
  std::vector<Slot> slots_;
  std::vector<std::vector<Edge>> adj_;
  std::vector<std::uint32_t> free_;
  std::unordered_map<std::uint32_t, std::uint32_t> slot_of_;  // id -> slot
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> cells_;
  std::vector<std::uint32_t> active_;  // slots of the previous snapshot

  // Per-advance scratch.
  std::uint64_t epoch_{0};
  std::vector<std::uint64_t> seen_epoch_;
  std::vector<std::uint64_t> dirty_epoch_;
  std::vector<std::uint32_t> dirty_rank_;
  std::vector<std::uint32_t> dirty_;
  std::vector<std::uint32_t> fix_slot_;     // fix index -> slot
  std::vector<std::uint32_t> fix_of_slot_;  // slot -> fix index

  // Batched kernel answering full rebuilds and duplicate-id transient
  // snapshots; persistent so its scratch survives across snapshots.
  PairKernel kernel_;

  // Current snapshot's answer.
  std::vector<Vec3> positions_;
  std::vector<PairList> lists_;

  std::size_t rebuilds_{0};
  std::size_t delta_updates_{0};
};

}  // namespace slmob
