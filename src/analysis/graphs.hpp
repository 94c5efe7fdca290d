// Line-of-sight network analysis (§3.2 of the paper).
//
// For each snapshot, the communication graph has one vertex per avatar and
// an edge between any two within range r. Aggregated over the measurement
// period the paper reports:
//  * node degree CCDF (one sample per avatar per snapshot),
//  * CDF of the diameter of the largest connected component (one sample per
//    snapshot),
//  * CDF of the mean Watts-Strogatz clustering coefficient (one sample per
//    snapshot: the mean over that snapshot's nodes).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "stats/ecdf.hpp"

namespace slmob {

struct GraphMetrics {
  double range{0.0};
  Ecdf degrees;     // per (avatar, snapshot)
  Ecdf diameters;   // per snapshot
  Ecdf clustering;  // per snapshot (mean over nodes)
  std::size_t snapshots_analyzed{0};
  double isolated_fraction{0.0};  // fraction of degree samples equal to 0
};

// Incremental graph metrics over a snapshot stream: feed every covered
// snapshot with its in-range pair list (i < j, indices into the snapshot's
// fixes), in time order. Empty snapshots are skipped. This is the one
// graph-metrics kernel of the analysis pipeline.
//
// The stream keeps one flat CSR adjacency plus BFS/marker scratch and
// rebuilds them in place — zero allocations per snapshot once warm, and
// contiguous neighbour scans in the BFS and triangle loops. Degree,
// diameter and clustering values don't depend on the order of the pair
// list (distances are exact, link counts are set cardinalities).
class GraphStream {
 public:
  explicit GraphStream(double range) : range_(range) {}

  void on_snapshot(std::size_t node_count,
                   const std::vector<std::pair<std::uint32_t, std::uint32_t>>& pairs);
  // Appends `later`'s samples and counts after this stream's, exactly as if
  // its snapshots had been fed here next, and empties `later` (its scratch
  // and sample capacity stay warm). Lets contiguous slices of a snapshot
  // sequence be analysed in parallel and joined in order.
  void append(GraphStream& later);
  [[nodiscard]] GraphMetrics finish();

 private:
  double range_;
  Ecdf degrees_;
  Ecdf diameters_;
  Ecdf clustering_;
  std::size_t snapshots_analyzed_{0};
  std::size_t isolated_{0};
  std::size_t degree_samples_{0};
  // Per-snapshot scratch, reused across calls (sized to the largest
  // snapshot seen). CSR layout: neighbours of node i occupy
  // csr_adj_[csr_offsets_[i] .. csr_offsets_[i + 1]).
  std::vector<std::uint32_t> csr_offsets_;
  std::vector<std::uint32_t> csr_cursor_;
  std::vector<std::uint32_t> csr_adj_;
  std::vector<std::uint32_t> comp_;     // BFS worklist of the current component
  std::vector<std::uint32_t> largest_;  // biggest component so far
  std::vector<std::int32_t> dist_;
  std::vector<char> visited_;
  std::vector<char> marked_;
};

}  // namespace slmob
