#include "analysis/graphs.hpp"

#include <algorithm>

namespace slmob {

void GraphStream::on_snapshot(
    std::size_t node_count,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& pairs) {
  if (node_count == 0) return;  // an empty snapshot has no graph
  const auto n = static_cast<std::uint32_t>(node_count);

  // CSR adjacency by counting sort: degree pass, prefix sum, scatter.
  csr_offsets_.assign(n + 1, 0);
  for (const auto& [i, j] : pairs) {
    ++csr_offsets_[i + 1];
    ++csr_offsets_[j + 1];
  }
  for (std::uint32_t i = 0; i < n; ++i) csr_offsets_[i + 1] += csr_offsets_[i];
  csr_cursor_.assign(csr_offsets_.begin(), csr_offsets_.end() - 1);
  csr_adj_.resize(pairs.size() * 2);
  for (const auto& [i, j] : pairs) {
    csr_adj_[csr_cursor_[i]++] = j;
    csr_adj_[csr_cursor_[j]++] = i;
  }
  const auto nbr_begin = [&](std::uint32_t i) { return csr_offsets_[i]; };
  const auto nbr_end = [&](std::uint32_t i) { return csr_offsets_[i + 1]; };

  // Degree samples, in node order.
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t deg = nbr_end(i) - nbr_begin(i);
    degrees_.add(static_cast<double>(deg));
    ++degree_samples_;
    if (deg == 0) ++isolated_;
  }

  // Largest connected component (the first one discovered wins a size
  // tie). comp_ doubles as the BFS queue: a component is exactly what the
  // BFS visits.
  visited_.assign(n, 0);
  largest_.clear();
  for (std::uint32_t start = 0; start < n; ++start) {
    if (visited_[start]) continue;
    comp_.clear();
    comp_.push_back(start);
    visited_[start] = 1;
    for (std::size_t head = 0; head < comp_.size(); ++head) {
      const std::uint32_t u = comp_[head];
      for (std::uint32_t e = nbr_begin(u); e < nbr_end(u); ++e) {
        const std::uint32_t v = csr_adj_[e];
        if (!visited_[v]) {
          visited_[v] = 1;
          comp_.push_back(v);
        }
      }
    }
    if (comp_.size() > largest_.size()) std::swap(largest_, comp_);
  }

  // Diameter: BFS from every node of the largest component, resetting only
  // that component's distances between sweeps.
  std::size_t diameter = 0;
  if (largest_.size() >= 2) {
    dist_.assign(n, -1);
    for (const std::uint32_t src : largest_) {
      for (const std::uint32_t u : largest_) dist_[u] = -1;
      comp_.clear();
      comp_.push_back(src);
      dist_[src] = 0;
      std::size_t ecc = 0;
      for (std::size_t head = 0; head < comp_.size(); ++head) {
        const std::uint32_t u = comp_[head];
        ecc = std::max(ecc, static_cast<std::size_t>(dist_[u]));
        for (std::uint32_t e = nbr_begin(u); e < nbr_end(u); ++e) {
          const std::uint32_t v = csr_adj_[e];
          if (dist_[v] < 0) {
            dist_[v] = dist_[u] + 1;
            comp_.push_back(v);
          }
        }
      }
      diameter = std::max(diameter, ecc);
    }
  }
  diameters_.add(static_cast<double>(diameter));

  // Mean Watts-Strogatz clustering by neighbour marking: for node i, flag
  // N(i), then walk each neighbour's adjacency counting flagged entries —
  // O(sum_a deg(a)^2) array probes, exact integer link counts, summed in
  // node order.
  marked_.assign(n, 0);
  double total = 0.0;
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::size_t k = nbr_end(i) - nbr_begin(i);
    if (k < 2) continue;
    for (std::uint32_t e = nbr_begin(i); e < nbr_end(i); ++e) marked_[csr_adj_[e]] = 1;
    std::size_t links = 0;
    for (std::uint32_t e = nbr_begin(i); e < nbr_end(i); ++e) {
      const std::uint32_t a = csr_adj_[e];
      for (std::uint32_t f = nbr_begin(a); f < nbr_end(a); ++f) {
        const std::uint32_t b = csr_adj_[f];
        if (b > a && marked_[b]) ++links;
      }
    }
    for (std::uint32_t e = nbr_begin(i); e < nbr_end(i); ++e) marked_[csr_adj_[e]] = 0;
    total += 2.0 * static_cast<double>(links) /
             (static_cast<double>(k) * static_cast<double>(k - 1));
  }
  clustering_.add(total / static_cast<double>(n));
  ++snapshots_analyzed_;
}

void GraphStream::append(GraphStream& later) {
  degrees_.merge(later.degrees_);
  diameters_.merge(later.diameters_);
  clustering_.merge(later.clustering_);
  snapshots_analyzed_ += later.snapshots_analyzed_;
  isolated_ += later.isolated_;
  degree_samples_ += later.degree_samples_;
  later.degrees_.clear();
  later.diameters_.clear();
  later.clustering_.clear();
  later.snapshots_analyzed_ = 0;
  later.isolated_ = 0;
  later.degree_samples_ = 0;
}

GraphMetrics GraphStream::finish() {
  GraphMetrics out;
  out.range = range_;
  out.degrees = std::move(degrees_);
  out.diameters = std::move(diameters_);
  out.clustering = std::move(clustering_);
  out.snapshots_analyzed = snapshots_analyzed_;
  out.isolated_fraction =
      degree_samples_ == 0
          ? 0.0
          : static_cast<double>(isolated_) / static_cast<double>(degree_samples_);
  return out;
}

}  // namespace slmob
