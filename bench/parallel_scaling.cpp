// Parallel-pipeline scaling bench: wall-clock of the full Isle-of-View
// analysis (CT/ICT/FT contacts, LoS graph metrics, zones, trips at 10 m and
// 80 m) versus analysis thread count, written to BENCH_analysis.json so the
// perf trajectory is tracked across PRs.
//
// Two baselines are timed alongside the thread sweep:
//  * "legacy": the seed revision's pipeline shape — every analysis rebuilds
//    its own per-snapshot proximity structure, strictly sequentially;
//  * threads=1: the streaming analysis engine (one incremental proximity
//    state shared by every consumer) on a single thread, isolating the
//    algorithmic win from the parallel win.
//
// The sweep asserts that every thread count reproduces the single-thread
// results exactly (same ECDF samples, same interval lists) before timing is
// trusted.
//
//   parallel_scaling [--hours H] [--seed S] [--quick] [--out FILE]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench_common.hpp"
#include "util/thread_pool.hpp"

using namespace slmob;
using namespace slmob::bench;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// Faithful replica of the seed-revision analysis pipeline, so the speedup
// numbers compare against what this repo actually shipped before proximity
// was shared: a fresh hash-map grid per snapshot per analysis per range,
// unsorted adjacency lists with linear-scan clustering, a re-allocated BFS
// per eccentricity, and std::map bookkeeping in the contact tracker. Kept
// local to the bench so the library itself stays on the fast path.
namespace seed {

using IndexPair = std::pair<std::uint32_t, std::uint32_t>;

class Grid {
 public:
  Grid(const std::vector<Vec3>& positions, double radius)
      : positions_(positions), radius_(radius), cell_(radius) {
    for (std::uint32_t i = 0; i < positions_.size(); ++i) {
      cells_[key_for(positions_[i])].push_back(i);
    }
  }

  [[nodiscard]] std::vector<IndexPair> pairs_within() const {
    std::vector<IndexPair> out;
    for (std::uint32_t i = 0; i < positions_.size(); ++i) {
      const auto cx = static_cast<std::int32_t>(std::floor(positions_[i].x / cell_));
      const auto cy = static_cast<std::int32_t>(std::floor(positions_[i].y / cell_));
      for (std::int32_t dx = -1; dx <= 1; ++dx) {
        for (std::int32_t dy = -1; dy <= 1; ++dy) {
          const auto it = cells_.find(pack(cx + dx, cy + dy));
          if (it == cells_.end()) continue;
          for (const std::uint32_t j : it->second) {
            if (j <= i) continue;
            if (positions_[i].distance2d_to(positions_[j]) <= radius_) {
              out.emplace_back(i, j);
            }
          }
        }
      }
    }
    return out;
  }

 private:
  using CellKey = std::uint64_t;
  [[nodiscard]] static CellKey pack(std::int32_t cx, std::int32_t cy) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cx)) << 32) |
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(cy));
  }
  [[nodiscard]] CellKey key_for(const Vec3& p) const {
    return pack(static_cast<std::int32_t>(std::floor(p.x / cell_)),
                static_cast<std::int32_t>(std::floor(p.y / cell_)));
  }

  const std::vector<Vec3>& positions_;
  double radius_;
  double cell_;
  std::unordered_map<CellKey, std::vector<std::uint32_t>> cells_;
};

class Graph {
 public:
  Graph(const Snapshot& snapshot, double range) {
    adj_.resize(snapshot.fixes.size());
    std::vector<Vec3> positions;
    positions.reserve(snapshot.fixes.size());
    for (const auto& fix : snapshot.fixes) positions.push_back(fix.pos);
    if (positions.empty()) return;
    const Grid grid(positions, range);
    for (const auto& [i, j] : grid.pairs_within()) {
      adj_[i].push_back(j);
      adj_[j].push_back(i);
    }
  }

  [[nodiscard]] std::size_t node_count() const { return adj_.size(); }
  [[nodiscard]] std::size_t degree(std::size_t i) const { return adj_.at(i).size(); }

  [[nodiscard]] std::vector<std::vector<std::uint32_t>> components() const {
    std::vector<std::vector<std::uint32_t>> out;
    std::vector<char> visited(adj_.size(), 0);
    for (std::uint32_t start = 0; start < adj_.size(); ++start) {
      if (visited[start]) continue;
      std::vector<std::uint32_t> comp;
      std::deque<std::uint32_t> queue{start};
      visited[start] = 1;
      while (!queue.empty()) {
        const std::uint32_t u = queue.front();
        queue.pop_front();
        comp.push_back(u);
        for (const std::uint32_t v : adj_[u]) {
          if (!visited[v]) {
            visited[v] = 1;
            queue.push_back(v);
          }
        }
      }
      out.push_back(std::move(comp));
    }
    return out;
  }

  [[nodiscard]] std::size_t eccentricity(std::uint32_t start) const {
    std::vector<std::int32_t> dist(adj_.size(), -1);
    std::deque<std::uint32_t> queue{start};
    dist[start] = 0;
    std::size_t ecc = 0;
    while (!queue.empty()) {
      const std::uint32_t u = queue.front();
      queue.pop_front();
      ecc = std::max(ecc, static_cast<std::size_t>(dist[u]));
      for (const std::uint32_t v : adj_[u]) {
        if (dist[v] < 0) {
          dist[v] = dist[u] + 1;
          queue.push_back(v);
        }
      }
    }
    return ecc;
  }

  [[nodiscard]] std::size_t largest_component_diameter() const {
    const auto comps = components();
    if (comps.empty()) return 0;
    const auto largest = std::max_element(
        comps.begin(), comps.end(),
        [](const auto& a, const auto& b) { return a.size() < b.size(); });
    std::size_t diameter = 0;
    for (const std::uint32_t u : *largest) {
      diameter = std::max(diameter, eccentricity(u));
    }
    return diameter;
  }

  [[nodiscard]] double clustering(std::size_t i) const {
    const auto& nbrs = adj_.at(i);
    const std::size_t k = nbrs.size();
    if (k < 2) return 0.0;
    std::size_t links = 0;
    for (std::size_t a = 0; a < k; ++a) {
      for (std::size_t b = a + 1; b < k; ++b) {
        const auto& na = adj_[nbrs[a]];
        if (std::find(na.begin(), na.end(), nbrs[b]) != na.end()) ++links;
      }
    }
    return 2.0 * static_cast<double>(links) /
           (static_cast<double>(k) * static_cast<double>(k - 1));
  }

  [[nodiscard]] double mean_clustering() const {
    if (adj_.empty()) return 0.0;
    double total = 0.0;
    for (std::size_t i = 0; i < adj_.size(); ++i) total += clustering(i);
    return total / static_cast<double>(adj_.size());
  }

 private:
  std::vector<std::vector<std::uint32_t>> adj_;
};

using PairKey = std::uint64_t;

PairKey pair_key(AvatarId a, AvatarId b) {
  const auto lo = std::min(a.value, b.value);
  const auto hi = std::max(a.value, b.value);
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

struct OpenContact {
  Seconds start;
  Seconds last_seen;
};

ContactAnalysis analyze_contacts(const Trace& trace, double range) {
  ContactAnalysis out;
  out.range = range;
  const Seconds tau = trace.sampling_interval();

  std::unordered_map<PairKey, OpenContact> open;
  std::unordered_map<PairKey, Seconds> last_contact_end;
  std::map<AvatarId, Seconds> first_seen;
  std::map<AvatarId, Seconds> first_contact;

  const auto close_contact = [&](PairKey key, const OpenContact& contact) {
    const Seconds end = contact.last_seen + tau;
    const auto a = AvatarId{static_cast<std::uint32_t>(key >> 32)};
    const auto b = AvatarId{static_cast<std::uint32_t>(key & 0xffffffffu)};
    out.intervals.push_back({a, b, contact.start, end});
    out.contact_times.add(end - contact.start);
    if (const auto prev = last_contact_end.find(key); prev != last_contact_end.end()) {
      out.inter_contact_times.add(contact.start - prev->second);
    }
    last_contact_end[key] = end;
  };

  for (const auto& snap : trace.snapshots()) {
    for (const auto& fix : snap.fixes) {
      first_seen.try_emplace(fix.id, snap.time);
    }

    std::vector<Vec3> positions;
    positions.reserve(snap.fixes.size());
    for (const auto& fix : snap.fixes) positions.push_back(fix.pos);
    const Grid grid(positions, range);
    const auto pairs = grid.pairs_within();

    std::vector<PairKey> current;
    current.reserve(pairs.size());
    for (const auto& [i, j] : pairs) {
      const AvatarId a = snap.fixes[i].id;
      const AvatarId b = snap.fixes[j].id;
      const PairKey key = pair_key(a, b);
      current.push_back(key);
      auto [it, inserted] = open.try_emplace(key, OpenContact{snap.time, snap.time});
      if (!inserted) it->second.last_seen = snap.time;
      first_contact.try_emplace(a, snap.time);
      first_contact.try_emplace(b, snap.time);
    }
    std::sort(current.begin(), current.end());

    for (auto it = open.begin(); it != open.end();) {
      if (it->second.last_seen < snap.time &&
          !std::binary_search(current.begin(), current.end(), it->first)) {
        close_contact(it->first, it->second);
        it = open.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (const auto& [key, contact] : open) close_contact(key, contact);

  std::sort(out.intervals.begin(), out.intervals.end(),
            [](const ContactInterval& x, const ContactInterval& y) {
              return x.start < y.start;
            });

  out.users_seen = first_seen.size();
  out.users_with_contact = first_contact.size();
  for (const auto& [id, t_contact] : first_contact) {
    const Seconds t_seen = first_seen.at(id);
    const Seconds ft = t_contact - t_seen;
    out.first_contact_times.add(ft > 0.0 ? ft : tau / 2.0);
  }
  return out;
}

GraphMetrics analyze_graphs(const Trace& trace, double range) {
  GraphMetrics out;
  out.range = range;
  std::size_t isolated = 0;
  std::size_t degree_samples = 0;
  for (const auto& snap : trace.snapshots()) {
    if (snap.fixes.empty()) continue;
    const Graph graph(snap, range);
    for (std::size_t i = 0; i < graph.node_count(); ++i) {
      const auto deg = static_cast<double>(graph.degree(i));
      out.degrees.add(deg);
      ++degree_samples;
      if (graph.degree(i) == 0) ++isolated;
    }
    out.diameters.add(static_cast<double>(graph.largest_component_diameter()));
    out.clustering.add(graph.mean_clustering());
    ++out.snapshots_analyzed;
  }
  out.isolated_fraction =
      degree_samples == 0 ? 0.0
                          : static_cast<double>(isolated) / static_cast<double>(degree_samples);
  return out;
}

// Zone occupation on 20 m cells, every snapshot weighted 1 (the seed
// revision had neither coverage gaps nor rate correction).
ZoneAnalysis analyze_zones(const Trace& trace) {
  constexpr double kLand = kDefaultLandSize;
  ZoneAnalysis out;
  const auto side = static_cast<std::size_t>(std::ceil(kLand / out.cell_size));
  out.cells_per_side = side;
  out.mean_per_cell.assign(side * side, 0.0);
  std::vector<std::uint32_t> counts(side * side);
  std::size_t empty = 0;
  for (const auto& snap : trace.snapshots()) {
    std::fill(counts.begin(), counts.end(), 0);
    for (const auto& fix : snap.fixes) {
      const auto cell = [&](double v) {
        return std::min(static_cast<std::size_t>(std::clamp(v, 0.0, kLand - 1e-9) /
                                                 out.cell_size),
                        side - 1);
      };
      ++counts[cell(fix.pos.y) * side + cell(fix.pos.x)];
    }
    for (std::size_t c = 0; c < counts.size(); ++c) {
      out.occupancy.add(static_cast<double>(counts[c]));
      out.mean_per_cell[c] += static_cast<double>(counts[c]);
      out.max_occupancy = std::max<std::size_t>(out.max_occupancy, counts[c]);
      if (counts[c] == 0) ++empty;
    }
  }
  if (!out.occupancy.empty()) {
    out.empty_fraction =
        static_cast<double>(empty) / static_cast<double>(out.occupancy.size());
    for (auto& m : out.mean_per_cell) m /= static_cast<double>(trace.size());
  }
  return out;
}

// Per-session trip metrics over the whole trace's extracted sessions.
TripAnalysis analyze_trips(const Trace& trace) {
  const SessionExtractionOptions options;
  TripAnalysis out;
  const auto sessions = extract_sessions(trace, options);
  out.sessions = sessions.size();
  for (const auto& session : sessions) {
    const TripMetrics m = trip_metrics(session, options.movement_epsilon);
    out.travel_lengths.add(m.travel_length);
    out.effective_travel_times.add(m.effective_travel_time);
    out.travel_times.add(m.travel_time);
  }
  return out;
}

}  // namespace seed

// The seed pipeline: per-range contact and graph analyses each building
// their own per-snapshot grid, run back to back on one thread.
ExperimentResults legacy_analyze(const Trace& trace, const std::vector<double>& ranges) {
  ExperimentResults results;
  results.summary = trace.summary();
  for (const double r : ranges) {
    results.contacts.emplace(r, seed::analyze_contacts(trace, r));
    results.graphs.emplace(r, seed::analyze_graphs(trace, r));
  }
  results.zones = seed::analyze_zones(trace);
  results.trips = seed::analyze_trips(trace);
  return results;
}

bool same_ecdf(const Ecdf& a, const Ecdf& b) {
  const auto sa = a.sorted();
  const auto sb = b.sorted();
  if (sa.size() != sb.size()) return false;
  for (std::size_t i = 0; i < sa.size(); ++i) {
    if (sa[i] != sb[i]) return false;
  }
  return true;
}

bool same_results(const ExperimentResults& a, const ExperimentResults& b) {
  for (const auto& [r, ca] : a.contacts) {
    const auto& cb = b.contacts.at(r);
    if (ca.intervals.size() != cb.intervals.size()) return false;
    for (std::size_t i = 0; i < ca.intervals.size(); ++i) {
      if (ca.intervals[i].a != cb.intervals[i].a || ca.intervals[i].b != cb.intervals[i].b ||
          ca.intervals[i].start != cb.intervals[i].start ||
          ca.intervals[i].end != cb.intervals[i].end) {
        return false;
      }
    }
    if (!same_ecdf(ca.contact_times, cb.contact_times) ||
        !same_ecdf(ca.inter_contact_times, cb.inter_contact_times) ||
        !same_ecdf(ca.first_contact_times, cb.first_contact_times)) {
      return false;
    }
  }
  for (const auto& [r, ga] : a.graphs) {
    const auto& gb = b.graphs.at(r);
    if (!same_ecdf(ga.degrees, gb.degrees) || !same_ecdf(ga.diameters, gb.diameters) ||
        !same_ecdf(ga.clustering, gb.clustering) ||
        ga.isolated_fraction != gb.isolated_fraction) {
      return false;
    }
  }
  return same_ecdf(a.zones.occupancy, b.zones.occupancy) &&
         same_ecdf(a.trips.travel_lengths, b.trips.travel_lengths);
}

// Distribution-level equality against the seed pipeline: the streaming
// pipeline tie-breaks equal-start intervals differently, so compare interval multisets
// and sorted ECDF samples instead of raw sequences.
bool same_distributions(const ExperimentResults& a, const ExperimentResults& b) {
  const auto interval_key = [](const ContactInterval& x) {
    return std::make_tuple(x.start, x.end, x.a.value, x.b.value);
  };
  for (const auto& [r, ca] : a.contacts) {
    const auto it = b.contacts.find(r);
    if (it == b.contacts.end()) return false;
    const auto& cb = it->second;
    auto ia = ca.intervals;
    auto ib = cb.intervals;
    const auto by_key = [&](const ContactInterval& x, const ContactInterval& y) {
      return interval_key(x) < interval_key(y);
    };
    std::sort(ia.begin(), ia.end(), by_key);
    std::sort(ib.begin(), ib.end(), by_key);
    if (ia.size() != ib.size()) return false;
    for (std::size_t i = 0; i < ia.size(); ++i) {
      if (interval_key(ia[i]) != interval_key(ib[i])) return false;
    }
    if (!same_ecdf(ca.contact_times, cb.contact_times) ||
        !same_ecdf(ca.inter_contact_times, cb.inter_contact_times) ||
        !same_ecdf(ca.first_contact_times, cb.first_contact_times) ||
        ca.users_seen != cb.users_seen || ca.users_with_contact != cb.users_with_contact) {
      return false;
    }
  }
  for (const auto& [r, ga] : a.graphs) {
    const auto it = b.graphs.find(r);
    if (it == b.graphs.end()) return false;
    const auto& gb = it->second;
    if (!same_ecdf(ga.degrees, gb.degrees) || !same_ecdf(ga.diameters, gb.diameters) ||
        !same_ecdf(ga.clustering, gb.clustering) ||
        ga.isolated_fraction != gb.isolated_fraction) {
      return false;
    }
  }
  return same_ecdf(a.zones.occupancy, b.zones.occupancy) &&
         same_ecdf(a.trips.travel_lengths, b.trips.travel_lengths);
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions options = BenchOptions::parse(argc, argv);
  std::string out_path = "BENCH_analysis.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out_path = argv[i + 1];
  }
  print_title("Parallel analysis pipeline scaling (Isle of View, 10 m + 80 m)",
              "infrastructure bench (no paper figure)");

  // Collect the trace once; the simulation stays single-threaded and is not
  // part of the timed region.
  const ExperimentResults& base = land_results(LandArchetype::kIsleOfView, options);
  const Trace& trace = base.trace;
  const std::vector<double> ranges{kBluetoothRange, kWifiRange};
  std::printf("trace: %zu snapshots, %zu unique users, %.1f avg concurrent\n",
              trace.size(), base.summary.unique_users, base.summary.avg_concurrent);

  const auto t_legacy = std::chrono::steady_clock::now();
  const ExperimentResults legacy = legacy_analyze(trace, ranges);
  const double legacy_seconds = seconds_since(t_legacy);
  std::printf("%-24s %8.3f s\n", "legacy (seed pipeline)", legacy_seconds);

  std::vector<std::size_t> thread_counts{1, 2, 4};
  const std::size_t hw = std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
  const std::size_t default_threads = ThreadPool::default_concurrency();
  if (default_threads > 4) thread_counts.push_back(default_threads);

  struct Row {
    std::size_t threads;
    double seconds;
    bool identical;
    bool published;  // timing published only when threads <= hardware_concurrency
  };
  std::vector<Row> rows;
  double t1_seconds = 0.0;
  ExperimentResults reference;
  for (const std::size_t threads : thread_counts) {
    const auto t0 = std::chrono::steady_clock::now();
    ExperimentResults res = analyze_trace(trace, ranges, kDefaultLandSize, threads);
    const double elapsed = seconds_since(t0);
    bool identical = true;
    if (threads == thread_counts.front()) {
      t1_seconds = elapsed;
      reference = std::move(res);
    } else {
      identical = same_results(reference, res);
    }
    // Oversubscribed counts still run for the determinism check, but their
    // wall-clock is scheduler noise on this machine — a 4-thread "speedup"
    // of 0.96x on a 1-core runner is not a regression signal — so the JSON
    // records them as skipped instead of as timing rows.
    const bool published = threads <= hw;
    rows.push_back({threads, elapsed, identical, published});
    std::printf("%-24s %8.3f s   speedup vs legacy %5.2fx   identical %s%s\n",
                ("threads=" + std::to_string(threads)).c_str(), elapsed,
                elapsed > 0.0 ? legacy_seconds / elapsed : 0.0,
                identical ? "yes" : "NO",
                published ? "" : "   (timing skipped: exceeds hardware_concurrency)");
  }

  const bool all_identical =
      std::all_of(rows.begin(), rows.end(), [](const Row& r) { return r.identical; });
  if (!all_identical) {
    std::fprintf(stderr, "ERROR: results differ across thread counts\n");
  }
  const bool matches_seed = same_distributions(reference, legacy);
  if (!matches_seed) {
    std::fprintf(stderr, "ERROR: analysis pipeline distributions differ from seed pipeline\n");
  }

  std::string body;
  appendf(body, "{\n");
  appendf(body, "    \"land\": \"isle_of_view\",\n");
  appendf(body, "    \"hours\": %.3f,\n", options.hours);
  appendf(body, "    \"seed\": %llu,\n", static_cast<unsigned long long>(options.seed));
  appendf(body, "    \"snapshots\": %zu,\n", trace.size());
  appendf(body, "    \"unique_users\": %zu,\n", base.summary.unique_users);
  appendf(body, "    \"hardware_concurrency\": %zu,\n", hw);
  appendf(body, "    \"default_concurrency\": %zu,\n", default_threads);
  appendf(body, "    \"legacy_seconds\": %.6f,\n", legacy_seconds);
  appendf(body, "    \"deterministic_across_threads\": %s,\n",
          all_identical ? "true" : "false");
  appendf(body, "    \"matches_seed_distributions\": %s,\n",
          matches_seed ? "true" : "false");
  std::vector<const Row*> published;
  std::vector<const Row*> skipped;
  for (const Row& r : rows) (r.published ? published : skipped).push_back(&r);
  appendf(body, "    \"results\": [\n");
  for (std::size_t i = 0; i < published.size(); ++i) {
    const Row& r = *published[i];
    // Explicit ThreadPool(n) is never clamped, so requested == used.
    appendf(body,
            "      {\"threads\": %zu, \"threads_used\": %zu, \"seconds\": %.6f, "
            "\"speedup_vs_legacy\": %.3f, \"speedup_vs_1thread\": %.3f}%s\n",
            r.threads, r.threads, r.seconds,
            r.seconds > 0.0 ? legacy_seconds / r.seconds : 0.0,
            r.seconds > 0.0 ? t1_seconds / r.seconds : 0.0,
            i + 1 == published.size() ? "" : ",");
  }
  appendf(body, "    ],\n");
  appendf(body, "    \"skipped\": [\n");
  for (std::size_t i = 0; i < skipped.size(); ++i) {
    const Row& r = *skipped[i];
    appendf(body,
            "      {\"threads\": %zu, \"identical\": %s, "
            "\"reason\": \"exceeds hardware_concurrency (%zu)\"}%s\n",
            r.threads, r.identical ? "true" : "false", hw,
            i + 1 == skipped.size() ? "" : ",");
  }
  appendf(body, "    ]\n  }");
  update_bench_json(out_path, "parallel_scaling", body);
  std::printf("wrote %s\n", out_path.c_str());
  return (all_identical && matches_seed) ? 0 : 1;
}
