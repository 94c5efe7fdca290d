// Contact-opportunity analysis (§3.1 of the paper).
//
// Given a sampled trace and a communication range r, a contact between two
// users is a maximal run of consecutive snapshots in which their distance is
// <= r. Because the trace is sampled every tau seconds, a contact observed
// in snapshots [t_s .. t_e] is credited duration (t_e - t_s) + tau: a pair
// seen together exactly once was in range for at least one sampling period.
//
// Metrics produced:
//  * CT  — contact time: duration of each contact interval;
//  * ICT — inter-contact time: gap between consecutive contacts of the same
//          pair (start_{k+1} - end_k);
//  * FT  — first contact time: per user, the wait between its first
//          appearance in the trace and its first contact with anyone
//          (users that never have a contact are excluded, i.e. censored).
//
// Coverage gaps: when the trace records crawler coverage gaps, every metric
// is censored at gap edges — contacts running into a gap are truncated at
// the gap start (never bridged across it), no ICT sample spans a gap, and
// users awaiting a first contact restart their FT observation after the gap.
// Gap-free traces are analyzed exactly as before, bit for bit.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "stats/ecdf.hpp"
#include "trace/stream.hpp"
#include "trace/trace.hpp"

namespace slmob {

// A closed contact interval between a pair of users (a.value < b.value).
struct ContactInterval {
  AvatarId a;
  AvatarId b;
  Seconds start{0.0};
  Seconds end{0.0};

  [[nodiscard]] Seconds duration() const { return end - start; }
};

struct ContactAnalysis {
  double range{0.0};
  std::vector<ContactInterval> intervals;  // time-ordered by start
  Ecdf contact_times;
  Ecdf inter_contact_times;
  Ecdf first_contact_times;
  std::size_t users_seen{0};
  std::size_t users_with_contact{0};
};

// Contact extraction over a snapshot stream: feed every covered snapshot
// (empty ones too — absence is what closes contacts) with its in-range pair
// list, in time order, and call finish() once. A pair unobserved (either
// user absent from a snapshot) is out of contact; no gap tolerance is
// applied — the conservative reading of the paper's definition. Censoring
// reads the shared GapTracker, which by the stream ordering contract
// already holds every gap relevant to the snapshot being processed, so the
// result equals censoring against the completed trace's gap list (with no
// gaps tracked, the censor branches never fire).
class ContactStream {
 public:
  using PairList = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

  ContactStream(double range, Seconds tau, const GapTracker& gaps);

  // Optional: observe every contact interval as it closes (closure order;
  // per pair this is chronological). Used to chain relation analysis.
  void set_interval_sink(std::function<void(const ContactInterval&)> sink) {
    sink_ = std::move(sink);
  }

  void on_snapshot(const Snapshot& snapshot, const PairList& pairs);
  [[nodiscard]] ContactAnalysis finish();

 private:
  struct OpenContact {
    Seconds start;
    Seconds last_seen;
  };
  void close_contact(std::uint64_t key, const OpenContact& contact, Seconds end_cap);
  void censor_at_gap(Seconds cap);
  void derive_inter_contact_times();

  Seconds tau_;
  const GapTracker* gaps_;
  std::function<void(const ContactInterval&)> sink_;
  ContactAnalysis out_;
  std::unordered_map<std::uint64_t, OpenContact> open_;
  std::unordered_map<AvatarId, Seconds> first_seen_;
  std::unordered_map<AvatarId, Seconds> first_contact_;
  std::unordered_set<AvatarId> seen_ever_;
  std::vector<std::uint64_t> current_;  // scratch: this snapshot's pair keys
  // ICT is derived at finish() from consecutive intervals of the same pair
  // instead of a per-pair "end of previous contact" map — that map holds an
  // entry for every pair that ever met and would be the largest non-output
  // allocation on a day-long trace. The rule "a gap cuts the ICT chain" is
  // kept by a censoring epoch: every censor bumps it, every interval
  // records the epoch of its closure, and consecutive contacts of a pair
  // chain only when their epochs match. An interval closed by the censor
  // itself records the pre-bump epoch, so it can never chain forward.
  // Epoch storage is allocated lazily at the first censor; a gap-free
  // stream (no censors, every pair chains) records nothing.
  std::uint32_t censor_epoch_{0};
  std::vector<std::uint32_t> interval_epochs_;
  bool epochs_active_{false};
  void seed_seen_ever();
  bool seen_seeded_{false};
  bool have_prev_{false};
  Seconds prev_time_{0.0};
};

}  // namespace slmob
