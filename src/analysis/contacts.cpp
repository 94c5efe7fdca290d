#include "analysis/contacts.hpp"

#include <algorithm>
#include <limits>

namespace slmob {
namespace {

using PairKey = std::uint64_t;

PairKey pair_key(AvatarId a, AvatarId b) {
  const auto lo = std::min(a.value, b.value);
  const auto hi = std::max(a.value, b.value);
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

constexpr Seconds kNoCap = std::numeric_limits<double>::infinity();

}  // namespace

ContactStream::ContactStream(double range, Seconds tau, const GapTracker& gaps)
    : tau_(tau), gaps_(&gaps) {
  out_.range = range;
}

void ContactStream::close_contact(std::uint64_t key, const OpenContact& contact,
                                  Seconds end_cap) {
  const Seconds end = std::min(contact.last_seen + tau_, end_cap);
  const auto a = AvatarId{static_cast<std::uint32_t>(key >> 32)};
  const auto b = AvatarId{static_cast<std::uint32_t>(key & 0xffffffffu)};
  out_.intervals.push_back({a, b, contact.start, end});
  out_.contact_times.add(end - contact.start);
  if (epochs_active_) interval_epochs_.push_back(censor_epoch_);
  if (sink_) sink_(out_.intervals.back());
}

// Censors all running observations at a coverage gap starting at `cap`:
// open contacts are truncated there (never bridged), the ICT chain is cut
// (an inter-contact time spanning unobserved time would be fabricated), and
// users still waiting for a first contact restart their FT clock if they
// reappear after the gap.
void ContactStream::censor_at_gap(Seconds cap) {
  if (!epochs_active_) {
    epochs_active_ = true;
    interval_epochs_.assign(out_.intervals.size(), 0);
  }
  std::vector<std::uint64_t> keys;
  keys.reserve(open_.size());
  for (const auto& [key, contact] : open_) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  for (const std::uint64_t key : keys) close_contact(key, open_.at(key), cap);
  open_.clear();
  ++censor_epoch_;
  for (auto it = first_seen_.begin(); it != first_seen_.end();) {
    if (first_contact_.find(it->first) == first_contact_.end()) {
      it = first_seen_.erase(it);
    } else {
      ++it;
    }
  }
}

// users_seen falls back to first_seen_ on a gap-free stream, so the
// covered-users set only needs maintaining once a gap exists. Until the
// first gap no censoring has happened, so first_seen_ still holds every
// user ever seen and can seed the set retroactively.
void ContactStream::seed_seen_ever() {
  for (const auto& [id, t] : first_seen_) seen_ever_.insert(id);
  seen_seeded_ = true;
}

void ContactStream::on_snapshot(const Snapshot& snap, const PairList& pairs) {
  if (!seen_seeded_ && gaps_->any()) seed_seen_ever();
  if (have_prev_ && gaps_->spans_gap(prev_time_, snap.time)) {
    censor_at_gap(gaps_->next_gap_start(prev_time_));
  }
  have_prev_ = true;
  prev_time_ = snap.time;
  if (seen_seeded_) {
    for (const auto& fix : snap.fixes) seen_ever_.insert(fix.id);
  }
  for (const auto& fix : snap.fixes) {
    first_seen_.try_emplace(fix.id, snap.time);
  }

  current_.clear();
  current_.reserve(pairs.size());
  for (const auto& [i, j] : pairs) {
    const AvatarId a = snap.fixes[i].id;
    const AvatarId b = snap.fixes[j].id;
    const std::uint64_t key = pair_key(a, b);
    current_.push_back(key);
    auto [it, inserted] = open_.try_emplace(key, OpenContact{snap.time, snap.time});
    if (!inserted) it->second.last_seen = snap.time;
    first_contact_.try_emplace(a, snap.time);
    first_contact_.try_emplace(b, snap.time);
  }
  std::sort(current_.begin(), current_.end());

  for (auto it = open_.begin(); it != open_.end();) {
    if (it->second.last_seen < snap.time &&
        !std::binary_search(current_.begin(), current_.end(), it->first)) {
      close_contact(it->first, it->second, kNoCap);
      it = open_.erase(it);
    } else {
      ++it;
    }
  }
}

// Emits one ICT sample per consecutive pair of same-pair intervals whose
// censoring epochs match (see the header note). Per pair, closure order is
// chronological, so ordering intervals by (pair, start) recovers the
// chains; the samples land in the distribution in pair order rather than
// time order, which is invisible — every consumer of an Ecdf reads it
// sorted.
void ContactStream::derive_inter_contact_times() {
  auto& intervals = out_.intervals;
  if (intervals.size() < 2) return;
  const auto by_pair_then_start = [](const ContactInterval& x, const ContactInterval& y) {
    return std::tie(x.a.value, x.b.value, x.start) <
           std::tie(y.a.value, y.b.value, y.start);
  };
  if (!epochs_active_) {
    // No censor ever fired: every consecutive pair of contacts chains, and
    // the intervals can be sorted in place (finish() re-sorts them into
    // output order right after). This is the whole-trace common case, kept
    // free of scratch allocations on purpose: the streaming engine's peak
    // memory on a gap-free day-long trace is measured by the benchmark.
    std::sort(intervals.begin(), intervals.end(), by_pair_then_start);
    for (std::size_t i = 1; i < intervals.size(); ++i) {
      const ContactInterval& prev = intervals[i - 1];
      const ContactInterval& cur = intervals[i];
      if (prev.a == cur.a && prev.b == cur.b) {
        out_.inter_contact_times.add(cur.start - prev.end);
      }
    }
    return;
  }
  // Censored stream: epochs are recorded per closure index, so sort an
  // index view instead of the intervals themselves.
  std::vector<std::uint32_t> order(intervals.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::uint32_t x, std::uint32_t y) {
    return by_pair_then_start(intervals[x], intervals[y]);
  });
  for (std::size_t i = 1; i < order.size(); ++i) {
    const ContactInterval& prev = intervals[order[i - 1]];
    const ContactInterval& cur = intervals[order[i]];
    if (prev.a == cur.a && prev.b == cur.b &&
        interval_epochs_[order[i - 1]] == interval_epochs_[order[i]]) {
      out_.inter_contact_times.add(cur.start - prev.end);
    }
  }
}

ContactAnalysis ContactStream::finish() {
  // A trailing gap (journal salvage) may arrive after the last snapshot.
  if (!seen_seeded_ && gaps_->any()) seed_seen_ever();
  Seconds final_cap = kNoCap;
  if (gaps_->any() && have_prev_ && !gaps_->covered_at(prev_time_ + tau_)) {
    final_cap = gaps_->next_gap_start(prev_time_);
  }
  for (const auto& [key, contact] : open_) close_contact(key, contact, final_cap);
  open_.clear();

  derive_inter_contact_times();
  std::sort(out_.intervals.begin(), out_.intervals.end(),
            [](const ContactInterval& x, const ContactInterval& y) {
              return std::tie(x.start, x.a.value, x.b.value) <
                     std::tie(y.start, y.a.value, y.b.value);
            });

  out_.users_seen = gaps_->any() ? seen_ever_.size() : first_seen_.size();
  out_.users_with_contact = first_contact_.size();
  std::vector<Seconds> first_contact_samples;
  first_contact_samples.reserve(first_contact_.size());
  for (const auto& [id, t_contact] : first_contact_) {
    const Seconds t_seen = first_seen_.at(id);
    const Seconds ft = t_contact - t_seen;
    first_contact_samples.push_back(ft > 0.0 ? ft : tau_ / 2.0);
  }
  std::sort(first_contact_samples.begin(), first_contact_samples.end());
  for (const Seconds ft : first_contact_samples) out_.first_contact_times.add(ft);
  return std::move(out_);
}

}  // namespace slmob
