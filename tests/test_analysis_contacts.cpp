#include "analysis/contacts.hpp"

#include <gtest/gtest.h>

#include "core/experiment.hpp"

namespace slmob {
namespace {

// Contact extraction of a whole trace through the analysis pipeline.
ContactAnalysis contacts_of(const Trace& trace, double range) {
  return analyze_trace(Trace(trace), {range}, kDefaultLandSize, 1).contacts.at(range);
}

// Builds a trace where avatar positions are given per snapshot; absent
// entries mean the avatar is offline.
struct TraceBuilder {
  Trace trace{"t", 10.0};
  Seconds now{0.0};

  TraceBuilder& snap(std::initializer_list<std::pair<std::uint32_t, double>> users) {
    Snapshot s;
    s.time = now;
    now += 10.0;
    for (const auto& [id, x] : users) s.fixes.push_back({AvatarId{id}, {x, 0.0, 22.0}});
    trace.add(std::move(s));
    return *this;
  }
};

TEST(Contacts, SingleSnapshotContactGetsTauDuration) {
  TraceBuilder b;
  b.snap({{1, 0.0}, {2, 5.0}});   // in range at r=10
  b.snap({{1, 0.0}, {2, 50.0}});  // out of range
  const auto analysis = contacts_of(b.trace, 10.0);
  ASSERT_EQ(analysis.intervals.size(), 1u);
  EXPECT_DOUBLE_EQ(analysis.intervals[0].duration(), 10.0);
  EXPECT_DOUBLE_EQ(analysis.contact_times.median(), 10.0);
}

TEST(Contacts, MultiSnapshotContactDuration) {
  TraceBuilder b;
  for (int i = 0; i < 5; ++i) b.snap({{1, 0.0}, {2, 5.0}});  // 5 snapshots together
  b.snap({{1, 0.0}, {2, 100.0}});
  const auto analysis = contacts_of(b.trace, 10.0);
  ASSERT_EQ(analysis.intervals.size(), 1u);
  // Seen together t=0..40; credited 40 + tau = 50.
  EXPECT_DOUBLE_EQ(analysis.intervals[0].duration(), 50.0);
}

TEST(Contacts, ContactOpenAtTraceEndIsClosed) {
  TraceBuilder b;
  b.snap({{1, 0.0}, {2, 5.0}});
  b.snap({{1, 0.0}, {2, 5.0}});
  const auto analysis = contacts_of(b.trace, 10.0);
  ASSERT_EQ(analysis.intervals.size(), 1u);
  EXPECT_DOUBLE_EQ(analysis.intervals[0].start, 0.0);
  EXPECT_DOUBLE_EQ(analysis.intervals[0].end, 20.0);
}

TEST(Contacts, InterContactTime) {
  TraceBuilder b;
  b.snap({{1, 0.0}, {2, 5.0}});    // contact 1: t=0, ends t=10
  b.snap({{1, 0.0}, {2, 100.0}});  // apart
  b.snap({{1, 0.0}, {2, 100.0}});  // apart
  b.snap({{1, 0.0}, {2, 5.0}});    // contact 2 starts t=30
  const auto analysis = contacts_of(b.trace, 10.0);
  ASSERT_EQ(analysis.inter_contact_times.size(), 1u);
  // ICT = start2 - end1 = 30 - 10 = 20.
  EXPECT_DOUBLE_EQ(analysis.inter_contact_times.median(), 20.0);
}

TEST(Contacts, AvatarLogoutClosesContact) {
  TraceBuilder b;
  b.snap({{1, 0.0}, {2, 5.0}});
  b.snap({{1, 0.0}});  // avatar 2 gone
  b.snap({{1, 0.0}, {2, 5.0}});
  const auto analysis = contacts_of(b.trace, 10.0);
  EXPECT_EQ(analysis.intervals.size(), 2u);
  EXPECT_EQ(analysis.inter_contact_times.size(), 1u);
}

TEST(Contacts, FirstContactTimes) {
  TraceBuilder b;
  b.snap({{1, 0.0}, {2, 100.0}});  // both appear, no contact
  b.snap({{1, 0.0}, {2, 100.0}});
  b.snap({{1, 0.0}, {2, 5.0}});    // first contact at t=20
  const auto analysis = contacts_of(b.trace, 10.0);
  ASSERT_EQ(analysis.first_contact_times.size(), 2u);
  EXPECT_DOUBLE_EQ(analysis.first_contact_times.median(), 20.0);
  EXPECT_EQ(analysis.users_seen, 2u);
  EXPECT_EQ(analysis.users_with_contact, 2u);
}

TEST(Contacts, ImmediateContactGetsHalfTau) {
  TraceBuilder b;
  b.snap({{1, 0.0}, {2, 5.0}});  // in contact at first sighting
  const auto analysis = contacts_of(b.trace, 10.0);
  ASSERT_EQ(analysis.first_contact_times.size(), 2u);
  EXPECT_DOUBLE_EQ(analysis.first_contact_times.median(), 5.0);
}

TEST(Contacts, UsersWithoutContactAreCensored) {
  TraceBuilder b;
  b.snap({{1, 0.0}, {2, 100.0}, {3, 200.0}});
  b.snap({{1, 0.0}, {2, 3.0}, {3, 200.0}});
  const auto analysis = contacts_of(b.trace, 10.0);
  EXPECT_EQ(analysis.users_seen, 3u);
  EXPECT_EQ(analysis.users_with_contact, 2u);
  EXPECT_EQ(analysis.first_contact_times.size(), 2u);
}

TEST(Contacts, RangeMatters) {
  TraceBuilder b;
  b.snap({{1, 0.0}, {2, 50.0}});
  b.snap({{1, 0.0}, {2, 50.0}});
  EXPECT_EQ(contacts_of(b.trace, 10.0).intervals.size(), 0u);
  EXPECT_EQ(contacts_of(b.trace, 80.0).intervals.size(), 1u);
}

TEST(Contacts, ThreeUsersPairwiseContacts) {
  TraceBuilder b;
  b.snap({{1, 0.0}, {2, 5.0}, {3, 8.0}});
  const auto analysis = contacts_of(b.trace, 10.0);
  // Pairs (1,2), (2,3), (1,3) all within 10.
  EXPECT_EQ(analysis.intervals.size(), 3u);
}

TEST(Contacts, IntervalsSortedByStart) {
  TraceBuilder b;
  b.snap({{1, 0.0}, {2, 5.0}, {3, 100.0}});
  b.snap({{1, 0.0}, {2, 50.0}, {3, 4.0}});
  b.snap({{1, 0.0}, {2, 50.0}, {3, 4.0}});
  const auto analysis = contacts_of(b.trace, 10.0);
  for (std::size_t i = 1; i < analysis.intervals.size(); ++i) {
    EXPECT_LE(analysis.intervals[i - 1].start, analysis.intervals[i].start);
  }
}

TEST(Contacts, EmptyTrace) {
  const Trace t("x", 10.0);
  const auto analysis = contacts_of(t, 10.0);
  EXPECT_TRUE(analysis.intervals.empty());
  EXPECT_EQ(analysis.users_seen, 0u);
}

TEST(Contacts, PairKeyCanonicalOrder) {
  TraceBuilder b;
  b.snap({{7, 0.0}, {3, 5.0}});
  const auto analysis = contacts_of(b.trace, 10.0);
  ASSERT_EQ(analysis.intervals.size(), 1u);
  EXPECT_LT(analysis.intervals[0].a.value, analysis.intervals[0].b.value);
}

TEST(ContactsCensoring, ContactTruncatedAtGapStartNeverBridged) {
  TraceBuilder b;
  b.snap({{1, 0.0}, {2, 5.0}});  // t=0, in contact
  b.snap({{1, 0.0}, {2, 5.0}});  // t=10
  b.snap({{1, 0.0}, {2, 5.0}});  // t=20
  b.trace.add_gap(30.0, 60.0);
  b.now = 60.0;
  b.snap({{1, 0.0}, {2, 5.0}});  // t=60, still in contact after the gap
  b.snap({{1, 0.0}, {2, 5.0}});  // t=70
  const auto analysis = contacts_of(b.trace, 10.0);
  // One contact per covered segment, not one bridged contact.
  ASSERT_EQ(analysis.intervals.size(), 2u);
  EXPECT_DOUBLE_EQ(analysis.intervals[0].start, 0.0);
  EXPECT_DOUBLE_EQ(analysis.intervals[0].end, 30.0);  // capped at gap start
  EXPECT_DOUBLE_EQ(analysis.intervals[1].start, 60.0);
  EXPECT_DOUBLE_EQ(analysis.intervals[1].end, 80.0);
  // And the pause between them is unobserved, so it yields no ICT sample.
  EXPECT_EQ(analysis.inter_contact_times.size(), 0u);
}

TEST(ContactsCensoring, InterContactChainCutAtGap) {
  TraceBuilder b;
  b.snap({{1, 0.0}, {2, 5.0}});    // contact ends t=0+tau
  b.snap({{1, 0.0}, {2, 100.0}});  // apart at t=10
  b.trace.add_gap(20.0, 40.0);
  b.now = 40.0;
  b.snap({{1, 0.0}, {2, 5.0}});    // t=40: would be ICT=30 if bridged
  b.snap({{1, 0.0}, {2, 100.0}});  // apart at t=50 (contact ends t=50)
  b.snap({{1, 0.0}, {2, 100.0}});  // t=60
  b.snap({{1, 0.0}, {2, 5.0}});    // t=70: same-segment ICT = 70 - 50 = 20
  const auto analysis = contacts_of(b.trace, 10.0);
  ASSERT_EQ(analysis.inter_contact_times.size(), 1u);
  EXPECT_DOUBLE_EQ(analysis.inter_contact_times.median(), 20.0);
}

TEST(ContactsCensoring, FirstContactClockRestartsAfterGap) {
  TraceBuilder b;
  b.snap({{1, 0.0}, {2, 100.0}});  // both appear, no contact
  b.snap({{1, 0.0}, {2, 100.0}});
  b.trace.add_gap(20.0, 50.0);
  b.now = 50.0;
  b.snap({{1, 0.0}, {2, 5.0}});  // first contact right after the gap
  const auto analysis = contacts_of(b.trace, 10.0);
  ASSERT_EQ(analysis.first_contact_times.size(), 2u);
  // The pre-gap wait is censored: both users restart observation at t=50 and
  // are in contact immediately, so FT is the half-tau credit, not 50 s.
  EXPECT_DOUBLE_EQ(analysis.first_contact_times.median(), 5.0);
  EXPECT_EQ(analysis.users_seen, 2u);
}

TEST(ContactsCensoring, UncoveredSnapshotsAreIgnored) {
  TraceBuilder b;
  b.snap({{1, 0.0}, {2, 5.0}});  // t=0
  b.snap({{3, 0.0}, {4, 5.0}});  // t=10: inside the gap — bogus data
  b.trace.add_gap(5.0, 15.0);
  b.now = 20.0;
  b.snap({{1, 0.0}, {2, 5.0}});  // t=20
  const auto analysis = contacts_of(b.trace, 10.0);
  EXPECT_EQ(analysis.users_seen, 2u);  // avatars 3 and 4 were never observed
  for (const auto& interval : analysis.intervals) {
    EXPECT_LE(interval.b.value, 2u);
    EXPECT_FALSE(b.trace.spans_gap(interval.start, interval.end));
  }
}

}  // namespace
}  // namespace slmob
