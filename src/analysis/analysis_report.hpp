// The complete result of analyzing one trace, as a plain value.
//
// StreamingAnalyzer produces an AnalysisReport whichever route feeds it
// (analyze_trace's in-memory trace, a file, a live crawler), and every
// route must agree bit for bit on the same input — at any thread count and
// with the fingerprints pinned in the tests. analysis_diff explains the
// first mismatch in words; analysis_fingerprint condenses a report to a CRC
// so tests can pin it and forked bench processes can compare results
// across address spaces.
//
// Equality convention: Ecdfs compare by their sorted() sample sequence,
// bitwise. Sample *insertion* order is not part of the contract — contact
// extraction closes final contacts in hash-map order, so no reported
// quantity may depend on it (Ecdf::mean() is the only accessor that does,
// and nothing report-facing uses it).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "analysis/contacts.hpp"
#include "analysis/flights.hpp"
#include "analysis/graphs.hpp"
#include "analysis/relations.hpp"
#include "analysis/trips.hpp"
#include "analysis/zones.hpp"
#include "trace/trace.hpp"

namespace slmob {

struct AnalysisReport {
  TraceSummary summary;
  // Keyed by communication range; one entry per requested radius.
  std::map<double, ContactAnalysis> contacts;
  std::map<double, GraphMetrics> graphs;
  ZoneAnalysis zones;
  TripAnalysis trips;
  // Optional heavier analyses (off by default; StreamingOptions turns them on).
  std::optional<FlightAnalysis> flights;
  std::optional<RelationSummary> relations;
};

// Human-readable description of the first difference between two reports,
// or "" when they are equivalent. Scalars compare exactly (bitwise for
// doubles), Ecdfs by sorted sample sequence, interval/relation lists
// elementwise.
[[nodiscard]] std::string analysis_diff(const AnalysisReport& a, const AnalysisReport& b);

[[nodiscard]] inline bool analysis_equal(const AnalysisReport& a, const AnalysisReport& b) {
  return analysis_diff(a, b).empty();
}

// CRC-32 over a canonical serialization of the report (sorted Ecdf samples
// as raw f64 bits). Two reports are fingerprint-equal iff analysis_equal —
// up to CRC collision — which lets forked bench children compare results
// through tiny result files.
[[nodiscard]] std::uint32_t analysis_fingerprint(const AnalysisReport& report);

}  // namespace slmob
