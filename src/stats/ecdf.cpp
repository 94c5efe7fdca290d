#include "stats/ecdf.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <new>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace slmob {
namespace detail {

SampleBuf::~SampleBuf() { std::free(data_); }

void SampleBuf::grow(std::size_t need) {
  std::size_t cap = cap_ == 0 ? 64 : cap_ * 2;
  if (cap < need) cap = need;
  auto* p = static_cast<double*>(std::realloc(data_, cap * sizeof(double)));
  if (p == nullptr) throw std::bad_alloc();
  data_ = p;
  cap_ = cap;
}

void SampleBuf::append(const double* src, std::size_t n) {
  if (n == 0) return;
  if (size_ + n > cap_) grow(size_ + n);
  std::memcpy(data_ + size_, src, n * sizeof(double));
  size_ += n;
}

}  // namespace detail

Ecdf::Ecdf(std::vector<double> samples)
    : samples_(samples), sorted_(false) {}

void Ecdf::add(double sample) {
  samples_.push_back(sample);
  sorted_ = false;
}

void Ecdf::merge(const Ecdf& other) {
  if (other.samples_.empty()) return;
  samples_.append(other.samples_.begin(), other.samples_.size());
  sorted_ = false;
}

void Ecdf::clear() {
  samples_.clear();
  sorted_ = true;
}

void Ecdf::reserve(std::size_t n) { samples_.reserve(n); }

void Ecdf::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double Ecdf::cdf(double x) const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  const auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
  return static_cast<double>(it - samples_.begin()) / static_cast<double>(samples_.size());
}

double Ecdf::ccdf(double x) const { return 1.0 - cdf(x); }

double Ecdf::quantile(double q) const {
  if (samples_.empty()) throw std::logic_error("Ecdf::quantile on empty distribution");
  ensure_sorted();
  if (q <= 0.0) return samples_.front();
  if (q >= 1.0) return samples_.back();
  const auto idx = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples_.size())) - 1.0);
  return samples_[std::min(idx, samples_.size() - 1)];
}

double Ecdf::min() const {
  if (samples_.empty()) throw std::logic_error("Ecdf::min on empty distribution");
  ensure_sorted();
  return samples_.front();
}

double Ecdf::max() const {
  if (samples_.empty()) throw std::logic_error("Ecdf::max on empty distribution");
  ensure_sorted();
  return samples_.back();
}

double Ecdf::mean() const {
  if (samples_.empty()) throw std::logic_error("Ecdf::mean on empty distribution");
  // Sum in sorted order: ensure_sorted() reorders samples_ lazily, so
  // summing insertion order would make mean() depend on whether a sorting
  // accessor (median/cdf/sorted) happened to run first — float addition is
  // not associative, and call order must never change a reported metric.
  ensure_sorted();
  // slmob-lint: allow(float-determinism/accumulate) -- summed in sorted (canonical) order, see comment above
  return std::accumulate(samples_.begin(), samples_.end(), 0.0) /
         static_cast<double>(samples_.size());
}

std::span<const double> Ecdf::sorted() const {
  ensure_sorted();
  return {samples_.begin(), samples_.size()};
}

std::vector<EcdfPoint> Ecdf::cdf_series(std::size_t n) const {
  std::vector<EcdfPoint> out;
  if (samples_.empty() || n < 2) return out;
  ensure_sorted();
  const double lo = samples_.front();
  const double hi = samples_.back();
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(n - 1);
    out.push_back({x, cdf(x)});
  }
  return out;
}

std::vector<EcdfPoint> Ecdf::ccdf_log_series(std::size_t n, double lo_floor) const {
  std::vector<EcdfPoint> out;
  if (samples_.empty() || n < 2) return out;
  ensure_sorted();
  const double lo = std::max(samples_.front(), lo_floor);
  const double hi = std::max(samples_.back(), lo * (1.0 + 1e-9));
  const double log_lo = std::log10(lo);
  const double log_hi = std::log10(hi);
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x =
        std::pow(10.0, log_lo + (log_hi - log_lo) * static_cast<double>(i) /
                                    static_cast<double>(n - 1));
    out.push_back({x, ccdf(x)});
  }
  return out;
}

std::string format_series(const std::vector<EcdfPoint>& series) {
  std::ostringstream os;
  for (const auto& p : series) os << p.x << '\t' << p.y << '\n';
  return os.str();
}

}  // namespace slmob
