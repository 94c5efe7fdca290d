// Empirical distributions.
//
// Every figure in the paper is a CDF or CCDF of some per-user or per-pair
// metric; Ecdf is the single representation behind all of them. Samples are
// kept sorted; evaluation is O(log n).
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace slmob {

struct EcdfPoint {
  double x{0.0};
  double y{0.0};  // F(x) for CDF output, 1 - F(x) for CCDF output
};

namespace detail {

// Growable sample array on malloc/realloc instead of std::vector. The
// allocator interface forbids realloc, so a growing vector always copies
// into a second live buffer — transiently doubling resident memory — and
// leaves the freed generation behind in the allocator. realloc lets glibc
// grow mmap-backed chunks with mremap (pages are retagged, never copied),
// which keeps a long accumulation's peak RSS at the size of the data it
// actually holds. This matters for the streaming analysis engine, whose
// whole-trace sample sets are the dominant term of its memory footprint.
class SampleBuf {
 public:
  SampleBuf() = default;
  explicit SampleBuf(const std::vector<double>& v) { append(v.data(), v.size()); }
  SampleBuf(const SampleBuf& other) { append(other.data_, other.size_); }
  SampleBuf(SampleBuf&& other) noexcept
      : data_(other.data_), size_(other.size_), cap_(other.cap_) {
    other.data_ = nullptr;
    other.size_ = 0;
    other.cap_ = 0;
  }
  SampleBuf& operator=(SampleBuf other) noexcept {
    swap(other);
    return *this;
  }
  ~SampleBuf();

  void swap(SampleBuf& other) noexcept {
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
    std::swap(cap_, other.cap_);
  }

  void push_back(double x) {
    if (size_ == cap_) grow(size_ + 1);
    data_[size_++] = x;
  }
  void append(const double* src, std::size_t n);
  void reserve(std::size_t n) {
    if (n > cap_) grow(n);
  }
  void clear() { size_ = 0; }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] double* begin() { return data_; }
  [[nodiscard]] double* end() { return data_ + size_; }
  [[nodiscard]] const double* begin() const { return data_; }
  [[nodiscard]] const double* end() const { return data_ + size_; }
  [[nodiscard]] double& operator[](std::size_t i) { return data_[i]; }
  [[nodiscard]] const double& operator[](std::size_t i) const { return data_[i]; }
  [[nodiscard]] double front() const { return data_[0]; }
  [[nodiscard]] double back() const { return data_[size_ - 1]; }

 private:
  void grow(std::size_t need);

  double* data_{nullptr};
  std::size_t size_{0};
  std::size_t cap_{0};
};

}  // namespace detail

class Ecdf {
 public:
  Ecdf() = default;
  explicit Ecdf(std::vector<double> samples);

  void add(double sample);
  // Appends another distribution's samples, preserving their insertion
  // order. Used to merge per-chunk partial results of a parallel analysis
  // back into snapshot order.
  void merge(const Ecdf& other);
  // Drops every sample but keeps the buffer's capacity, so a partial
  // distribution can be refilled without allocating.
  void clear();
  // Re-sorts after a batch of add() calls; called lazily by accessors.
  [[nodiscard]] std::size_t size() const { return samples_.size(); }
  [[nodiscard]] bool empty() const { return samples_.empty(); }

  // F(x) = P[X <= x].
  [[nodiscard]] double cdf(double x) const;
  // 1 - F(x) = P[X > x].
  [[nodiscard]] double ccdf(double x) const;
  // q-quantile for q in [0, 1]; q=0.5 is the median. Uses the lower
  // (inverse-CDF) convention. Throws std::logic_error when empty.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double mean() const;

  // Sorted view of the samples.
  [[nodiscard]] std::span<const double> sorted() const;
  // Pre-sizes the sample buffer (never shrinks).
  void reserve(std::size_t n);

  // Evaluates the CDF on `n` points linearly spaced over [min, max].
  [[nodiscard]] std::vector<EcdfPoint> cdf_series(std::size_t n) const;
  // Evaluates the CCDF on `n` points log-spaced over [max(min, lo_floor), max],
  // matching the paper's log-x CCDF plots.
  [[nodiscard]] std::vector<EcdfPoint> ccdf_log_series(std::size_t n, double lo_floor = 1.0) const;

 private:
  void ensure_sorted() const;
  mutable detail::SampleBuf samples_;
  mutable bool sorted_{true};
};

// Renders a series as "x<TAB>y" lines, used by bench binaries to emit
// figure data in a gnuplot-friendly form.
std::string format_series(const std::vector<EcdfPoint>& series);

}  // namespace slmob
