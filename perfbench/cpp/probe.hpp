// Measurement probes shared by the benchmark's untraced and traced runs:
// monotonic wall time, process CPU time, per-run peak RSS, on-disk bytes and
// file CRCs. Everything here observes the program from outside; nothing is
// read from the library's own counters.
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/bytes.hpp"
#include "util/sysinfo.hpp"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double ns_to_s(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

// User + system CPU seconds of the whole process (every thread, live or
// exited).
inline double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

// Accumulates wall and CPU time over one or more segments, so untimed
// bookkeeping (digests, fingerprints) can sit between timed segments.
class Meter {
 public:
  void start() {
    wall0_ = now_ns();
    cpu0_ = process_cpu_s();
  }
  void stop() {
    wall_ns_ += now_ns() - wall0_;
    cpu_s_ += process_cpu_s() - cpu0_;
  }
  [[nodiscard]] double wall_s() const { return ns_to_s(wall_ns_); }
  [[nodiscard]] double cpu_s() const { return cpu_s_; }

 private:
  std::int64_t wall0_{0};
  double cpu0_{0.0};
  std::int64_t wall_ns_{0};
  double cpu_s_{0.0};
};

inline double peak_rss_mib() {
  return static_cast<double>(slmob::peak_rss_bytes()) / (1024.0 * 1024.0);
}

// Bytes of trace artefacts (.slt, .sltj, .slck) under `dir`, recursively.
inline std::uint64_t artefact_bytes(const std::string& dir) {
  namespace fs = std::filesystem;
  std::uint64_t total = 0;
  if (!fs::exists(dir)) return 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (!e.is_regular_file()) continue;
    const std::string ext = e.path().extension().string();
    if (ext == ".slt" || ext == ".sltj" || ext == ".slck") total += e.file_size();
  }
  return total;
}

inline std::vector<std::uint8_t> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("perfbench: cannot read " + path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// CRC-32 over the concatenated contents of `paths`.
inline std::uint32_t files_crc(const std::vector<std::string>& paths) {
  std::vector<std::uint8_t> all;
  for (const auto& p : paths) {
    const auto b = read_bytes(p);
    all.insert(all.end(), b.begin(), b.end());
  }
  return slmob::crc32(all);
}

}  // namespace perfbench
