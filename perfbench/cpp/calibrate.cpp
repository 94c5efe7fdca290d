#include "calibrate.hpp"

#include <time.h>

#include <algorithm>
#include <cstdint>
#include <thread>
#include <unordered_map>
#include <vector>

#include "probe.hpp"

namespace perfbench {
namespace {

std::uint64_t xorshift(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

// One thread's share: about 85 ms of CPU time on a 2.1 GHz Xeon core.
std::uint64_t kernel(std::uint64_t seed) {
  std::uint64_t s = seed | 1;
  std::uint64_t acc = 0;

  // Sort: branchy compares over a vector that fits in L2.
  std::vector<std::uint32_t> keys(1u << 18);
  for (auto& k : keys) k = static_cast<std::uint32_t>(xorshift(s));
  std::sort(keys.begin(), keys.end());
  acc += keys[keys.size() / 2];

  // Hash map: node allocation and pointer chasing.
  std::unordered_map<std::uint64_t, std::uint64_t> map;
  for (int i = 0; i < 100000; ++i) map[xorshift(s) & 0xfffff] += static_cast<std::uint64_t>(i);
  for (int i = 0; i < 100000; ++i) {
    const auto it = map.find(xorshift(s) & 0xfffff);
    if (it != map.end()) acc += it->second;
  }

  // Dependent random reads in a 16 MiB table: memory latency.
  std::vector<std::uint32_t> table(1u << 22);
  for (std::size_t i = 0; i < table.size(); ++i) {
    table[i] = static_cast<std::uint32_t>(xorshift(s) & (table.size() - 1));
  }
  std::uint32_t at = 0;
  for (int i = 0; i < 400000; ++i) at = table[at];
  acc += at;

  // Floating point: a distance test per pair of points, as proximity does.
  double near = 0.0;
  for (int i = 0; i < 2000000; ++i) {
    const double dx = static_cast<double>(xorshift(s) & 0xffff) * 0x1p-8;
    const double dy = static_cast<double>(xorshift(s) & 0xffff) * 0x1p-8;
    near += dx * dx + dy * dy <= 6400.0 ? 1.0 : 0.0;
  }
  return acc + static_cast<std::uint64_t>(near);
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

double calibration_pass(std::size_t threads) {
  std::vector<std::uint64_t> sink(threads);
  std::vector<double> cpu(threads);
  const auto one = [&sink, &cpu](std::size_t i) {
    const double t0 = thread_cpu_s();
    sink[i] = kernel(i + 1);
    cpu[i] = thread_cpu_s() - t0;
  };
  std::vector<std::thread> pool;
  for (std::size_t i = 1; i < threads; ++i) pool.emplace_back(one, i);
  one(0);
  for (auto& t : pool) t.join();
  // Keep the work observable so the optimiser cannot drop it.
  volatile std::uint64_t keep = 0;
  double total = 0.0;
  for (std::size_t i = 0; i < threads; ++i) {
    keep = keep + sink[i];
    total += cpu[i];
  }
  return total / static_cast<double>(threads);
}

}  // namespace perfbench
