// Host speed probe. CMakeLists.txt compiles this file with fixed flags
// (-O2, generic x86-64), so the kernel is the same code on every host
// and build type: its readings are comparable only while that holds.

#include "speed_probe.hpp"

#include <sched.h>
#include <time.h>

#include <atomic>
#include <cstdint>
#include <thread>

namespace perfbench {
namespace {

std::atomic<std::uint64_t> g_sink{0};

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Thread-CPU nanoseconds per iteration of the kernel.
double kernel_ns(long iters) {
  std::uint64_t x[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  const double t0 = thread_cpu_s();
  for (long i = 0; i < iters; ++i)
    for (int k = 0; k < 8; ++k)
      x[k] = x[k] * 6364136223846793005ULL + (x[(k + 1) & 7] >> 7);
  const double t = thread_cpu_s() - t0;
  std::uint64_t s = 0;
  for (const std::uint64_t v : x) s ^= v;
  g_sink.fetch_xor(s, std::memory_order_relaxed);  // keeps the loop
  return t / static_cast<double>(iters) * 1e9;
}

}  // namespace

double probe_ns(const std::vector<int>& cpus) {
  constexpr long kIters = 20'000'000;
  std::vector<double> ns(cpus.size(), 0.0);
  std::vector<std::thread> threads;
  threads.reserve(cpus.size());
  const auto run = [&ns, &cpus](std::size_t i) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[i], &one);
    sched_setaffinity(0, sizeof one, &one);
    ns[i] = kernel_ns(kIters);
  };
  try {
    for (std::size_t i = 0; i < cpus.size(); ++i) threads.emplace_back(run, i);
  } catch (...) {
    for (std::thread& t : threads) t.join();
    throw;
  }
  for (std::thread& t : threads) t.join();
  double sum = 0.0;
  for (const double v : ns) sum += v;
  return sum / static_cast<double>(ns.size());
}

}  // namespace perfbench
