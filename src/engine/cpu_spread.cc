#include "engine/cpu_spread.h"

#include <algorithm>
#include <atomic>
#include <cstddef>

#if defined(__linux__)
#include <sched.h>
#endif

namespace uclust::engine {

int SpreadCpu(const std::vector<int>& allowed, int here, unsigned slot) {
  const auto it = std::find(allowed.begin(), allowed.end(), here);
  if (it == allowed.end() || allowed.size() < 2) return -1;
  const std::size_t from = static_cast<std::size_t>(it - allowed.begin());
  const std::size_t step = 1 + slot % (allowed.size() - 1);
  return allowed[(from + step) % allowed.size()];
}

#if defined(__linux__)

int CpuForNewThread() {
  static std::atomic<unsigned> next_slot{0};
  cpu_set_t mask;
  if (sched_getaffinity(0, sizeof(mask), &mask) != 0) return -1;
  std::vector<int> allowed;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &mask)) allowed.push_back(c);
  }
  if (allowed.size() < 2) return -1;
  return SpreadCpu(allowed, sched_getcpu(),
                   next_slot.fetch_add(1, std::memory_order_relaxed));
}

void StartOnCpu(int cpu) {
  if (cpu < 0 || cpu >= CPU_SETSIZE) return;
  cpu_set_t previous;
  if (sched_getaffinity(0, sizeof(previous), &previous) != 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  // Narrowing the mask migrates the thread before the call returns.
  if (sched_setaffinity(0, sizeof(one), &one) != 0) return;
  sched_setaffinity(0, sizeof(previous), &previous);
}

#else

int CpuForNewThread() { return -1; }
void StartOnCpu(int) {}

#endif

}  // namespace uclust::engine
