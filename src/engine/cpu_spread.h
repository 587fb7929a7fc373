// Start placement for long-lived worker threads.
//
// A new thread starts on its creator's CPU. A kernel that balances load
// moves it within milliseconds once both are busy; where the kernel does
// not (CPUs outside every scheduler domain, as in a cpuset with
// sched_load_balance = 0), all of a pool's threads can stay on that one
// CPU for a second or more while the others idle. The service's executor
// lanes did exactly that after a restart: they shared the caller's CPU
// and ran 2-3x slower until the kernel spread them.
//
// So the compute threads (ThreadPool workers and the service's executor
// holder lane) take a start CPU from CpuForNewThread() before they are
// created and move there with StartOnCpu() as their first act. The
// affinity goes back to the full set at once, so this is a start position,
// not a pin: the scheduler stays free to move the thread later. The HTTP
// workers are left where they start: they mostly wake on the creator's
// requests, and placing them elsewhere made each wake-up cross CPUs (the
// service's start-and-register time rose by about a quarter). Placement
// changes timing only; no result depends on it.
#ifndef UCLUST_ENGINE_CPU_SPREAD_H_
#define UCLUST_ENGINE_CPU_SPREAD_H_

#include <vector>

namespace uclust::engine {

/// The start CPU of the `slot`-th thread created from CPU `here`: the
/// `allowed` CPUs (ascending) other than `here`, taken in order from the
/// first one after `here`, wrapping around, one per slot. -1 when `here` is
/// not in `allowed` or no other CPU is.
int SpreadCpu(const std::vector<int>& allowed, int here, unsigned slot);

/// SpreadCpu over the calling thread's allowed CPUs and current CPU, with
/// a process-wide slot counter, so the threads one caller starts in a row
/// begin on distinct CPUs other than its own. Call it in the creating
/// thread. -1 where there is no choice or no affinity API.
int CpuForNewThread();

/// Moves the calling thread onto `cpu`, then restores its previous
/// affinity. A no-op for cpu < 0 or when an affinity call fails.
void StartOnCpu(int cpu);

}  // namespace uclust::engine

#endif  // UCLUST_ENGINE_CPU_SPREAD_H_
