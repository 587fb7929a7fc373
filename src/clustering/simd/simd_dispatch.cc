// Runtime dispatch for the SIMD kernel layer. The active table is one
// process-global atomic pointer, resolved lazily to the best compiled-and-
// supported path; ForceIsa repoints it. Lock-free on the hot path: Active()
// is a relaxed load plus one branch that only ever takes the slow path on
// first use.
#include "clustering/simd/simd.h"

#include <atomic>

namespace uclust::clustering::simd {

namespace {

bool CpuHasAvx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

std::atomic<const KernelTable*> g_active{nullptr};
std::atomic<Isa> g_active_isa{Isa::kScalar};

}  // namespace

const KernelTable* TableFor(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return ScalarTable();
    case Isa::kAvx2:
      // Compiled in AND executable here: a table whose code the CPU cannot
      // run must be unreachable, even for tests poking paths directly.
      return CpuHasAvx2() ? Avx2Table() : nullptr;
    case Isa::kAuto:
      return TableFor(DetectBestIsa());
  }
  return nullptr;
}

Isa DetectBestIsa() {
  if (CpuHasAvx2() && Avx2Table() != nullptr) return Isa::kAvx2;
  return Isa::kScalar;
}

bool ForceIsa(Isa isa) {
  const Isa resolved = isa == Isa::kAuto ? DetectBestIsa() : isa;
  const KernelTable* table = TableFor(resolved);
  if (table == nullptr) return false;
  // Table first, then the name: a racing Active() sees a valid table either
  // way, and ActiveIsa is informational (all tables agree on values).
  g_active.store(table, std::memory_order_release);
  g_active_isa.store(resolved, std::memory_order_release);
  return true;
}

Isa ActiveIsa() {
  if (g_active.load(std::memory_order_acquire) == nullptr) ForceIsa(Isa::kAuto);
  return g_active_isa.load(std::memory_order_acquire);
}

const KernelTable& Active() {
  const KernelTable* t = g_active.load(std::memory_order_relaxed);
  if (t == nullptr) {
    ForceIsa(Isa::kAuto);
    t = g_active.load(std::memory_order_relaxed);
  }
  return *t;
}

std::string IsaName(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kAuto:
      return "auto";
  }
  return "scalar";
}

bool IsaFromString(const std::string& name, Isa* isa) {
  if (name == "scalar") {
    *isa = Isa::kScalar;
  } else if (name == "avx2") {
    *isa = Isa::kAvx2;
  } else if (name == "auto") {
    *isa = Isa::kAuto;
  } else {
    return false;
  }
  return true;
}

}  // namespace uclust::clustering::simd
