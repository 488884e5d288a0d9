// Build-variant policies for the Figure 17-20 sequential-overhead study.
//
// The paper measures SPEC int 95 under: `default` (plain compile),
// `default+thread` (thread library linked: thread-safe libc entry
// points), `st_inline` (postprocessed epilogues, inlining allowed) and
// `st` (postprocessed epilogues, inlining disabled).  We reproduce the
// *mechanism costs* on surrogate kernels:
//
//   * the epilogue augmentation cost -- the paper's "1 load, two
//     compares, two conditional branches" -- is modelled by
//     epilogue_check() (the Checked*Policy epilogue), executed at every
//     return of a non-leaf kernel function (the postprocessor's
//     augmentation criterion: leaves stay clean);
//   * the thread-library cost is modelled by routing the kernels'
//     allocations through a mutex (thread-safe malloc shim);
//   * the no-inline cost is realized for real: the TU instantiating the
//     NoInline policy is compiled with -fno-inline -fno-inline-functions.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <mutex>

namespace specsur {

/// Counters proving the checks actually executed (and were not optimized
/// out); read by tests.  Plain thread-local counters: the check itself
/// must cost what the paper's does (1 load, 2 compares, 2 branches, plus
/// one increment here), not an atomic RMW.
struct EpilogueCounters {
  std::uint64_t checks = 0;
  std::uint64_t retire_path = 0;
  std::uintptr_t max_e = 0;  // 0 = empty exported set
};
extern thread_local EpilogueCounters g_epilogue_counters;
inline EpilogueCounters& epilogue_counters() { return g_epilogue_counters; }

/// The augmented-epilogue cost: SP < FP < maxE, unsigned (Section 5.2).
/// In a sequential run the retire path is never taken; the cost is the
/// load + compares + branches.
inline void epilogue_check(const void* frame_marker) noexcept {
  auto& c = epilogue_counters();
  const std::uintptr_t max_e = c.max_e;  // 1 load (volatile-free but
                                         // opaque: c is extern state)
  const auto fp = reinterpret_cast<std::uintptr_t>(frame_marker);
  const auto sp = reinterpret_cast<std::uintptr_t>(&c);
  if (sp < fp && fp < max_e) {  // 2 compares, 2 branches
    ++c.retire_path;
  }
  ++c.checks;
}

/// `default`: no epilogue checks, direct allocation.
struct PlainPolicy {
  static void epilogue(const void*) noexcept {}
  static void* alloc(std::size_t n) { return std::malloc(n); }
  static void dealloc(void* p) noexcept { std::free(p); }
};

/// `default+thread`: thread-safe allocation entry points (the paper's
/// observation that linking the thread library redirects libc).
struct ThreadLibPolicy {
  static void epilogue(const void*) noexcept {}
  static void* alloc(std::size_t n) {
    std::lock_guard<std::mutex> g(mutex());
    return std::malloc(n);
  }
  static void dealloc(void* p) noexcept {
    std::lock_guard<std::mutex> g(mutex());
    std::free(p);
  }
  static std::mutex& mutex();
};

/// `st_inline`: epilogue checks on; this TU keeps normal inlining.
struct CheckedInlinePolicy {
  static void epilogue(const void* fm) noexcept { epilogue_check(fm); }
  static void* alloc(std::size_t n) { return ThreadLibPolicy::alloc(n); }
  static void dealloc(void* p) noexcept { ThreadLibPolicy::dealloc(p); }
};

/// `st`: epilogue checks on; the TU instantiating this policy is compiled
/// with -fno-inline -fno-inline-functions (see specsur/CMakeLists.txt).
struct CheckedNoInlinePolicy {
  static void epilogue(const void* fm) noexcept { epilogue_check(fm); }
  static void* alloc(std::size_t n) { return ThreadLibPolicy::alloc(n); }
  static void dealloc(void* p) noexcept { ThreadLibPolicy::dealloc(p); }
};

}  // namespace specsur
