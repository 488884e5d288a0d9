// Execution policies: the same divide-and-conquer kernels instantiated
// for sequential C++, StackThreads/MP, and cilkstyle.  Using one shared
// kernel per app guarantees all three variants perform bit-identical
// floating-point operations in the same per-element order, so checksums
// are directly comparable (what Figure 21 relies on when normalizing
// parallel codes against sequential C).
//
// `Exec::poll()` is the kernels' poll point (the paper's manually placed
// ST_POLLING(), Section 4.1): sequential leaves call it once per search
// node so a victim deep in fork-free work still serves steal requests.
// Only StExec polls; SeqExec and CkExec compile the call away, so the
// sequential-C and cilkstyle denominators keep the leaf code they had.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>

#include "cilk/cilkstyle.hpp"
#include "runtime/runtime.hpp"
#include "sync/join_counter.hpp"

namespace apps {

/// Runs all thunks on the calling thread, in order.
struct SeqExec {
  template <typename... F>
  static void par(F&&... fs) {
    (static_cast<void>(fs()), ...);
  }

  static void poll() {}

  template <typename Body>
  static void par_for(std::size_t begin, std::size_t end, std::size_t grain, Body&& body) {
    for (std::size_t i = begin; i < end; i += grain) {
      body(i, std::min(i + grain, end));
    }
  }
};

/// Forks every thunk as a fine-grain thread; joins before returning.
struct StExec {
  template <typename... F>
  static void par(F&&... fs) {
    constexpr int kN = sizeof...(fs);
    st::JoinCounter jc(kN);
    (st::fork([&fs, &jc] {
      fs();
      jc.finish();
    }),
     ...);
    jc.join();
  }

  static void poll() { st::poll(); }

  template <typename Body>
  static void par_for(std::size_t begin, std::size_t end, std::size_t grain, Body&& body) {
    st::JoinCounter jc;
    for (std::size_t i = begin; i < end; i += grain) {
      const std::size_t hi = std::min(i + grain, end);
      jc.add();
      st::fork([&body, i, hi, &jc] {
        body(i, hi);
        jc.finish();
      });
    }
    jc.join();
  }
};

/// Spawns every thunk as a heap task; helps until the group drains.
struct CkExec {
  template <typename... F>
  static void par(F&&... fs) {
    ck::SpawnGroup g;
    (g.spawn([&fs] { fs(); }), ...);
    g.sync();
  }

  /// Thieves take heap frames from the deque without the victim's help.
  static void poll() {}

  template <typename Body>
  static void par_for(std::size_t begin, std::size_t end, std::size_t grain, Body&& body) {
    ck::SpawnGroup g;
    for (std::size_t i = begin; i < end; i += grain) {
      const std::size_t hi = std::min(i + grain, end);
      g.spawn([&body, i, hi] { body(i, hi); });
    }
    g.sync();
  }
};

}  // namespace apps
