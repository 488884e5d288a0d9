// Primitive probes: the per-operation price of each runtime layer, taken
// through its public API (the same primitives bench_micro_primitives
// prices, here as medians of short batches).
#include <atomic>
#include <memory>
#include <thread>

#include "runtime/context.hpp"
#include "runtime/runtime.hpp"
#include "runtime/stacklet.hpp"
#include "sync/join_counter.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

constexpr int kBatches = 15;

/// Median over kBatches of the mean nanoseconds per call of `op` in a
/// batch of `per_batch` calls.
template <typename Op>
double ns_per_op(long per_batch, Op&& op) {
  Samples s;
  for (int b = 0; b < kBatches; ++b) {
    const double t0 = now_s();
    for (long i = 0; i < per_batch; ++i) op();
    s.add((now_s() - t0) * 1e9 / static_cast<double>(per_batch));
  }
  return s.median();
}

struct PingPong {
  st::MachineContext main_ctx, coro_ctx;
};

void pingpong_entry(void* msg, void* arg) {
  st::run_switch_msg(static_cast<st::SwitchMsg*>(msg));
  auto* pp = static_cast<PingPong*>(arg);
  for (;;) st::ctx_swap(pp->coro_ctx, pp->main_ctx.sp, nullptr);
}

double context_swap_ns() {
  constexpr std::size_t kStack = 64 * 1024;
  PingPong pp;
  auto stack = std::make_unique<char[]>(kStack);
  void* sp = st::st_ctx_prepare(stack.get(), kStack, &pingpong_entry, &pp);
  st::ctx_swap(pp.main_ctx, sp, nullptr);
  // One round trip is two swaps.
  return ns_per_op(200000, [&] { st::ctx_swap(pp.main_ctx, pp.coro_ctx.sp, nullptr); }) /
         2;
}

double stacklet_alloc_release_ns() {
  st::StackRegion region(64 * 1024, 256);
  return ns_per_op(200000, [&] { st::StackRegion::release(region.allocate()); });
}

double fork_join_ns() {
  double ns = 0;
  st::Runtime rt(1);
  rt.run([&] {
    ns = ns_per_op(100000, [] {
      st::JoinCounter jc(1);
      st::fork([&jc] { jc.finish(); });
      jc.join();
    });
  });
  return ns;
}

double suspend_resume_ns() {
  double ns = 0;
  st::Runtime rt(1);
  rt.run([&] {
    ns = ns_per_op(50000, [] {
      st::Continuation c;
      st::JoinCounter done(1);
      st::fork([&] {
        st::suspend(&c);
        done.finish();
      });
      st::resume(&c);
      done.join();
    });
  });
  return ns;
}

/// Wake latency from a busy worker to a parked one: the root, on one
/// worker, waits (polling) until its peer has parked, then makes a
/// suspended thread ready with st::resume and keeps polling; the parked
/// peer wakes, steals the thread and stamps when it runs.
double park_wake_us() {
  constexpr int kReps = 40;
  Samples us;
  st::Runtime rt(2);
  if (!rt.parking_enabled()) return 0;
  rt.run([&] {
    for (int i = 0; i < kReps; ++i) {
      st::Continuation c;
      std::atomic<double> ran_at{0};
      std::atomic<unsigned> ran_on{0};
      st::JoinCounter done(1);
      st::fork([&] {
        st::suspend(&c);
        ran_on.store(st::worker_id(), std::memory_order_relaxed);
        ran_at.store(now_s(), std::memory_order_release);
        done.finish();
      });
      const unsigned self = st::worker_id();
      const double give_up = now_s() + 0.5;
      while (rt.parked_workers() < 1 && now_s() < give_up) st::poll();
      if (rt.parked_workers() < 1) {
        st::resume(&c);
        done.join();
        continue;
      }
      const double t0 = now_s();
      st::resume(&c);
      while (ran_at.load(std::memory_order_acquire) == 0 && now_s() < t0 + 0.5) st::poll();
      const double t1 = ran_at.load(std::memory_order_acquire);
      done.join();
      if (t1 > 0 && ran_on.load(std::memory_order_relaxed) != self) us.add((t1 - t0) * 1e6);
    }
  });
  return us.median();
}

}  // namespace

void run_probes(Report& r) {
  Span sp("probes");
  {
    Span s("probe.context_swap");
    r.set("context.swap_ns", context_swap_ns());
  }
  {
    Span s("probe.stacklet");
    r.set("stacklet.alloc_release_ns", stacklet_alloc_release_ns());
  }
  {
    Span s("probe.fork_join");
    r.set("fork.join_ns", fork_join_ns());
  }
  {
    Span s("probe.suspend_resume");
    r.set("suspend.resume_ns", suspend_resume_ns());
  }
  {
    Span s("probe.park_wake");
    r.set("park.wake_us", park_wake_us());
  }
}

}  // namespace pb
