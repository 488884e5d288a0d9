// Monitor thread: stall watchdog on a deliberately-wedged worker, phase
// classification, logical-stack dump content, periodic snapshots
// (docs/OBSERVABILITY.md).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "runtime/monitor.hpp"
#include "runtime/runtime.hpp"
#include "sync/join_counter.hpp"
#include "util/metrics.hpp"
#include "util/trace_export.hpp"

namespace {

using namespace std::chrono_literals;

// A worker that computes through a long fork-free stretch without
// st::poll() -- the stall the watchdog exists to catch.  The other worker
// has a steal request waiting in the wedged worker's port, so the dump
// must name it as the starved thief.  The wedge is released from outside
// run() once the watchdog has fired.
TEST(Monitor, StallFiresAndDumpShowsWorkingWorker) {
  st::RuntimeConfig cfg;
  cfg.workers = 2;
  cfg.stall_ms = 0;
  st::Runtime rt(cfg);

  std::atomic<bool> release{false};
  std::thread driver([&] {
    rt.run([&] {
      while (!release.load(std::memory_order_acquire)) {
        // wedged: no poll, no fork
      }
    });
  });

  // Find the wedged worker and post a request to its port as the other
  // worker's thief would (Figure 10: claim the port, raise the poll bit).
  // The monitor starts only after that, so its first report sees it.
  // Each wait below gets its own generous deadline (ctest -j load).
  const auto within = [](auto d) { return std::chrono::steady_clock::now() + d; };
  auto deadline = within(5s);
  unsigned victim = cfg.workers;
  while (victim == cfg.workers && std::chrono::steady_clock::now() < deadline) {
    for (unsigned i = 0; i < cfg.workers; ++i) {
      if (rt.worker(i).phase() == st::WorkerPhase::kWorking) victim = i;
    }
    std::this_thread::yield();
  }
  const unsigned thief = victim == 0 ? 1 : 0;
  st::StealRequest req;
  req.thief = thief;
  bool posted = false;
  deadline = within(5s);
  while (victim < cfg.workers && !posted && std::chrono::steady_clock::now() < deadline) {
    st::StealRequest* expected = nullptr;
    posted = rt.worker(victim).port().compare_exchange_strong(expected, &req,
                                                             std::memory_order_acq_rel);
    if (!posted) std::this_thread::yield();  // a real thief holds it; it cancels soon
  }
  if (posted) rt.worker(victim).post_poll_bits(st::Worker::kPollSteal);

  st::MonitorConfig mc;
  mc.poll_ms = 5;
  mc.stall_ms = 50;
  mc.dump_to_stderr = false;
  std::uint64_t stalls = 0;
  std::string dump;
  {
    st::Monitor monitor(rt, mc);
    // Wait for the watchdog to fire (well over stall_ms).
    deadline = within(5s);
    while (monitor.stalls_detected() == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(5ms);
    }
    stalls = monitor.stalls_detected();
    dump = monitor.last_dump();
  }
  release.store(true, std::memory_order_release);
  driver.join();
  // The released worker answers the request at its next poll point
  // (nothing to hand out: rejected); `req` must outlive that.
  deadline = within(5s);
  while (posted && req.state.load(std::memory_order_acquire) == st::StealRequest::kPosted &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }

  ASSERT_LT(victim, cfg.workers) << "no worker entered the wedged root";
  ASSERT_TRUE(posted);
  EXPECT_EQ(req.state.load(), st::StealRequest::kRejected);
  ASSERT_GE(stalls, 1u);
  const std::string who = "worker " + std::to_string(thief);
  EXPECT_NE(dump.find("worker " + std::to_string(victim) + " stalled"), std::string::npos)
      << dump;
  EXPECT_NE(dump.find("pending steal request: " + who), std::string::npos) << dump;
  EXPECT_NE(dump.find("steal_request=" + who), std::string::npos) << dump;
  EXPECT_NE(dump.find("runtime dump"), std::string::npos) << dump;
  EXPECT_NE(dump.find("phase=working"), std::string::npos) << dump;
  // The dump carries the Section-5 classification summary.
  EXPECT_NE(dump.find("E="), std::string::npos) << dump;
  EXPECT_NE(dump.find("R="), std::string::npos) << dump;
  EXPECT_NE(dump.find("X="), std::string::npos) << dump;
}

TEST(Monitor, NoFalseStallOnHealthyRun) {
  st::RuntimeConfig cfg;
  cfg.workers = 2;
  cfg.stall_ms = 0;
  st::Runtime rt(cfg);

  st::MonitorConfig mc;
  mc.poll_ms = 5;
  mc.stall_ms = 100;
  mc.dump_to_stderr = false;
  st::Monitor monitor(rt, mc);

  // Healthy fork-join work with frequent scheduling events for ~300ms.
  const auto until = std::chrono::steady_clock::now() + 300ms;
  while (std::chrono::steady_clock::now() < until) {
    rt.run([] {
      st::JoinCounter jc(8);
      for (int i = 0; i < 8; ++i) {
        st::fork([&jc] {
          st::poll();
          jc.finish();
        });
      }
      jc.join();
    });
  }
  EXPECT_EQ(monitor.stalls_detected(), 0u);
}

TEST(Monitor, PeriodicSnapshotsLint) {
  const std::string path = ::testing::TempDir() + "monitor_periodic.json";
  std::remove(path.c_str());

  stu::metrics_set_enabled(true);
  {
    st::RuntimeConfig cfg;
    cfg.workers = 2;
    cfg.stall_ms = 0;
    st::Runtime rt(cfg);

    st::MonitorConfig mc;
    mc.poll_ms = 5;
    mc.snapshot_period_ms = 20;
    mc.snapshot_path = path;
    mc.dump_to_stderr = false;
    st::Monitor monitor(rt, mc);

    const auto deadline = std::chrono::steady_clock::now() + 5s;
    while (monitor.snapshots_written() == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      rt.run([] {
        st::JoinCounter jc(2);
        st::fork([&jc] { jc.finish(); });
        st::fork([&jc] { jc.finish(); });
        jc.join();
      });
    }
    EXPECT_GE(monitor.snapshots_written(), 1u);
  }
  stu::metrics_set_enabled(false);

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  std::string err;
  EXPECT_TRUE(stu::trace_json_lint(text, &err)) << err;
  EXPECT_NE(text.find("\"schema\":\"stmp-metrics-v1\""), std::string::npos);
  EXPECT_NE(text.find("\"kind\":\"runtime\""), std::string::npos);
  EXPECT_NE(text.find("\"sets\":{\"E\":"), std::string::npos);
}

TEST(Monitor, MetricsJsonLintsAndHasHistograms) {
  stu::metrics_set_enabled(true);
  st::RuntimeConfig cfg;
  cfg.workers = 2;
  cfg.stall_ms = 0;
  st::Runtime rt(cfg);
  rt.run([] {
    st::JoinCounter jc(4);
    for (int i = 0; i < 4; ++i) {
      st::fork([&jc] { jc.finish(); });
    }
    jc.join();
  });
  const std::string json = rt.metrics_json();
  stu::metrics_set_enabled(false);
  std::string err;
  EXPECT_TRUE(stu::trace_json_lint(json, &err)) << err << "\n" << json;
  EXPECT_NE(json.find("\"kind\":\"runtime\""), std::string::npos);
  EXPECT_NE(json.find("\"fork_deque_depth\""), std::string::npos);
  EXPECT_NE(json.find("\"steal_latency\""), std::string::npos);
  EXPECT_NE(json.find("\"suspend_to_restart\""), std::string::npos);
}

TEST(Monitor, DumpRuntimeStateListsAllWorkers) {
  st::RuntimeConfig cfg;
  cfg.workers = 3;
  cfg.stall_ms = 0;
  st::Runtime rt(cfg);
  const std::string dump = st::dump_runtime_state(rt);
  EXPECT_NE(dump.find("3 worker(s)"), std::string::npos) << dump;
  EXPECT_NE(dump.find("worker 0:"), std::string::npos);
  EXPECT_NE(dump.find("worker 2:"), std::string::npos);
  EXPECT_NE(dump.find("logical stack"), std::string::npos);
}

}  // namespace
