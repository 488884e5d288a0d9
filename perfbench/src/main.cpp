// perfbench: one workload, one seed, one run (see README.md; run.py
// builds this binary and turns its last line into the result line).
//
//   perfbench --workload <fine_p1|search_p4|echo_open|stvm_pfib>
//             --seed N --seconds S --trace 0|1 --lat-limit-us U
//             [--span-file PATH]
//
// Prints notes and, with --trace 1, the span self-time table, then one
// line "PERFBENCH {...}" holding every metric, the output-check counts
// and the Runtime::metrics_json() snapshots of the traced phases.  Exits
// 1 when any output check failed, 2 on bad arguments.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "util/metrics.hpp"
#include "workloads.hpp"

namespace pb {

void report_solves(const Options& o, Report& r, const Samples& untraced,
                   const Samples& traced, double tail_q) {
  r.set("solve_ms_p50", untraced.median());
  r.set("solve_ms_tail", untraced.quantile(tail_q));
  r.set("solve.samples", static_cast<double>(untraced.size()));
  r.set("solve.tail_pct", tail_q * 100);
  if (o.trace && !traced.empty()) {
    r.set("trace.overhead_frac", traced.median() / untraced.median());
  }
  char line[200];
  std::snprintf(line, sizeof line,
                "solves: %zu, p50 %.4f ms, p%.0f %.4f ms with %zu samples beyond it%s",
                untraced.size(), untraced.median(), tail_q * 100, untraced.quantile(tail_q),
                untraced.beyond(tail_q),
                untraced.beyond(tail_q) < 10 ? " (fewer than 10: tail is not resolved)" : "");
  r.note(line);
}

}  // namespace pb

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload fine_p1|search_p4|echo_open|stvm_pfib "
               "--seed N --seconds S --trace 0|1 --lat-limit-us U [--span-file PATH]\n");
  return 2;
}

double find(const pb::Report& r, const char* name, bool* found) {
  for (const auto& kv : r.metrics) {
    if (kv.first == name) {
      *found = true;
      return kv.second;
    }
  }
  *found = false;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A peer closing mid-write must show up as an error, not kill the run.
  std::signal(SIGPIPE, SIG_IGN);
  pb::Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") o.workload = v;
    else if (k == "--seed") o.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") o.seconds = std::atof(v.c_str());
    else if (k == "--trace") o.trace = v == "1";
    else if (k == "--lat-limit-us") o.lat_limit_us = std::atof(v.c_str());
    else if (k == "--span-file") o.trace_path = v;
    else return usage();
  }
  if (argc % 2 != 1 || o.seconds <= 0 || o.lat_limit_us <= 0) return usage();

  pb::Report r;
  pb::set_tracing(o.trace);
  try {
    pb::Span root(o.workload.c_str());
    if (o.workload == "fine_p1") pb::run_fine_p1(o, r);
    else if (o.workload == "search_p4") pb::run_search_p4(o, r);
    else if (o.workload == "echo_open") pb::run_echo_open(o, r);
    else if (o.workload == "stvm_pfib") pb::run_stvm_pfib(o, r);
    else return usage();
    if (o.trace) {
      // Probes price each primitive alone, with the runtime's own
      // metrics off.
      stu::metrics_set_enabled(false);
      pb::run_probes(r);
    }
  } catch (const std::exception& e) {
    // An STVM fault (VmError) and the like: the outputs are not right.
    r.check(false, std::string("exception: ") + e.what());
  }
  if (o.trace) {
    bool has_forks = false, has_join = false, has_p50 = false;
    const double forks = find(r, "fork.per_solve", &has_forks);
    const double join_ns = find(r, "fork.join_ns", &has_join);
    const double p50_ms = find(r, "solve_ms_p50", &has_p50);
    if (has_forks && has_join && has_p50 && p50_ms > 0) {
      // The fork/join ledger: how much of a solve the fork path explains.
      const double share = forks * join_ns / (p50_ms * 1e6);
      r.set("ledger.fork_share", share);
      r.set("ledger.residual", 1 - share);
    }
    std::printf("%s", pb::tracer().self_time_table().c_str());
    if (!o.trace_path.empty() && !pb::tracer().write(o.trace_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", o.trace_path.c_str());
    }
  }
  r.set("fail_frac", r.attempted == 0 ? 1.0
                                      : static_cast<double>(r.failed) /
                                            static_cast<double>(r.attempted));
  for (const std::string& n : r.notes) std::printf("%s\n", n.c_str());

  std::printf("PERFBENCH {\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,"
              "\"attempted\":%ld,\"failed\":%ld,\"metrics\":{",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed), o.trace ? 1 : 0,
              r.attempted, r.failed);
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    std::printf("%s\"%s\":%.17g", i == 0 ? "" : ",", r.metrics[i].first.c_str(),
                r.metrics[i].second);
  }
  std::printf("},\"runtime_metrics\":[");
  for (std::size_t i = 0; i < r.runtime_json.size(); ++i) {
    std::printf("%s%s", i == 0 ? "" : ",", r.runtime_json[i].c_str());
  }
  std::printf("]}\n");
  std::fflush(stdout);
  return r.failed == 0 && r.attempted > 0 ? 0 : 1;
}
