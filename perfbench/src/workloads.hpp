// The four workloads and the primitive probes (README.md says why each
// workload exists and what every metric means on it).
#pragma once

#include "measure.hpp"

namespace pb {

/// fib on one stmp worker beside sequential C and one cilkstyle worker.
void run_fine_p1(const Options& o, Report& r);
/// magic + nqueens + knapsack on four workers, same three variants.
void run_search_p4(const Options& o, Report& r);
/// st::io echo server on three workers under an open-loop generator.
void run_echo_open(const Options& o, Report& r);
/// pfib on the STVM with four simulated workers.
void run_stvm_pfib(const Options& o, Report& r);

/// Short probes of the public runtime primitives (traced runs only):
/// context.swap_ns, stacklet.alloc_release_ns, fork.join_ns,
/// suspend.resume_ns, park.wake_us.
void run_probes(Report& r);

/// Shared reporting of one workload's unit of work ("solve").
/// `untraced` gives the end-to-end numbers; in a traced run `traced`
/// holds the solves made with tracing on (trace.overhead_frac).
void report_solves(const Options& o, Report& r, const Samples& untraced,
                   const Samples& traced, double tail_q);

}  // namespace pb
