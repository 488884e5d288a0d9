// stvm_pfib: parallel fib on the STVM frame-surgery substrate with four
// simulated workers under the default engine -- the only workload that
// reaches src/stvm (predecode, dispatch, the frame-surgery builtins).
//
// The VM is single-threaded, so every VM phase is a sequential one and
// gets the CPU-versus-wall self-check.
#include <cstdio>
#include <string>

#include "apps/fib.hpp"
#include "cilk/cilkstyle.hpp"
#include "stvm/asm.hpp"
#include "stvm/postproc.hpp"
#include "stvm/programs.hpp"
#include "stvm/vm.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

constexpr int kN = 24;
constexpr long kFibN = 46368;  // fib(24)
constexpr unsigned kWorkers = 4;
constexpr int kBlocks = 8;
/// Set-up rounds per run, spread evenly over the blocks.
constexpr int kSetupRounds = 96;
constexpr int kEngineReps = 5;
/// Time each reference gets per pfib run, as a share of that run.
constexpr double kSeqPerPfib = 0.33;
constexpr double kCkPerPfib = 0.33;
/// Share of the pair ratios dropped at each end before averaging them.
constexpr double kTrim = 0.1;

using Dispatch = stvm::VmConfig::Dispatch;

struct VmRun {
  long result = 0;
  double ms = 0;
  stvm::VmStats stats;
  std::size_t fused_groups = 0;
};

/// Constructs a Vm (untimed) and times one run of `entry`.
VmRun run_vm(const stvm::PostprocResult& prog, const char* entry, unsigned workers,
             Dispatch d) {
  stvm::VmConfig cfg;
  cfg.workers = workers;
  cfg.dispatch = d;
  stvm::Vm vm(prog, cfg);
  VmRun out;
  const double t0 = now_s();
  out.result = static_cast<long>(vm.run(entry, {kN}));
  out.ms = (now_s() - t0) * 1e3;
  out.stats = vm.stats();
  out.fused_groups = vm.predecoded().fused_groups;
  return out;
}

double minstr_per_s(std::uint64_t instrs, double ms) {
  return static_cast<double>(instrs) / (ms * 1e-3) / 1e6;
}

const char* engine_name(Dispatch d) {
  switch (d) {
    case Dispatch::kSwitch: return "switch";
    case Dispatch::kThreaded: return "threaded";
    case Dispatch::kJit: return "jit";
    default: return "default";
  }
}

}  // namespace

void run_stvm_pfib(const Options& o, Report& r) {
  // Setup: assemble, postprocess, and Vm construction (predecode and,
  // under the JIT, native emission), each timed.
  Samples asm_ms, post_ms, init_ms, setup_ms;
  stvm::PostprocResult pfib;
  const std::string source = stvm::programs::pfib() + "\n" + stvm::programs::stdlib();
  auto setup_rounds = [&](int n) {
    Span sp("setup");
    for (int i = 0; i < n; ++i) {
      const double t0 = now_s();
      stvm::Module m = stvm::assemble(source);
      const double t1 = now_s();
      pfib = stvm::postprocess(m);
      const double t2 = now_s();
      stvm::VmConfig cfg;
      cfg.workers = kWorkers;
      stvm::Vm vm(pfib, cfg);
      const double t3 = now_s();
      asm_ms.add((t1 - t0) * 1e3);
      post_ms.add((t2 - t1) * 1e3);
      init_ms.add((t3 - t2) * 1e3);
      setup_ms.add((t3 - t0) * 1e3);
    }
  };
  setup_rounds(1);
  const stvm::PostprocResult seq_fib = stvm::programs::compile(stvm::programs::fib());

  // Engine agreement: the same return value and the same architectural
  // instruction count under every engine.
  std::uint64_t ref_instrs = 0;
  {
    Span sp("engines");
    std::vector<Dispatch> engines = {Dispatch::kSwitch, Dispatch::kThreaded};
    if (stvm::Vm::jit_supported()) engines.push_back(Dispatch::kJit);
    std::vector<Samples> engine_ms(engines.size());
    const int reps = o.trace ? kEngineReps : 1;
    for (int rep = 0; rep < reps; ++rep) {
      for (std::size_t e = 0; e < engines.size(); ++e) {
        const VmRun v = run_vm(pfib, "pmain", kWorkers, engines[e]);
        if (ref_instrs == 0) ref_instrs = v.stats.instructions;
        r.check(v.result == kFibN && v.stats.instructions == ref_instrs,
                std::string("pfib under ") + engine_name(engines[e]) + ": result " +
                    std::to_string(v.result) + ", instructions " +
                    std::to_string(v.stats.instructions) + " (reference " +
                    std::to_string(ref_instrs) + ")");
        engine_ms[e].add(v.ms);
      }
    }
    for (const char* e : {"switch", "threaded", "jit"}) {
      r.set(std::string("stvm.engine.") + e + ".minstr_per_s", 0);
    }
    for (std::size_t e = 0; e < engines.size(); ++e) {
      r.set(std::string("stvm.engine.") + engine_name(engines[e]) + ".minstr_per_s",
            minstr_per_s(ref_instrs, engine_ms[e].median()));
    }
  }

  const double budget = o.seconds / kBlocks;
  Samples pfib_ms, pfib_traced_ms, seq_ms, ck_ms, p1_mips;
  // Both ratios come from pairs: each untraced pfib run is followed at
  // once by its references on the same CPU, and the pair's ratios are
  // taken, then their trimmed mean (see compute.cpp: the host switches
  // between a fast and a slow state, which slow the VM and native code
  // by different factors).
  Samples vs_seq, vs_ck;
  VmRun last;
  std::size_t pfib_runs = 0;
  double pfib_wall = 0;
  auto run_ck = [&](ck::Runtime& rt) {
    long v = 0;
    rt.run([&] { v = apps::fib::run_ck(kN); });
    return v;
  };
  for (int b = 0; b < kBlocks; ++b) {
    Span block("block");
    CpuPin pin(b);  // the VM is one thread; rotate it over the CPUs
    setup_rounds(kSetupRounds / kBlocks);
    double vm_cpu = 0, vm_wall = 0;
    const double t_end = now_s() + budget;
    for (std::size_t i = 0; i < 2 || now_s() < t_end; ++i) {
      const bool traced = o.trace && (i % 2 == 1);
      if (o.trace) set_tracing(traced);
      const double cpu0 = cpu_s(), wall0 = now_s();
      {
        Span sp("vm.run");
        last = run_vm(pfib, "pmain", kWorkers, Dispatch::kEnv);
      }
      (traced ? pfib_traced_ms : pfib_ms).add(last.ms);
      r.check(last.result == kFibN && last.stats.instructions == ref_instrs,
              "pfib default engine: result " + std::to_string(last.result) +
                  ", instructions " + std::to_string(last.stats.instructions));
      ++pfib_runs;
      pfib_wall += now_s() - wall0;
      if (traced) {
        vm_cpu += cpu_s() - cpu0;
        vm_wall += now_s() - wall0;
        continue;
      }
      Samples pair_seq, pair_ck;
      if (o.trace) set_tracing(true);  // spans of the references
      {
        Span phase("phase.stvm_seq");
        time_calls(pair_seq, last.ms * 1e-3 * kSeqPerPfib, 1, [&] {
          Span sp("vm.run");
          const VmRun v = run_vm(seq_fib, "main", 1, Dispatch::kEnv);
          r.check(v.result == kFibN, "sequential fib on the STVM: " + std::to_string(v.result));
        });
      }
      vm_cpu += cpu_s() - cpu0;
      vm_wall += now_s() - wall0;
      {
        // A fresh cilkstyle runtime per pair: it must not be alive while
        // the VM runs.
        Span phase("phase.cilkstyle");
        ck::Runtime rt(1);
        run_ck(rt);  // warm-up
        time_calls(pair_ck, last.ms * 1e-3 * kCkPerPfib, 1, [&] {
          Span sp("cilkstyle.run");
          const long v = run_ck(rt);
          r.check(v == kFibN, "cilkstyle fib: " + std::to_string(v));
        });
      }
      vs_seq.add(last.ms / pair_seq.median());
      vs_ck.add(last.ms / pair_ck.median());
      seq_ms.append(pair_seq);
      ck_ms.append(pair_ck);
    }
    if (o.trace) set_tracing(true);
    check_sequential_phase(r, "stvm", vm_wall, vm_cpu);
    if (o.trace) {
      Span phase("phase.stvm_p1");
      const VmRun v = run_vm(pfib, "pmain", 1, Dispatch::kEnv);
      r.check(v.result == kFibN, "pfib on one worker: " + std::to_string(v.result));
      p1_mips.add(minstr_per_s(v.stats.instructions, v.ms));
    }
  }
  report_solves(o, r, pfib_ms, pfib_traced_ms, 0.95);
  r.set("setup_s", setup_ms.median() * 1e-3);
  r.set("time_vs_seq", vs_seq.trimmed_mean(kTrim));
  r.set("time_vs_cilkstyle", vs_ck.trimmed_mean(kTrim));
  r.set("goodput_per_s", static_cast<double>(pfib_runs) / pfib_wall);
  r.set("stvm.assemble_ms", asm_ms.median());
  r.set("stvm.postprocess_ms", post_ms.median());
  r.set("stvm.vm_init_ms", init_ms.median());
  r.set("stvm.minstr_per_s", minstr_per_s(ref_instrs, pfib_ms.median()));
  r.set("stvm.p1.minstr_per_s", p1_mips.median());
  r.set("stvm.instructions", static_cast<double>(last.stats.instructions));
  r.set("stvm.fused_groups", static_cast<double>(last.fused_groups));
  r.set("stvm.suspends", static_cast<double>(last.stats.suspends));
  r.set("stvm.restarts", static_cast<double>(last.stats.restarts));
  r.set("stvm.steals_served", static_cast<double>(last.stats.steals_served));
  r.set("stvm.frames_unwound", static_cast<double>(last.stats.frames_unwound));
  char line[200];
  std::snprintf(line, sizeof line,
                "p50 ms: stvm pfib %.3f  stvm seq fib %.3f  cilkstyle fib %.3f  "
                "(runs %zu / %zu / %zu), %llu instructions per pfib",
                pfib_ms.median(), seq_ms.median(), ck_ms.median(), pfib_ms.size(),
                seq_ms.size(), ck_ms.size(),
                static_cast<unsigned long long>(ref_instrs));
  r.note(line);
}

}  // namespace pb
