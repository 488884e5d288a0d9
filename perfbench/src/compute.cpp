// fine_p1 and search_p4: the Figure 21 / Figure 22 workloads.
//
// A run is a few blocks.  Each block measures the stmp runtime, each of
// its solves paired with sequential C on the same inputs, then the
// cilkstyle baseline, with only one runtime alive at a time: idle
// cilkstyle workers spin on yield and would steal cores from the stmp
// phase.  Interleaving the phases spreads slow drifts of the host over
// all of them alike.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "apps/fib.hpp"
#include "apps/knapsack.hpp"
#include "apps/magic.hpp"
#include "apps/nqueens.hpp"
#include "cilk/cilkstyle.hpp"
#include "runtime/runtime.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

/// One application of a workload: the same input under three variants.
/// Each returns the application's result, which must agree across them.
struct App {
  std::string name;
  std::function<long()> seq, st, ck;
};

/// The workload definition: its applications (built from the seed once
/// per setup), worker count, tail percentile, blocks and time shares.
struct ComputeSpec {
  unsigned workers;
  double tail_q;
  int blocks;
  double share_st, share_ck, share_seq;
  std::function<std::vector<App>()> make_apps;
};

/// Set-up rounds per run, spread evenly over the blocks so the median
/// covers the whole run rather than its first moments.
constexpr int kSetupRounds = 384;
/// Share of the pair ratios dropped at each end before averaging them.
constexpr double kTrim = 0.1;

/// Combines knapsack results into one checksum (wrapping arithmetic).
std::uint64_t mix(std::uint64_t h, long v) {
  return h * 1000003ULL + static_cast<std::uint64_t>(v);
}

void run_compute(const Options& o, Report& r, const ComputeSpec& spec) {
  // Setup: runtime construction plus input generation, repeated so the
  // reported figure is a median.
  Samples setup_ms;
  std::vector<App> apps;
  auto setup_rounds = [&](int n) {
    for (int i = 0; i < n; ++i) {
      const double t0 = now_s();
      st::Runtime rt(spec.workers);
      apps = spec.make_apps();
      setup_ms.add((now_s() - t0) * 1e3);
    }
  };
  setup_rounds(1);
  // Reference results from sequential C, computed once.
  std::vector<long> expect;
  for (const App& a : apps) expect.push_back(a.seq());

  const double budget = o.seconds / spec.blocks;
  Samples st_ms, st_traced_ms, ck_ms, seq_ms;
  // time_vs_seq comes from pairs: each untraced stmp solve is followed at
  // once by sequential C on the same CPU, and the pair's ratio is taken.
  // The shared host switches between a fast and a slow state lasting a
  // few seconds, which slows sequential fib 1.75x but stmp fib only 1.3x,
  // so a ratio is only meaningful between solves made in the same state,
  // and pair ratios take one of two values.  Their median would jump
  // between the two with the share of time the host spent in each; the
  // trimmed mean moves smoothly with that share.
  Samples pair_vs_seq;
  // time_vs_cilkstyle is taken per block (stmp and cilkstyle cannot run
  // side by side); both slow down alike, so the state cancels out of it.
  Samples vs_ck;
  std::vector<Samples> app_st(apps.size()), app_ck(apps.size()), app_seq(apps.size());
  RuntimeCounters counters;
  std::uint64_t st_solves = 0;
  double st_cpu = 0, st_wall = 0;
  const double seq_per_st = spec.share_seq / spec.share_st;

  // One solve under one variant: every application once, each timed and
  // checked.  `run` wraps a variant call (e.g. in Runtime::run).
  auto solve = [&](const char* variant, std::vector<Samples>& per_app,
                   const std::function<long(const App&)>& run) {
    for (std::size_t i = 0; i < apps.size(); ++i) {
      Span sp(variant);
      const double t0 = now_s();
      const long v = run(apps[i]);
      per_app[i].add((now_s() - t0) * 1e3);
      r.check(v == expect[i], apps[i].name + " " + variant + " result " +
                                  std::to_string(v) + " != " + std::to_string(expect[i]));
    }
  };
  auto run_seq = [](const App& a) { return a.seq(); };

  for (int b = 0; b < spec.blocks; ++b) {
    Span block("block");
    {
      Span sp("setup");
      setup_rounds(kSetupRounds / spec.blocks);
    }
    // A one-worker block runs on one CPU, the next block on the next.
    CpuPin pin(spec.workers == 1 ? b : -1);
    Samples blk_st, blk_ck;
    {
      Span phase("phase.stmp");
      st::Runtime rt(spec.workers);
      auto run_st = [&](const App& a) {
        long v = 0;
        rt.run([&] { v = a.st(); });
        return v;
      };
      solve("stmp.run", app_st, run_st);  // warm-up: stacklets, caches
      if (b == 0) solve("seq.call", app_seq, run_seq);
      const RuntimeCounters c0 = RuntimeCounters::read(rt);
      double seq_cpu = 0, seq_wall = 0;
      const double t_end = now_s() + budget * (spec.share_st + spec.share_seq);
      // Traced runs alternate untraced and traced solves, so the two
      // halves see the same host conditions.
      for (std::uint64_t i = 0; i < 2 || now_s() < t_end; ++i) {
        const bool traced = o.trace && (i % 2 == 1);
        if (o.trace) set_tracing(traced);
        const double cpu0 = cpu_s(), s0 = now_s();
        {
          Span sp("solve");
          solve("stmp.run", app_st, run_st);
        }
        const double st_s = now_s() - s0;
        st_cpu += cpu_s() - cpu0;
        st_wall += st_s;
        (traced ? st_traced_ms : blk_st).add(st_s * 1e3);
        ++st_solves;
        if (traced) continue;
        // The pair's sequential half.  The stmp workers are parked
        // meanwhile; the CPU check below would catch one spinning.
        if (o.trace) set_tracing(true);  // spans only: seq C has no runtime
        Span phase_seq("phase.seq");
        CpuPin seq_pin(b);
        Samples pair_seq;
        const double q_cpu0 = cpu_s(), q_wall0 = now_s();
        time_calls(pair_seq, st_s * seq_per_st, 1, [&] {
          Span sp("solve");
          solve("seq.call", app_seq, run_seq);
        });
        seq_cpu += cpu_s() - q_cpu0;
        seq_wall += now_s() - q_wall0;
        pair_vs_seq.add(st_s * 1e3 / pair_seq.median());
        seq_ms.append(pair_seq);
      }
      if (o.trace) set_tracing(true);
      check_sequential_phase(r, "seq", seq_wall, seq_cpu);
      counters.add(RuntimeCounters::read(rt), c0);
      if (o.trace) r.runtime_json.push_back(rt.metrics_json());
    }
    {
      Span phase("phase.cilkstyle");
      ck::Runtime rt(spec.workers);
      auto run_ck = [&](const App& a) {
        long v = 0;
        rt.run([&] { v = a.ck(); });
        return v;
      };
      solve("cilkstyle.run", app_ck, run_ck);
      time_calls(blk_ck, budget * spec.share_ck, 1, [&] {
        Span sp("solve");
        solve("cilkstyle.run", app_ck, run_ck);
      });
    }
    vs_ck.add(blk_st.median() / blk_ck.median());
    st_ms.append(blk_st);
    ck_ms.append(blk_ck);
  }

  report_solves(o, r, st_ms, st_traced_ms, spec.tail_q);
  r.set("setup_s", setup_ms.median() * 1e-3);
  r.set("time_vs_seq", pair_vs_seq.trimmed_mean(kTrim));
  r.set("time_vs_cilkstyle", vs_ck.median());
  r.set("goodput_per_s", static_cast<double>(st_solves) / st_wall);
  counters.report(r, static_cast<double>(st_solves));
  r.set("runtime.cpu_util", st_cpu / (st_wall * spec.workers));
  for (std::size_t i = 0; i < apps.size(); ++i) {
    const std::string p = "apps." + apps[i].name + ".";
    r.set(p + "seq_ms", app_seq[i].median());
    r.set(p + "stmp_ms", app_st[i].median());
    r.set(p + "cilkstyle_ms", app_ck[i].median());
  }
  char line[200];
  std::snprintf(line, sizeof line,
                "p50 ms: stmp %.3f  cilkstyle %.3f  seq %.3f  (solves %zu / %zu / %zu, "
                "%d blocks, %zu pairs)",
                st_ms.median(), ck_ms.median(), seq_ms.median(), st_ms.size(),
                ck_ms.size(), seq_ms.size(), spec.blocks, pair_vs_seq.size());
  r.note(line);
}

}  // namespace

// Why: Figure 21's outlier.  Every cost is in the fork/join fast path, the
// context switch and the stacklets; steal, park and the reactor do no
// work, so this is the workload on which a steal or poll change must not
// move anything.
void run_fine_p1(const Options& o, Report& r) {
  constexpr int kFibN = 28;
  ComputeSpec spec;
  spec.workers = 1;
  spec.tail_q = 0.95;
  spec.blocks = 16;
  spec.share_st = 0.5;
  spec.share_ck = 0.35;
  spec.share_seq = 0.15;
  // fib has no generated input: the seed only varies the other workloads.
  spec.make_apps = [] {
    return std::vector<App>{{"fib", [] { return apps::fib::seq(kFibN); },
                             [] { return apps::fib::run_st(kFibN); },
                             [] { return apps::fib::run_ck(kFibN); }}};
  };
  run_compute(o, r, spec);
}

// Why: Figure 22's failure.  Steal negotiation, polling and park do the
// work while the fork path does little.  magic and nqueens have poll-free
// leaves and get no steals; knapsack does get steals, so a poll change
// that helps one kind and costs the other shows here.  magic's smallest
// instance (limit 1) takes ~120 ms, so nqueens and knapsack are sized to
// ~60 ms each sequentially: magic is the largest part, not the whole.
void run_search_p4(const Options& o, Report& r) {
  constexpr int kMagicLimit = 1;
  constexpr int kQueens = 13;
  // Even item counts: with an odd count the branch-and-bound cost of
  // these instances is bimodal (most finish at once, a few take 100x
  // longer), so the seed alone would decide a solve's time.
  constexpr int kKnapItems = 24;
  constexpr int kKnapInstances = 4;
  ComputeSpec spec;
  spec.workers = 4;
  spec.tail_q = 0.80;
  spec.blocks = 8;
  spec.share_st = 0.6;
  spec.share_ck = 0.2;
  spec.share_seq = 0.2;
  const std::uint64_t seed = o.seed;
  spec.make_apps = [seed] {
    auto insts = std::make_shared<std::vector<apps::knapsack::Instance>>();
    for (int i = 0; i < kKnapInstances; ++i) {
      insts->push_back(apps::knapsack::make_instance(
          kKnapItems, seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(i)));
    }
    auto knap = [insts](long (*fn)(const apps::knapsack::Instance&)) {
      return [insts, fn] {
        std::uint64_t h = 0;
        for (const auto& inst : *insts) h = mix(h, fn(inst));
        return static_cast<long>(h);
      };
    };
    return std::vector<App>{
        {"magic", [] { return apps::magic::seq(kMagicLimit); },
         [] { return apps::magic::run_st(kMagicLimit); },
         [] { return apps::magic::run_ck(kMagicLimit); }},
        {"nqueens", [] { return apps::nqueens::seq(kQueens); },
         [] { return apps::nqueens::run_st(kQueens); },
         [] { return apps::nqueens::run_ck(kQueens); }},
        {"knapsack", knap(&apps::knapsack::seq), knap(&apps::knapsack::run_st),
         knap(&apps::knapsack::run_ck)}};
  };
  run_compute(o, r, spec);
}

}  // namespace pb
