// Measurement helpers shared by the workloads: clocks, timing samples,
// process CPU time, the span recorder and the run report.
//
// Everything here is benchmark-side: spans are recorded around the calls
// the benchmark makes into a layer, never inside the program.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace st {
class Runtime;
}

namespace pb {

/// Monotonic seconds.
double now_s();

/// Process CPU seconds (user + system, every thread), from getrusage.
double cpu_s();

/// Timing samples of one phase.  Percentiles are nearest-rank on the
/// sorted samples, so a percentile is always a measured value.
class Samples {
 public:
  void add(double v) { v_.push_back(v); }
  void append(const Samples& o) { v_.insert(v_.end(), o.v_.begin(), o.v_.end()); }
  std::size_t size() const { return v_.size(); }
  bool empty() const { return v_.empty(); }
  /// q in (0, 1]; 0 when empty.
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  /// Mean of the samples left after dropping the lowest and the highest
  /// `frac` of them; 0 when empty.
  double trimmed_mean(double frac) const;
  /// How many samples lie beyond quantile(q)'s rank.
  std::size_t beyond(double q) const;
  const std::vector<double>& values() const { return v_; }

 private:
  std::vector<double> v_;
};

/// Span recorder: name, start, end and the enclosing span.  Spans are
/// opened and closed in stack order from one thread at a time (the
/// benchmark's driving thread, or a runtime root that the driving thread
/// is blocked on), kept in memory and written out when the run ends.
class Tracer {
 public:
  void enable(bool on) { on_ = on; }
  bool enabled() const { return on_; }
  /// Opens a span under the innermost open span; -1 when disabled.
  int begin(const char* name);
  void end(int id);
  /// Chrome trace-event JSON ("X" events; args carry id and parent).
  bool write(const std::string& path) const;
  /// One line per span name: count, total and self milliseconds.
  std::string self_time_table() const;

 private:
  struct Span {
    std::string name;
    int parent;
    double t0, t1;
  };
  bool on_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// The process-wide span recorder.
Tracer& tracer();

/// Turns span recording and the runtime's own metrics on or off together
/// (a traced run alternates traced and untraced solves).
void set_tracing(bool on);

/// RAII span on tracer().
class Span {
 public:
  explicit Span(const char* name) : id_(tracer().begin(name)) {}
  ~Span() { tracer().end(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int id_;
};

/// What one run measured: metrics by name, output checks, and the
/// runtime metrics snapshots the traced run read.
struct Report {
  std::vector<std::pair<std::string, double>> metrics;
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> runtime_json;  ///< Runtime::metrics_json() texts
  std::vector<std::string> notes;         ///< printed beside the metrics

  void set(const std::string& name, double value);
  /// One output check: counts an attempt, and a failure when !ok.
  bool check(bool ok, const std::string& what);
  void note(const std::string& line) { notes.push_back(line); }
};

/// Runtime counters over the measured phases of a run: read() before and
/// after each phase and add() the difference.
struct RuntimeCounters {
  std::uint64_t forks = 0, attempts = 0, received = 0, rejected = 0, fallbacks = 0;
  std::uint64_t idle_wakes = 0, io_wakeups = 0, io_events = 0, high_water = 0;

  static RuntimeCounters read(const st::Runtime& rt);
  void add(const RuntimeCounters& now, const RuntimeCounters& then);
  /// Sets fork.per_solve, steal.*, park.idle_wakes and stacklet.* over
  /// `solves` units of work.
  void report(Report& r, double solves) const;
};

/// Command-line options of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_path;  ///< span file of a traced run
  double lat_limit_us = 0;  ///< echo_open: limit on the tail percentile
};

/// Calls fn() until `budget_s` seconds have passed, at least `min_n`
/// times, and records each call's wall time in milliseconds.
template <typename Fn>
void time_calls(Samples& out, double budget_s, std::size_t min_n, Fn&& fn) {
  const double t_end = now_s() + budget_s;
  for (std::size_t n = 0; n < min_n || now_s() < t_end; ++n) {
    const double t0 = now_s();
    fn();
    out.add((now_s() - t0) * 1e3);
  }
}

/// Pins the calling thread to one CPU of the process's allowed set for
/// its lifetime (threads it creates meanwhile, such as a runtime's
/// workers, inherit the pin).  slot < 0 leaves the thread unpinned.
/// Single-threaded phases rotate over every CPU across a run's blocks:
/// on a shared host each CPU's speed drifts on its own, and a run that
/// stayed on one CPU would report that CPU's speed rather than the host's.
class CpuPin {
 public:
  explicit CpuPin(int slot);
  ~CpuPin();
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
  bool pinned_ = false;
  std::vector<int> saved_;
};

/// A sequential phase must not burn more process CPU than wall time: if
/// it does, some other thread (an idle runtime, a leftover server) was
/// spinning beside the measured code.  Returns true when the phase was
/// clean; `what` names it in the report.
bool check_sequential_phase(Report& r, const std::string& what, double wall_s,
                            double cpu_used_s);

}  // namespace pb
