#include "measure.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>

#include <sched.h>
#include <sys/resource.h>

#include "runtime/runtime.hpp"
#include "util/metrics.hpp"

namespace pb {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

namespace {

std::size_t rank_of(double q, std::size_t n) {
  const auto r = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<std::size_t>(r, 1, n);
}

}  // namespace

double Samples::quantile(double q) const {
  if (v_.empty()) return 0;
  std::vector<double> s = v_;
  const std::size_t r = rank_of(q, s.size());
  std::nth_element(s.begin(), s.begin() + static_cast<long>(r - 1), s.end());
  return s[r - 1];
}

double Samples::trimmed_mean(double frac) const {
  if (v_.empty()) return 0;
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  const auto drop = static_cast<std::size_t>(frac * static_cast<double>(s.size()));
  double sum = 0;
  for (std::size_t i = drop; i < s.size() - drop; ++i) sum += s[i];
  return sum / static_cast<double>(s.size() - 2 * drop);
}

std::size_t Samples::beyond(double q) const {
  return v_.empty() ? 0 : v_.size() - rank_of(q, v_.size());
}

int Tracer::begin(const char* name) {
  if (!on_) return -1;
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({name, open_.empty() ? -1 : open_.back(), now_s(), 0});
  open_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].t1 = now_s();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double base = spans_.empty() ? 0 : spans_.front().t0;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d}}\n",
                 i == 0 ? "" : ",", s.name.c_str(), (s.t0 - base) * 1e6,
                 (s.t1 - s.t0) * 1e6, i, s.parent);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

std::string Tracer::self_time_table() const {
  struct Row {
    long n = 0;
    double total = 0, self = 0;
  };
  std::map<std::string, Row> rows;
  std::vector<double> child(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.t1 - s.t0;
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Row& r = rows[spans_[i].name];
    const double d = spans_[i].t1 - spans_[i].t0;
    r.n += 1;
    r.total += d;
    r.self += d - child[i];
  }
  std::string out = "span                               count    total_ms     self_ms\n";
  char line[160];
  for (const auto& [name, r] : rows) {
    std::snprintf(line, sizeof line, "%-32s %8ld %11.3f %11.3f\n", name.c_str(), r.n,
                  r.total * 1e3, r.self * 1e3);
    out += line;
  }
  return out;
}

namespace {

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

bool set_cpus(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  return ::sched_setaffinity(0, sizeof set, &set) == 0;
}

}  // namespace

CpuPin::CpuPin(int slot) {
  if (slot < 0) return;
  saved_ = allowed_cpus();
  if (saved_.empty()) return;
  pinned_ = set_cpus({saved_[static_cast<std::size_t>(slot) % saved_.size()]});
}

CpuPin::~CpuPin() {
  if (pinned_) set_cpus(saved_);
}

Tracer& tracer() {
  static Tracer t;
  return t;
}

void set_tracing(bool on) {
  tracer().enable(on);
  stu::metrics_set_enabled(on);
}

void Report::set(const std::string& name, double value) {
  for (auto& kv : metrics) {
    if (kv.first == name) {
      kv.second = value;
      return;
    }
  }
  metrics.emplace_back(name, value);
}

bool Report::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
  return ok;
}

RuntimeCounters RuntimeCounters::read(const st::Runtime& rt) {
  const st::RuntimeStats s = rt.stats();
  RuntimeCounters c{s.forks,        s.steal_attempts, s.steals_received,
                    s.steals_rejected, s.heap_fallbacks, 0,
                    s.io_wakeups,   s.io_events,      s.region_high_water};
  for (unsigned d = 0; d < rt.num_domains(); ++d) c.idle_wakes += rt.domain_idle_wakes(d);
  return c;
}

void RuntimeCounters::add(const RuntimeCounters& now, const RuntimeCounters& then) {
  forks += now.forks - then.forks;
  attempts += now.attempts - then.attempts;
  received += now.received - then.received;
  rejected += now.rejected - then.rejected;
  fallbacks += now.fallbacks - then.fallbacks;
  idle_wakes += now.idle_wakes - then.idle_wakes;
  io_wakeups += now.io_wakeups - then.io_wakeups;
  io_events += now.io_events - then.io_events;
  high_water = std::max(high_water, now.high_water);
}

void RuntimeCounters::report(Report& r, double solves) const {
  const double n = std::max(1.0, solves);
  r.set("fork.per_solve", static_cast<double>(forks) / n);
  r.set("steal.attempts", static_cast<double>(attempts) / n);
  r.set("steal.received", static_cast<double>(received) / n);
  r.set("steal.rejected", static_cast<double>(rejected) / n);
  r.set("steal.hit_ratio",
        attempts == 0 ? 0.0 : static_cast<double>(received) / static_cast<double>(attempts));
  r.set("park.idle_wakes", static_cast<double>(idle_wakes) / n);
  r.set("stacklet.high_water", static_cast<double>(high_water));
  r.set("stacklet.heap_fallbacks", static_cast<double>(fallbacks) / n);
}

bool check_sequential_phase(Report& r, const std::string& what, double wall_s,
                            double cpu_used_s) {
  // getrusage is tick-granular; allow a few ticks and 5% on top.
  const bool ok = cpu_used_s <= wall_s * 1.05 + 0.02;
  char msg[200];
  std::snprintf(msg, sizeof msg,
                "sequential phase %s used %.3f s CPU in %.3f s wall", what.c_str(),
                cpu_used_s, wall_s);
  return r.check(ok, msg);
}

}  // namespace pb
