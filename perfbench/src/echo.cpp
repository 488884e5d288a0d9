// echo_open: an st::io echo server on three workers, driven open-loop.
//
// One generator thread -- this process's main thread, plain epoll, no
// runtime -- sends fixed-size requests over kConns pipelined connections
// on a schedule drawn from the seed, whether or not earlier replies have
// come back, and times each request from when it was due.  In a traced
// run the offered rate climbs a fixed ladder; goodput is the highest rung
// whose tail stays under the latency limit with no failures and no
// growing backlog.  The nominal rung is measured in blocks, each beside
// two references serving the same traffic: a single-threaded epoll loop
// with no fibers (the no-runtime reference, like sequential C for the
// compute workloads) and the cilkstyle runtime with one blocking task per
// connection (what a runtime without an I/O reactor does: each waiting
// task holds a worker).
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cilk/cilkstyle.hpp"
#include "io/net.hpp"
#include "runtime/runtime.hpp"
#include "sync/join_counter.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

constexpr int kConns = 3;
constexpr std::size_t kMsg = 32;
constexpr unsigned kServerWorkers = 3;
constexpr int kSetupRounds = 48;
constexpr int kNominalBlocks = 6;
/// Offered rates (requests/s).  kNominal is the rung the latency metrics
/// and the reference comparisons use.  Above the top rung the single
/// generator thread itself starts to run late on a 4-core host.
constexpr double kLadder[] = {20000, 40000, 80000, 120000};
constexpr double kNominal = 40000;
/// The tail percentile gated and used for the latency limit.  p99 here is
/// set by millisecond stalls of the host that hit the bare-epoll
/// reference too; it is reported beside it (echo.lat_us_p99).
constexpr double kTailQ = 0.90;
/// Every session first serves this rate untimed, so lazy set-up (reactor
/// creation, first stacklets, socket buffers) is not in any rung.
constexpr double kWarmRate = 10000;
constexpr double kWarmS = 0.15;
/// How long a step waits for replies after its last send.
constexpr double kDrainS = 5.0;

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

double thread_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Blocking listener on 127.0.0.1, ephemeral port.
int listen_local(std::uint16_t* port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in a{};
  a.sin_family = AF_INET;
  a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof a;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&a), sizeof a) != 0 || ::listen(fd, 64) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&a), &len) != 0) {
    ::close(fd);
    return -1;
  }
  *port = ntohs(a.sin_port);
  return fd;
}

/// Blocking TCP connection to 127.0.0.1:port with Nagle off; -1 on failure.
int connect_local(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  sockaddr_in a{};
  a.sin_family = AF_INET;
  a.sin_port = htons(port);
  a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (fd < 0 || ::connect(fd, reinterpret_cast<sockaddr*>(&a), sizeof a) != 0) {
    if (fd >= 0) ::close(fd);
    return -1;
  }
  set_nodelay(fd);
  return fd;
}

bool write_all_blocking(int fd, const char* p, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

// -------------------------------------------------------------------------
// Servers.  Each accepts exactly kConns connections, echoes until every
// one reaches EOF, and exits; wait() joins its host thread.
// -------------------------------------------------------------------------

enum class ServerKind { kStio, kEpoll, kCilkstyle };

const char* kind_name(ServerKind k) {
  switch (k) {
    case ServerKind::kStio: return "stio";
    case ServerKind::kEpoll: return "epoll";
    default: return "cilkstyle";
  }
}

class Server {
 public:
  explicit Server(ServerKind kind) {
    switch (kind) {
      case ServerKind::kStio:
        rt_ = std::make_unique<st::Runtime>(kServerWorkers);
        host_ = std::thread([this] { rt_->run([this] { stio_root(); }); });
        break;
      case ServerKind::kEpoll:
        host_ = std::thread([this] { epoll_loop(); });
        break;
      case ServerKind::kCilkstyle:
        ck_ = std::make_unique<ck::Runtime>(kServerWorkers);
        host_ = std::thread([this] { ck_->run([this] { ck_root(); }); });
        break;
    }
  }
  ~Server() { wait(); }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The listening port once bound, 0 on failure (waits for the bind).
  std::uint16_t port() {
    while (port_.load(std::memory_order_acquire) < 0) std::this_thread::yield();
    return static_cast<std::uint16_t>(port_.load());
  }
  /// Joins the host thread (every connection closed) and returns the
  /// number of server-side errors.
  long wait() {
    if (host_.joinable()) host_.join();
    return errors_.load();
  }
  st::Runtime* runtime() { return rt_.get(); }

 private:
  void publish_port(int p) { port_.store(p, std::memory_order_release); }

  // st::io: a fine-grain acceptor forks one session per connection.
  void stio_root() {
    st::io::TcpListener l = st::io::TcpListener::listen(0);
    if (!l.valid()) {
      publish_port(0);
      return;
    }
    publish_port(l.port());
    st::JoinCounter done(kConns);
    for (int i = 0; i < kConns; ++i) {
      auto s = l.accept();
      if (!s.has_value()) {
        errors_.fetch_add(1);
        done.finish();
        continue;
      }
      auto* boxed = new st::io::TcpStream(std::move(*s));
      st::fork([this, boxed, &done] {
        set_nodelay(boxed->fd());
        char buf[4096];
        for (;;) {
          const ssize_t n = boxed->read(buf, sizeof buf);
          if (n == 0) break;
          if (n < 0 || !boxed->write_all(buf, static_cast<std::size_t>(n))) {
            errors_.fetch_add(1);
            break;
          }
        }
        delete boxed;
        done.finish();
      });
    }
    done.join();
    l.close();
  }

  // Reference 1: one thread, level-triggered epoll, no fibers.
  void epoll_loop() {
    std::uint16_t port = 0;
    const int lfd = listen_local(&port);
    publish_port(lfd < 0 ? 0 : port);
    if (lfd < 0) return;
    const int ep = ::epoll_create1(EPOLL_CLOEXEC);
    for (int i = 0; i < kConns; ++i) {
      const int fd = ::accept4(lfd, nullptr, nullptr, SOCK_CLOEXEC);
      if (fd < 0) {
        errors_.fetch_add(1);
        continue;
      }
      set_nodelay(fd);
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = fd;
      ::epoll_ctl(ep, EPOLL_CTL_ADD, fd, &ev);
    }
    ::close(lfd);
    int open = kConns - static_cast<int>(errors_.load());
    char buf[4096];
    epoll_event evs[kConns];
    while (open > 0) {
      const int n = ::epoll_wait(ep, evs, kConns, -1);
      for (int i = 0; i < n; ++i) {
        const int fd = evs[i].data.fd;
        const ssize_t r = ::read(fd, buf, sizeof buf);
        if (r > 0 && write_all_blocking(fd, buf, static_cast<std::size_t>(r))) continue;
        if (r < 0 && errno == EINTR) continue;
        if (r != 0) errors_.fetch_add(1);
        ::epoll_ctl(ep, EPOLL_CTL_DEL, fd, nullptr);
        ::close(fd);
        --open;
      }
    }
    ::close(ep);
  }

  // Reference 2: cilkstyle, one task per connection doing blocking I/O.
  void ck_root() {
    std::uint16_t port = 0;
    const int lfd = listen_local(&port);
    publish_port(lfd < 0 ? 0 : port);
    if (lfd < 0) return;
    std::vector<int> fds;
    for (int i = 0; i < kConns; ++i) {
      const int fd = ::accept4(lfd, nullptr, nullptr, SOCK_CLOEXEC);
      if (fd < 0) {
        errors_.fetch_add(1);
        continue;
      }
      set_nodelay(fd);
      fds.push_back(fd);
    }
    ::close(lfd);
    ck::SpawnGroup g;
    for (const int fd : fds) {
      g.spawn([this, fd] {
        char buf[4096];
        for (;;) {
          const ssize_t r = ::read(fd, buf, sizeof buf);
          if (r < 0 && errno == EINTR) continue;
          if (r > 0 && write_all_blocking(fd, buf, static_cast<std::size_t>(r))) continue;
          if (r != 0) errors_.fetch_add(1);
          break;
        }
        ::close(fd);
      });
    }
    g.sync();
  }

  std::unique_ptr<st::Runtime> rt_;
  std::unique_ptr<ck::Runtime> ck_;
  std::atomic<int> port_{-1};
  std::atomic<long> errors_{0};
  std::thread host_;  // last: it uses every member above
};

// -------------------------------------------------------------------------
// The open-loop generator.
// -------------------------------------------------------------------------

struct StepResult {
  double rate = 0;
  long sent = 0, ok = 0, bad = 0, lost = 0;
  Samples lat_us;   ///< due -> reply read, per request
  Samples late_us;  ///< due -> handed to the socket, per request
  double goodput = 0;  ///< replies per second over the step
  bool backlog_grew = false;
  double gen_cpu_s = 0, wall_s = 0;

  bool passes(double limit_us) const {
    return bad == 0 && lost == 0 && !backlog_grew && lat_us.quantile(kTailQ) < limit_us &&
           late_us.quantile(kTailQ) < limit_us;
  }
};

class Generator {
 public:
  explicit Generator(std::uint64_t seed) : rng_(seed ^ 0xec40ULL) {
    for (auto& b : pool_) {
      for (char& c : b) c = static_cast<char>('a' + rng_.range(0, 25));
    }
  }
  ~Generator() { close(); }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  /// Opens kConns connections to 127.0.0.1:port.
  bool connect(std::uint16_t port) {
    ep_ = ::epoll_create1(EPOLL_CLOEXEC);
    for (int i = 0; i < kConns; ++i) {
      const int fd = connect_local(port);
      if (fd < 0) return false;
      ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u32 = static_cast<std::uint32_t>(conns_.size());
      ::epoll_ctl(ep_, EPOLL_CTL_ADD, fd, &ev);
      conns_.push_back(Conn{fd, {}, 0, {}, {}, 0});
    }
    return true;
  }

  void close() {
    for (Conn& c : conns_) ::close(c.fd);
    conns_.clear();
    if (ep_ >= 0) ::close(ep_);
    ep_ = -1;
  }

  /// Offers `rate` requests/s for `seconds`, then waits up to `drain_s`
  /// for the replies still in flight (those missing after it are lost).
  StepResult step(double rate, double seconds, double drain_s) {
    const auto n = static_cast<std::size_t>(rate * seconds);
    std::vector<double> due(n);
    double t = now_s() + 1e-3;
    for (std::size_t i = 0; i < n; ++i) {
      due[i] = t;
      t += (0.5 + rng_.unit()) / rate;  // jittered, mean 1/rate
    }
    StepResult res = serve(due, drain_s);
    res.rate = rate;
    return res;
  }

  /// True once a step gave up with replies outstanding.
  bool broken() const { return broken_; }

  /// The setup handshake: one request on every connection, all sent at
  /// once, and every reply back.
  bool ping() { return serve(std::vector<double>(kConns, now_s()), 1.0).ok == kConns; }

 private:
  struct Conn {
    int fd;
    std::string out;
    std::size_t out_off;
    std::deque<std::size_t> pending;
    char in[8192];
    std::size_t in_len;
  };

  /// Sends request i at due[i] (round robin over the connections) and
  /// reads replies until all are in or `drain_s` after the last is due.
  StepResult serve(const std::vector<double>& due, double drain_s) {
    StepResult res;
    const std::size_t n = due.size();
    std::vector<double> lat(n, -1);
    const double cpu0 = thread_cpu_s(), wall0 = now_s();
    const double give_up = (n > 0 ? due[n - 1] : wall0) + drain_s;
    std::size_t next = 0;
    long in_flight = 0;
    char msg[kMsg];
    epoll_event evs[kConns];
    while (next < n || in_flight > 0) {
      double now = now_s();
      if (now > give_up) break;
      while (next < n && due[next] <= now) {
        Conn& c = conns_[next % conns_.size()];
        payload(base_ + next, msg);
        c.out.append(msg, kMsg);
        c.pending.push_back(next);
        res.late_us.add((now - due[next]) * 1e6);
        ++next;
        ++in_flight;
      }
      for (Conn& c : conns_) flush(c, res);
      // Spin while requests remain to be sent on time; once all are out,
      // block, so the generator leaves its CPU to the server.
      const int k = ::epoll_wait(ep_, evs, kConns, next < n ? 0 : 1);
      for (int e = 0; e < k; ++e) {
        Conn& c = conns_[evs[e].data.u32];
        const ssize_t r = ::read(c.fd, c.in + c.in_len, sizeof c.in - c.in_len);
        if (r <= 0) {
          if (r == 0 || (errno != EAGAIN && errno != EINTR)) ++res.bad;
          continue;
        }
        now = now_s();
        c.in_len += static_cast<std::size_t>(r);
        std::size_t off = 0;
        for (; c.in_len - off >= kMsg && !c.pending.empty(); off += kMsg) {
          const std::size_t id = c.pending.front();
          c.pending.pop_front();
          --in_flight;
          payload(base_ + id, msg);
          if (std::memcmp(msg, c.in + off, kMsg) == 0) {
            ++res.ok;
            lat[id] = (now - due[id]) * 1e6;
          } else {
            ++res.bad;
          }
        }
        if (c.in_len - off >= kMsg) {  // replies nobody asked for
          ++res.bad;
          off = c.in_len;
        }
        std::memmove(c.in, c.in + off, c.in_len - off);
        c.in_len -= off;
      }
    }
    res.sent = static_cast<long>(next);
    res.lost = static_cast<long>(n) - res.ok - res.bad;
    res.wall_s = now_s() - wall0;
    res.gen_cpu_s = thread_cpu_s() - cpu0;
    for (Conn& c : conns_) {
      c.pending.clear();
      c.out.clear();
      c.out_off = 0;
    }
    // Replies still owed after a give-up can no longer be matched to
    // requests; the connection is unusable for further steps.
    if (in_flight > 0) broken_ = true;
    base_ += n;
    double first = 0, last = 0;
    Samples early, late;
    for (std::size_t i = 0; i < n; ++i) {
      if (lat[i] < 0) continue;
      res.lat_us.add(lat[i]);
      if (i < n / 4) early.add(lat[i]);
      if (i >= n - n / 4) late.add(lat[i]);
      if (first == 0) first = due[i];
      last = due[i] + lat[i] * 1e-6;
    }
    res.goodput = last > first ? static_cast<double>(res.ok) / (last - first) : 0;
    // A queue that grows over the step shows as later requests waiting
    // much longer than early ones.
    res.backlog_grew = late.median() > 2 * early.median() + 100;
    return res;
  }

  /// Request `id`'s bytes: its number, then seeded filler.
  void payload(std::uint64_t id, char* out) const {
    std::memcpy(out, &id, sizeof id);
    std::memcpy(out + sizeof id, pool_[id % pool_.size()].data(), kMsg - sizeof id);
  }

  void flush(Conn& c, StepResult& res) {
    while (c.out_off < c.out.size()) {
      const ssize_t w = ::write(c.fd, c.out.data() + c.out_off, c.out.size() - c.out_off);
      if (w < 0) {
        if (errno != EAGAIN && errno != EINTR) ++res.bad;
        return;
      }
      c.out_off += static_cast<std::size_t>(w);
    }
    c.out.clear();
    c.out_off = 0;
  }

  stu::Xoshiro256 rng_;
  std::array<std::array<char, kMsg - 8>, 64> pool_{};
  std::vector<Conn> conns_;
  int ep_ = -1;
  std::uint64_t base_ = 0;
  bool broken_ = false;
};

/// Counts a step's requests as output checks.
void check_step(Report& r, const StepResult& s, const char* server) {
  r.attempted += s.sent;
  const long failed = s.bad + s.lost;
  r.failed += failed;
  if (failed > 0) {
    std::fprintf(stderr,
                 "perfbench: check failed: %s echo at %.0f req/s: %ld corrupt, %ld lost "
                 "of %ld\n",
                 server, s.rate, s.bad, s.lost, s.sent);
  }
}

struct Session {
  std::unique_ptr<Server> server;
  std::unique_ptr<Generator> gen;
};

/// Starts a server, connects the generator and checks one echo on every
/// connection; false on failure.  `*connected_at` is set to when the
/// connections were up, before that check.
bool open_session(Session& s, ServerKind kind, std::uint64_t seed, Report& r,
                  double* connected_at = nullptr) {
  Span sp("session.open");
  s.server = std::make_unique<Server>(kind);
  s.gen = std::make_unique<Generator>(seed);
  const std::uint16_t port = s.server->port();
  const bool connected = port != 0 && s.gen->connect(port);
  if (connected_at != nullptr) *connected_at = now_s();
  const bool ok = connected && s.gen->ping();
  if (!ok && port != 0) {
    // The server still waits for kConns connections: give it throwaway
    // ones so it can finish (Session's destructor closes the generator,
    // then joins the server).
    for (int i = 0; i < kConns; ++i) ::close(connect_local(port));
  }
  return r.check(ok, std::string("connect to the ") + kind_name(kind) + " echo server");
}

/// Serves the warm-up rate on a fresh session; its requests are checked
/// but not timed.
void warm_up(Session& s, Report& r, const char* server) {
  Span sp("warm_up");
  check_step(r, s.gen->step(kWarmRate, kWarmS, kDrainS), server);
}

void close_session(Session& s, Report& r) {
  Span sp("session.close");
  s.gen->close();
  const long errors = s.server->wait();
  r.check(errors == 0, "echo server reported " + std::to_string(errors) + " errors");
  s.server.reset();
  s.gen.reset();
}

/// Climbs the ladder on one server and returns the measured goodput of
/// the highest rung that meets the latency limit (0 when none does).
/// Once a rung's backlog grows the server is past capacity, and the
/// rungs above it are not offered.
double climb(ServerKind kind, const Options& o, Report& r, double step_s) {
  Session s;
  if (!open_session(s, kind, o.seed, r)) return 0;
  warm_up(s, r, kind_name(kind));
  double goodput = 0;
  for (const double rate : kLadder) {
    if (s.gen->broken()) break;
    Span sp("ladder.step");
    const StepResult res = s.gen->step(rate, step_s, kDrainS);
    check_step(r, res, kind_name(kind));
    char line[200];
    std::snprintf(line, sizeof line,
                  "%-9s %7.0f req/s offered: p50 %7.1f  p%.0f %8.1f  p99 %8.1f  late p%.0f "
                  "%7.1f us  goodput %7.0f%s",
                  kind_name(kind), rate, res.lat_us.median(), kTailQ * 100,
                  res.lat_us.quantile(kTailQ), res.lat_us.quantile(0.99), kTailQ * 100,
                  res.late_us.quantile(kTailQ), res.goodput,
                  res.backlog_grew ? "  backlog grew" : "");
    r.note(line);
    if (res.passes(o.lat_limit_us)) goodput = res.goodput;
    if (res.backlog_grew) break;
  }
  const bool broken = s.gen->broken();
  close_session(s, r);
  r.check(!broken, "generator lost track of replies");
  return goodput;
}

Samples to_ms(const Samples& us) {
  Samples ms;
  for (double v : us.values()) ms.add(v * 1e-3);
  return ms;
}

}  // namespace

void run_echo_open(const Options& o, Report& r) {
  // Setup: runtime construction, listener, payloads and connections.
  // The first echo on every connection is checked but not timed: at the
  // seed it usually takes 0.1 ms, but in some rounds 2-9 ms, when a
  // parked worker misses the readiness until its timeout, and the share
  // of such rounds changes from run to run, so their median would swing
  // by 3x.  Its time is the per-layer echo.handshake_us_p90.  Repeated
  // before every block, so the median covers the run.
  Samples setup_ms, handshake_us;
  auto setup_rounds = [&](int n) {
    Span sp("setup");
    for (int i = 0; i < n; ++i) {
      const double t0 = now_s();
      double t1 = 0;
      Session s;
      if (open_session(s, ServerKind::kStio, o.seed, r, &t1)) {
        setup_ms.add((t1 - t0) * 1e3);
        handshake_us.add((now_s() - t1) * 1e6);
        close_session(s, r);
      }
    }
  };
  setup_rounds(1);

  // The ladders feed only per-layer metrics, so only a traced run climbs
  // them.
  const double S = o.seconds;
  const double goodput = o.trace ? climb(ServerKind::kStio, o, r, S * 0.04) : 0;
  const double ref_goodput = o.trace ? climb(ServerKind::kEpoll, o, r, S * 0.04) : 0;

  // Nominal rung, in blocks: st::io, then the two references.  A traced
  // run measures the st::io rung twice per block, untraced then traced.
  Samples stio, stio_traced, epoll, cilk, late;
  // Per-block ratios: the three servers a second or two apart.
  Samples vs_epoll, vs_cilk, p99_vs_epoll;
  // The tail is the median over blocks of each block's own percentile: a
  // stall of the shared host that pushes one block's tail to milliseconds
  // must not decide the run.
  Samples blk_tails;
  RuntimeCounters c;
  double stio_cpu = 0, stio_wall = 0, requests = 0;
  const double nominal_s = S * (o.trace ? 0.03 : 0.065);
  const double ref_s = S * (o.trace ? 0.02 : 0.04);
  for (int b = 0; b < kNominalBlocks; ++b) {
    Span block("block");
    setup_rounds(kSetupRounds / kNominalBlocks);
    Samples blk_stio, blk_ref[2];
    Session s;
    if (open_session(s, ServerKind::kStio, o.seed + 1 + b, r)) {
      warm_up(s, r, "stio");
      st::Runtime& rt = *s.server->runtime();
      for (int half = 0; half < (o.trace ? 2 : 1) && !s.gen->broken(); ++half) {
        const bool traced = half == 1;
        if (o.trace) set_tracing(traced);
        Span sp("nominal.stio");
        const RuntimeCounters c0 = RuntimeCounters::read(rt);
        const double cpu0 = cpu_s();
        const StepResult res = s.gen->step(kNominal, nominal_s, kDrainS);
        const double cpu = cpu_s() - cpu0 - res.gen_cpu_s;
        check_step(r, res, "stio");
        (traced ? stio_traced : blk_stio).append(res.lat_us);
        late.append(res.late_us);
        if (traced == o.trace) {  // the layer counters come from the traced half
          c.add(RuntimeCounters::read(rt), c0);
          stio_cpu += cpu;
          stio_wall += res.wall_s;
          requests += static_cast<double>(res.ok);
        }
      }
      if (o.trace) {
        set_tracing(true);
        r.runtime_json.push_back(rt.metrics_json());
      }
      const bool broken = s.gen->broken();
      close_session(s, r);
      r.check(!broken, "generator lost track of replies");
    }
    for (const ServerKind k : {ServerKind::kEpoll, ServerKind::kCilkstyle}) {
      const bool is_epoll = k == ServerKind::kEpoll;
      Span sp(is_epoll ? "nominal.epoll" : "nominal.cilkstyle");
      Session ref;
      if (!open_session(ref, k, o.seed + 1 + b, r)) continue;
      warm_up(ref, r, kind_name(k));
      const StepResult res = ref.gen->step(kNominal, ref_s, kDrainS);
      check_step(r, res, kind_name(k));
      blk_ref[is_epoll ? 0 : 1].append(res.lat_us);
      close_session(ref, r);
    }
    if (!blk_stio.empty()) blk_tails.add(blk_stio.quantile(kTailQ) * 1e-3);
    if (!blk_stio.empty() && !blk_ref[0].empty() && !blk_ref[1].empty()) {
      vs_epoll.add(blk_stio.median() / blk_ref[0].median());
      vs_cilk.add(blk_stio.median() / blk_ref[1].median());
      p99_vs_epoll.add(blk_stio.quantile(0.99) / blk_ref[0].quantile(0.99));
    }
    stio.append(blk_stio);
    epoll.append(blk_ref[0]);
    cilk.append(blk_ref[1]);
  }

  report_solves(o, r, to_ms(stio), to_ms(stio_traced), kTailQ);
  r.set("solve_ms_tail", blk_tails.median());
  r.set("setup_s", setup_ms.median() * 1e-3);
  r.set("time_vs_seq", vs_epoll.median());
  r.set("time_vs_cilkstyle", vs_cilk.median());
  if (o.trace) r.set("goodput_per_s", goodput);
  c.report(r, requests);
  r.set("runtime.cpu_util", stio_wall > 0 ? stio_cpu / (stio_wall * kServerWorkers) : 0);
  const double n = std::max(1.0, requests);
  r.set("io.wakeups", static_cast<double>(c.io_wakeups) / n);
  r.set("io.events_per_wakeup", c.io_wakeups == 0 ? 0.0
                                                  : static_cast<double>(c.io_events) /
                                                        static_cast<double>(c.io_wakeups));
  r.set("io.overhead_vs_epoll", vs_epoll.median());
  r.set("io.p99_vs_epoll", p99_vs_epoll.median());
  r.set("ref.epoll_lat_us_p50", epoll.median());
  r.set("ref.epoll_lat_us_p99", epoll.quantile(0.99));
  r.set("ref.epoll_goodput_rps", ref_goodput);
  r.set("echo.lat_us_p99", stio.quantile(0.99));
  r.set("echo.lat_us_p999", stio.quantile(0.999));
  r.set("echo.gen_late_us_p99", late.quantile(0.99));
  r.set("echo.handshake_us_p90", handshake_us.quantile(0.9));
  char line[240];
  std::snprintf(line, sizeof line,
                "at %.0f req/s: st::io p50 %.1f us p99 %.1f us | epoll p50 %.1f us p99 %.1f us"
                " | cilkstyle p50 %.1f us p99 %.1f us | requests %zu / %zu / %zu",
                kNominal, stio.median(), stio.quantile(0.99), epoll.median(),
                epoll.quantile(0.99), cilk.median(), cilk.quantile(0.99), stio.size(),
                epoll.size(), cilk.size());
  r.note(line);
  std::string ratios = "per-block st::io/epoll p99:";
  for (double v : p99_vs_epoll.values()) ratios += " " + std::to_string(v).substr(0, 5);
  r.note(ratios);
}

}  // namespace pb
