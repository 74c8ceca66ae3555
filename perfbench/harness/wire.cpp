#include "wire.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <thread>
#include <unordered_map>

#include "bench_math.h"
#include "serve/net/transport_client.h"
#include "tensor/rng.h"

namespace perfbench {
namespace {

struct Frame {
  net::FrameHeader hdr;
  std::vector<uint8_t> payload;
};

// One non-blocking loopback connection with an output queue and a frame
// reassembly buffer.
class Conn {
 public:
  Conn() = default;
  ~Conn() { close(); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool open(uint16_t port, std::chrono::milliseconds timeout);
  void close();
  bool is_open() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  // Queue `bytes` and write as much of the queue as the socket takes.
  bool send(const std::vector<uint8_t>& bytes);
  bool flush();
  bool has_pending() const { return out_off_ < out_.size(); }
  // Read whatever is available; append each complete frame to `out`.
  // False on EOF, socket error or a frame the codec rejects.
  bool receive(std::vector<Frame>& out);

 private:
  int fd_ = -1;
  std::vector<uint8_t> out_;
  size_t out_off_ = 0;
  std::vector<uint8_t> in_;
};

using Clock = std::chrono::steady_clock;
using fqbert::Rng;
using fqbert::serve::RequestStatus;

// Requests still unanswered this long after a phase ends count as
// failed.
constexpr auto kDrainTimeout = std::chrono::seconds(5);

int64_t ns_since(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
      .count();
}

bool same_logits(const std::vector<float>& got,
                 const std::vector<float>& want) {
  return got.size() == want.size() &&
         std::memcmp(got.data(), want.data(), got.size() * sizeof(float)) == 0;
}

std::vector<uint8_t> encode_request(const Lane& lane, uint32_t example,
                                    uint64_t correlation, bool traced) {
  net::WireRequest req;
  req.correlation_id = correlation;
  req.trace_id = traced ? fqbert::serve::mint_trace_id() : 0;
  req.tier = lane.tier;
  req.model = lane.model;
  req.example = lane.examples[example];
  std::vector<uint8_t> bytes;
  net::encode_serve_request(req, bytes);
  return bytes;
}

// Open-loop arrival schedule of one thread, in ns from the phase start.
std::vector<int64_t> arrival_schedule(const PhaseConfig& cfg, Rng& rng) {
  const double thread_rate = cfg.rate_rps / kLoadThreads;
  const bool bursty = cfg.burst_on_s > 0.0;
  const double period = cfg.burst_on_s + cfg.burst_off_s;
  const double rate = bursty ? thread_rate * period / cfg.burst_on_s
                             : thread_rate;
  std::vector<int64_t> due;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (bursty && std::fmod(t, period) >= cfg.burst_on_s) {
      // Off-window: the next arrival is drawn from the next on-window's
      // start (the process is memoryless).
      t = (std::floor(t / period) + 1.0) * period;
      continue;
    }
    if (t >= cfg.seconds) break;
    due.push_back(static_cast<int64_t>(t * 1e9));
  }
  return due;
}

struct ThreadResult {
  std::vector<Outcome> outcomes;
  std::vector<double> late_us;
  int64_t backlog_max = 0;
  std::vector<int64_t> backlog_quarters;
};

class LoadThread {
 public:
  LoadThread(const PhaseConfig& cfg, const std::vector<Lane>& lanes,
             int index, Clock::time_point t0)
      : cfg_(cfg), lanes_(lanes), rng_(cfg.seed * 1000003ull + index),
        t0_(t0), conns_(kConnsPerThread), inflight_(kConnsPerThread) {}

  ThreadResult run() {
    prctl(PR_SET_TIMERSLACK, 1UL);
    for (auto& c : conns_) c.open(cfg_.port, std::chrono::seconds(2));
    const int64_t end_ns = static_cast<int64_t>(cfg_.seconds * 1e9);
    if (cfg_.open_loop)
      run_open(end_ns);
    else
      run_closed(end_ns);
    drain(end_ns + std::chrono::duration_cast<std::chrono::nanoseconds>(
                       kDrainTimeout)
                       .count());
    return std::move(res_);
  }

 private:
  void run_open(int64_t end_ns) {
    const std::vector<int64_t> due = arrival_schedule(cfg_, rng_);
    res_.outcomes.reserve(due.size());
    res_.late_us.reserve(due.size());
    size_t next = 0;
    int quarter = 0;
    while (next < due.size()) {
      const int64_t now = ns_since(t0_);
      // Backlog at each quarter boundary of the phase.
      while (quarter < 4 && now >= end_ns * (quarter + 1) / 4) {
        res_.backlog_quarters.push_back(backlog(due, next, now));
        ++quarter;
      }
      res_.backlog_max = std::max(res_.backlog_max, backlog(due, next, now));
      while (next < due.size() && due[next] <= ns_since(t0_)) {
        send_new(due[next]);
        res_.late_us.push_back(
            static_cast<double>(res_.outcomes.back().sent_ns - due[next]) /
            1e3);
        ++next;
      }
      // Spin instead of sleeping until the next due time: on a shared
      // VM a vCPU that halts waits milliseconds to be woken, and that
      // wait would land in every latency timed from the due time.
      if (next < due.size()) wait_io(0);
    }
    while (quarter < 4) {
      res_.backlog_quarters.push_back(0);
      ++quarter;
    }
  }

  void run_closed(int64_t end_ns) {
    for (int c = 0; c < kConnsPerThread; ++c)
      for (int w = 0; w < cfg_.window; ++w) send_new(ns_since(t0_), c);
    while (ns_since(t0_) < end_ns) {
      wait_io(end_ns - ns_since(t0_));
      for (int c = 0; c < kConnsPerThread; ++c)
        while (static_cast<int>(inflight_[static_cast<size_t>(c)].size()) <
                   cfg_.window &&
               ns_since(t0_) < end_ns)
          send_new(ns_since(t0_), c);
    }
  }

  void drain(int64_t deadline_ns) {
    while (outstanding() > 0 && ns_since(t0_) < deadline_ns)
      wait_io(std::min<int64_t>(deadline_ns - ns_since(t0_), 10'000'000));
    for (int c = 0; c < kConnsPerThread; ++c) fail_inflight(c);
  }

  static int64_t backlog(const std::vector<int64_t>& due, size_t next,
                         int64_t now) {
    const auto it = std::upper_bound(due.begin() + static_cast<long>(next),
                                     due.end(), now);
    return static_cast<int64_t>(it - (due.begin() + static_cast<long>(next)));
  }

  size_t outstanding() const {
    size_t n = 0;
    for (const auto& m : inflight_) n += m.size();
    return n;
  }

  // The connection with the fewest requests in flight (a lost one has
  // none and is reopened by send_new).
  int pick_conn() {
    int best = 0;
    for (int c = 0; c < kConnsPerThread; ++c)
      if (inflight_[static_cast<size_t>(c)].size() <
          inflight_[static_cast<size_t>(best)].size())
        best = c;
    return best;
  }

  void send_new(int64_t due_ns, int conn = -1) {
    const int c = conn >= 0 ? conn : pick_conn();
    Outcome o;
    o.due_ns = due_ns;
    o.lane = static_cast<uint32_t>(
        rng_.randint(0, static_cast<int64_t>(lanes_.size()) - 1));
    const Lane& lane = lanes_[o.lane];
    o.example = static_cast<uint32_t>(
        rng_.randint(0, static_cast<int64_t>(lane.examples.size()) - 1));
    const uint64_t correlation = res_.outcomes.size() + 1;
    const std::vector<uint8_t> bytes =
        encode_request(lane, o.example, correlation, cfg_.traced);
    Conn& conn_ref = conns_[static_cast<size_t>(c)];
    if (!conn_ref.is_open()) conn_ref.open(cfg_.port, std::chrono::seconds(1));
    o.sent_ns = ns_since(t0_);
    const bool ok = conn_ref.is_open() && conn_ref.send(bytes);
    res_.outcomes.push_back(std::move(o));
    if (ok) {
      inflight_[static_cast<size_t>(c)][correlation] = res_.outcomes.size() - 1;
    } else {
      res_.outcomes.back().done_ns = ns_since(t0_);
      fail_inflight(c);
    }
  }

  void fail_inflight(int c) {
    for (const auto& [corr, idx] : inflight_[static_cast<size_t>(c)]) {
      res_.outcomes[idx].status = kTransportFailed;
      res_.outcomes[idx].done_ns = ns_since(t0_);
    }
    inflight_[static_cast<size_t>(c)].clear();
    conns_[static_cast<size_t>(c)].close();
  }

  // Wait up to `timeout_ns` for socket activity and handle it.
  void wait_io(int64_t timeout_ns) {
    pollfd fds[kConnsPerThread];
    for (int c = 0; c < kConnsPerThread; ++c) {
      const Conn& conn = conns_[static_cast<size_t>(c)];
      fds[c].fd = conn.is_open() ? conn.fd() : -1;
      fds[c].events = static_cast<short>(
          POLLIN | (conn.has_pending() ? POLLOUT : 0));
      fds[c].revents = 0;
    }
    timespec ts{};
    timeout_ns = std::max<int64_t>(0, timeout_ns);
    ts.tv_sec = static_cast<time_t>(timeout_ns / 1'000'000'000);
    ts.tv_nsec = static_cast<long>(timeout_ns % 1'000'000'000);
    if (ppoll(fds, kConnsPerThread, &ts, nullptr) <= 0) return;
    for (int c = 0; c < kConnsPerThread; ++c) {
      if (fds[c].revents == 0) continue;
      Conn& conn = conns_[static_cast<size_t>(c)];
      if ((fds[c].revents & POLLOUT) && !conn.flush()) {
        fail_inflight(c);
        continue;
      }
      if (fds[c].revents & (POLLIN | POLLERR | POLLHUP)) {
        frames_.clear();
        const bool alive = conn.receive(frames_);
        for (const Frame& f : frames_) handle_response(c, f);
        if (!alive) fail_inflight(c);
      }
    }
  }

  void handle_response(int c, const Frame& f) {
    net::WireResponse wr;
    if (f.hdr.type != net::FrameType::kServeResponse ||
        !net::decode_serve_response(f.payload.data(), f.payload.size(),
                                    f.hdr.version, &wr))
      return;
    auto& inflight = inflight_[static_cast<size_t>(c)];
    const auto it = inflight.find(wr.correlation_id);
    if (it == inflight.end()) return;
    Outcome& o = res_.outcomes[it->second];
    inflight.erase(it);
    o.done_ns = ns_since(t0_);
    o.status = static_cast<uint8_t>(wr.response.status);
    o.batch_size = wr.response.batch_size;
    o.logits_match = wr.response.status == RequestStatus::kOk &&
                     same_logits(wr.response.logits,
                                 lanes_[o.lane].expected[o.example]);
    o.stages = std::move(wr.response.trace);
  }

  const PhaseConfig& cfg_;
  const std::vector<Lane>& lanes_;
  Rng rng_;
  Clock::time_point t0_;
  std::vector<Conn> conns_;
  std::vector<std::unordered_map<uint64_t, size_t>> inflight_;
  std::vector<Frame> frames_;
  ThreadResult res_;
};

bool Conn::open(uint16_t port, std::chrono::milliseconds timeout) {
  close();
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (errno != EINPROGRESS) {
      ::close(fd);
      return false;
    }
    pollfd p{fd, POLLOUT, 0};
    int err = 0;
    socklen_t len = sizeof(err);
    if (::poll(&p, 1, static_cast<int>(timeout.count())) != 1 ||
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      ::close(fd);
      return false;
    }
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fd_ = fd;
  return true;
}

void Conn::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  out_.clear();
  out_off_ = 0;
  in_.clear();
}

bool Conn::send(const std::vector<uint8_t>& bytes) {
  out_.insert(out_.end(), bytes.begin(), bytes.end());
  return flush();
}

bool Conn::flush() {
  while (out_off_ < out_.size()) {
    const ssize_t n = ::send(fd_, out_.data() + out_off_, out_.size() - out_off_,
                             MSG_NOSIGNAL);
    if (n > 0) {
      out_off_ += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  out_.clear();
  out_off_ = 0;
  return true;
}

bool Conn::receive(std::vector<Frame>& out) {
  bool alive = true;
  uint8_t buf[65536];
  for (;;) {
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      in_.insert(in_.end(), buf, buf + n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n == 0 || !(errno == EAGAIN || errno == EWOULDBLOCK)) alive = false;
    break;
  }
  size_t off = 0;
  for (;;) {
    net::FrameHeader hdr;
    const net::DecodeStatus st =
        net::decode_header(in_.data() + off, in_.size() - off, &hdr);
    if (st == net::DecodeStatus::kError) return false;
    if (st == net::DecodeStatus::kNeedMore ||
        in_.size() - off < net::kHeaderSize + hdr.payload_len)
      break;
    Frame f;
    f.hdr = hdr;
    const uint8_t* p = in_.data() + off + net::kHeaderSize;
    f.payload.assign(p, p + hdr.payload_len);
    out.push_back(std::move(f));
    off += net::kHeaderSize + hdr.payload_len;
  }
  in_.erase(in_.begin(), in_.begin() + static_cast<long>(off));
  return alive;
}

}  // namespace

ProbeTimes probe_lanes(uint16_t port, const std::vector<Lane>& lanes,
                       Clock::time_point t0,
                       std::chrono::milliseconds timeout) {
  ProbeTimes times;
  const auto deadline = Clock::now() + timeout;
  net::TransportClient client;
  client.set_timeouts(fqbert::serve::Micros(200'000),
                      fqbert::serve::Micros(5'000'000));
  for (const Lane& lane : lanes) {
    bool answered = false;
    while (!answered && Clock::now() < deadline) {
      if (client.connected() || client.connect("127.0.0.1", port)) {
        const auto r = client.call(lane.examples[0], std::nullopt, lane.model,
                                   0, lane.tier);
        answered = r && r->status == RequestStatus::kOk &&
                   same_logits(r->logits, lane.expected[0]);
      }
      if (!answered) {
        client.close();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    if (!answered) return ProbeTimes{};
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();
    if (times.first_s < 0.0) times.first_s = s;
    times.all_s = s;
  }
  return times;
}

PhaseResult run_phase(
    const PhaseConfig& cfg, const std::vector<Lane>& lanes,
    const std::function<void(const std::atomic<bool>& load_done)>& side) {
  // A short lead so every thread is parked in its loop before the first
  // request falls due.
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  std::vector<ThreadResult> parts(kLoadThreads);
  std::atomic<int> running{kLoadThreads};
  std::atomic<bool> load_done{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kLoadThreads; ++t)
    threads.emplace_back([&, t] {
      LoadThread lt(cfg, lanes, t, t0);
      parts[static_cast<size_t>(t)] = lt.run();
      if (running.fetch_sub(1) == 1) load_done = true;
    });
  if (side) side(load_done);
  for (auto& th : threads) th.join();

  PhaseResult r;
  std::vector<int64_t> quarters(4, 0);
  for (ThreadResult& p : parts) {
    for (Outcome& o : p.outcomes) r.outcomes.push_back(std::move(o));
    r.late_us.insert(r.late_us.end(), p.late_us.begin(), p.late_us.end());
    r.backlog_max += p.backlog_max;
    for (size_t q = 0; q < p.backlog_quarters.size() && q < 4; ++q)
      quarters[q] += p.backlog_quarters[q];
  }
  std::sort(r.outcomes.begin(), r.outcomes.end(),
            [](const Outcome& x, const Outcome& y) { return x.due_ns < y.due_ns; });
  r.backlog_growing = cfg.open_loop && backlog_grows(quarters, 8);
  return r;
}

}  // namespace perfbench
