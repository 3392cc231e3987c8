// udp_loopback: the real bytecache_gateway encoder and decoder as two
// processes joined by 127.0.0.1 UDP, fed by this process as the plain
// datagram generator and sink.  Traffic crosses the host's loopback
// interface, not a real link.
//
// The generator streams a seeded file as datagrams of mixed sizes (64 /
// 512 / 1200 bytes) pass after pass, so every pass after the first is
// redundant.  It keeps a fixed window of datagrams in flight and checks
// each decoded datagram that returns on its egress socket.  The first
// pass is the warm-up; the wire ratio covers passes 1..kWirePasses, read
// from the encoder's stats over its control channel, and is checked
// against the same datagram sequence run through the one-process
// `--backend=sim` gateway.
#include <fcntl.h>
#include <sched.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>
#include <arpa/inet.h>

#include <algorithm>
#include <memory>
#include <cstdlib>
#include <cstring>
#include <optional>

#include "codec_counters.h"
#include "ledger.h"
#include "util/rng.h"
#include "workload/generators.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {
namespace {

using namespace bytecache;

constexpr std::size_t kFileBytes = 384 * 1024;
constexpr std::size_t kSizes[] = {64, 512, 1200};
constexpr std::size_t kTagBytes = 8;  // pass (4) + index (4), big-endian
constexpr std::size_t kWindow = 128;
constexpr std::size_t kWirePasses = 4;
constexpr std::size_t kSetups = 5;
constexpr std::size_t kCacheBytes = 4 * kFileBytes;
constexpr double kDeadlineS = 10.0;

/// The datagram sequence of one pass: chunks of the file, sizes drawn
/// from kSizes.  Every pass sends the same chunks under a new tag.
struct Inputs {
  util::Bytes file;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;  // off, len
  std::uint64_t digest = 0;
};

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  util::Rng rng(derive_seed(seed, 31));
  in.file = workload::make_file1(rng, kFileBytes);
  // Sizes come in blocks holding each size once, in a seeded order: the
  // mix is the same on every seed, only the sequence differs.
  util::Rng order(derive_seed(seed, 32));
  std::size_t block[std::size(kSizes)];
  std::size_t next = std::size(kSizes);
  Digest d;
  d.add(in.file);
  for (std::size_t off = 0; off < in.file.size();) {
    if (next == std::size(kSizes)) {
      std::copy(std::begin(kSizes), std::end(kSizes), block);
      for (std::size_t i = std::size(kSizes); i > 1; --i) {
        std::swap(block[i - 1], block[order.uniform(0, i - 1)]);
      }
      next = 0;
    }
    const std::size_t len =
        std::min(block[next++] - kTagBytes, in.file.size() - off);
    in.chunks.emplace_back(off, len);
    d.add_u64(len);
    off += len;
  }
  in.digest = d.value();
  return in;
}

void put_be32(std::uint8_t* p, std::uint32_t v) {
  p[0] = std::uint8_t(v >> 24);
  p[1] = std::uint8_t(v >> 16);
  p[2] = std::uint8_t(v >> 8);
  p[3] = std::uint8_t(v);
}

std::uint32_t get_be32(const std::uint8_t* p) {
  return std::uint32_t(p[0]) << 24 | std::uint32_t(p[1]) << 16 |
         std::uint32_t(p[2]) << 8 | std::uint32_t(p[3]);
}

/// A non-blocking UDP socket bound to 127.0.0.1 (port 0 = ephemeral).
class Socket {
 public:
  explicit Socket(std::uint16_t port = 0) {
    fd_ = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    int buf = 4 << 20;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &buf, sizeof buf);
    sockaddr_in a = addr(port);
    ::bind(fd_, reinterpret_cast<sockaddr*>(&a), sizeof a);
  }
  ~Socket() { ::close(fd_); }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  static sockaddr_in addr(std::uint16_t port) {
    sockaddr_in a{};
    a.sin_family = AF_INET;
    a.sin_port = htons(port);
    a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return a;
  }

  [[nodiscard]] std::uint16_t port() const {
    sockaddr_in a{};
    socklen_t n = sizeof a;
    ::getsockname(fd_, reinterpret_cast<sockaddr*>(&a), &n);
    return ntohs(a.sin_port);
  }

  bool send_to(std::uint16_t port, const std::uint8_t* data, std::size_t n) {
    const sockaddr_in a = addr(port);
    return ::sendto(fd_, data, n, 0, reinterpret_cast<const sockaddr*>(&a),
                    sizeof a) == static_cast<ssize_t>(n);
  }

  /// One datagram, or -1 when none arrives within `timeout_ms`.
  ssize_t recv(std::uint8_t* buf, std::size_t cap, int timeout_ms) {
    ssize_t n = ::recv(fd_, buf, cap, 0);
    if (n >= 0 || timeout_ms == 0) return n;
    pollfd p{fd_, POLLIN, 0};
    if (::poll(&p, 1, timeout_ms) <= 0) return -1;
    return ::recv(fd_, buf, cap, 0);
  }

 private:
  int fd_ = -1;
};

/// `n` distinct free ports: all sockets stay bound until every port is
/// known, so the kernel cannot hand the same port out twice.
std::vector<std::uint16_t> free_ports(std::size_t n) {
  std::vector<std::unique_ptr<Socket>> held;
  std::vector<std::uint16_t> ports;
  for (std::size_t i = 0; i < n; ++i) {
    held.push_back(std::make_unique<Socket>());
    ports.push_back(held.back()->port());
  }
  return ports;
}

/// Control channel request (net/control.h framing); the response payload
/// or nullopt when no ok answer arrives within `timeout_ms`.
std::optional<std::string> control(std::uint16_t port, std::uint16_t command,
                                   int timeout_ms) {
  Socket s;
  std::uint8_t req[8];
  put_be32(req, 0xBCC77C01);
  req[4] = std::uint8_t(command >> 8);
  req[5] = std::uint8_t(command);
  req[6] = req[7] = 0;
  if (!s.send_to(port, req, sizeof req)) return std::nullopt;
  std::vector<std::uint8_t> buf(65536);
  const ssize_t n = s.recv(buf.data(), buf.size(), timeout_ms);
  if (n < 9 || get_be32(buf.data()) != 0xBCC77C02 || buf[6] != 1) {
    return std::nullopt;
  }
  const std::size_t len = std::size_t(buf[7]) << 8 | buf[8];
  if (9 + len > std::size_t(n)) return std::nullopt;
  return std::string(reinterpret_cast<const char*>(buf.data() + 9), len);
}

constexpr std::uint16_t kPing = 1;
constexpr std::uint16_t kStats = 2;

/// Counter `name` of a JSONL snapshot; nullopt when absent.
std::optional<double> jsonl_counter(const std::string& jsonl,
                                    const std::string& name) {
  const std::string key = "{\"name\":\"" + name + "\",";
  const std::size_t at = jsonl.find(key);
  if (at == std::string::npos) return std::nullopt;
  const std::size_t v = jsonl.find("\"value\":", at);
  if (v == std::string::npos) return std::nullopt;
  return std::strtod(jsonl.c_str() + v + 8, nullptr);
}

/// Histogram `name` of a JSONL snapshot (count and buckets).
std::optional<obs::HistogramValue> jsonl_hist(const std::string& jsonl,
                                              const std::string& name) {
  const std::string key = "{\"name\":\"" + name + "\",";
  const std::size_t at = jsonl.find(key);
  if (at == std::string::npos) return std::nullopt;
  const std::size_t end = jsonl.find('\n', at);
  const std::string line = jsonl.substr(at, end - at);
  obs::HistogramValue h;
  auto field = [&](const char* f) -> std::uint64_t {
    const std::size_t p = line.find(f);
    return p == std::string::npos
               ? 0
               : std::strtoull(line.c_str() + p + std::strlen(f), nullptr, 10);
  };
  h.count = field("\"count\":");
  h.sum = field("\"sum\":");
  h.max = field("\"max\":");
  std::size_t p = line.find("\"buckets\":[");
  if (p == std::string::npos) return std::nullopt;
  p += 11;
  while ((p = line.find('[', p)) != std::string::npos) {
    char* e = nullptr;
    const std::uint64_t ub = std::strtoull(line.c_str() + p + 1, &e, 10);
    const std::uint64_t n = std::strtoull(e + 1, nullptr, 10);
    for (std::size_t i = 0; i < obs::Histogram::kBuckets; ++i) {
      if (obs::Histogram::upper_bound(i) == ub) h.buckets[i] = n;
    }
    ++p;
  }
  return h;
}

/// A spawned gateway process whose stdout (the --stats-exit snapshot) is
/// read after it exits.  The destructor kills and reaps a process that
/// is still running.
class Gateway {
 public:
  Gateway(const std::string& exe, std::vector<std::string> args) {
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) return;
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
    std::vector<char*> argv;
    args.insert(args.begin(), exe);
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    if (posix_spawn(&pid_, exe.c_str(), &fa, nullptr, argv.data(), environ) !=
        0) {
      pid_ = -1;
    }
    posix_spawn_file_actions_destroy(&fa);
    ::close(fds[1]);
    out_fd_ = fds[0];
  }
  ~Gateway() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    if (out_fd_ >= 0) ::close(out_fd_);
  }
  Gateway(const Gateway&) = delete;
  Gateway& operator=(const Gateway&) = delete;

  [[nodiscard]] bool started() const { return pid_ > 0; }
  [[nodiscard]] pid_t pid() const { return pid_; }

  /// SIGTERM, then collects stdout and the exit status; false if the
  /// process did not exit 0 within the deadline.
  bool stop() {
    if (pid_ <= 0) return false;
    ::kill(pid_, SIGTERM);
    const auto t0 = Clock::now();
    char buf[65536];
    for (;;) {
      pollfd p{out_fd_, POLLIN, 0};
      if (::poll(&p, 1, 100) > 0) {
        const ssize_t n = ::read(out_fd_, buf, sizeof buf);
        if (n <= 0) break;
        stdout_.append(buf, std::size_t(n));
      }
      if (seconds_since(t0) > kDeadlineS) {
        ::kill(pid_, SIGKILL);
        break;
      }
    }
    int status = 0;
    struct rusage ru {};
    if (::wait4(pid_, &status, 0, &ru) != pid_) return false;
    pid_ = -1;
    peak_rss_mb_ = double(ru.ru_maxrss) / 1024.0;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

  [[nodiscard]] const std::string& stats() const { return stdout_; }
  [[nodiscard]] double peak_rss_mb() const { return peak_rss_mb_; }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::string stdout_;
  double peak_rss_mb_ = 0;
};

/// Pins `pid` (0 = this process) to the `k`-th CPU this process may run
/// on.  The generator and the two gateways each get a CPU of their own,
/// so the scheduler never migrates them mid-run; with fewer than three
/// CPUs nothing is pinned.  Returns the CPU, or -1.
int pin(pid_t pid, std::size_t k) {
  static const std::vector<int> cpus = [] {
    std::vector<int> v;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) v.push_back(c);
      }
    }
    return v;
  }();
  if (cpus.size() < 3 || k >= cpus.size()) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[k], &one);
  return sched_setaffinity(pid, sizeof one, &one) == 0 ? cpus[k] : -1;
}

bool wait_ready(std::uint16_t control_port) {
  const auto t0 = Clock::now();
  while (seconds_since(t0) < kDeadlineS) {
    if (control(control_port, kPing, 50)) return true;
  }
  return false;
}

/// One side of the measurement: a running gateway deployment (the UDP
/// pair, or the one-process sim backend) and the generator that feeds
/// it.
struct Deployment {
  std::unique_ptr<Gateway> encoder;  // or the sim gateway
  std::unique_ptr<Gateway> decoder;  // null for the sim backend
  std::uint16_t ingress = 0;
  std::uint16_t enc_control = 0;
  std::unique_ptr<Socket> out;
  std::unique_ptr<Socket> sink;
};

std::unique_ptr<Deployment> try_deploy(const std::string& exe, bool sim) {
  auto d = std::make_unique<Deployment>();
  d->out = std::make_unique<Socket>();
  d->sink = std::make_unique<Socket>();
  const std::vector<std::uint16_t> ports = free_ports(5);
  d->ingress = ports[0];
  d->enc_control = ports[1];
  const std::string lo = "127.0.0.1:";
  const std::string cache = "--cache-bytes=" + std::to_string(kCacheBytes);
  const std::string egress = "--egress=" + lo + std::to_string(d->sink->port());
  if (sim) {
    d->encoder = std::make_unique<Gateway>(
        exe, std::vector<std::string>{
                 "--backend=sim", "--ingress=" + lo + std::to_string(d->ingress),
                 egress, "--control=" + lo + std::to_string(d->enc_control),
                 cache, "--stats-exit"});
    if (!d->encoder->started() || !wait_ready(d->enc_control)) return nullptr;
    pin(d->encoder->pid(), 1);
    return d;
  }
  const std::uint16_t enc_tun = ports[2], dec_tun = ports[3];
  const std::uint16_t dec_control = ports[4];
  d->decoder = std::make_unique<Gateway>(
      exe, std::vector<std::string>{
               "--role=decode", "--tunnel=" + lo + std::to_string(dec_tun),
               egress, "--control=" + lo + std::to_string(dec_control), cache,
               "--stats-exit"});
  d->encoder = std::make_unique<Gateway>(
      exe, std::vector<std::string>{
               "--role=encode", "--ingress=" + lo + std::to_string(d->ingress),
               "--tunnel=" + lo + std::to_string(enc_tun),
               "--peer=" + lo + std::to_string(dec_tun),
               "--control=" + lo + std::to_string(d->enc_control), cache,
               "--stats-exit"});
  if (!d->decoder->started() || !d->encoder->started() ||
      !wait_ready(dec_control) || !wait_ready(d->enc_control)) {
    return nullptr;
  }
  pin(d->encoder->pid(), 1);
  pin(d->decoder->pid(), 2);
  return d;
}

/// Starts the gateways, trying again with fresh ports when one of them did
/// not come up (another process may take a port between its probe and the
/// gateway's bind).  nullptr after three failed attempts.
std::unique_ptr<Deployment> deploy(const std::string& exe, bool sim) {
  for (int attempt = 0; attempt < 3; ++attempt) {
    if (auto d = try_deploy(exe, sim)) return d;
  }
  return nullptr;
}

struct PassLog {
  std::vector<double> slice_mb_s;
  LatencyChunks lat_us;
  std::uint64_t sent = 0;
  std::uint64_t failures = 0;  // missing, duplicate or corrupt
};

/// Streams pass `pass` with kWindow datagrams in flight and waits until
/// every datagram of the pass returned (or the deadline passed).
class Generator {
 public:
  Generator(const Inputs& in, Deployment& d) : in_(in), d_(d) {
    buf_.resize(65536);
    t0_.resize(in.chunks.size());
    seen_.resize(in.chunks.size());
  }

  void pass(std::uint32_t pass, PassLog& log, bool timed) {
    std::fill(seen_.begin(), seen_.end(), 0);
    std::size_t inflight = 0, received = 0;
    std::uint8_t dg[1500];
    std::uint64_t bytes = 0;
    const auto start = Clock::now();
    for (std::size_t i = 0; i < in_.chunks.size(); ++i) {
      while (inflight >= kWindow) {
        if (!pump(pass, log, timed, inflight, received, 1)) {
          if (seconds_since(start) > kDeadlineS) break;
        }
      }
      const auto [off, len] = in_.chunks[i];
      put_be32(dg, pass);
      put_be32(dg + 4, std::uint32_t(i));
      std::memcpy(dg + kTagBytes, in_.file.data() + off, len);
      t0_[i] = Clock::now();
      // A refused send never returns, so it counts as missing below.
      (void)d_.out->send_to(d_.ingress, dg, kTagBytes + len);
      ++inflight;
      bytes += kTagBytes + len;
    }
    while (received < in_.chunks.size() && seconds_since(start) < kDeadlineS) {
      pump(pass, log, timed, inflight, received, 1);
    }
    log.sent += in_.chunks.size();
    log.failures += in_.chunks.size() - received;
    if (timed) {
      log.slice_mb_s.push_back(double(bytes) / 1e6 / seconds_since(start));
    }
  }

 private:
  /// Receives what has arrived; false when nothing did within the timeout.
  bool pump(std::uint32_t pass, PassLog& log, bool timed,
            std::size_t& inflight, std::size_t& received, int timeout_ms) {
    bool any = false;
    for (;;) {
      const ssize_t n =
          d_.sink->recv(buf_.data(), buf_.size(), any ? 0 : timeout_ms);
      if (n < 0) return any;
      any = true;
      const auto now = Clock::now();
      if (std::size_t(n) < kTagBytes ||
          get_be32(buf_.data()) != pass ||
          get_be32(buf_.data() + 4) >= in_.chunks.size()) {
        ++log.failures;  // a datagram of another pass, or garbage
        continue;
      }
      const std::size_t i = get_be32(buf_.data() + 4);
      const auto [off, len] = in_.chunks[i];
      if (seen_[i] != 0 || std::size_t(n) != kTagBytes + len ||
          std::memcmp(buf_.data() + kTagBytes, in_.file.data() + off, len) !=
              0) {
        ++log.failures;
        continue;
      }
      seen_[i] = 1;
      ++received;
      --inflight;
      if (timed) {
        log.lat_us.add(double(ns_between(t0_[i], now)) / 1000.0);
      }
    }
  }

  const Inputs& in_;
  Deployment& d_;
  std::vector<std::uint8_t> buf_;
  std::vector<Clock::time_point> t0_;
  std::vector<std::uint8_t> seen_;
};

struct TunnelBytes {
  double plain_in = 0;
  double tunnel_out = 0;
  double enc_bytes_out = 0;
  double encoded_packets = 0;
};

std::optional<TunnelBytes> tunnel_bytes(const std::string& jsonl) {
  const auto a = jsonl_counter(jsonl, "net.plain.plain_bytes_in");
  const auto b = jsonl_counter(jsonl, "net.tunnel.bytes_out");
  const auto c = jsonl_counter(jsonl, "encoder.bytes_out");
  const auto e = jsonl_counter(jsonl, "encoder.encoded_packets");
  if (!a || !b || !c || !e) return std::nullopt;
  return TunnelBytes{*a, *b, *c, *e};
}

std::optional<TunnelBytes> query_tunnel_bytes(std::uint16_t control_port) {
  const auto s = control(control_port, kStats, 2000);
  if (!s) return std::nullopt;
  return tunnel_bytes(*s);
}

/// The next kWirePasses passes, with the encoder's tunnel counters read
/// before and after them; nullopt if a query failed.
std::optional<TunnelBytes> wire_passes(Generator& gen, Deployment& d,
                                       PassLog& log, bool timed,
                                       std::uint32_t& next_pass) {
  const auto before = query_tunnel_bytes(d.enc_control);
  for (std::size_t p = 0; p < kWirePasses; ++p) {
    gen.pass(next_pass++, log, timed);
  }
  const auto after = query_tunnel_bytes(d.enc_control);
  if (!before || !after) return std::nullopt;
  return TunnelBytes{after->plain_in - before->plain_in,
                     after->tunnel_out - before->tunnel_out,
                     after->enc_bytes_out - before->enc_bytes_out,
                     after->encoded_packets - before->encoded_packets};
}

}  // namespace

std::uint64_t udp_loopback_digest(std::uint64_t seed) {
  return make_inputs(seed).digest;
}

Result run_udp_loopback(const RunArgs& args) {
  Result r;
  r.note("# traffic: loopback (127.0.0.1 UDP between processes), not a "
         "real link");
  const int cpu = pin(0, 0);
  r.note(cpu >= 0 ? "# cpus: generator, encoder and decoder pinned to one "
                    "CPU each"
                  : "# cpus: fewer than 3 CPUs available, nothing pinned");
  std::vector<double> setups;
  Inputs in;
  std::unique_ptr<Deployment> d;
  std::unique_ptr<Generator> gen;
  PassLog warm;
  for (std::size_t s = 0; s < kSetups; ++s) {
    if (d) {
      gen.reset();
      d->encoder->stop();
      d->decoder->stop();
      d.reset();
    }
    const auto t0 = Clock::now();
    in = make_inputs(args.seed);
    d = deploy(args.gateway, false);
    if (!d) {
      r.fail_check("the gateway pair did not start or answer ping");
      r.attempted = 1;
      r.failed = 1;
      return r;
    }
    gen = std::make_unique<Generator>(in, *d);
    warm = PassLog{};
    gen->pass(0, warm, false);
    setups.push_back(seconds_since(t0));
  }
  r.metrics["setup_s"] = median(setups);
  r.note(fmt("# inputs: %zu-byte file as %zu datagrams per pass (64/512/1200 "
             "bytes), digest %016llx",
             in.file.size(), in.chunks.size(),
             static_cast<unsigned long long>(in.digest)));
  r.note(fmt("# setup_s: median of %zu setups (input generation, spawning "
             "both gateways until they answer ping, one warm-up pass)",
             setups.size()));

  // Timed passes: first the fixed wire-ratio passes, then more until the
  // run's time is up.
  PassLog log;
  std::uint32_t next_pass = 1;
  const auto start = Clock::now();
  const auto wire = wire_passes(*gen, *d, log, true, next_pass);
  while (seconds_since(start) < args.seconds) {
    gen->pass(next_pass++, log, true);
  }

  gen.reset();
  const bool enc_ok = d->encoder->stop();
  const bool dec_ok = d->decoder->stop();
  const std::string& enc_stats = d->encoder->stats();
  const std::string& dec_stats = d->decoder->stats();

  r.attempted = warm.sent + log.sent;
  r.failed = warm.failures + log.failures;
  if (r.failed > 0) {
    r.fail_check(fmt("%llu datagrams missing, duplicated or corrupt by the "
                     "deadline",
                     static_cast<unsigned long long>(r.failed)));
  }
  if (!enc_ok || !dec_ok) r.fail_check("a gateway did not exit cleanly");
  if (!wire) {
    r.fail_check("encoder stats query over the control channel failed");
  }

  // kWindow datagrams in flight: the fastest passes are the queue
  // draining, so the run reports its median pass.
  add_throughput_metric(r, log.slice_mb_s, "one pass", Summary::kMedian);
  add_latency_metrics(r, log.lat_us,
                      fmt("datagrams (sendto into the encoder to recv of the "
                          "decoded datagram, %zu in flight)",
                          kWindow),
                      Summary::kMedian);
  r.metrics["peak_rss_mb"] =
      d->encoder->peak_rss_mb() + d->decoder->peak_rss_mb();
  r.note("# peak_rss_mb: encoder + decoder gateway processes (wait4)");

  if (wire) {
    r.ratio("wire_ratio", {wire->tunnel_out, wire->plain_in},
            fmt("encoder tunnel bytes out (IP/UDP headers and shim "
                "included) over passes 1..%zu",
                kWirePasses),
            "plain datagram bytes into the encoder over the same passes");
    // The same datagram sequence through the one-process sim backend must
    // put the same bytes on its tunnel.
    auto sim = deploy(args.gateway, true);
    if (!sim) {
      r.fail_check("the sim-backend gateway did not start");
    } else {
      Generator sim_gen(in, *sim);
      PassLog sim_log;
      sim_gen.pass(0, sim_log, false);
      std::uint32_t sim_pass = 1;
      const auto sim_wire = wire_passes(sim_gen, *sim, sim_log, false,
                                        sim_pass);
      if (!sim->encoder->stop()) r.fail_check("sim gateway exit");
      if (sim_log.failures > 0) r.fail_check("sim backend lost datagrams");
      if (!sim_wire || sim_wire->tunnel_out != wire->tunnel_out ||
          sim_wire->plain_in != wire->plain_in ||
          sim_wire->enc_bytes_out != wire->enc_bytes_out ||
          sim_wire->encoded_packets != wire->encoded_packets) {
        r.fail_check(fmt("udp and sim backends disagree on passes 1..%zu: "
                         "tunnel bytes %.0f vs %.0f",
                         kWirePasses, wire->tunnel_out,
                         sim_wire ? sim_wire->tunnel_out : -1.0));
      } else {
        r.note(fmt("# check: sim backend put the same %.0f tunnel bytes "
                   "for the same %.0f plain bytes",
                   sim_wire->tunnel_out, sim_wire->plain_in));
      }
    }
  }

  if (args.trace) {
    const auto enc_h = jsonl_hist(enc_stats, "gateway.encoder.encode_ns");
    const auto dec_h = jsonl_hist(dec_stats, "gateway.decoder.decode_ns");
    const double enc_p50 = enc_h ? hist_percentile(*enc_h, 0.5) : 0;
    const double dec_p50 = dec_h ? hist_percentile(*dec_h, 0.5) : 0;
    r.metrics["net.gw_encode_ns_p50"] = enc_p50;
    r.metrics["net.gw_decode_ns_p50"] = dec_p50;
    r.note(fmt("# net.gw_*_ns_p50: gateway histograms (power-of-two "
               "buckets, interpolated), %llu / %llu sampled spans",
               static_cast<unsigned long long>(enc_h ? enc_h->count : 0),
               static_cast<unsigned long long>(dec_h ? dec_h->count : 0)));
    r.metrics["net.stack_us_p50"] =
        r.metrics["latency_us_p50"] - (enc_p50 + dec_p50) / 1000.0;
    r.metrics["net.send_failures"] =
        jsonl_counter(enc_stats, "net.tunnel.send_failures").value_or(0) +
        jsonl_counter(dec_stats, "net.tunnel.send_failures").value_or(0);
    const auto total = tunnel_bytes(enc_stats);
    if (total) {
      r.ratio("net.tunnel_bytes_ratio", {total->tunnel_out, total->plain_in},
              "encoder net.tunnel.bytes_out, whole run",
              "encoder net.plain.plain_bytes_in, whole run");
    }
    const double lookups =
        jsonl_counter(enc_stats, "encoder.cache.lookups").value_or(0);
    const double hits =
        jsonl_counter(enc_stats, "encoder.cache.hits").value_or(0);
    const double stale =
        jsonl_counter(enc_stats, "encoder.cache.stale_hits").value_or(0);
    r.ratio("cache.hit_ratio", {hits, lookups}, "encoder.cache.hits",
            "encoder.cache.lookups");
    r.ratio("cache.stale_hit_ratio", {stale, lookups},
            "encoder.cache.stale_hits", "encoder.cache.lookups");
    const double data =
        jsonl_counter(enc_stats, "encoder.data_packets").value_or(0);
    const double regions =
        jsonl_counter(enc_stats, "encoder.regions").value_or(0);
    r.ratio("core.regions_per_pkt", {regions, data}, "encoder.regions",
            "encoder.data_packets");
    r.ratio("core.useful_hit_ratio", {regions, hits}, "encoder.regions",
            "encoder.cache.hits");
    r.ratio("cache.fp_purged_per_pkt",
            {jsonl_counter(enc_stats, "encoder.cache.fingerprints_purged")
                 .value_or(0),
             data},
            "encoder.cache.fingerprints_purged", "encoder.data_packets");
    r.ratio("core.deps_per_pkt",
            {jsonl_counter(enc_stats, "encoder.dependency_links").value_or(0),
             jsonl_counter(enc_stats, "encoder.encoded_packets").value_or(0)},
            "encoder.dependency_links", "encoder.encoded_packets");

    std::vector<util::BytesView> payloads;
    for (const auto& [off, len] : in.chunks) {
      payloads.emplace_back(in.file.data() + off, len);
    }
    report_scan_cost(r, payloads, core::DreParams{});
    // obs.trace_overhead_frac stays absent: the traced run adds no span
    // to this data path (the gateways' own histograms are always on).
  }
  return r;
}

}  // namespace perfbench
