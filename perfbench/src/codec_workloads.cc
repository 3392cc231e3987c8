// replay_hot and fresh_churn: the codec pair driven in-process.
//
// replay_hot reads the cache (one flow re-downloading File 1, match-heavy,
// almost no cache growth); fresh_churn writes it (a skewed catalogue
// fetched by 8 host pairs through the sharded gateway, with a small L1,
// a shared L2 smaller than the catalogue, and SAMPLEBYTE selection).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <thread>

#include "codec_counters.h"
#include "core/decoder.h"
#include "core/encoder.h"
#include "core/factory.h"
#include "gateway/sharded_gateways.h"
#include "ledger.h"
#include "packet/ipv4.h"
#include "packet/tcp.h"
#include "workload/generators.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace bytecache;

constexpr std::size_t kMss = 1460;
constexpr std::size_t kSetups = 5;  // setup_s is their median

void fill_packet(packet::Packet& pkt, std::uint32_t src, std::uint32_t dst,
                 const util::Bytes& payload, std::uint64_t uid) {
  pkt.ip = packet::Ipv4Header{};
  pkt.ip.src = src;
  pkt.ip.dst = dst;
  pkt.ip.protocol = static_cast<std::uint8_t>(packet::IpProto::kTcp);
  pkt.ip.total_length =
      static_cast<std::uint16_t>(packet::Ipv4Header::kSize + payload.size());
  pkt.payload.assign(payload.begin(), payload.end());
  pkt.uid = uid;
}

bool same_bytes(const util::Bytes& a, const util::Bytes& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size()) == 0;
}

// ------------------------------------------------------------ replay_hot

constexpr std::size_t kHotFileBytes = 587'567;
constexpr std::size_t kHotWarmup = 4;  // fills the 3-file L1 budget
constexpr std::size_t kHotWireDownloads = 64;
constexpr std::size_t kHotLedgerDownloads = 40;
constexpr std::size_t kHotDigestDownloads = 16;
const std::uint32_t kHotSrc = packet::make_ip(10, 0, 1, 1);
const std::uint32_t kHotDst = packet::make_ip(10, 0, 0, 1);

struct HotInputs {
  std::uint64_t seed = 0;
  util::Bytes file;
  std::uint64_t digest = 0;
};

/// Download `d`'s segment payloads (TCP header + data): File 1 over a
/// connection of its own, with a port no earlier download used and a
/// seeded ISN, so the policy never mistakes it for a retransmission.
void hot_download(const HotInputs& in, std::size_t d,
                  std::vector<util::Bytes>& segs) {
  const auto port = static_cast<std::uint16_t>(1024 + d % 64000);
  auto seq = static_cast<std::uint32_t>(derive_seed(in.seed, 1000 + d));
  segs.resize((in.file.size() + kMss - 1) / kMss);
  std::size_t i = 0;
  for (std::size_t off = 0; off < in.file.size(); off += kMss, ++i) {
    const std::size_t n = std::min(kMss, in.file.size() - off);
    packet::TcpHeader h;
    h.src_port = port;
    h.dst_port = 80;
    h.seq = seq;
    h.flags = packet::TcpHeader::kAck;
    segs[i].clear();
    h.serialize(segs[i], util::BytesView(in.file.data() + off, n), kHotSrc,
                kHotDst);
    seq += static_cast<std::uint32_t>(n);
  }
}

std::unique_ptr<HotInputs> make_hot_inputs(std::uint64_t seed) {
  auto in = std::make_unique<HotInputs>();
  in->seed = seed;
  util::Rng file_rng(derive_seed(seed, 1));
  in->file = workload::make_file1(file_rng, kHotFileBytes);
  Digest d;
  std::vector<util::Bytes> segs;
  for (std::size_t k = 0; k < kHotDigestDownloads; ++k) {
    hot_download(*in, k, segs);
    for (const util::Bytes& s : segs) d.add(s);
  }
  in->digest = d.value();
  return in;
}

core::GatewayConfig hot_config() {
  core::GatewayConfig cfg;
  cfg.policy = core::PolicyKind::kCacheFlush;  // the gateway default
  cfg.cache.l1_bytes = 3 * kHotFileBytes;
  return cfg;
}

struct HotPair {
  std::unique_ptr<core::Encoder> enc;
  std::unique_ptr<core::Decoder> dec;
  packet::Packet pkt;
  std::uint64_t uid = 0;
  std::size_t downloads = 0;  // index of the next download
  std::vector<util::Bytes> segs;
};

struct HotPhase {
  std::vector<double> slice_mb_s;         // untraced downloads
  std::vector<double> traced_slice_mb_s;  // traced downloads
  LatencyChunks lat_us;
  std::uint64_t packets = 0;
  std::uint64_t failures = 0;
  std::uint64_t offered = 0;
  std::uint64_t wire = 0;
  std::uint64_t prefix_offered = 0;  // first kHotWireDownloads downloads
  std::uint64_t prefix_wire = 0;
  std::size_t downloads = 0;
};

/// Downloads File 1 over fresh connections until `seconds` have passed
/// and at least `min_downloads` completed.  With `trace`, every other
/// download records the encode and decode call times (spans), so traced
/// and untraced downloads interleave in one phase.
void hot_phase(HotPair& p, const HotInputs& in, double seconds,
               std::size_t min_downloads, bool trace, HotPhase& out,
               std::vector<double>* enc_ns = nullptr,
               std::vector<double>* dec_ns = nullptr) {
  const auto start = Clock::now();
  while (out.downloads < min_downloads || seconds_since(start) < seconds) {
    const bool spans = trace && out.downloads % 2 == 1;
    hot_download(in, p.downloads++, p.segs);
    const std::vector<util::Bytes>& segs = p.segs;
    std::uint64_t offered = 0, wire = 0;
    const auto d0 = Clock::now();
    for (const util::Bytes& seg : segs) {
      fill_packet(p.pkt, kHotSrc, kHotDst, seg, ++p.uid);
      const auto t0 = Clock::now();
      (void)p.enc->process(p.pkt);
      Clock::time_point te;
      if (spans) te = Clock::now();
      wire += p.pkt.payload.size();
      const core::DecodeInfo di = p.dec->process(p.pkt);
      const auto t1 = Clock::now();
      if (spans) {
        enc_ns->push_back(double(ns_between(t0, te)));
        dec_ns->push_back(double(ns_between(te, t1)));
      }
      if (!spans) out.lat_us.add(double(ns_between(t0, t1)) / 1000.0);
      if (core::is_drop(di.status) || !same_bytes(p.pkt.payload, seg)) {
        ++out.failures;
      }
      offered += seg.size();
    }
    const double sec = seconds_since(d0);
    (spans ? out.traced_slice_mb_s : out.slice_mb_s)
        .push_back(double(offered) / 1e6 / sec);
    out.packets += segs.size();
    out.offered += offered;
    out.wire += wire;
    if (out.downloads < kHotWireDownloads) {
      out.prefix_offered += offered;
      out.prefix_wire += wire;
    }
    ++out.downloads;
  }
}

}  // namespace

std::uint64_t replay_hot_digest(std::uint64_t seed) {
  return make_hot_inputs(seed)->digest;
}

Result run_replay_hot(const RunArgs& args) {
  Result r;
  std::vector<double> setups;
  std::unique_ptr<HotInputs> in;
  std::unique_ptr<HotPair> pair;
  const core::GatewayConfig cfg = hot_config();
  for (std::size_t s = 0; s < kSetups; ++s) {
    pair.reset();
    in.reset();
    const auto t0 = Clock::now();
    in = make_hot_inputs(args.seed);
    pair = std::make_unique<HotPair>();
    pair->enc = core::make_encoder(cfg);
    pair->dec = core::make_decoder(cfg);
    HotPhase warm;
    hot_phase(*pair, *in, 0.0, kHotWarmup, false, warm);
    if (warm.failures > 0) r.fail_check("warm-up download delivered wrong bytes");
    setups.push_back(seconds_since(t0));
  }
  r.metrics["setup_s"] = median(setups);
  r.note(fmt("# inputs: File 1 (%zu bytes), a fresh connection per "
             "download, digest %016llx",
             in->file.size(),
             static_cast<unsigned long long>(in->digest)));
  r.note(fmt("# setup_s: median of %zu setups (input generation, codec "
             "construction, %zu warm-up downloads)",
             setups.size(), kHotWarmup));

  HotPair& p = *pair;
  const core::EncoderStats enc0 = p.enc->stats();
  const std::uint64_t drops0 = p.dec->stats().drops();

  HotPhase main;
  std::vector<double> enc_ns;
  std::vector<double> dec_ns;
  const CodecCounters c0 = CodecCounters::of(*p.enc);
  hot_phase(p, *in, args.trace ? args.seconds * 0.8 : args.seconds,
            kHotWireDownloads, args.trace, main, &enc_ns, &dec_ns);
  if (args.trace) report_codec_counters(r, CodecCounters::of(*p.enc) - c0);
  const HotPhase& all = main;

  // Output checks: every packet delivered byte-identical, no decoder
  // drop, and the encoder's own byte counters equal what was counted.
  const core::EncoderStats& enc1 = p.enc->stats();
  r.attempted = all.packets;
  r.failed = all.failures;
  if (all.failures > 0) {
    r.fail_check(fmt("%llu packets not delivered byte-identical",
                     static_cast<unsigned long long>(all.failures)));
  }
  if (p.dec->stats().drops() != drops0) r.fail_check("decoder dropped packets");
  if (enc1.bytes_out - enc0.bytes_out != all.wire) {
    r.fail_check(fmt("encoder bytes_out delta %llu != counted wire bytes %llu",
                     static_cast<unsigned long long>(enc1.bytes_out -
                                                     enc0.bytes_out),
                     static_cast<unsigned long long>(all.wire)));
  }
  if (enc1.bytes_in - enc0.bytes_in != all.offered) {
    r.fail_check("encoder bytes_in delta != offered bytes");
  }

  // One packet in flight: every slice is the codec's own serial work.
  add_throughput_metric(r, main.slice_mb_s, "one File 1 download",
                        Summary::kFastEnd);
  add_latency_metrics(r, main.lat_us,
                      "packets (encode + decode, closed loop, one packet in "
                      "flight)",
                      Summary::kFastEnd);
  r.ratio("wire_ratio", Ratio{double(main.prefix_wire),
                              double(main.prefix_offered)},
          fmt("encoded payload bytes of the first %zu timed downloads",
              kHotWireDownloads),
          "offered TCP payload bytes (header + data) of the same downloads");
  r.metrics["peak_rss_mb"] = self_peak_rss_mb();

  if (args.trace) {
    const double thr_untraced = r.metrics["throughput_mb_s"];
    const double thr_traced = fast_end(main.traced_slice_mb_s, true);
    r.ratio("obs.trace_overhead_frac",
            Ratio{thr_untraced - thr_traced, thr_untraced},
            "untraced minus traced fast-end download throughput",
            "untraced fast-end download throughput (downloads alternate)");
    // The stage ledger: a fresh replica + real pair over the same
    // connections, after the same warm-up.
    Ledger ledger(cfg, 0);
    std::vector<util::Bytes> segs;
    std::uint64_t uid = 0;
    packet::Packet pkt;
    for (std::size_t d = 0; d < kHotWarmup + kHotLedgerDownloads; ++d) {
      const bool timed = d >= kHotWarmup;
      hot_download(*in, d, segs);
      for (const util::Bytes& seg : segs) {
        fill_packet(pkt, kHotSrc, kHotDst, seg, ++uid);
        ledger.feed(pkt, timed);
      }
    }
    ledger.report(r);
    report_call_percentiles(r, std::move(enc_ns), std::move(dec_ns),
                            "the traced downloads");
  }
  return r;
}

// ----------------------------------------------------------- fresh_churn

namespace {

constexpr std::size_t kSites = 20;
constexpr std::size_t kPagesPerSite = 8;
constexpr std::size_t kEbooks = 4;
constexpr std::size_t kChurnFlows = 8;
constexpr std::size_t kChurnShards = 2;
constexpr std::size_t kWindow = 64;      // packets in flight
constexpr std::size_t kSlots = 1024;     // > kWindow; see ChurnRig
constexpr std::size_t kSlicePackets = 2048;
constexpr std::size_t kChurnWirePackets = 20'000;
constexpr std::size_t kChurnLedgerPackets = 16'000;  // shard 0's
constexpr double kZipfS = 0.9;

struct Catalogue {
  std::vector<util::Bytes> objects;
  std::vector<double> cdf;  // popularity, object i at rank perm order
  std::vector<std::size_t> by_rank;
  std::size_t bytes = 0;
  std::size_t video_bytes = 0;
  std::uint64_t digest = 0;
};

std::unique_ptr<Catalogue> make_catalogue(std::uint64_t seed) {
  auto c = std::make_unique<Catalogue>();
  util::Rng rng(derive_seed(seed, 11));
  for (std::size_t s = 0; s < kSites; ++s) {
    workload::WebPageParams wp;
    wp.site_seed = derive_seed(seed, 100 + s);
    for (std::size_t i = 0; i < kPagesPerSite; ++i) {
      wp.items = 20 + rng.uniform(0, 40);
      c->objects.push_back(workload::make_web_page(rng, wp));
    }
  }
  for (std::size_t i = 0; i < kEbooks; ++i) {
    workload::EbookParams ep;
    ep.size = 150'000 + rng.uniform(0, 150'000);
    c->objects.push_back(workload::make_ebook(rng, ep));
  }
  std::size_t other = 0;
  for (const auto& o : c->objects) other += o.size();
  // About a third of the catalogue's bytes are incompressible video.
  const std::size_t videos = 6;
  for (std::size_t i = 0; i < videos; ++i) {
    c->objects.push_back(workload::make_video(rng, other / 2 / videos));
    c->video_bytes += c->objects.back().size();
  }
  for (const auto& o : c->objects) c->bytes += o.size();
  // Popularity: Zipf over a seeded permutation of the objects.
  const std::size_t n = c->objects.size();
  c->by_rank.resize(n);
  for (std::size_t i = 0; i < n; ++i) c->by_rank[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    std::swap(c->by_rank[i - 1], c->by_rank[rng.uniform(0, i - 1)]);
  }
  double acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += 1.0 / std::pow(double(i + 1), kZipfS);
    c->cdf.push_back(acc);
  }
  for (double& v : c->cdf) v /= acc;
  Digest d;
  for (const auto& o : c->objects) d.add(o);
  for (std::size_t i : c->by_rank) d.add_u64(i);
  c->digest = d.value();
  return c;
}

/// The deterministic packet sequence of fresh_churn: 8 host pairs, each
/// fetching one catalogue object after another over a fresh connection,
/// interleaved round-robin.  Timing never changes the sequence.
class ChurnSource {
 public:
  ChurnSource(const Catalogue& cat, std::uint64_t seed)
      : cat_(cat), rng_(derive_seed(seed, 12)) {
    for (std::size_t f = 0; f < kChurnFlows; ++f) {
      Flow fl;
      fl.src = packet::make_ip(10, 1, 0, static_cast<std::uint8_t>(f + 1));
      fl.dst = packet::make_ip(10, 2, 0, static_cast<std::uint8_t>(f + 1));
      flows_.push_back(fl);
    }
  }

  /// Fills the next packet's addresses and payload (TCP header + data).
  void next(std::uint32_t& src, std::uint32_t& dst, util::Bytes& payload) {
    Flow& fl = flows_[turn_++ % flows_.size()];
    if (fl.obj == nullptr || fl.off >= fl.obj->size()) start_fetch(fl);
    const std::size_t n = std::min(kMss, fl.obj->size() - fl.off);
    packet::TcpHeader h;
    h.src_port = fl.port;
    h.dst_port = 80;
    h.seq = fl.seq;
    h.flags = packet::TcpHeader::kAck;
    payload.clear();
    h.serialize(payload, util::BytesView(fl.obj->data() + fl.off, n), fl.src,
                fl.dst);
    fl.off += n;
    fl.seq += static_cast<std::uint32_t>(n);
    src = fl.src;
    dst = fl.dst;
  }

 private:
  struct Flow {
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    std::uint16_t port = 0;
    std::uint32_t seq = 0;
    const util::Bytes* obj = nullptr;
    std::size_t off = 0;
    std::size_t fetches = 0;
  };

  void start_fetch(Flow& fl) {
    const double u = rng_.next_double();
    const std::size_t rank = static_cast<std::size_t>(
        std::lower_bound(cat_.cdf.begin(), cat_.cdf.end(), u) -
        cat_.cdf.begin());
    fl.obj = &cat_.objects[cat_.by_rank[std::min(rank, cat_.cdf.size() - 1)]];
    fl.off = 0;
    // Ports never repeat within a run: a reused (port, lower ISN) pair
    // would read as a retransmission and flush the cache.
    fl.port = static_cast<std::uint16_t>(1024 + fl.fetches++ % 64000);
    fl.seq = static_cast<std::uint32_t>(rng_.next_u64());
  }

  const Catalogue& cat_;
  util::Rng rng_;
  std::vector<Flow> flows_;
  std::size_t turn_ = 0;
};

core::GatewayConfig churn_config(const Catalogue& cat, bool encoder_side) {
  core::GatewayConfig cfg;
  cfg.policy = core::PolicyKind::kCacheFlush;
  cfg.params.select_mode = core::SelectMode::kSampleByte;
  cfg.cache.l1_bytes = 256 * 1024;     // per shard
  cfg.cache.l2_bytes = cat.bytes / 3;  // shared, smaller than the catalogue
  cfg.shards = kChurnShards;
  cfg.ring_capacity = 512;
  cfg.threaded = encoder_side;  // the decoder twin runs on the encoder worker
  return cfg;
}

struct alignas(64) ShardOut {
  LatencyChunks lat_us;
  std::vector<double> handoff_us;
  std::uint64_t wire = 0;
  std::uint64_t prefix_wire = 0;
  std::uint64_t failures = 0;  // wrong bytes, or delivered twice
  std::uint64_t dropped = 0;   // never reached the decoder's sink
};

struct ChurnPhase {
  std::vector<double> slice_mb_s;         // untraced slices
  std::vector<double> traced_slice_mb_s;  // traced slices
  std::vector<double> submit_wait_ns;
  std::uint64_t packets = 0;
  std::uint64_t offered = 0;
  std::uint64_t prefix_offered = 0;
  bool stalled = false;
};

/// The sharded encoder (2 threaded shards) whose workers hand each
/// encoded packet to a decoder twin on the same thread, plus the
/// benchmark's per-packet slots.  A slot holds the offered bytes and the
/// hand-off time of one in-flight packet (uid % kSlots); the submitting
/// thread waits for a slot to be released before reusing it.
class ChurnRig {
 public:
  ChurnRig(const Catalogue& cat, std::uint64_t seed)
      : slots_(kSlots),
        dec_(churn_config(cat, false)),
        enc_(churn_config(cat, true)),
        src_(cat, seed) {
    dec_.set_worker_sink([this](std::size_t i, packet::PacketPtr pkt) {
      const auto now = Clock::now();
      Slot& s = slots_[pkt->uid % kSlots];
      ShardOut& o = out_[i];
      if (s.busy.load(std::memory_order_acquire) == 0) {
        ++o.failures;  // delivered twice, or never offered
        return;
      }
      o.lat_us.add(double(ns_between(s.t0, now)) / 1000.0);
      if (!same_bytes(pkt->payload, s.expected)) ++o.failures;
      s.busy.store(0, std::memory_order_release);
      delivered_.fetch_add(1, std::memory_order_release);
    });
    enc_.set_worker_sink([this](std::size_t i, packet::PacketPtr pkt) {
      ShardOut& o = out_[i];
      if (trace_.load(std::memory_order_relaxed)) {
        const Slot& s = slots_[pkt->uid % kSlots];
        o.handoff_us.push_back(double(ns_between(s.t0, Clock::now())) /
                               1000.0);
      }
      o.wire += pkt->payload.size();
      const std::uint64_t uid = pkt->uid;
      if (uid < prefix_end_.load(std::memory_order_relaxed)) {
        o.prefix_wire += pkt->payload.size();
      }
      dec_.submit_to_shard(i, std::move(pkt));
      // The twin decodes inline: a slot still busy now is a packet the
      // decoder dropped.  Count it and free the slot, so the closed loop
      // goes on and the run reports how many were lost.
      Slot& s = slots_[uid % kSlots];
      if (s.busy.load(std::memory_order_acquire) != 0) {
        ++o.dropped;
        s.busy.store(0, std::memory_order_release);
        delivered_.fetch_add(1, std::memory_order_release);
      }
    });
  }

  ChurnRig(const ChurnRig&) = delete;
  ChurnRig& operator=(const ChurnRig&) = delete;

  /// Runs the closed loop until `seconds` passed and `min_packets` were
  /// offered (or `max_bytes` offered, for the warm-up), then drains.
  /// With `trace`, every other slice records submit and hand-off spans,
  /// so traced and untraced slices interleave in one phase.
  void phase(double seconds, std::size_t min_packets, std::size_t max_bytes,
             bool trace, ChurnPhase& ph) {
    bool spans = false;
    trace_.store(false, std::memory_order_relaxed);
    prefix_end_.store(next_uid_ + kChurnWirePackets,
                      std::memory_order_relaxed);
    const auto start = Clock::now();
    auto slice_t0 = start;
    std::uint64_t slice_bytes = 0;
    std::uint32_t ip_src = 0, ip_dst = 0;
    for (;;) {
      if (max_bytes > 0 ? ph.offered >= max_bytes
                        : (ph.packets >= min_packets &&
                           seconds_since(start) >= seconds)) {
        break;
      }
      const std::uint64_t uid = next_uid_++;
      Slot& s = slots_[uid % kSlots];
      if (!wait([&] { return s.busy.load(std::memory_order_acquire) == 0; })) {
        ph.stalled = true;
        break;
      }
      src_.next(ip_src, ip_dst, s.expected);
      packet::PacketPtr pkt =
          packet::make_packet(ip_src, ip_dst, packet::IpProto::kTcp,
                              s.expected);
      pkt->uid = uid;
      s.busy.store(1, std::memory_order_relaxed);  // published by submit
      const auto t0 = Clock::now();
      s.t0 = t0;
      enc_.submit(std::move(pkt));
      if (spans) {
        ph.submit_wait_ns.push_back(double(ns_between(t0, Clock::now())));
      }
      ++submitted_;
      ++ph.packets;
      ph.offered += s.expected.size();
      if (uid < prefix_end_.load(std::memory_order_relaxed)) {
        ph.prefix_offered += s.expected.size();
      }
      slice_bytes += s.expected.size();
      if (ph.packets % kSlicePackets == 0) {
        const auto now = Clock::now();
        (spans ? ph.traced_slice_mb_s : ph.slice_mb_s)
            .push_back(double(slice_bytes) / 1e6 /
                       std::chrono::duration<double>(now - slice_t0).count());
        slice_t0 = now;
        slice_bytes = 0;
        spans = trace && !spans;
        trace_.store(spans, std::memory_order_relaxed);
      }
      if (!wait([&] {
            return submitted_ -
                       delivered_.load(std::memory_order_acquire) <
                   kWindow;
          })) {
        ph.stalled = true;
        break;
      }
    }
    if (!ph.stalled &&
        !wait([&] {
          return delivered_.load(std::memory_order_acquire) == submitted_;
        })) {
      ph.stalled = true;
    }
    enc_.drain_until_idle();
  }

  gateway::ShardedEncoderGateway& enc() { return enc_; }
  gateway::ShardedDecoderGateway& dec() { return dec_; }
  ShardOut& out(std::size_t i) { return out_[i]; }
  [[nodiscard]] std::uint64_t delivered() const {
    return delivered_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint64_t submitted() const { return submitted_; }

 private:
  struct Slot {
    util::Bytes expected;
    Clock::time_point t0;
    std::atomic<std::uint8_t> busy{0};
  };

  /// Spins (yielding) until `ready()`; false after 10 s without it, which
  /// means the pipeline lost a packet.
  template <typename F>
  bool wait(F ready) {
    if (ready()) return true;
    const auto t0 = Clock::now();
    while (!ready()) {
      std::this_thread::yield();
      if (seconds_since(t0) > 10.0) return false;
    }
    return true;
  }

  // Everything the worker sinks touch is declared before the gateways,
  // and the decoder twin before the encoder: the encoder's destructor
  // joins the workers that call into all of it.
  ShardOut out_[kChurnShards];
  std::vector<Slot> slots_;
  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<bool> trace_{false};
  std::atomic<std::uint64_t> prefix_end_{0};
  gateway::ShardedDecoderGateway dec_;
  gateway::ShardedEncoderGateway enc_;
  ChurnSource src_;
  std::uint64_t submitted_ = 0;
  std::uint64_t next_uid_ = 1;
};

}  // namespace

std::uint64_t fresh_churn_digest(std::uint64_t seed) {
  const auto cat = make_catalogue(seed);
  ChurnSource src(*cat, seed);
  Digest d;
  d.add_u64(cat->digest);
  util::Bytes payload;
  std::uint32_t s = 0, t = 0;
  for (std::size_t i = 0; i < 4096; ++i) {  // the head of the sequence
    src.next(s, t, payload);
    d.add_u64(s);
    d.add_u64(t);
    d.add(payload);
  }
  return d.value();
}

Result run_fresh_churn(const RunArgs& args) {
  Result r;
  std::vector<double> setups;
  std::unique_ptr<Catalogue> cat;
  std::unique_ptr<ChurnRig> rig;
  for (std::size_t s = 0; s < kSetups; ++s) {
    rig.reset();
    cat.reset();
    const auto t0 = Clock::now();
    cat = make_catalogue(args.seed);
    rig = std::make_unique<ChurnRig>(*cat, args.seed);
    ChurnPhase warm;
    rig->phase(0, 0, cat->bytes, false, warm);
    if (warm.stalled) r.fail_check("warm-up stalled: a packet was lost");
    setups.push_back(seconds_since(t0));
  }
  r.metrics["setup_s"] = median(setups);
  r.note(fmt("# inputs: catalogue of %zu objects, %zu bytes (%zu video), "
             "Zipf s=%.1f popularity, %zu flows; digest %016llx",
             cat->objects.size(), cat->bytes, cat->video_bytes, kZipfS,
             kChurnFlows, static_cast<unsigned long long>(cat->digest)));
  r.note(fmt("# setup_s: median of %zu setups (catalogue generation, "
             "gateway construction, an untimed prefix of %zu bytes that "
             "fills the L2)",
             setups.size(), cat->bytes));
  const core::GatewayConfig cfg = churn_config(*cat, true);
  r.note(fmt("# config: %zu threaded shards, L1 %zu B per shard, shared L2 "
             "%zu B, SAMPLEBYTE, policy cache_flush, window %zu packets",
             cfg.shards, cfg.cache.l1_bytes, cfg.cache.l2_bytes, kWindow));

  ChurnRig& rig_ref = *rig;
  auto& enc = rig_ref.enc();
  const std::uint64_t bytes_out0 = enc.encoder_stats().bytes_out;
  std::uint64_t counted_wire0 = 0;
  for (std::size_t i = 0; i < kChurnShards; ++i) {
    counted_wire0 += rig_ref.out(i).wire;
    rig_ref.out(i).lat_us.clear();
  }

  ChurnPhase main;
  std::vector<CodecCounters> before;
  for (std::size_t i = 0; i < kChurnShards; ++i) {
    before.push_back(CodecCounters::of(*enc.shard(i).encoder()));
  }
  rig_ref.phase(args.trace ? args.seconds * 0.8 : args.seconds,
                kChurnWirePackets, 0, args.trace, main);
  LatencyChunks lat;
  std::uint64_t prefix_wire = 0;
  for (std::size_t i = 0; i < kChurnShards; ++i) {
    const auto& o = rig_ref.out(i);
    lat.merge(o.lat_us);
    prefix_wire += o.prefix_wire;
  }
  if (args.trace) {
    CodecCounters delta;
    for (std::size_t i = 0; i < kChurnShards; ++i) {
      delta += CodecCounters::of(*enc.shard(i).encoder()) - before[i];
    }
    report_codec_counters(r, delta);
  }

  // Output checks.
  std::uint64_t failures = 0, lost = 0, counted_wire = 0;
  for (std::size_t i = 0; i < kChurnShards; ++i) {
    failures += rig_ref.out(i).failures;
    lost += rig_ref.out(i).dropped;
    counted_wire += rig_ref.out(i).wire;
  }
  lost += rig_ref.submitted() - rig_ref.delivered();
  r.attempted = rig_ref.submitted();
  r.failed = failures + lost;
  if (main.stalled) r.fail_check("the closed loop stalled");
  if (r.failed > 0) {
    r.fail_check(fmt("%llu packets wrong, %llu never delivered",
                     static_cast<unsigned long long>(failures),
                     static_cast<unsigned long long>(lost)));
  }
  if (rig_ref.dec().stats().dropped != 0) {
    const core::DecoderStats ds = rig_ref.dec().decoder_stats();
    r.fail_check(fmt("decoder twin dropped packets: %llu missing fingerprint, "
                     "%llu crc, %llu bounds, %llu malformed",
                     static_cast<unsigned long long>(ds.drops_missing_fp),
                     static_cast<unsigned long long>(ds.drops_crc),
                     static_cast<unsigned long long>(ds.drops_bad_bounds),
                     static_cast<unsigned long long>(ds.drops_malformed)));
  }
  if (enc.encoder_stats().bytes_out - bytes_out0 !=
      counted_wire - counted_wire0) {
    r.fail_check("encoder bytes_out delta != wire bytes counted at the "
                 "worker sinks");
  }

  add_throughput_metric(r, main.slice_mb_s, "2048 packets",
                        Summary::kMedian);
  add_latency_metrics(r, lat,
                      "packets (submit to decoded bytes at the benchmark, "
                      "64 in flight)",
                      Summary::kMedian);
  r.ratio("wire_ratio", Ratio{double(prefix_wire), double(main.prefix_offered)},
          fmt("encoded payload bytes of the first %zu timed packets",
              kChurnWirePackets),
          "offered TCP payload bytes (header + data) of the same packets");
  r.metrics["peak_rss_mb"] = self_peak_rss_mb();

  if (args.trace) {
    const double thr_untraced = r.metrics["throughput_mb_s"];
    const double thr_traced = median(main.traced_slice_mb_s);
    r.ratio("obs.trace_overhead_frac",
            Ratio{thr_untraced - thr_traced, thr_untraced},
            "untraced minus traced median slice throughput",
            "untraced median slice throughput (slices alternate)");
    double v = 0;
    if (percentile(main.submit_wait_ns, 0.50, v)) {
      r.metrics["gateway.submit_wait_ns_p50"] = v;
    }
    if (percentile(main.submit_wait_ns, 0.99, v)) {
      r.metrics["gateway.submit_wait_ns_p99"] = v;
    }
    std::vector<double> handoff;
    for (std::size_t i = 0; i < kChurnShards; ++i) {
      const auto& h = rig_ref.out(i).handoff_us;
      handoff.insert(handoff.end(), h.begin(), h.end());
    }
    if (percentile(handoff, 0.50, v)) r.metrics["gateway.handoff_us_p50"] = v;
    if (percentile(handoff, 0.99, v)) r.metrics["gateway.handoff_us_p99"] = v;
    r.note(fmt("# samples: gateway.submit_wait_ns_* over %zu submits, "
               "gateway.handoff_us_* over %zu packets",
               main.submit_wait_ns.size(), handoff.size()));
    const obs::Snapshot snap = enc.snapshot();
    const obs::MetricValue* stall =
        snap.find("gateway.encoder.ring_stall_ns");
    r.metrics["gateway.ring_stall_ns_p99"] =
        stall != nullptr ? hist_percentile(stall->hist, 0.99) : 0.0;
    r.note(fmt("# gateway.ring_stall_ns_p99 from the gateway's histogram "
               "(%llu stalls recorded)",
               static_cast<unsigned long long>(
                   stall != nullptr ? stall->hist.count : 0)));
    double max_pkts = 0, sum_pkts = 0;
    for (std::size_t i = 0; i < kChurnShards; ++i) {
      const double n = double(enc.shard(i).stats().packets);
      max_pkts = std::max(max_pkts, n);
      sum_pkts += n;
    }
    r.ratio("gateway.shard_skew",
            Ratio{max_pkts, sum_pkts / double(kChurnShards)},
            "packets of the busiest shard", "mean packets per shard");

    // Stage ledger over shard 0's share of the same sequence.
    core::GatewayConfig lcfg = churn_config(*cat, false);
    Ledger ledger(lcfg, kChurnShards);
    ChurnSource src(*cat, args.seed);
    packet::Packet pkt;
    util::Bytes payload;
    std::uint32_t s = 0, t = 0;
    std::size_t warm_bytes = 0, timed = 0;
    std::uint64_t uid = 0;
    while (timed < kChurnLedgerPackets) {
      src.next(s, t, payload);
      const bool warm = warm_bytes < cat->bytes;
      warm_bytes += payload.size();
      fill_packet(pkt, s, t, payload, ++uid);
      if (gateway::shard_index_of(gateway::shard_key_of(pkt),
                                  kChurnShards) != 0) {
        continue;
      }
      ledger.feed(pkt, !warm);
      if (!warm) ++timed;
    }
    ledger.report(r);
    report_call_percentiles(r, ledger.totals().encode_ns,
                            ledger.totals().decode_ns,
                            "the ledger's real pair on shard 0's packets");
  }
  return r;
}

}  // namespace perfbench
