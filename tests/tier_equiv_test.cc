// Tier equivalence and lockstep suite (DESIGN.md §14).
//
// The CacheTier facade must be invisible on the wire whenever the L2
// never comes into play: for every tracked data-plane configuration, a
// codec pair with an attached-but-idle L2 (unbounded L1, so nothing ever
// demotes) must emit byte-identical wire traffic to the plain flat-cache
// codec — the pre-tier behavior, which no-L2 CacheTier *is*.  The same
// holds for the journaling mode knob, a pure bookkeeping concern.
//
// Where the L2 does engage (a bounded L1 under an eviction-heavy
// stream), the tier may only help: decode stays lossless and the wire
// never grows, with demotions and L2 hits both observed.
//
// Lockstep: a cache hit never changes cache state, so bounded encoder
// and decoder caches hold the same packets in the same order after every
// packet, even though the encoder looks up (and then drops) hits the
// decoder never asks about.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "cache/cache_config.h"
#include "cache/l2_store.h"
#include "core/decoder.h"
#include "core/encoder.h"
#include "core/factory.h"
#include "gateway/sharded_gateways.h"
#include "packet/packet.h"
#include "tests/testutil.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace bytecache {
namespace {

using testutil::make_tcp_packet;
using testutil::random_bytes;
using testutil::segment_stream;
using testutil::test_encoder;
using util::Bytes;
using util::Rng;

struct E2EConfig {
  const char* name;
  core::PolicyKind policy;
  core::SelectMode mode;
  std::size_t cache_bytes;
  bool epoch_resync;
};

// The six tracked data-plane configurations (mirrors
// tests/simd_kernel_test.cc and bench_throughput's workload list).
constexpr E2EConfig kConfigs[] = {
    {"naive_valuesampling", core::PolicyKind::kNaive,
     core::SelectMode::kValueSampling, 0, false},
    {"naive_maxp", core::PolicyKind::kNaive, core::SelectMode::kMaxp, 0,
     false},
    {"naive_samplebyte", core::PolicyKind::kNaive,
     core::SelectMode::kSampleByte, 0, false},
    {"tcpseq_valuesampling", core::PolicyKind::kTcpSeq,
     core::SelectMode::kValueSampling, 0, false},
    {"naive_bounded256k", core::PolicyKind::kNaive,
     core::SelectMode::kValueSampling, 256 * 1024, false},
    {"resilient_valuesampling", core::PolicyKind::kResilient,
     core::SelectMode::kValueSampling, 0, true},
};

/// Encodes `object` under `cfg` with the given cache configuration
/// (optionally tier-backed) and returns the exact wire bytes, verifying
/// lossless decode along the way.  When `cache.has_l2()`, each side gets
/// its own single-stripe store, exactly as a plain gateway provisions.
std::vector<Bytes> wire_bytes_under(const E2EConfig& cfg, const Bytes& object,
                                    const cache::CacheConfig& cache,
                                    cache::TierStats* enc_tier = nullptr) {
  core::DreParams params;
  params.select_mode = cfg.mode;
  params.epoch_resync = cfg.epoch_resync;
  std::unique_ptr<cache::L2Store> enc_l2, dec_l2;
  if (cache.has_l2()) {
    enc_l2 = std::make_unique<cache::L2Store>(cache, 1);
    dec_l2 = std::make_unique<cache::L2Store>(cache, 1);
  }
  core::Encoder enc =
      test_encoder(cfg.policy, params, cache, enc_l2.get());
  core::Decoder dec(params, cache, dec_l2.get());
  std::vector<Bytes> wire;
  for (const auto& pkt : segment_stream(object)) {
    const Bytes original = pkt->payload;
    enc.process(*pkt);
    wire.push_back(pkt->payload);
    const auto dinfo = dec.process(*pkt);
    EXPECT_FALSE(core::is_drop(dinfo.status)) << cfg.name;
    EXPECT_EQ(pkt->payload, original) << cfg.name;
  }
  enc.audit();
  dec.audit();
  if (enc_tier != nullptr) *enc_tier = enc.cache().tier_stats();
  return wire;
}

/// A redundant stream: repeated Zipf-drawn chunks with noise, sized so
/// the bounded configs see real eviction churn.
Bytes redundant_object(Rng& rng) {
  Bytes object;
  std::vector<Bytes> chunks;
  for (int i = 0; i < 6; ++i) {
    chunks.push_back(random_bytes(rng, 500 + 100 * static_cast<std::size_t>(i)));
  }
  for (int i = 0; i < 100; ++i) {
    const Bytes& c = chunks[rng.zipf(chunks.size(), 1.0)];
    object.insert(object.end(), c.begin(), c.end());
    const Bytes noise = random_bytes(rng, rng.uniform(50, 400));
    object.insert(object.end(), noise.begin(), noise.end());
  }
  return object;
}

/// A cyclic stream: `kCycleChunks` distinct 1 KiB chunks replayed in
/// order `reps` times.  The cycle (~128 KiB) exceeds a small L1, so by
/// the time a chunk recurs its packet has been evicted — while still
/// owning its fingerprints, which is what populates the L2 index.  This
/// is the working set shape the tier exists for; the Zipf-redundant
/// stream above never engages the L2, because its hot fingerprints are
/// perpetually re-owned by fresh L1 insertions.
Bytes cyclic_object(Rng& rng, int reps = 3) {
  constexpr int kCycleChunks = 128;
  std::vector<Bytes> chunks;
  for (int i = 0; i < kCycleChunks; ++i) {
    chunks.push_back(random_bytes(rng, 1024));
  }
  Bytes object;
  for (int r = 0; r < reps; ++r) {
    for (const Bytes& c : chunks) {
      object.insert(object.end(), c.begin(), c.end());
    }
  }
  return object;
}

std::uint64_t total(const std::vector<Bytes>& wire) {
  std::uint64_t n = 0;
  for (const Bytes& b : wire) n += b.size();
  return n;
}

TEST(TierEquiv, IdleL2IsByteTransparentForEveryConfig) {
  Rng rng(testutil::test_seed(301));
  const Bytes object = redundant_object(rng);
  for (const E2EConfig& cfg : kConfigs) {
    if (cfg.cache_bytes != 0) continue;  // bounded: the L2 engages
    cache::CacheConfig flat;  // unbounded L1, no L2: the pre-tier cache
    const std::vector<Bytes> baseline = wire_bytes_under(cfg, object, flat);

    cache::CacheConfig tiered = flat;
    tiered.l2_bytes = 4 * 1024 * 1024;
    tiered.per_host_pair_bytes = 256 * 1024;
    cache::TierStats stats;
    const std::vector<Bytes> wired =
        wire_bytes_under(cfg, object, tiered, &stats);

    // Nothing demoted, so the tier must not have changed a single byte.
    EXPECT_EQ(stats.demotions, 0u) << cfg.name;
    ASSERT_EQ(wired.size(), baseline.size()) << cfg.name;
    for (std::size_t i = 0; i < wired.size(); ++i) {
      ASSERT_EQ(wired[i], baseline[i]) << cfg.name << " packet " << i;
    }
  }
}

TEST(TierEquiv, JournalingModeNeverTouchesTheWire) {
  // The incremental-snapshot journal is bookkeeping only: running the
  // eviction-heavy bounded config with journaling on must reproduce the
  // kFull run byte for byte.
  Rng rng(testutil::test_seed(302));
  const Bytes object = cyclic_object(rng);
  const E2EConfig& bounded = kConfigs[4];

  cache::CacheConfig cc;
  cc.l1_bytes = 64 * 1024;  // smaller than the cycle: the tier engages
  cc.l2_bytes = 1024 * 1024;
  const std::vector<Bytes> full = wire_bytes_under(bounded, object, cc);

  cache::CacheConfig journaled = cc;
  journaled.snapshot_mode = cache::SnapshotMode::kIncremental;
  const std::vector<Bytes> incr = wire_bytes_under(bounded, object, journaled);

  ASSERT_EQ(incr.size(), full.size());
  for (std::size_t i = 0; i < incr.size(); ++i) {
    ASSERT_EQ(incr[i], full[i]) << "packet " << i;
  }
}

TEST(TierEquiv, EngagedTierOnlyEverShrinksTheWire) {
  // Under the bounded config the L1 churns; with an L2 behind it the
  // evictees stay reachable, so compression can only improve — and both
  // demotions and L2 hits must actually happen.
  Rng rng(testutil::test_seed(304));
  const Bytes object = cyclic_object(rng);
  const E2EConfig& bounded = kConfigs[4];

  cache::CacheConfig flat;
  flat.l1_bytes = 64 * 1024;  // small enough to churn hard
  const std::vector<Bytes> flat_wire =
      wire_bytes_under(bounded, object, flat);

  cache::CacheConfig tiered = flat;
  tiered.l2_bytes = 4 * 1024 * 1024;
  cache::TierStats stats;
  const std::vector<Bytes> tier_wire =
      wire_bytes_under(bounded, object, tiered, &stats);

  EXPECT_GT(stats.demotions, 0u);
  EXPECT_GT(stats.l2_hits, 0u);
  EXPECT_LE(total(tier_wire), total(flat_wire));
}

// ------------------------------------------------------------ lockstep --

constexpr std::size_t kLockstepL1 = 256 * 1024;
constexpr std::size_t kLockstepL2 = 128 * 1024;  // per stripe

/// A Zipf-skewed catalogue: random objects of 6–20 KiB (~0.5 MiB in all,
/// about twice the L1 and four times an L2 stripe), and a request list
/// drawn by Zipf(0.9) popularity — popular objects recur while still in
/// the L1, middling ones after demotion to the L2, the tail after both
/// tiers forgot them.
struct Catalogue {
  std::vector<Bytes> objects;
  std::size_t bytes = 0;
};

Catalogue zipf_catalogue(Rng& rng) {
  Catalogue cat;
  for (int i = 0; i < 40; ++i) {
    cat.objects.push_back(random_bytes(rng, rng.uniform(6 * 1024, 20 * 1024)));
    cat.bytes += cat.objects.back().size();
  }
  return cat;
}

/// One host pair downloading `requests` Zipf draws from the catalogue
/// back to back over one TCP connection (sequence numbers only advance),
/// as MSS-sized segments.  With `resend`, about one segment in 16 is
/// followed by a re-send of the segment two back: a go-back
/// retransmission whose own cached copy (and its successor's) the
/// tcp_seq policy's admit() must refuse to reference.
std::vector<packet::PacketPtr> download_stream(const Catalogue& cat,
                                               std::uint32_t src,
                                               int requests, bool resend,
                                               Rng& rng) {
  constexpr std::size_t kMss = 1460;
  std::vector<packet::PacketPtr> out;
  std::uint32_t seq = 1000;
  for (int r = 0; r < requests; ++r) {
    const Bytes& object = cat.objects[rng.zipf(cat.objects.size(), 0.9)];
    const util::BytesView view(object);
    for (std::size_t off = 0; off < object.size(); off += kMss) {
      const std::size_t len = std::min(kMss, object.size() - off);
      const auto at = static_cast<std::uint32_t>(off);
      out.push_back(make_tcp_packet(view.subspan(off, len), seq + at, src));
      if (resend && off >= 2 * kMss && rng.chance(1.0 / 16)) {
        out.push_back(make_tcp_packet(view.subspan(off - 2 * kMss, kMss),
                                      seq + at - 2 * kMss, src));
      }
    }
    seq += static_cast<std::uint32_t>(object.size());
  }
  return out;
}

/// Whether two codec caches hold the same state: the same L1 packets in
/// the same order (store ids are assigned per insert, so lockstep codecs
/// agree on them), the same fingerprint count, and the same L2 residents.
testing::AssertionResult same_cache(const cache::CacheTier& enc,
                                    const cache::CacheTier& dec) {
  std::vector<std::uint64_t> a, b;
  for (const cache::CachedPacket& p : enc.store().entries()) a.push_back(p.id);
  for (const cache::CachedPacket& p : dec.store().entries()) b.push_back(p.id);
  if (a != b) {
    return testing::AssertionFailure()
           << "L1 id sequences differ (" << a.size() << " vs " << b.size()
           << " entries)";
  }
  if (enc.fingerprint_count() != dec.fingerprint_count()) {
    return testing::AssertionFailure() << "L1 fingerprint counts differ";
  }
  if (!enc.has_l2()) return testing::AssertionSuccess();
  const cache::L2Store::Stripe& es = *enc.stripe();
  const cache::L2Store::Stripe& ds = *dec.stripe();
  if (es.size() != ds.size() || es.bytes_used() != ds.bytes_used() ||
      es.fingerprints() != ds.fingerprints()) {
    return testing::AssertionFailure()
           << "L2 stripes differ: " << es.size() << "/" << es.bytes_used()
           << "/" << es.fingerprints() << " vs " << ds.size() << "/"
           << ds.bytes_used() << "/" << ds.fingerprints();
  }
  for (std::uint64_t id = 1; id < enc.store().next_id(); ++id) {
    if (es.contains(id) != ds.contains(id)) {
      return testing::AssertionFailure() << "L2 residency of " << id
                                         << " differs";
    }
  }
  return testing::AssertionSuccess();
}

struct LockstepCase {
  const char* name;
  core::PolicyKind policy;
  core::SelectMode mode;
  bool resend;
};

// cache_flush runs without re-sends: a retransmission makes its encoder
// flush alone (the v1 decoder keeps a superset by design, paper Section
// V-A), so identical contents are only expected between flushes.
constexpr LockstepCase kLockstepCases[] = {
    {"cache_flush_samplebyte", core::PolicyKind::kCacheFlush,
     core::SelectMode::kSampleByte, false},
    {"tcp_seq_resend", core::PolicyKind::kTcpSeq,
     core::SelectMode::kValueSampling, true},
};

core::GatewayConfig lockstep_config(const LockstepCase& c, bool with_l2) {
  core::GatewayConfig cfg;
  cfg.policy = c.policy;
  cfg.params.select_mode = c.mode;
  cfg.cache.l1_bytes = kLockstepL1;
  if (with_l2) cfg.cache.l2_bytes = kLockstepL2;
  return cfg;
}

void run_lockstep_pair(bool with_l2) {
  Rng rng(testutil::test_seed(306));
  const Catalogue cat = zipf_catalogue(rng);
  ASSERT_GT(cat.bytes, kLockstepL1 + kLockstepL2);
  for (const LockstepCase& c : kLockstepCases) {
    SCOPED_TRACE(c.name);
    const core::GatewayConfig cfg = lockstep_config(c, with_l2);
    std::unique_ptr<cache::L2Store> enc_l2, dec_l2;
    if (with_l2) {
      enc_l2 = std::make_unique<cache::L2Store>(cfg.cache, 1);
      dec_l2 = std::make_unique<cache::L2Store>(cfg.cache, 1);
    }
    auto enc = core::make_encoder(cfg, enc_l2.get());
    auto dec = core::make_decoder(cfg, dec_l2.get());
    Rng stream_rng = rng.fork(static_cast<std::uint64_t>(c.policy));
    auto stream = download_stream(cat, testutil::kSrcIp, /*requests=*/80,
                                  c.resend, stream_rng);
    std::size_t drops = 0;
    for (std::size_t i = 0; i < stream.size(); ++i) {
      packet::Packet& pkt = *stream[i];
      const Bytes original = pkt.payload;
      enc->process(pkt);
      const core::DecodeInfo info = dec->process(pkt);
      if (core::is_drop(info.status)) ++drops;
      ASSERT_EQ(pkt.payload, original) << "packet " << i;
      ASSERT_TRUE(same_cache(enc->cache(), dec->cache())) << "packet " << i;
    }
    EXPECT_EQ(drops, 0u);
    // The stream exercised what lockstep is about: L1 eviction, hits the
    // encoder dropped (re-sends), and a churning L2.
    EXPECT_GT(enc->cache().store().evictions(), 0u);
    EXPECT_GT(enc->stats().encoded_packets, 0u);
    if (c.resend) {
      EXPECT_GT(enc->stats().retransmissions, 0u);
    }
    if (with_l2) {
      EXPECT_GT(enc->cache().tier_stats().l2_hits, 0u);
      EXPECT_GT(enc->cache().tier_stats().l2_evictions, 0u);
    }
    enc->audit();
    dec->audit();
  }
}

TEST(TierLockstep, BoundedL1StaysInLockstep) {
  run_lockstep_pair(/*with_l2=*/false);
}

TEST(TierLockstep, BoundedL1WithSmallL2StaysInLockstep) {
  run_lockstep_pair(/*with_l2=*/true);
}

TEST(TierLockstep, ShardedThreadedRelayWithSharedL2) {
  // Two threaded shards per side, each gateway with one L2Store shared
  // by its shards; four host pairs spread across both shards.  The
  // sanitizer builds run this under ASan/UBSan and TSan.
  Rng rng(testutil::test_seed(307));
  const Catalogue cat = zipf_catalogue(rng);
  constexpr std::size_t kShards = 2;
  std::vector<std::uint32_t> srcs;
  std::size_t per_shard[kShards] = {0, 0};
  for (std::uint32_t src = testutil::kSrcIp; srcs.size() < 4; ++src) {
    const auto probe = make_tcp_packet(Bytes(64, 0), 0, src);
    const std::size_t s =
        gateway::shard_index_of(gateway::shard_key_of(*probe), kShards);
    if (per_shard[s] == 2) continue;
    ++per_shard[s];
    srcs.push_back(src);
  }
  for (const LockstepCase& c : kLockstepCases) {
    SCOPED_TRACE(c.name);
    core::GatewayConfig cfg = lockstep_config(c, /*with_l2=*/true);
    cfg.cache.l2_bytes = kShards * kLockstepL2;
    cfg.shards = kShards;
    cfg.threaded = true;
    cfg.ring_capacity = 64;

    std::vector<std::vector<packet::PacketPtr>> streams;
    std::map<std::uint32_t, Bytes> offered, decoded;
    for (std::uint32_t src : srcs) {
      Rng stream_rng = rng.fork(src);
      streams.push_back(download_stream(cat, src, /*requests=*/24, c.resend,
                                        stream_rng));
      for (const auto& p : streams.back()) {
        util::append(offered[src], p->payload);
      }
    }

    gateway::ShardedEncoderGateway enc(cfg);
    gateway::ShardedDecoderGateway dec(cfg);
    dec.set_sink([&](packet::PacketPtr p) {
      util::append(decoded[p->ip.src], p->payload);
    });
    enc.set_sink([&dec](packet::PacketPtr p) { dec.submit(std::move(p)); });
    auto quiesce_and_compare = [&](std::size_t submitted) {
      enc.drain_until_idle();
      dec.drain_until_idle();
      for (std::size_t s = 0; s < kShards; ++s) {
        ASSERT_TRUE(same_cache(enc.shard(s).encoder()->cache(),
                               dec.shard(s).decoder()->cache()))
            << "shard " << s << " after " << submitted << " packets";
      }
    };
    std::size_t submitted = 0;
    for (std::size_t i = 0;; ++i) {
      bool any = false;
      for (auto& stream : streams) {
        if (i >= stream.size()) continue;
        enc.submit(std::move(stream[i]));
        any = true;
        if (++submitted % 128 == 0) {
          enc.drain();
          dec.drain();
        }
        if (submitted % 512 == 0) quiesce_and_compare(submitted);
      }
      if (!any) break;
    }
    quiesce_and_compare(submitted);
    EXPECT_EQ(dec.stats().packets, submitted);
    EXPECT_EQ(dec.stats().dropped, 0u);
    for (std::uint32_t src : srcs) {
      EXPECT_EQ(decoded[src], offered[src]) << "pair " << src;
    }
    EXPECT_GT(enc.cache_stats().hits, 0u);
    enc.audit();
    dec.audit();
  }
}
}  // namespace
}  // namespace bytecache
