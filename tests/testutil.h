// Shared helpers for the test suite.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "core/decoder.h"
#include "core/encoder.h"
#include "core/factory.h"
#include "packet/packet.h"
#include "packet/tcp.h"
#include "rabin/window.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace bytecache::testutil {

inline constexpr std::uint32_t kSrcIp = 0x0A000001;  // 10.0.0.1
inline constexpr std::uint32_t kDstIp = 0x0A000101;  // 10.0.1.1

/// Builds a TCP data packet carrying `data` at sequence number `seq`,
/// sent from `src` to kDstIp.
inline packet::PacketPtr make_tcp_packet(util::BytesView data,
                                         std::uint32_t seq,
                                         std::uint32_t src = kSrcIp) {
  packet::TcpHeader h;
  h.src_port = 80;
  h.dst_port = 40000;
  h.seq = seq;
  h.flags = packet::TcpHeader::kAck | packet::TcpHeader::kPsh;
  util::Bytes segment;
  segment.reserve(packet::TcpHeader::kSize + data.size());
  h.serialize(segment, data, src, kDstIp);
  return packet::make_packet(src, kDstIp, packet::IpProto::kTcp,
                             std::move(segment));
}

/// Builds a UDP-protocol packet with a raw payload (no UDP header needed
/// for codec tests — the codec treats the payload as opaque bytes).
inline packet::PacketPtr make_udp_packet(util::BytesView payload) {
  return packet::make_packet(kSrcIp, kDstIp, packet::IpProto::kUdp,
                             util::Bytes(payload.begin(), payload.end()));
}

/// Segments `object` into MSS-sized TCP packets with consecutive
/// sequence numbers starting at `isn`.
inline std::vector<packet::PacketPtr> segment_stream(util::BytesView object,
                                                     std::size_t mss = 1460,
                                                     std::uint32_t isn = 1000) {
  std::vector<packet::PacketPtr> out;
  for (std::size_t off = 0; off < object.size(); off += mss) {
    const std::size_t len = std::min(mss, object.size() - off);
    out.push_back(make_tcp_packet(object.subspan(off, len),
                                  isn + static_cast<std::uint32_t>(off)));
  }
  return out;
}

/// Seed for randomized tests: the BYTECACHE_TEST_SEED environment
/// variable if set (decimal or 0x-hex), else `fallback`.  Always logs
/// the seed in use so any failure is reproducible with
/// `BYTECACHE_TEST_SEED=<seed> ctest ...`.
inline std::uint64_t test_seed(std::uint64_t fallback) {
  std::uint64_t seed = fallback;
  if (const char* env = std::getenv("BYTECACHE_TEST_SEED")) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(env, &end, 0);
    if (end != env && *end == '\0') seed = v;
  }
  std::printf("[   SEED   ] %llu (override with BYTECACHE_TEST_SEED)\n",
              static_cast<unsigned long long>(seed));
  return seed;
}

/// Random bytes.
inline util::Bytes random_bytes(util::Rng& rng, std::size_t n) {
  util::Bytes b(n);
  for (auto& v : b) v = static_cast<std::uint8_t>(rng.next_u64());
  return b;
}

/// Naive anchor-selection oracles: every fingerprint recomputed from
/// scratch with tables.of(), so they share no scan machinery with the
/// selection code under test.

/// Value sampling: every position whose fingerprint has `bits` low zeros.
inline std::vector<rabin::Anchor> value_sampling_reference(
    const rabin::RabinTables& tables, util::BytesView payload,
    unsigned bits) {
  std::vector<rabin::Anchor> out;
  const std::size_t w = tables.window();
  for (std::size_t i = 0; i + w <= payload.size(); ++i) {
    const auto fp = tables.of(payload.subspan(i, w));
    if (rabin::selected(fp, bits)) {
      out.push_back(rabin::Anchor{static_cast<std::uint16_t>(i), fp});
    }
  }
  return out;
}

/// MAXP: for every window of `p` consecutive positions, the rightmost
/// maximum-fingerprint position by direct argmax (O(n*p); no monotonic
/// queue).
inline std::vector<rabin::Anchor> maxp_reference(
    const rabin::RabinTables& tables, util::BytesView payload, std::size_t p) {
  std::vector<rabin::Anchor> out;
  const std::size_t w = tables.window();
  if (payload.size() < w || p == 0) return out;
  std::vector<rabin::Fingerprint> fps;
  for (std::size_t i = 0; i + w <= payload.size(); ++i) {
    fps.push_back(tables.of(payload.subspan(i, w)));
  }
  std::size_t last = fps.size();  // sentinel: no anchor emitted yet
  for (std::size_t end = p - 1; end < fps.size(); ++end) {
    std::size_t best = end + 1 - p;
    for (std::size_t j = best + 1; j <= end; ++j) {
      if (fps[j] >= fps[best]) best = j;  // >=: rightmost wins ties
    }
    if (best != last) {
      last = best;
      out.push_back(rabin::Anchor{static_cast<std::uint16_t>(best), fps[best]});
    }
  }
  return out;
}

/// SAMPLEBYTE: a byte-at-a-time walk with the per-byte hash + division
/// (no membership table), skipping `skip` bytes after each anchor.
inline std::vector<rabin::Anchor> samplebyte_reference(
    const rabin::RabinTables& tables, util::BytesView payload,
    unsigned period, std::size_t skip) {
  std::vector<rabin::Anchor> out;
  const std::size_t w = tables.window();
  for (std::size_t i = 0; i + w <= payload.size();) {
    std::uint64_t state = payload[i];
    if (util::splitmix64(state) % period == 0) {
      out.push_back(rabin::Anchor{static_cast<std::uint16_t>(i),
                                  tables.of(payload.subspan(i, w))});
      i += skip > 0 ? skip : 1;
    } else {
      ++i;
    }
  }
  return out;
}

/// Creates an encoder with the given policy kind.
inline core::Encoder test_encoder(core::PolicyKind kind,
                                  core::DreParams params = {},
                                  cache::CacheConfig cache = {},
                                  cache::L2Store* l2 = nullptr) {
  return core::Encoder(params, core::make_policy(kind, params), cache, l2);
}

}  // namespace bytecache::testutil
