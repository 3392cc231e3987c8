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

/// Creates an encoder with the given policy kind.
inline core::Encoder test_encoder(core::PolicyKind kind,
                                  core::DreParams params = {},
                                  cache::CacheConfig cache = {},
                                  cache::L2Store* l2 = nullptr) {
  return core::Encoder(params, core::make_policy(kind, params), cache, l2);
}

}  // namespace bytecache::testutil
