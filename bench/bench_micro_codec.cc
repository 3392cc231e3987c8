// Microbenchmarks: encoder/decoder throughput and cache operations.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "cache/byte_cache.h"
#include "core/decoder.h"
#include "core/encoder.h"
#include "core/factory.h"
#include "packet/packet.h"
#include "packet/tcp.h"
#include "util/rng.h"
#include "workload/generators.h"

namespace {

using namespace bytecache;

std::vector<packet::PacketPtr> packets_of(const util::Bytes& object) {
  std::vector<packet::PacketPtr> out;
  std::uint32_t seq = 1000;
  for (std::size_t off = 0; off < object.size(); off += 1460) {
    const std::size_t len = std::min<std::size_t>(1460, object.size() - off);
    packet::TcpHeader h;
    h.seq = seq;
    h.flags = packet::TcpHeader::kAck;
    seq += static_cast<std::uint32_t>(len);
    util::Bytes segment;
    h.serialize(segment, util::BytesView(object.data() + off, len),
                0x0A000001, 0x0A000101);
    out.push_back(packet::make_packet(0x0A000001, 0x0A000101,
                                      packet::IpProto::kTcp,
                                      std::move(segment)));
  }
  return out;
}

const util::Bytes& redundant_object() {
  static const util::Bytes obj = [] {
    util::Rng rng(2);
    return workload::make_file1(rng, 400 * 1460);
  }();
  return obj;
}

/// Fresh copies of `pkts` for one iteration (encoding rewrites payloads
/// in place).
std::vector<packet::PacketPtr> clones_of(
    const std::vector<packet::PacketPtr>& pkts) {
  std::vector<packet::PacketPtr> out;
  out.reserve(pkts.size());
  for (const auto& pkt : pkts) out.push_back(packet::clone_packet(*pkt));
  return out;
}

/// Times encoding `object` into a fresh naive encoder.  Encoder
/// construction and destruction, segmentation and packet cloning all
/// happen with the timer paused, so only Encoder::process is measured.
void encode_fresh(benchmark::State& state, const util::Bytes& object) {
  const auto pkts = packets_of(object);
  const core::DreParams params;
  std::unique_ptr<core::Encoder> enc;
  std::vector<packet::PacketPtr> batch;
  for (auto _ : state) {
    state.PauseTiming();
    enc.reset();
    enc = std::make_unique<core::Encoder>(
        params, core::make_policy(core::PolicyKind::kNaive, params));
    batch = clones_of(pkts);
    state.ResumeTiming();
    for (const auto& pkt : batch) {
      benchmark::DoNotOptimize(enc->process(*pkt));
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(object.size()));
}

void BM_EncodeRedundantStream(benchmark::State& state) {
  encode_fresh(state, redundant_object());
}
BENCHMARK(BM_EncodeRedundantStream)->Unit(benchmark::kMillisecond);

void BM_EncodeIncompressibleStream(benchmark::State& state) {
  util::Rng rng(3);
  encode_fresh(state, workload::make_video(rng, 400 * 1460));
}
BENCHMARK(BM_EncodeIncompressibleStream)->Unit(benchmark::kMillisecond);

void BM_EncodeDecodeRoundTrip(benchmark::State& state) {
  const auto& object = redundant_object();
  const auto pkts = packets_of(object);
  const core::DreParams params;
  std::unique_ptr<core::Encoder> enc;
  std::unique_ptr<core::Decoder> dec;
  std::vector<packet::PacketPtr> batch;
  for (auto _ : state) {
    state.PauseTiming();
    enc.reset();
    dec.reset();
    enc = std::make_unique<core::Encoder>(
        params, core::make_policy(core::PolicyKind::kNaive, params));
    dec = std::make_unique<core::Decoder>(params);
    batch = clones_of(pkts);
    state.ResumeTiming();
    for (const auto& pkt : batch) {
      enc->process(*pkt);
      benchmark::DoNotOptimize(dec->process(*pkt));
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(object.size()));
}
BENCHMARK(BM_EncodeDecodeRoundTrip)->Unit(benchmark::kMillisecond);

void BM_CacheUpdate(benchmark::State& state) {
  util::Rng rng(4);
  util::Bytes payload(1480);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next_u64());
  rabin::RabinTables tables(16);
  const auto anchors = rabin::selected_anchors(tables, payload, 4);
  for (auto _ : state) {
    cache::ByteCache cache;
    for (int i = 0; i < 100; ++i) {
      cache.update(payload, anchors, {});
    }
    benchmark::DoNotOptimize(cache);
  }
}
BENCHMARK(BM_CacheUpdate);

void BM_CacheFind(benchmark::State& state) {
  util::Rng rng(5);
  util::Bytes payload(1480);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next_u64());
  rabin::RabinTables tables(16);
  const auto anchors = rabin::selected_anchors(tables, payload, 4);
  cache::ByteCache cache;
  cache.update(payload, anchors, {});
  for (auto _ : state) {
    for (const auto& a : anchors) {
      benchmark::DoNotOptimize(cache.find(a.fp));
    }
  }
}
BENCHMARK(BM_CacheFind);

}  // namespace

BENCHMARK_MAIN();
