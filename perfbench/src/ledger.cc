#include "ledger.h"

#include <algorithm>
#include <cstring>

#include "core/flow.h"
#include "core/matcher.h"
#include "packet/tcp.h"
#include "util/crc32.h"

namespace perfbench {

using namespace bytecache;

Ledger::Ledger(const core::GatewayConfig& cfg, std::size_t l2_stripes)
    : cfg_(cfg), tables_(cfg.params.window, cfg.params.poly) {
  auto store = [&]() -> cache::L2Store* {
    if (!cfg.cache.has_l2()) return nullptr;
    stores_.push_back(std::make_unique<cache::L2Store>(
        cfg.cache, std::max<std::size_t>(l2_stripes, 1)));
    return stores_.back().get();
  };
  enc_cache_ = std::make_unique<cache::CacheTier>(cfg.cache, store());
  dec_cache_ = std::make_unique<cache::CacheTier>(cfg.cache, store());
  encoder_ = core::make_encoder(cfg, store());
  decoder_ = core::make_decoder(cfg, store());
}

void Ledger::replica_encode(const packet::Packet& pkt, util::Bytes& wire,
                            bool& encoded, bool timed) {
  const core::DreParams& p = cfg_.params;
  const util::BytesView payload(pkt.payload);
  encoded = false;
  const auto tcp = packet::TcpHeader::parse_unchecked(payload);
  if (!tcp || payload.size() <= packet::TcpHeader::kSize ||
      payload.size() < p.window || payload.size() > 0xFFFF) {
    return;
  }

  auto t0 = Clock::now();
  const auto& anchors = core::compute_anchors(tables_, payload, p, enc_ws_);
  auto t1 = Clock::now();
  enc_cache_->probe_batch(anchors, probe_ws_);
  auto t2 = Clock::now();
  std::vector<core::EncodedRegion>& regions = enc_.regions;
  regions.clear();
  std::size_t cursor = 0;
  for (std::size_t ai = 0; ai < anchors.size(); ++ai) {
    const rabin::Anchor& a = anchors[ai];
    if (a.offset < cursor) continue;
    auto hit = enc_cache_->resolve(a.fp, probe_ws_[ai]);
    if (!hit) continue;
    auto m = core::expand_match(payload, a.offset, hit->packet->payload,
                                hit->offset, p.window, cursor);
    if (!m || m->length <= p.min_region) continue;
    regions.push_back(core::EncodedRegion{
        a.fp, static_cast<std::uint16_t>(m->new_begin),
        static_cast<std::uint16_t>(m->stored_begin),
        static_cast<std::uint16_t>(m->length)});
    cursor = m->new_begin + m->length;
    if (regions.size() == 255) break;
  }
  auto t3 = Clock::now();

  cache::PacketMeta meta;
  meta.has_tcp_seq = true;
  meta.tcp_seq = tcp->seq;
  meta.tcp_end_seq =
      tcp->seq + static_cast<std::uint32_t>(payload.size() -
                                            packet::TcpHeader::kSize);
  meta.flow_key =
      core::flow_key_of(pkt.ip.src, pkt.ip.dst, tcp->src_port, tcp->dst_port);
  meta.stream_index = enc_index_++;
  meta.src_uid = pkt.uid;
  meta.host_key = core::host_key_of(pkt.ip.src, pkt.ip.dst);
  enc_cache_->update(payload, anchors, meta);
  auto t4 = Clock::now();

  if (!regions.empty()) {
    enc_.version = 1;
    enc_.orig_proto = pkt.ip.protocol;
    enc_.flags = 0;
    enc_.epoch = 0;
    enc_.orig_len = static_cast<std::uint16_t>(payload.size());
    enc_.crc = util::crc32(payload);
    enc_.literals.clear();
    std::size_t pos = 0;
    for (const core::EncodedRegion& r : regions) {
      enc_.literals.insert(enc_.literals.end(), payload.begin() + pos,
                           payload.begin() + r.offset_new);
      pos = static_cast<std::size_t>(r.offset_new) + r.length;
    }
    enc_.literals.insert(enc_.literals.end(), payload.begin() + pos,
                         payload.end());
    if (enc_.wire_size() < payload.size()) {
      enc_.serialize_into(wire);
      encoded = true;
    }
  }
  auto t5 = Clock::now();

  if (timed) {
    t_.scan_enc_ns += ns_between(t0, t1);
    t_.probe_ns += ns_between(t1, t2);
    t_.expand_ns += ns_between(t2, t3);
    t_.update_enc_ns += ns_between(t3, t4);
    t_.serialize_ns += ns_between(t4, t5);
    t_.anchors += anchors.size();
    t_.payload_bytes += payload.size();
  }
}

bool Ledger::replica_decode(const packet::Packet& wire_pkt, bool encoded,
                            bool timed) {
  const core::DreParams& p = cfg_.params;
  auto t0 = Clock::now();
  auto t1 = t0;
  util::BytesView payload(wire_pkt.payload);
  bool ok = true;
  if (encoded) {
    ok = core::EncodedPayload::parse_into(payload, parsed_);
    t1 = Clock::now();
    rebuilt_.clear();
    if (ok) {
      rebuilt_.reserve(parsed_.orig_len);
      std::size_t lit = 0;
      std::size_t pos = 0;
      for (const core::EncodedRegion& r : parsed_.regions) {
        const std::size_t gap = r.offset_new - pos;
        rebuilt_.insert(rebuilt_.end(), parsed_.literals.begin() + lit,
                        parsed_.literals.begin() + lit + gap);
        lit += gap;
        pos += gap;
        auto hit = dec_cache_->find(r.fp);
        if (!hit) {
          ok = false;
          break;
        }
        const cache::PayloadView stored = hit->packet->payload;
        if (static_cast<std::size_t>(r.offset_stored) + r.length >
            stored.size()) {
          ok = false;
          break;
        }
        rebuilt_.insert(rebuilt_.end(), stored.begin() + r.offset_stored,
                        stored.begin() + r.offset_stored + r.length);
        pos += r.length;
      }
      if (ok) {
        rebuilt_.insert(rebuilt_.end(), parsed_.literals.begin() + lit,
                        parsed_.literals.end());
        ok = util::crc32(rebuilt_) == parsed_.crc;
      }
    }
    payload = util::BytesView(rebuilt_);
  }
  auto t2 = Clock::now();
  if (!ok) return false;
  auto t3 = t2;
  if (payload.size() >= p.window && payload.size() <= 0xFFFF) {
    const auto& anchors = core::compute_anchors(tables_, payload, p, dec_ws_);
    t3 = Clock::now();
    cache::PacketMeta meta;
    meta.stream_index = dec_index_++;
    meta.host_key = core::host_key_of(wire_pkt.ip.src, wire_pkt.ip.dst);
    dec_cache_->update(payload, anchors, meta);
  }
  auto t4 = Clock::now();
  if (timed) {
    t_.parse_ns += ns_between(t0, t1);
    t_.rebuild_ns += ns_between(t1, t2);
    t_.scan_dec_ns += ns_between(t2, t3);
    t_.update_dec_ns += ns_between(t3, t4);
  }
  return true;
}

void Ledger::feed(const packet::Packet& offered, bool timed) {
  bool encoded = false;
  replica_encode(offered, wire_, encoded, timed);

  packet::Packet pkt = offered;
  const auto e0 = Clock::now();
  (void)encoder_->process(pkt);
  const auto e1 = Clock::now();

  const bool real_encoded = pkt.proto() == packet::IpProto::kDre;
  const util::BytesView replica_out =
      encoded ? util::BytesView(wire_) : util::BytesView(offered.payload);
  bool same = real_encoded == encoded &&
              pkt.payload.size() == replica_out.size() &&
              std::memcmp(pkt.payload.data(), replica_out.data(),
                          replica_out.size()) == 0;

  const bool replica_ok = replica_decode(pkt, real_encoded, timed);
  if (!replica_ok ||
      (real_encoded && (rebuilt_.size() != offered.payload.size() ||
                        std::memcmp(rebuilt_.data(), offered.payload.data(),
                                    rebuilt_.size()) != 0))) {
    same = false;
  }

  const auto d0 = Clock::now();
  const core::DecodeInfo di = decoder_->process(pkt);
  const auto d1 = Clock::now();
  const bool delivered = !core::is_drop(di.status) &&
                         pkt.payload.size() == offered.payload.size() &&
                         std::memcmp(pkt.payload.data(),
                                     offered.payload.data(),
                                     offered.payload.size()) == 0;
  if (!timed) return;
  ++t_.packets;
  if (!same) ++t_.replica_mismatches;
  if (!delivered) ++t_.decode_failures;
  t_.real_encode_ns += ns_between(e0, e1);
  t_.real_decode_ns += ns_between(d0, d1);
  t_.encode_ns.push_back(static_cast<double>(ns_between(e0, e1)));
  t_.decode_ns.push_back(static_cast<double>(ns_between(d0, d1)));
}

void Ledger::report(Result& r) const {
  const double n = static_cast<double>(std::max<std::uint64_t>(t_.packets, 1));
  const double kb = static_cast<double>(t_.payload_bytes) / 1024.0;
  struct Row {
    const char* stage;
    std::uint64_t ns;
  };
  const Row rows[] = {
      {"rabin scan (encoder)", t_.scan_enc_ns},
      {"cache probe_batch", t_.probe_ns},
      {"core resolve+expand_match", t_.expand_ns},
      {"cache update (encoder)", t_.update_enc_ns},
      {"core literals+crc32+serialize", t_.serialize_ns},
      {"core parse_into", t_.parse_ns},
      {"core rebuild (find+copy+crc32)", t_.rebuild_ns},
      {"rabin re-scan (decoder)", t_.scan_dec_ns},
      {"cache update (decoder)", t_.update_dec_ns},
  };
  const double real = static_cast<double>(t_.real_encode_ns +
                                          t_.real_decode_ns);
  double staged = 0;
  for (const Row& row : rows) {
    staged += static_cast<double>(row.ns);
    r.note(fmt("# ledger %-32s %9.1f ns/pkt  %5.1f%% of encode+decode",
               row.stage, static_cast<double>(row.ns) / n,
               real > 0 ? 100.0 * static_cast<double>(row.ns) / real : 0.0));
  }
  r.note(fmt("# ledger real Encoder::process %.1f ns/pkt, Decoder::process "
             "%.1f ns/pkt, over %llu packets",
             static_cast<double>(t_.real_encode_ns) / n,
             static_cast<double>(t_.real_decode_ns) / n,
             static_cast<unsigned long long>(t_.packets)));
  if (t_.replica_mismatches > 0) {
    r.note(fmt("# ledger WARNING: stage replica diverged from the real codec "
               "on %llu of %llu packets; stage rows describe the replica",
               static_cast<unsigned long long>(t_.replica_mismatches),
               static_cast<unsigned long long>(t_.packets)));
  }
  if (t_.decode_failures > 0) {
    r.fail_check(fmt("ledger pair failed to deliver %llu packets",
                     static_cast<unsigned long long>(t_.decode_failures)));
  }

  r.metrics["rabin.scan_ns_per_kb"] =
      kb > 0 ? static_cast<double>(t_.scan_enc_ns) / kb : 0;
  r.metrics["rabin.anchors_per_pkt"] = static_cast<double>(t_.anchors) / n;
  r.metrics["cache.probe_ns_per_pkt"] = static_cast<double>(t_.probe_ns) / n;
  r.metrics["cache.update_ns_per_pkt"] =
      static_cast<double>(t_.update_enc_ns + t_.update_dec_ns) / n;
  r.metrics["core.expand_ns_per_pkt"] = static_cast<double>(t_.expand_ns) / n;
  r.metrics["core.serialize_ns_per_pkt"] =
      static_cast<double>(t_.serialize_ns) / n;
  r.metrics["core.parse_ns_per_pkt"] = static_cast<double>(t_.parse_ns) / n;
  r.metrics["core.rebuild_ns_per_pkt"] =
      static_cast<double>(t_.rebuild_ns) / n;
  r.ratio("core.ledger_gap_frac", {real - staged, real},
          "measured encode+decode ns minus the sum of the stage rows",
          "measured Encoder::process + Decoder::process ns");

}

void report_call_percentiles(Result& r, std::vector<double> encode_ns,
                             std::vector<double> decode_ns,
                             const std::string& source) {
  const std::pair<const char*, std::vector<double>*> calls[] = {
      {"encode", &encode_ns}, {"decode", &decode_ns}};
  for (const auto& [what, v] : calls) {
    double p50 = 0, p99 = 0;
    if (!percentile(*v, 0.50, p50) || !percentile(*v, 0.99, p99)) {
      r.fail_check(fmt("core.%s_ns_*: %zu calls, fewer than %zu needed",
                       what, v->size(), min_samples_for(0.99)));
      continue;
    }
    r.metrics[fmt("core.%s_ns_p50", what)] = p50;
    r.metrics[fmt("core.%s_ns_p99", what)] = p99;
  }
  r.note(fmt("# samples: core.encode_ns_* / core.decode_ns_* over %zu / %zu "
             "calls of %s",
             encode_ns.size(), decode_ns.size(), source.c_str()));
}

void report_scan_cost(Result& r, const std::vector<util::BytesView>& payloads,
                      const core::DreParams& params) {
  const rabin::RabinTables tables(params.window, params.poly);
  core::AnchorWorkspace ws;
  std::uint64_t ns = 0, bytes = 0, anchors = 0, packets = 0;
  const auto start = Clock::now();
  do {
    for (util::BytesView p : payloads) {
      const auto t0 = Clock::now();
      anchors += core::compute_anchors(tables, p, params, ws).size();
      ns += ns_between(t0, Clock::now());
      bytes += p.size();
      ++packets;
    }
  } while (seconds_since(start) < 0.2);
  r.metrics["rabin.scan_ns_per_kb"] =
      bytes > 0 ? double(ns) / (double(bytes) / 1024.0) : 0.0;
  r.metrics["rabin.anchors_per_pkt"] =
      packets > 0 ? double(anchors) / double(packets) : 0.0;
  r.note(fmt("# rabin.*: compute_anchors over %zu of this workload's "
             "payloads, %llu calls",
             payloads.size(), static_cast<unsigned long long>(packets)));
}

}  // namespace perfbench
