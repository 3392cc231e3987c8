// The per-stage cost ledger of the traced run.
//
// The codec's stages are not timed inside src/, so the ledger times them
// from outside: a stage replica drives the same public module calls the
// Encoder and Decoder make (core::compute_anchors, CacheTier::probe_batch
// / resolve / find / update, core::expand_match, EncodedPayload
// serialize_into / parse_into, util::crc32) on its own caches, with a
// clock read around each call.  Beside it a real Encoder -> Decoder pair
// processes the same packets, timed per call; the replica's wire bytes
// and rebuilt payloads are compared with the real pair's, so the ledger
// reports when it stopped describing the codec it stands beside.
//
// The replica covers what the benchmark's codec workloads exercise: TCP
// data packets, a policy that admits every hit and never flushes on a
// retransmission-free stream (cache_flush), v1 shims (no epoch resync,
// no coded repair).
#pragma once

#include <memory>
#include <vector>

#include "cache/cache_tier.h"
#include "core/anchors.h"
#include "core/decoder.h"
#include "core/encoder.h"
#include "core/factory.h"
#include "core/wire.h"
#include "metrics.h"
#include "packet/packet.h"

namespace perfbench {

struct LedgerTotals {
  std::uint64_t packets = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t anchors = 0;
  std::uint64_t scan_enc_ns = 0;
  std::uint64_t scan_dec_ns = 0;
  std::uint64_t probe_ns = 0;
  std::uint64_t expand_ns = 0;  // resolve + expand_match loop
  std::uint64_t update_enc_ns = 0;
  std::uint64_t update_dec_ns = 0;
  std::uint64_t serialize_ns = 0;  // literals + crc32 + serialize_into
  std::uint64_t parse_ns = 0;
  std::uint64_t rebuild_ns = 0;  // region lookups + copies + crc32
  std::uint64_t real_encode_ns = 0;
  std::uint64_t real_decode_ns = 0;
  std::uint64_t replica_mismatches = 0;
  std::uint64_t decode_failures = 0;  // real pair: drop or wrong bytes
  std::vector<double> encode_ns;      // per real Encoder::process call
  std::vector<double> decode_ns;      // per real Decoder::process call
};

class Ledger {
 public:
  /// `l2_stripes` > 0 gives each of the four caches its own L2 store
  /// sized for that many stripes (the sharded gateway's shard count), of
  /// which the ledger claims one.
  Ledger(const bytecache::core::GatewayConfig& cfg, std::size_t l2_stripes);

  /// Runs one offered packet through the replica and the real pair.
  /// Only packets fed with `timed` count in totals(); the rest warm the
  /// caches.
  void feed(const bytecache::packet::Packet& offered, bool timed);

  [[nodiscard]] const LedgerTotals& totals() const { return t_; }

  /// Adds the ledger's per-layer metrics (stage ns per packet, scan cost,
  /// the gap) to `r`.
  void report(Result& r) const;

 private:
  void replica_encode(const bytecache::packet::Packet& pkt,
                      bytecache::util::Bytes& wire, bool& encoded, bool timed);
  bool replica_decode(const bytecache::packet::Packet& wire_pkt,
                      bool encoded, bool timed);

  bytecache::core::GatewayConfig cfg_;
  std::vector<std::unique_ptr<bytecache::cache::L2Store>> stores_;
  bytecache::rabin::RabinTables tables_;
  std::unique_ptr<bytecache::cache::CacheTier> enc_cache_;
  std::unique_ptr<bytecache::cache::CacheTier> dec_cache_;
  std::unique_ptr<bytecache::core::Encoder> encoder_;
  std::unique_ptr<bytecache::core::Decoder> decoder_;
  bytecache::core::AnchorWorkspace enc_ws_;
  bytecache::core::AnchorWorkspace dec_ws_;
  std::vector<bytecache::cache::ProbeResult> probe_ws_;
  bytecache::core::EncodedPayload enc_;
  bytecache::core::EncodedPayload parsed_;
  bytecache::util::Bytes wire_;
  bytecache::util::Bytes rebuilt_;
  std::uint64_t enc_index_ = 0;
  std::uint64_t dec_index_ = 0;
  LedgerTotals t_;
};

/// core.encode_ns_p50/p99 and core.decode_ns_p50/p99 from per-call times
/// of the real Encoder::process / Decoder::process; `source` names where
/// the calls ran.
void report_call_percentiles(Result& r, std::vector<double> encode_ns,
                             std::vector<double> decode_ns,
                             const std::string& source);

/// rabin.scan_ns_per_kb and rabin.anchors_per_pkt for workloads the
/// ledger does not replay: core::compute_anchors timed over `payloads`,
/// repeated for at least 0.2 s.
void report_scan_cost(Result& r,
                      const std::vector<bytecache::util::BytesView>& payloads,
                      const bytecache::core::DreParams& params);

}  // namespace perfbench
