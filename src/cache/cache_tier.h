// The two-tier cache facade the codecs hold (DESIGN.md §14).
//
// CacheTier mirrors ByteCache's API exactly, so the encoder and decoder
// swapped one member type and kept every call site.  The hot path is the
// L1 (the existing ByteCache, untouched): probes, updates, and most hits
// never know the tier exists, and with no L2 configured (the default)
// the facade is a passthrough — bit-identical behavior to the flat
// cache, which the equivalence suite pins.
//
// With an L2 (CacheConfig::l2_bytes > 0, an L2Store stripe attached):
//   - L1 budget evictions demote into the stripe (DemoteSink), carrying
//     the fingerprints the evicted packet still owned into the L2 index.
//   - A lookup missing the L1 falls through to the stripe; an L2 hit
//     serves the match in place and moves nothing (no promotion).
//   - update() erases the freshly indexed fingerprints from the L2 index
//     (ownership follows the newest packet), preserving the invariant
//     that every fingerprint resolves in exactly one tier and every
//     packet id is resident in exactly one tier.  audit() checks both.
//
// Lockstep by construction: probe_batch/resolve/find change only
// statistics counters, so cache contents and eviction order move only
// through update/invalidate/flush, which encoder and decoder run alike.
//
// Snapshots: save()/load() emit the legacy flat "BCC1" block when no L2
// is attached (byte-identical to the pre-tier persist format) and the
// two-tier "BCT1" container when one is; load() sniffs the magic, so
// either side reads either vintage.  With SnapshotMode::kIncremental the
// tier also journals update/invalidate/flush operations, and
// save_incremental() emits a CRC-guarded "BCI1" delta replayed on load.
#pragma once

#include <cstdint>
#include <vector>

#include "cache/byte_cache.h"
#include "cache/cache_config.h"
#include "cache/l2_store.h"
#include "cache/snapshot.h"

namespace bytecache::cache {

class CacheTier final : private DemoteSink {
 public:
  /// An L2-less tier (l2 == nullptr) is a plain ByteCache behind the same
  /// API.  With a store, one stripe is attached (claimed for this codec's
  /// thread) and L1 evictions start demoting into it.  A config with
  /// l2_bytes > 0 requires a store (BC_CHECK).
  explicit CacheTier(const CacheConfig& config = {},
                     L2Store* l2 = nullptr);

  // The L1 store points back at this object as its demote sink.
  CacheTier(const CacheTier&) = delete;
  CacheTier& operator=(const CacheTier&) = delete;

  /// The cache-update procedure (paper Fig. 2 C) plus tier maintenance:
  /// the L1 update (whose budget evictions demote), then the new anchors
  /// are unindexed from the L2 (ownership moved), and the stripe's epoch
  /// boundary runs (budget eviction + limbo).
  std::uint64_t update(util::BytesView payload,
                       const std::vector<rabin::Anchor>& anchors,
                       const PacketMeta& meta);

  /// L1 lookup, falling through to the L2 on miss.  An L2 hit is served
  /// from the stripe (pointers valid through this packet's update).
  /// Changes only statistics counters.
  [[nodiscard]] std::optional<CacheHit> find(rabin::Fingerprint fp);

  /// Batched L1 probe (see ByteCache::probe_batch); the L2 fallthrough
  /// happens in resolve().
  void probe_batch(std::span<const rabin::Anchor> anchors,
                   std::vector<ProbeResult>& out) const {
    l1_.probe_batch(anchors, out);
  }

  /// Resolves one probed anchor exactly as ByteCache::resolve, then
  /// falls through to the L2 on miss — so probe+resolve remains
  /// observably identical to find() in the same order, tiered or not.
  [[nodiscard]] std::optional<CacheHit> resolve(rabin::Fingerprint fp,
                                                const ProbeResult& probe);

  void prefetch(rabin::Fingerprint fp) const {
    l1_.prefetch(fp);
    if (stripe_ != nullptr) stripe_->prefetch(fp);
  }

  /// Cache flush (paper Section V-A): both tiers.
  void flush();

  /// NACK invalidation: kills the owning packet in whichever tier holds
  /// the fingerprint (never demotes it — the peer lost those bytes).
  bool invalidate(rabin::Fingerprint fp);

  /// Deep invariant audit: both tiers, plus the cross-tier exclusivity
  /// invariants (no fingerprint indexed in both tiers, no packet id
  /// resident in both).
  void audit() const;

  // ---- L1 passthrough (telemetry, tests, snapshot primitives) ----
  [[nodiscard]] const CacheStats& stats() const { return l1_.stats(); }
  [[nodiscard]] const PacketStore& store() const { return l1_.store(); }
  [[nodiscard]] const FingerprintTable& table() const { return l1_.table(); }
  [[nodiscard]] std::size_t fingerprint_count() const {
    return l1_.fingerprint_count();
  }

  // ---- Tier introspection ----
  [[nodiscard]] bool has_l2() const { return stripe_ != nullptr; }
  /// This codec's stripe (nullptr when no L2 is attached).
  [[nodiscard]] const L2Store::Stripe* stripe() const { return stripe_; }
  /// Movement counters; a zero struct when no L2 is attached.
  [[nodiscard]] const TierStats& tier_stats() const;
  [[nodiscard]] const CacheConfig& config() const { return config_; }

  // ---- Versioned snapshot/restore (cache/snapshot.h) ----

  /// Full image: the legacy flat "BCC1" block when no L2 is attached
  /// (byte-identical to the pre-tier format), the "BCT1" container
  /// otherwise.  Starts a new journal epoch.
  void save(SnapshotWriter& w);

  /// Incremental delta ("BCI1"): the operations journaled since the last
  /// save boundary, CRC-guarded.  Falls back to a full image when the
  /// journal is unavailable (kFull mode, overflow, or no boundary yet).
  void save_incremental(SnapshotWriter& w);

  /// Restores from any of the three formats (sniffed by magic).  A
  /// "BCI1" delta only applies on top of the exact state version it was
  /// taken against (the save boundary sequence number).  Returns false —
  /// with the tier flushed and the reader failed — on malformed input,
  /// a version mismatch, or a format/configuration mismatch (a "BCT1"
  /// image needs an attached L2).
  bool load(SnapshotReader& r);

  /// State version, bumped at each save boundary (deltas chain on it).
  [[nodiscard]] std::uint64_t snapshot_seq() const { return seq_; }

 private:
  static constexpr std::size_t kJournalCapBytes = 8 * 1024 * 1024;
  // Journal op tags (BCI1).
  static constexpr std::uint8_t kOpUpdate = 0x01;
  static constexpr std::uint8_t kOpInvalidate = 0x02;
  static constexpr std::uint8_t kOpFlush = 0x03;

  void on_demote(const CachedPacket& pkt,
                 std::span<const DemotedFp> owned) override;

  void journal_update(util::BytesView payload,
                      const std::vector<rabin::Anchor>& anchors,
                      const PacketMeta& meta);
  void journal_op(std::uint8_t tag, rabin::Fingerprint fp);
  void journal_reset();
  [[nodiscard]] bool journaling() const {
    return config_.snapshot_mode == SnapshotMode::kIncremental &&
           !replaying_;
  }

  bool load_flat(SnapshotReader& r);
  bool load_tier(SnapshotReader& r);
  bool load_incremental(SnapshotReader& r);
  bool reject(SnapshotReader& r);

  ByteCache l1_;
  L2Store::Stripe* stripe_ = nullptr;  // owned by the shared L2Store
  CacheConfig config_;

  // Incremental-snapshot journal (SnapshotMode::kIncremental only).
  SnapshotWriter journal_;
  std::uint32_t journal_ops_ = 0;
  bool journal_overflow_ = true;  // no boundary yet: nothing to chain on
  bool replaying_ = false;
  std::uint64_t seq_ = 0;
};

}  // namespace bytecache::cache
