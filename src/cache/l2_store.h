// The large shared L2 tier behind every shard's hot L1 (DESIGN.md §14).
//
// One L2Store serves a whole gateway: the sharded gateways construct a
// single store and every shard's codec attaches to it.  Internally the
// store is striped — one stripe per attached codec, each touched only by
// its owner's thread — so the read path never takes a lock (bc-nolock)
// and, because flows are partitioned onto shards by host-pair hash,
// encoder-side and decoder-side stripes see identical packet streams and
// evolve in lockstep.  The shared l2_bytes budget divides into fixed
// per-stripe shares at construction: an elastic global budget was
// rejected deliberately, because cross-stripe pressure would make
// eviction depend on cross-shard *timing*, and a decoder stripe evicting
// what its encoder twin kept turns straight into perceived packet loss
// (paper Section IV).
//
// Reclamation is epoch-deferred: every byte released during one packet's
// processing (budget eviction, admission eviction) parks its arena slice
// on a limbo list and is freed only at the end-of-packet epoch boundary
// (Stripe::end_packet), so any payload pointer the match loop obtained
// this packet stays readable with no reference counting and no
// synchronization.
//
// Admission control: a demoted packet charges its host pair
// (PacketMeta::host_key); a pair over per_host_pair_bytes evicts its own
// oldest packets first — never its neighbors' — and a packet larger
// than the pair budget (or the stripe share) is rejected outright.
// Stripe-share eviction takes the oldest-admitted packet; a hit changes
// only the l2_hits counter, so encoder and decoder pick identical victims.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "cache/byte_cache.h"
#include "cache/cache_config.h"
#include "cache/flat_map.h"
#include "cache/host_budget.h"
#include "cache/slice_arena.h"
#include "cache/snapshot.h"
#include "obs/fields.h"
#include "rabin/window.h"

namespace bytecache::cache {

/// Per-tier movement and occupancy counters (one struct per stripe,
/// surfaced as "encoder.cache.tier.*" / "decoder.cache.tier.*").
struct TierStats {
  std::uint64_t l2_hits = 0;         // lookups served from the L2
  /// Always 0: an L2 hit serves the match in place and never moves the
  /// packet back to the L1.  Kept so counter readers and metric names
  /// stay stable.
  std::uint64_t promotions = 0;
  std::uint64_t demotions = 0;       // L1 -> L2 admission attempts
  std::uint64_t demotions_rejected = 0;  // refused by admission control
  std::uint64_t l2_evictions = 0;    // stripe-share budget evictions
  std::uint64_t host_evictions = 0;  // a pair evicting its own coldest
  std::uint64_t l2_fingerprints_purged = 0;  // index entries of evictees
};

/// Telemetry field table (obs/fields.h): drives the generic merge_into /
/// reset / snapshot operations and the registry metric names.
[[nodiscard]] constexpr auto stats_fields(const TierStats*) {
  using S = TierStats;
  return obs::field_table<S>(
      obs::Field<S>{"l2_hits", &S::l2_hits},
      obs::Field<S>{"promotions", &S::promotions},
      obs::Field<S>{"demotions", &S::demotions},
      obs::Field<S>{"demotions_rejected", &S::demotions_rejected},
      obs::Field<S>{"l2_evictions", &S::l2_evictions},
      obs::Field<S>{"host_evictions", &S::host_evictions},
      obs::Field<S>{"l2_fingerprints_purged", &S::l2_fingerprints_purged});
}

using obs::merge_into;
using obs::reset;

class L2Store {
 public:
  /// One shard's private view of the store.  All methods except the
  /// read-only occupancy accessors must be called by the owning thread.
  class Stripe {
   public:
    Stripe(const CacheConfig& config, std::size_t share_bytes);

    // The global chain holds raw slot indices; relocation would orphan
    // them (and the demote sink caches the pointer).
    Stripe(const Stripe&) = delete;
    Stripe& operator=(const Stripe&) = delete;

    /// L2 lookup.  Counts an l2_hit and changes nothing else — the
    /// packet neither moves in eviction order nor leaves the stripe.  The
    /// returned pointers stay valid until end_packet().
    [[nodiscard]] std::optional<CacheHit> find(rabin::Fingerprint fp);

    void prefetch(rabin::Fingerprint fp) const { fp_index_.prefetch(fp); }

    /// Admits a packet demoted from the L1 (DemoteSink path).  `owned`
    /// are the fingerprints the L1 purge attributed to it; they enter
    /// the L2 index.  Applies per-host-pair admission control first.
    void admit(const CachedPacket& pkt, std::span<const DemotedFp> owned);

    /// The cache-update procedure overwrote these fingerprints in the L1
    /// table: whatever the L2 index held for them is stale — drop it, so
    /// each fingerprint resolves in exactly one tier (the newest owner).
    void unindex(std::span<const rabin::Anchor> anchors);

    /// NACK invalidation reached the L2: erase the packet owning `fp`
    /// wholesale (plus every index entry it owns).  True if it existed.
    bool invalidate(rabin::Fingerprint fp);

    /// End-of-packet epoch boundary: enforce the stripe share (deferred
    /// oldest-first budget eviction) and free limbo slices.
    void end_packet();

    /// Drops everything (cache flush).
    void clear();

    /// Serializes / restores one "BCL2" block (contents + insertion
    /// order + per-host attribution; not statistics).  Each packet
    /// carries a u32 that older images used for a hit count: written as
    /// 0 and ignored on load, so the layout stays byte-compatible.
    /// load() consumes exactly the block and returns false, with the stripe cleared and the
    /// reader failed, on malformed input.
    void save(SnapshotWriter& w) const;
    bool load(SnapshotReader& r);

    /// Deep invariant audit (BC_AUDIT): chain/index bijections, byte and
    /// per-host accounting, zero stale index entries (the PR-2 purge
    /// invariant extended to the L2), budgets, and an empty limbo list.
    void audit() const;

    [[nodiscard]] std::size_t bytes_used() const { return bytes_used_; }
    [[nodiscard]] std::size_t size() const { return id_index_.size(); }
    [[nodiscard]] bool contains(std::uint64_t id) const {
      return id_index_.find(id) != nullptr;
    }
    [[nodiscard]] std::size_t fingerprints() const {
      return fp_index_.size();
    }
    [[nodiscard]] std::size_t share_bytes() const { return share_; }
    [[nodiscard]] const HostLedger& hosts() const { return hosts_; }
    /// Bytes currently charged to `host_key` (tests/telemetry).
    [[nodiscard]] std::size_t host_bytes(std::uint64_t host_key) const;
    [[nodiscard]] const TierStats& stats() const { return stats_; }
    [[nodiscard]] TierStats& stats() { return stats_; }

    template <typename Fn>
    void for_each_fingerprint(Fn&& fn) const {
      fp_index_.for_each(fn);
    }

   private:
    static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

    struct Slot {
      CachedPacket pkt;
      SliceArena::Slice slice;
      std::uint32_t prev = kNil;       // global chain (head = newest)
      std::uint32_t next = kNil;
      std::uint32_t host_prev = kNil;  // per-host-pair chain
      std::uint32_t host_next = kNil;
      bool live = false;
    };

    std::uint32_t acquire_slot();
    /// Frees the slot, parking its slice on the limbo list (never frees
    /// payload bytes mid-packet — the deferred-reclamation contract).
    void retire_slot(std::uint32_t slot);
    void link_front(std::uint32_t slot);
    void link_back(std::uint32_t slot);
    void unlink(std::uint32_t slot);
    void host_link_front(std::uint32_t slot);
    void host_link_back(std::uint32_t slot);
    void host_unlink(std::uint32_t slot);
    /// Purges the index entries `slot` owns and retires it; returns the
    /// number of index entries purged.
    std::size_t evict_slot(std::uint32_t slot);

    CacheConfig config_;
    std::size_t share_;
    std::size_t bytes_used_ = 0;
    std::uint32_t head_ = kNil;
    std::uint32_t tail_ = kNil;
    std::vector<Slot> slots_;
    std::vector<std::uint32_t> free_;
    FlatMap64<std::uint32_t> id_index_;  // packet id -> slot
    FlatMap64<FpEntry> fp_index_;        // fingerprint -> (id, offset)
    SliceArena arena_;
    HostLedger hosts_;
    std::vector<SliceArena::Slice> limbo_;
    TierStats stats_;
  };

  /// `stripes` is the number of codecs that will attach (the gateway's
  /// shard count); the l2_bytes budget divides evenly across them.
  L2Store(const CacheConfig& config, std::size_t stripes);

  /// Claims the next unclaimed stripe (construction time, driver
  /// thread).  Checks that the store was sized for this many attachers.
  [[nodiscard]] Stripe* attach();

  [[nodiscard]] const CacheConfig& config() const { return config_; }
  [[nodiscard]] std::size_t stripes() const { return stripes_.size(); }
  [[nodiscard]] const Stripe& stripe(std::size_t i) const {
    return *stripes_[i];
  }

  /// Aggregate occupancy across stripes (snapshot-time telemetry only:
  /// the per-stripe counters are owned by worker threads).
  [[nodiscard]] std::size_t bytes_used() const;
  [[nodiscard]] std::size_t packets() const;
  [[nodiscard]] std::size_t host_pairs() const;

 private:
  CacheConfig config_;
  std::vector<std::unique_ptr<Stripe>> stripes_;
  std::size_t attached_ = 0;
};

}  // namespace bytecache::cache
