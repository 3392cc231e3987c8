// Construction surface of the cache subsystem.
//
// One struct describes every cache a codec owns: the hot per-shard L1
// (the slab PacketStore + FingerprintTable pair), the optional large
// shared L2 behind it (cache/l2_store.h), the per-host-pair admission
// budget inside the L2, and how snapshots are taken.  Replaces the
// former positional byte-budget constructors (`ByteCache(std::size_t)`,
// `PacketStore(std::size_t)`): every knob is named, a config travels
// through core::GatewayConfig unchanged, and an encoder-side/decoder-side
// pair built from the same config is guaranteed to run identical cache
// rules — the lockstep requirement.
//
// There is deliberately no eviction-policy knob: a cache hit never
// changes cache state, and both tiers evict in insertion order, so the
// only inputs to eviction are the update/invalidate/flush calls that
// encoder and decoder run identically.
#pragma once

#include <cstddef>
#include <cstdint>

namespace bytecache::cache {

/// How CacheTier::save emits snapshots.
enum class SnapshotMode : std::uint8_t {
  /// Every save() writes the full cache image.
  kFull,
  /// save() writes only the mutations since the previous save (a
  /// journal of insert/invalidate/flush ops, CRC-protected); falls back
  /// to a full image on the first save and when the journal overflows.
  kIncremental,
};

struct CacheConfig {
  /// L1 byte budget: bounds the sum of payload bytes in the hot
  /// PacketStore (0 = unbounded, the paper's within-experiment setting).
  std::size_t l1_bytes = 0;

  /// L2 byte budget shared across every shard attached to one L2Store
  /// (0 = no L2 tier; budget-evicted L1 packets are simply dropped,
  /// exactly the flat pre-tier behavior).
  std::size_t l2_bytes = 0;

  /// Admission budget per host pair inside the L2: a host pair over this
  /// many bytes evicts its own coldest packets to admit new ones — never
  /// its neighbors' (0 = no per-pair budget).
  std::size_t per_host_pair_bytes = 0;

  /// Snapshot strategy for CacheTier::save.
  SnapshotMode snapshot_mode = SnapshotMode::kFull;

  [[nodiscard]] constexpr bool has_l2() const { return l2_bytes > 0; }
};

}  // namespace bytecache::cache
