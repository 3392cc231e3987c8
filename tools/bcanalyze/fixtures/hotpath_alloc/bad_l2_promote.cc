// BC-FIXTURE: path=src/cache/cache_tier_promote.cc
//
// bc-hotpath-alloc known-bad for a per-hit path in the cache tier
// (DESIGN.md §14): find() runs for every probed anchor, so a node-map
// insert per L2 hit or a make_unique per packet is exactly the
// steady-state allocation the tier design forbids.  Contiguous growth of
// a reused vector is amortised and allowed, and the snapshot writer is
// off the per-packet path by name — neither may produce a finding.
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

namespace bytecache::cache {

struct FixturePromoteQueue {
  std::map<std::uint64_t, std::uint32_t> hit_index;
  std::vector<std::uint64_t> pending;

  void find(std::uint64_t fp) {
    hit_index.emplace(fp, 1u);  // EXPECT(bc-hotpath-alloc)
    pending.push_back(fp);  // contiguous growth: amortised, no finding
  }

  std::unique_ptr<std::uint64_t> promote_one(std::uint64_t id) {
    return std::make_unique<std::uint64_t>(id);  // EXPECT(bc-hotpath-alloc)
  }

  // Snapshot writing is cold by name: allocation here must stay silent.
  std::uint64_t* snapshot_block(std::uint64_t id) {
    return new std::uint64_t(id);
  }
};

}  // namespace bytecache::cache
