// Encoder-side cache and codec counters read from outside (stats(),
// tier_stats(), the L1 store), and the per-layer metrics derived from
// their change over the traced phase.
#pragma once

#include "core/encoder.h"
#include "metrics.h"
#include "obs/metrics.h"

namespace perfbench {

struct CodecCounters {
  double lookups = 0;
  double hits = 0;
  double stale_hits = 0;
  double l2_hits = 0;
  double evictions = 0;
  double fp_purged = 0;
  double demotions = 0;
  double promotions = 0;
  double data_packets = 0;
  double regions = 0;
  double dependency_links = 0;
  double encoded_packets = 0;

  static CodecCounters of(const bytecache::core::Encoder& enc) {
    CodecCounters c;
    const auto& cs = enc.cache().stats();
    const auto& ts = enc.cache().tier_stats();
    const auto& es = enc.stats();
    c.lookups = double(cs.lookups);
    c.hits = double(cs.hits);
    c.stale_hits = double(cs.stale_hits);
    c.l2_hits = double(ts.l2_hits);
    c.evictions = double(enc.cache().store().evictions());
    c.fp_purged = double(cs.fingerprints_purged + ts.l2_fingerprints_purged);
    c.demotions = double(ts.demotions);
    c.promotions = double(ts.promotions);
    c.data_packets = double(es.data_packets);
    c.regions = double(es.regions);
    c.dependency_links = double(es.dependency_links);
    c.encoded_packets = double(es.encoded_packets);
    return c;
  }

  CodecCounters& operator+=(const CodecCounters& o) {
    each(*this, o, [](double& x, double y) { x += y; });
    return *this;
  }

  friend CodecCounters operator-(CodecCounters a, const CodecCounters& b) {
    each(a, b, [](double& x, double y) { x -= y; });
    return a;
  }

 private:
  template <typename F>
  static void each(CodecCounters& a, const CodecCounters& b, F f) {
    f(a.lookups, b.lookups);
    f(a.hits, b.hits);
    f(a.stale_hits, b.stale_hits);
    f(a.l2_hits, b.l2_hits);
    f(a.evictions, b.evictions);
    f(a.fp_purged, b.fp_purged);
    f(a.demotions, b.demotions);
    f(a.promotions, b.promotions);
    f(a.data_packets, b.data_packets);
    f(a.regions, b.regions);
    f(a.dependency_links, b.dependency_links);
    f(a.encoded_packets, b.encoded_packets);
  }
};

/// Cache ratios (over L1 lookups), per-packet cache movement, and the
/// codec's region/dependency counts, from a traced-phase delta.
inline void report_codec_counters(Result& r, const CodecCounters& d) {
  const char* lk = "encoder L1 lookups";
  r.ratio("cache.hit_ratio", {d.hits, d.lookups}, "L1 hits", lk);
  r.ratio("cache.stale_hit_ratio", {d.stale_hits, d.lookups},
          "stale L1 hits (fingerprint present, packet evicted)", lk);
  r.ratio("cache.l2_hit_ratio", {d.l2_hits, d.lookups},
          "L2 hits (L1 misses served by the L2)", lk);
  const char* pk = "encoder data packets";
  r.ratio("cache.evictions_per_pkt", {d.evictions, d.data_packets},
          "L1 store evictions", pk);
  r.ratio("cache.fp_purged_per_pkt", {d.fp_purged, d.data_packets},
          "fingerprints purged (L1 + L2)", pk);
  r.ratio("cache.demotions_per_pkt", {d.demotions, d.data_packets},
          "L1 -> L2 demotions", pk);
  r.ratio("cache.promotions_per_pkt", {d.promotions, d.data_packets},
          "L2 -> L1 promotions", pk);
  r.ratio("core.useful_hit_ratio", {d.regions, d.hits + d.l2_hits},
          "regions substituted", "cache hits (L1 + L2)");
  r.ratio("core.regions_per_pkt", {d.regions, d.data_packets},
          "regions substituted", pk);
  r.ratio("core.deps_per_pkt", {d.dependency_links, d.encoded_packets},
          "dependency links", "encoded packets");
}

/// Percentile of a gateway histogram (power-of-two buckets), interpolated
/// linearly inside the bucket that holds it.  0 for an empty histogram.
inline double hist_percentile(const bytecache::obs::HistogramValue& h,
                              double q) {
  using bytecache::obs::Histogram;
  if (h.count == 0) return 0.0;
  const double target = q * double(h.count);
  double seen = 0;
  for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
    if (h.buckets[i] == 0) continue;
    const double hi = double(Histogram::upper_bound(i));
    const double lo = i == 0 ? 0.0 : double(Histogram::upper_bound(i - 1));
    if (seen + double(h.buckets[i]) >= target) {
      return lo + (hi - lo) * (target - seen) / double(h.buckets[i]);
    }
    seen += double(h.buckets[i]);
  }
  return double(h.max);
}

}  // namespace perfbench
