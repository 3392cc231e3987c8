#include "metrics.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>

namespace perfbench {

std::size_t min_samples_for(double q) {
  // Nearest rank r = ceil(q * n); samples beyond it: n - r >= kMinBeyond.
  for (std::size_t n = 1;; ++n) {
    const auto r = static_cast<std::size_t>(std::ceil(q * double(n)));
    if (n - r >= kMinBeyond) return n;
  }
}

bool percentile(std::vector<double>& v, double q, double& out) {
  const std::size_t n = v.size();
  if (n == 0) return false;
  const auto rank = static_cast<std::size_t>(std::ceil(q * double(n)));
  if (rank == 0 || n - rank < kMinBeyond) return false;
  std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
  out = v[rank - 1];
  return true;
}

double median(std::vector<double>& v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double fast_end(std::vector<double>& v, bool high) {
  const std::size_t n = v.size();
  if (n == 0) return 0.0;
  std::sort(v.begin(), v.end());
  const auto k = static_cast<std::size_t>(std::ceil(kFastShare * double(n)));
  return high ? v[n - k] : v[k - 1];
}

void Digest::add(bytecache::util::BytesView b) {
  for (std::uint8_t c : b) {
    h_ ^= c;
    h_ *= 0x100000001b3ull;
  }
}

void Digest::add_u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xFF;
    h_ *= 0x100000001b3ull;
  }
}

void Result::fail_check(const std::string& why) {
  correct = false;
  notes.push_back("# CHECK FAILED: " + why);
}

void Result::ratio(const std::string& name, const Ratio& r,
                   const std::string& num_desc, const std::string& base_desc) {
  metrics[name] = r.value();
  notes.push_back(fmt("# ratio %s = %.6g (%s) / %.6g (%s)", name.c_str(),
                      r.num, num_desc.c_str(), r.base, base_desc.c_str()));
}

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"throughput_mb_s", "MB/s"}, {"latency_us_p50", "us"},
      {"latency_us_p95", "us"},    {"wire_ratio", "ratio"},
      {"setup_s", "s"},            {"peak_rss_mb", "MB"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"rabin.scan_ns_per_kb", "ns/KB"},
      {"rabin.anchors_per_pkt", "count"},
      {"cache.probe_ns_per_pkt", "ns"},
      {"cache.update_ns_per_pkt", "ns"},
      {"cache.hit_ratio", "ratio"},
      {"cache.stale_hit_ratio", "ratio"},
      {"cache.l2_hit_ratio", "ratio"},
      {"cache.evictions_per_pkt", "count"},
      {"cache.fp_purged_per_pkt", "count"},
      {"cache.demotions_per_pkt", "count"},
      {"cache.promotions_per_pkt", "count"},
      {"core.expand_ns_per_pkt", "ns"},
      {"core.serialize_ns_per_pkt", "ns"},
      {"core.parse_ns_per_pkt", "ns"},
      {"core.rebuild_ns_per_pkt", "ns"},
      {"core.encode_ns_p50", "ns"},
      {"core.encode_ns_p99", "ns"},
      {"core.decode_ns_p50", "ns"},
      {"core.decode_ns_p99", "ns"},
      {"core.useful_hit_ratio", "ratio"},
      {"core.regions_per_pkt", "count"},
      {"core.deps_per_pkt", "count"},
      {"core.ledger_gap_frac", "ratio"},
      {"gateway.submit_wait_ns_p50", "ns"},
      {"gateway.submit_wait_ns_p99", "ns"},
      {"gateway.handoff_us_p50", "us"},
      {"gateway.handoff_us_p99", "us"},
      {"gateway.ring_stall_ns_p99", "ns"},
      {"gateway.shard_skew", "ratio"},
      {"net.gw_encode_ns_p50", "ns"},
      {"net.gw_decode_ns_p50", "ns"},
      {"net.stack_us_p50", "us"},
      {"net.send_failures", "count"},
      {"net.tunnel_bytes_ratio", "ratio"},
      {"tcp.retransmissions_per_trial", "count"},
      {"tcp.timeouts_per_trial", "count"},
      {"sim.actual_loss", "ratio"},
      {"sim.perceived_loss", "ratio"},
      {"gateway.decoder_drops_per_trial", "count"},
      {"core.flushes_per_trial", "count"},
      {"resilience.resyncs_per_trial", "count"},
      {"fec.repair_packets_per_trial", "count"},
      {"fec.reconstructed_per_trial", "count"},
      {"harness.download_s_p50", "sim_s"},
      {"harness.download_s_p95", "sim_s"},
      {"harness.trials_per_s", "1/s"},
      {"policy.pass_through.download_s_p50", "sim_s"},
      {"policy.cache_flush.download_s_p50", "sim_s"},
      {"policy.cache_flush.wire_ratio", "ratio"},
      {"policy.tcp_seq.download_s_p50", "sim_s"},
      {"policy.tcp_seq.wire_ratio", "ratio"},
      {"policy.k_distance.download_s_p50", "sim_s"},
      {"policy.k_distance.wire_ratio", "ratio"},
      {"policy.resilient.download_s_p50", "sim_s"},
      {"policy.resilient.wire_ratio", "ratio"},
      {"policy.coded.download_s_p50", "sim_s"},
      {"policy.coded.wire_ratio", "ratio"},
      {"obs.trace_overhead_frac", "ratio"},
  };
  return defs;
}

void print_result(const Result& r, bool traced) {
  const auto& defs = traced ? per_layer_metrics() : end_to_end_metrics();
  std::string absent;
  for (const MetricDef& d : defs) {
    if (r.metrics.count(d.name) == 0) absent += std::string(" ") + d.name;
  }
  for (const std::string& n : r.notes) std::printf("%s\n", n.c_str());
  if (!absent.empty()) {
    std::printf("# not on this workload's path (printed as 0):%s\n",
                absent.c_str());
  }
  std::string json = fmt("{\"correct\": %s, \"attempted\": %llu, "
                         "\"failed\": %llu, \"metrics\": {",
                         r.correct ? "true" : "false",
                         static_cast<unsigned long long>(r.attempted),
                         static_cast<unsigned long long>(r.failed));
  bool first = true;
  for (const MetricDef& d : defs) {
    const auto it = r.metrics.find(d.name);
    double v = it == r.metrics.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) v = 0.0;
    json += fmt("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                first ? "" : ", ", d.name, v, d.unit);
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void LatencyChunks::close_chunk() {
  double p50 = 0, p95 = 0;
  if (percentile(buf_, 0.50, p50) && percentile(buf_, 0.95, p95)) {
    p50s_.push_back(p50);
    p95s_.push_back(p95);
  }
  buf_.clear();
}

void LatencyChunks::merge(const LatencyChunks& o) {
  p50s_.insert(p50s_.end(), o.p50s_.begin(), o.p50s_.end());
  p95s_.insert(p95s_.end(), o.p95s_.begin(), o.p95s_.end());
}

void LatencyChunks::clear() {
  buf_.clear();
  p50s_.clear();
  p95s_.clear();
}

void add_latency_metrics(Result& r, LatencyChunks& lat,
                         const std::string& what, Summary how) {
  // Percentiles are taken per chunk, so a burst of slow samples stays in
  // its chunk.  p95 is the highest percentile a chunk holds with
  // kMinBeyond samples beyond it.  Larger chunks for a p99 would not
  // help: a timer interrupt or host preemption stretches about 1% of
  // operations as short as replay_hot's packets by tens of microseconds,
  // so their p99 sits in the gap between the two modes and jumps between
  // them from run to run.
  if (lat.chunks() == 0) {
    r.fail_check(fmt("latency: fewer than one chunk of %zu samples",
                     kLatencyChunk));
    return;
  }
  const std::string which =
      how == Summary::kMedian
          ? std::string("the median")
          : fmt("the chunk %g%% in from the fast end", kFastShare * 100);
  const double med50 = median(lat.p50s());
  const double med95 = median(lat.p95s());
  r.metrics["latency_us_p50"] =
      how == Summary::kMedian ? med50 : fast_end(lat.p50s(), false);
  r.metrics["latency_us_p95"] =
      how == Summary::kMedian ? med95 : fast_end(lat.p95s(), false);
  r.note(fmt("# samples: latency_us_* over %zu %s; each is %s of %zu chunks "
             "of %zu consecutive samples, ranked by that chunk's percentile "
             "(median chunk: p50 %.6g, p95 %.6g us)",
             lat.chunks() * kLatencyChunk, what.c_str(), which.c_str(),
             lat.chunks(), kLatencyChunk, med50, med95));
}

void add_throughput_metric(Result& r, std::vector<double>& slices,
                           const std::string& slice_desc, Summary how) {
  const std::size_t n = slices.size();
  const double med = median(slices);  // sorts
  r.metrics["throughput_mb_s"] =
      how == Summary::kMedian ? med : fast_end(slices, true);
  if (n > 0) {
    const std::string which =
        how == Summary::kMedian
            ? std::string("the median")
            : fmt("the slice %g%% in from the fast end", kFastShare * 100);
    r.note(fmt("# samples: throughput_mb_s is %s of %zu slices of %s "
               "(min %.2f, median %.2f, max %.2f MB/s)",
               which.c_str(), n, slice_desc.c_str(), slices.front(), med,
               slices.back()));
  }
}

double self_peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string fmt(const char* f, ...) {
  char buf[1024];
  va_list ap;
  va_start(ap, f);
  std::vsnprintf(buf, sizeof buf, f, ap);
  va_end(ap);
  return buf;
}

}  // namespace perfbench
