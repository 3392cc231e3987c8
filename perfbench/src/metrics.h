// Metric math, the result record and its JSON rendering, shared by every
// workload of the benchmark.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/bytes.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// Every percentile the benchmark prints keeps at least this many samples
/// beyond it, so a tail value is never one lucky or unlucky sample.
inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank percentile (q in (0, 1)) of `v`, which is sorted in place.
/// Returns false, leaving `out` untouched, when fewer than kMinBeyond
/// samples lie above the percentile's rank.
bool percentile(std::vector<double>& v, double q, double& out);

/// The smallest sample count for which percentile(q) is defined.
std::size_t min_samples_for(double q);

/// Median of `v` (sorted in place); 0 for an empty vector.
double median(std::vector<double>& v);

/// How a run turns its slices (or latency chunks) into one wall-clock
/// metric.
enum class Summary {
  /// The median slice.  For work with many operations in flight, whose
  /// fastest slices are queue transients rather than the program's speed.
  kMedian,
  /// The slice kFastShare of the way in from the run's fast end.  Other
  /// tenants of a shared host only ever slow a slice down, for stretches
  /// of seconds to minutes, so the median of serial, one-in-flight work
  /// moves with them; its least disturbed slices are the program's own
  /// speed, with enough slices beyond them that one lucky slice does not
  /// set the metric.
  kFastEnd,
};
inline constexpr double kFastShare = 0.03;

/// The nearest-rank value kFastShare of the way in from the high end of
/// `v` (`high`) or from its low end; `v` is sorted in place.  0 for an
/// empty vector.
double fast_end(std::vector<double>& v, bool high);

/// A ratio whose base is printed beside it.  Base 0 gives 0.
struct Ratio {
  double num = 0;
  double base = 0;
  [[nodiscard]] double value() const { return base > 0 ? num / base : 0.0; }
};

/// FNV-1a over byte ranges: the digest of a workload's generated inputs.
class Digest {
 public:
  void add(bytecache::util::BytesView b);
  void add_u64(std::uint64_t v);
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// What one invocation reports.  `metrics` holds every metric the run
/// computed; print_result() emits exactly the names of the selected list
/// (end-to-end or per-layer), in that list's order.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  /// Lines printed before the JSON: environment stamp, input digest,
  /// sample counts and the base of every ratio.
  std::vector<std::string> notes;

  void note(const std::string& line) { notes.push_back(line); }
  /// Marks the run incorrect and records why.
  void fail_check(const std::string& why);
  /// Records a ratio metric and a note naming its base.
  void ratio(const std::string& name, const Ratio& r,
             const std::string& num_desc, const std::string& base_desc);
};

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics (untraced run), in BENCHMARK.json order.
const std::vector<MetricDef>& end_to_end_metrics();
/// The per-layer metrics (traced run), in BENCHMARK.json order.
const std::vector<MetricDef>& per_layer_metrics();

/// Prints the notes, then the final JSON line with the selected metric
/// list.  A metric of the list that the run did not compute is printed as
/// 0 and named in a note: that layer is not on the workload's path.
void print_result(const Result& r, bool traced);

/// Latency samples per chunk: the fewest for which a chunk's p95 keeps
/// kMinBeyond samples beyond it, so the fast end is made of short
/// stretches of a run that other tenants left alone.
inline constexpr std::size_t kLatencyChunk = 200;

/// Per-operation latencies (us), summarized chunk by chunk: every
/// kLatencyChunk consecutive samples give one p50 and one p95, so memory
/// stays constant however many operations a run completes.
class LatencyChunks {
 public:
  void add(double us) {
    buf_.push_back(us);
    if (buf_.size() == kLatencyChunk) close_chunk();
  }
  /// Appends another accumulator's finished chunks (per-shard merging).
  void merge(const LatencyChunks& o);
  /// Drops the samples and chunks taken so far.
  void clear();

  [[nodiscard]] std::size_t chunks() const { return p95s_.size(); }
  [[nodiscard]] std::vector<double>& p50s() { return p50s_; }
  [[nodiscard]] std::vector<double>& p95s() { return p95s_; }

 private:
  void close_chunk();

  std::vector<double> buf_;
  std::vector<double> p50s_;
  std::vector<double> p95s_;
};

/// latency_us_p50 / latency_us_p95: the chunks' percentiles summarized
/// `how`, with a note naming the sample count and what one operation is.
/// Fails the run when not one chunk completed.
void add_latency_metrics(Result& r, LatencyChunks& lat,
                         const std::string& what, Summary how);

/// throughput_mb_s as the per-slice MB/s summarized `how`, with a note.
void add_throughput_metric(Result& r, std::vector<double>& slices,
                           const std::string& slice_desc, Summary how);

/// Peak resident set of this process, in MB.
double self_peak_rss_mb();

/// printf into a std::string.
std::string fmt(const char* f, ...) __attribute__((format(printf, 1, 2)));

}  // namespace perfbench
