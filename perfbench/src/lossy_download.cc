// lossy_download: the paper's Fig. 3 download of File 1 over the 1 MB/s
// forward link at 5% Bernoulli loss, in the simulator through
// harness::run_experiment.  Trials rotate over the caching policies and
// a pass-through trial with the same seed, which is the base of every
// ratio.  The end-to-end outcomes (download goodput and time, forward
// bytes) are simulated and come from a fixed number of rotations, so they
// depend on the seed alone; the wall clock gives the simulation's own
// speed (harness.trials_per_s in the traced run).
#include <algorithm>

#include "harness/experiment.h"
#include "ledger.h"
#include "workload/generators.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace bytecache;

constexpr std::size_t kFileBytes = 587'567;
constexpr double kLoss = 0.05;
constexpr std::size_t kRotations = 200;  // 1000 caching trials: enough for p99
constexpr std::size_t kSliceRotations = 10;
constexpr std::size_t kSetups = 5;
const double kGiveUpS =
    sim::to_seconds(harness::ExperimentConfig{}.give_up);

struct Row {
  const char* name;
  core::PolicyKind kind;
  bool epoch_resync;
  bool coded;
};

// The rotation: the Table II policies, the resilience extensions, and
// pass-through last (the base of wire_ratio and the Table II rows).
constexpr Row kRows[] = {
    {"cache_flush", core::PolicyKind::kCacheFlush, false, false},
    {"tcp_seq", core::PolicyKind::kTcpSeq, false, false},
    {"k_distance", core::PolicyKind::kKDistance, false, false},
    {"resilient", core::PolicyKind::kResilient, true, false},
    {"coded", core::PolicyKind::kTcpSeq, true, true},
    {"pass_through", core::PolicyKind::kNone, false, false},
};
constexpr std::size_t kRowCount = std::size(kRows);
constexpr std::size_t kCachingRows = kRowCount - 1;

util::Bytes make_file(std::uint64_t seed) {
  util::Rng rng(derive_seed(seed, 21));
  return workload::make_file1(rng, kFileBytes);
}

std::uint64_t trial_seed(std::uint64_t seed, std::size_t rotation) {
  return derive_seed(seed, 1000 + rotation);
}

harness::TrialResult run_one(const Row& row, const util::Bytes& file,
                             std::uint64_t seed) {
  harness::ExperimentConfig cfg;
  cfg.policy = row.kind;
  cfg.dre.k_distance = 8;
  cfg.dre.epoch_resync = row.epoch_resync;
  cfg.dre.coded_repair = row.coded;
  cfg.loss_rate = kLoss;
  cfg.trials = 1;
  cfg.seed = seed - 1;  // run_experiment runs trial seeds seed+1..
  harness::Aggregate agg = harness::run_experiment(cfg, file);
  return std::move(agg.trials.front());
}

struct PolicyOutcome {
  std::vector<double> download_s;
  double wire = 0;
};

struct LayerSums {
  double trials = 0;
  double retransmissions = 0;
  double timeouts = 0;
  double packets_forward = 0;
  double link_drops = 0;
  double perceived_drops = 0;  // link + undecodable + checksum drops
  double decoder_drops = 0;
  double flushes = 0;
  double resyncs = 0;
  double repairs = 0;
  double reconstructed = 0;

  void add(const harness::TrialResult& t) {
    trials += 1;
    retransmissions += double(t.tcp_retransmissions);
    timeouts += double(t.tcp_timeouts);
    packets_forward += double(t.packets_forward);
    link_drops += double(t.link_drops);
    perceived_drops += double(t.link_drops + t.decoder_drops +
                              t.receiver_checksum_drops);
    decoder_drops += double(t.decoder_drops);
    flushes += double(t.flushes);
    resyncs += double(t.resyncs_honored);
    repairs += double(t.repair_packets_sent);
    reconstructed += double(t.packets_reconstructed);
  }
};

}  // namespace

std::uint64_t lossy_download_digest(std::uint64_t seed) {
  Digest d;
  d.add(make_file(seed));
  for (std::size_t r = 0; r < kRotations; ++r) {
    d.add_u64(trial_seed(seed, r));
  }
  return d.value();
}

Result run_lossy_download(const RunArgs& args) {
  Result r;
  const std::size_t rotations = kRotations;

  std::vector<double> setups;
  util::Bytes file;
  for (std::size_t s = 0; s < kSetups; ++s) {
    const auto t0 = Clock::now();
    file = make_file(args.seed);
    // Warm-up: one rotation on a seed outside the measured ones.
    for (const Row& row : kRows) {
      const harness::TrialResult t =
          run_one(row, file, derive_seed(args.seed, 999));
      if (t.completed && !t.stalled && !t.verified) {
        r.fail_check(fmt("warm-up trial of %s delivered wrong bytes",
                         row.name));
      }
    }
    setups.push_back(seconds_since(t0));
  }
  r.metrics["setup_s"] = median(setups);
  r.note(fmt("# inputs: File 1 (%zu bytes), %zu rotations of %zu trials at "
             "%.0f%% Bernoulli loss, digest %016llx",
             file.size(), rotations, kRowCount, kLoss * 100,
             static_cast<unsigned long long>(lossy_download_digest(args.seed))));
  r.note(fmt("# setup_s: median of %zu setups (File 1 generation and one "
             "warm-up rotation)",
             setups.size()));
  r.note("# traffic: simulated Fig. 3 topology (1 MB/s forward link); "
         "latency_us_* are simulated download times, not wall time");

  PolicyOutcome outcome[kRowCount];
  LayerSums layers;
  double goodput_bytes = 0;    // File 1 bytes of verified caching trials
  double goodput_seconds = 0;  // their simulated download times
  std::vector<double> traced_slices;  // wall-clock speed, odd slices of a
  std::vector<double> untraced_slices;  // traced run; the rest
  std::vector<double> trial_wall_ms[kRowCount];
  std::size_t rot = 0;
  const auto start = Clock::now();
  while (rot < rotations || seconds_since(start) < args.seconds) {
    const bool spans = args.trace && (rot / kSliceRotations) % 2 == 1;
    const auto s0 = Clock::now();
    double delivered = 0;
    for (std::size_t k = 0; k < kSliceRotations; ++k, ++rot) {
      const std::uint64_t seed = trial_seed(args.seed, rot);
      for (std::size_t i = 0; i < kRowCount; ++i) {
        const auto t0 = Clock::now();
        const harness::TrialResult t = run_one(kRows[i], file, seed);
        if (spans) {
          trial_wall_ms[i].push_back(double(ns_between(t0, Clock::now())) /
                                     1e6);
        }
        ++r.attempted;
        // A stall is a failed operation (it counts in `failed` and, at the
        // give-up horizon, in the download-time percentiles); wrong bytes
        // in a completed download are a failed output check.
        const bool done = t.completed && !t.stalled;
        if (!done || !t.verified) {
          ++r.failed;
          r.note(fmt("# failed trial: policy %s, rotation %zu, trial seed "
                     "%llu: completed=%d verified=%d stalled=%d, %.1f%% "
                     "retrieved",
                     kRows[i].name, rot,
                     static_cast<unsigned long long>(seed), t.completed,
                     t.verified, t.stalled, t.percent_retrieved));
          if (done) r.fail_check("a completed download delivered wrong bytes");
        }
        if (done && t.verified && i < kCachingRows) {
          delivered += double(file.size());
        }
        if (rot >= rotations) continue;  // beyond the fixed outcome set
        outcome[i].download_s.push_back(done ? t.duration_s : kGiveUpS);
        if (i < kCachingRows) {
          if (done && t.verified) goodput_bytes += double(file.size());
          goodput_seconds += done ? t.duration_s : kGiveUpS;
        }
        outcome[i].wire += double(t.wire_bytes_forward);
        if (i < kCachingRows) layers.add(t);
      }
    }
    (spans ? traced_slices : untraced_slices)
        .push_back(delivered / 1e6 / seconds_since(s0));
  }
  const double elapsed = seconds_since(start);

  if (r.failed > 0) {
    r.note(fmt("# error rate: %llu of %llu trials failed",
               static_cast<unsigned long long>(r.failed),
               static_cast<unsigned long long>(r.attempted)));
  }

  // End-to-end: what the downloading user sees, in simulated time.  The
  // simulation's own wall-clock speed is harness.trials_per_s (traced).
  r.metrics["throughput_mb_s"] = goodput_bytes / 1e6 / goodput_seconds;
  r.note(fmt("# throughput_mb_s = %.6g MB delivered verified by the caching "
             "trials of the first %zu rotations / %.6g s of their simulated "
             "download time (a stalled trial counts its give-up horizon)",
             goodput_bytes / 1e6, rotations, goodput_seconds));
  std::vector<double> pooled;
  for (std::size_t i = 0; i < kCachingRows; ++i) {
    pooled.insert(pooled.end(), outcome[i].download_s.begin(),
                  outcome[i].download_s.end());
  }
  std::vector<double> pooled_us;
  for (double s : pooled) pooled_us.push_back(s * 1e6);
  double p50 = 0, p95 = 0, p99 = 0;
  const std::size_t n = pooled_us.size();
  if (percentile(pooled_us, 0.50, p50) && percentile(pooled_us, 0.95, p95) &&
      percentile(pooled_us, 0.99, p99)) {
    r.metrics["latency_us_p50"] = p50;
    r.metrics["latency_us_p95"] = p95;
    r.note(fmt("# latency p99 (not a metric): %.6g us", p99));
  } else {
    r.fail_check(fmt("latency: %zu caching trials, fewer than %zu needed", n,
                     min_samples_for(0.99)));
  }
  r.note(fmt("# samples: latency_us_* over %zu caching trials, those of the "
             "first %zu rotations (a stalled trial counts at the %.0f s "
             "give-up horizon)",
             n, rotations, kGiveUpS));
  double dre_wire = 0;
  for (std::size_t i = 0; i < kCachingRows; ++i) dre_wire += outcome[i].wire;
  const double base_wire = outcome[kCachingRows].wire;
  r.ratio("wire_ratio", {dre_wire, double(kCachingRows) * base_wire},
          "forward-link bytes of the caching trials",
          fmt("%zu x forward-link bytes of the pass-through trials with the "
              "same seeds",
              kCachingRows));
  r.metrics["peak_rss_mb"] = self_peak_rss_mb();

  if (!args.trace) return r;

  std::vector<double> pooled_s = pooled;
  double v = 0;
  if (percentile(pooled_s, 0.50, v)) r.metrics["harness.download_s_p50"] = v;
  if (percentile(pooled_s, 0.95, v)) r.metrics["harness.download_s_p95"] = v;
  r.metrics["harness.trials_per_s"] = double(r.attempted) / elapsed;
  r.note(fmt("# harness.trials_per_s: %llu trials in %.2f s of wall time",
             static_cast<unsigned long long>(r.attempted), elapsed));
  const double tn = std::max(layers.trials, 1.0);
  r.metrics["tcp.retransmissions_per_trial"] = layers.retransmissions / tn;
  r.metrics["tcp.timeouts_per_trial"] = layers.timeouts / tn;
  r.ratio("sim.actual_loss", {layers.link_drops, layers.packets_forward},
          "forward-link drops", "packets offered to the forward link");
  r.ratio("sim.perceived_loss",
          {layers.perceived_drops, layers.packets_forward},
          "link + undecodable + checksum drops",
          "packets offered to the forward link");
  r.metrics["gateway.decoder_drops_per_trial"] = layers.decoder_drops / tn;
  r.metrics["core.flushes_per_trial"] = layers.flushes / tn;
  r.metrics["resilience.resyncs_per_trial"] = layers.resyncs / tn;
  r.metrics["fec.repair_packets_per_trial"] = layers.repairs / tn;
  r.metrics["fec.reconstructed_per_trial"] = layers.reconstructed / tn;
  r.note(fmt("# per-trial layer counts: means over %.0f caching trials",
             layers.trials));

  // Table II rows, recomputed: each policy against pass-through.
  std::vector<double> base_dl = outcome[kCachingRows].download_s;
  const double base_p50 = median(base_dl);
  r.metrics["policy.pass_through.download_s_p50"] = base_p50;
  for (std::size_t i = 0; i < kCachingRows; ++i) {
    std::vector<double> dl = outcome[i].download_s;
    const double p = median(dl);
    r.metrics[fmt("policy.%s.download_s_p50", kRows[i].name)] = p;
    r.ratio(fmt("policy.%s.wire_ratio", kRows[i].name),
            {outcome[i].wire, base_wire},
            fmt("forward-link bytes of %s", kRows[i].name),
            "forward-link bytes of pass-through, same seeds");
    std::vector<double> wall = trial_wall_ms[i];
    r.note(fmt("# policy %-12s download p50 %.3f s (%.3fx pass-through "
               "%.3f s), wall %.2f ms/trial",
               kRows[i].name, p, base_p50 > 0 ? p / base_p50 : 0.0, base_p50,
               median(wall)));
  }

  const double untraced = median(untraced_slices);
  const double traced = median(traced_slices);
  r.ratio("obs.trace_overhead_frac", {untraced - traced, untraced},
          "untraced minus traced wall-clock slice speed (alternating "
          "10-rotation slices)",
          "untraced wall-clock slice speed, MB of File 1 per wall second");

  std::vector<util::BytesView> payloads;
  for (std::size_t off = 0; off < file.size(); off += 1460) {
    payloads.emplace_back(file.data() + off,
                          std::min<std::size_t>(1460, file.size() - off));
  }
  report_scan_cost(r, payloads, core::DreParams{});
  return r;
}

}  // namespace perfbench
