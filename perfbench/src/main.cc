// perfbench: the repository benchmark's binary.
//
//   perfbench run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--gateway <path to bytecache_gateway>]
//   perfbench digest --workload <name> --seed <n>
//   perfbench selftest
//   perfbench metrics
//
// `run` prints notes (environment stamp, input digest, sample counts,
// ratio bases) and then one JSON line: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1.  It exits 1 when an
// output check failed.  `digest` prints the digest of a workload's
// generated inputs, `metrics` the metric names with their units, and
// `selftest` checks the metric math.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "rabin/scan_kernel.h"
#include "util/check.h"
#include "workloads.h"

using namespace perfbench;

namespace {

struct Workload {
  const char* name;
  Result (*run)(const RunArgs&);
  std::uint64_t (*digest)(std::uint64_t);
  const char* threads;
  const char* traffic;
};

const Workload kWorkloads[] = {
    {"replay_hot", run_replay_hot, replay_hot_digest, "1", "in-process"},
    {"fresh_churn", run_fresh_churn, fresh_churn_digest,
     "3 (submitter + 2 shard workers)", "in-process"},
    {"udp_loopback", run_udp_loopback, udp_loopback_digest,
     "3 (generator + 2 single-threaded gateway processes)", "loopback"},
    {"lossy_download", run_lossy_download, lossy_download_digest, "1",
     "simulated"},
};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench run --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--gateway <path>]\n"
               "       perfbench digest --workload <name> --seed <n>\n"
               "       perfbench selftest | metrics\n");
  return 2;
}

int selftest_failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::printf("selftest FAILED: %s\n", what);
    ++selftest_failures;
  }
}

int selftest() {
  // Percentiles keep at least kMinBeyond samples beyond them.
  expect(min_samples_for(0.99) == 1000, "p99 needs 1000 samples");
  expect(min_samples_for(0.95) == 200, "p95 needs 200 samples");
  expect(min_samples_for(0.50) == 20, "p50 needs 20 samples");
  std::vector<double> v;
  for (int i = 1; i <= 999; ++i) v.push_back(i);
  double out = -1;
  expect(!percentile(v, 0.99, out) && out == -1,
         "p99 of 999 samples is refused");
  v.push_back(1000);
  expect(percentile(v, 0.99, out) && out == 990, "p99 of 1..1000 is 990");
  std::vector<double> w = {5, 1, 4, 2, 3};
  expect(median(w) == 3, "median of 5 samples");
  std::vector<double> w2 = {4, 1, 3, 2};
  expect(median(w2) == 2.5, "median of 4 samples");
  // The fast end: the 3rd of 100 slices from the top, or from the bottom.
  std::vector<double> h;
  for (int i = 1; i <= 100; ++i) h.push_back(101 - i);
  expect(fast_end(h, true) == 98, "fast end of 100 throughputs");
  expect(fast_end(h, false) == 3, "fast end of 100 latencies");
  std::vector<double> one = {7};
  expect(fast_end(one, true) == 7 && fast_end(one, false) == 7,
         "fast end of one slice");
  // Every ratio prints its base.
  Result r;
  r.ratio("x.ratio", {3, 4}, "three things", "four things");
  expect(r.metrics["x.ratio"] == 0.75, "ratio value");
  expect(r.notes.size() == 1 &&
             r.notes[0].find("four things") != std::string::npos &&
             r.notes[0].find(" 4 ") != std::string::npos,
         "ratio note names its base");
  expect(Ratio{1, 0}.value() == 0, "ratio with a zero base");
  // A failed check marks the result incorrect and says why.
  Result f;
  f.attempted = 10;
  f.failed = 1;
  f.fail_check("one of ten");
  expect(!f.correct && f.notes.back().find("one of ten") != std::string::npos,
         "fail_check");
  // Digests separate inputs.
  Digest a, b;
  a.add_u64(1);
  b.add_u64(2);
  expect(a.value() != b.value(), "digest separates inputs");
  std::printf("selftest: %s\n", selftest_failures == 0 ? "ok" : "FAILED");
  return selftest_failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "selftest") return selftest();
  if (cmd == "metrics") {
    for (const MetricDef& d : end_to_end_metrics()) {
      std::printf("end_to_end %s %s\n", d.name, d.unit);
    }
    for (const MetricDef& d : per_layer_metrics()) {
      std::printf("per_layer %s %s\n", d.name, d.unit);
    }
    return 0;
  }

  RunArgs args;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") args.workload = v;
    else if (k == "--seed") args.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") args.seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") args.trace = v == "1";
    else if (k == "--gateway") args.gateway = v;
    else return usage();
  }
  const Workload* w = find_workload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return usage();
  }
  if (cmd == "digest") {
    std::printf("%016llx\n", static_cast<unsigned long long>(w->digest(
                                 args.seed)));
    return 0;
  }
  if (cmd != "run") return usage();

  // Deep audits distort every timing: refuse to report from such a build.
  if (bytecache::util::kAuditEnabled) {
    std::fprintf(stderr, "perfbench: this build compiles BYTECACHE_AUDIT "
                         "in; timings from it are not reported\n");
    return 3;
  }
  std::printf("# env: build_type=%s audit=off scan_kernel=%s nproc=%u "
              "threads=%s traffic=%s workload=%s seed=%llu seconds=%g "
              "trace=%d\n",
              PERFBENCH_BUILD_TYPE, bytecache::rabin::scan_kernel().name,
              std::thread::hardware_concurrency(), w->threads, w->traffic,
              w->name, static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  const Result r = w->run(args);
  print_result(r, args.trace);
  return r.correct ? 0 : 1;
}
