// Microbenchmarks: Rabin fingerprinting throughput.
//
// Fingerprinting dominates the encoder's CPU cost (the paper's Section
// III discusses choosing w and the selection bits k partly for
// performance); these benches quantify the table-driven implementation.
//
// BM_RollingScan times the block-split fill (rabin/scan_kernel.h) and
// BM_RollingScanFused the serial template scan it replaces, so one run
// shows the fill's win over the serial reference.
#include <benchmark/benchmark.h>

#include <vector>

#include "rabin/rabin.h"
#include "rabin/scan_kernel.h"
#include "rabin/window.h"
#include "util/rng.h"

namespace {

using namespace bytecache;

util::Bytes random_payload(std::size_t n) {
  util::Rng rng(1);
  util::Bytes b(n);
  for (auto& v : b) v = static_cast<std::uint8_t>(rng.next_u64());
  return b;
}

void BM_TableConstruction(benchmark::State& state) {
  for (auto _ : state) {
    rabin::RabinTables tables(static_cast<std::size_t>(state.range(0)));
    benchmark::DoNotOptimize(tables);
  }
}
BENCHMARK(BM_TableConstruction)->Arg(16)->Arg(64);

void BM_PushByte(benchmark::State& state) {
  rabin::RabinTables tables(16);
  const auto data = random_payload(4096);
  rabin::Fingerprint fp = 0;
  for (auto _ : state) {
    for (std::uint8_t b : data) fp = tables.push(fp, b);
    benchmark::DoNotOptimize(fp);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          data.size());
}
BENCHMARK(BM_PushByte);

// Per-position fingerprint fill — the data-plane hot loop (what
// value-sampling selection runs as phase one).
void BM_RollingScan(benchmark::State& state) {
  rabin::RabinTables tables(16);
  const auto data = random_payload(static_cast<std::size_t>(state.range(0)));
  std::vector<rabin::Fingerprint> fps(data.size() - tables.window() + 1);
  for (auto _ : state) {
    rabin::fill_fingerprints(tables, data.data(), data.size(), fps.data());
    benchmark::DoNotOptimize(fps.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          data.size());
}
BENCHMARK(BM_RollingScan)->Arg(1460)->Arg(65536);

// The fused single-pass template scan (window.h) — the serial reference
// (and MAXP's scan), kept benchmarked so its inlining never regresses.
void BM_RollingScanFused(benchmark::State& state) {
  rabin::RabinTables tables(16);
  const auto data = random_payload(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    // XOR-accumulate every fingerprint so the inlined scan cannot be
    // eliminated as dead code.
    rabin::Fingerprint acc = 0;
    rabin::scan(tables, data,
                [&](std::size_t, rabin::Fingerprint fp) { acc ^= fp; });
    benchmark::DoNotOptimize(acc);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          data.size());
}
BENCHMARK(BM_RollingScanFused)->Arg(1460)->Arg(65536);

// Anchor selection through the public entry points, which run the scan
// kernels internally; scratch buffers are reused across iterations
// exactly as the encoder reuses its own.
template <typename Select>
void select_anchors(benchmark::State& state, Select&& select) {
  rabin::RabinTables tables(16);
  const auto data = random_payload(1460);
  std::vector<rabin::Anchor> anchors;
  rabin::ScanScratch scratch;
  for (auto _ : state) {
    select(tables, data, anchors, scratch);
    benchmark::DoNotOptimize(anchors.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          data.size());
}

void BM_SelectedAnchors(benchmark::State& state) {
  select_anchors(state, [](const rabin::RabinTables& tables,
                           util::BytesView data,
                           std::vector<rabin::Anchor>& anchors,
                           rabin::ScanScratch& scratch) {
    rabin::selected_anchors_into(tables, data, 4, anchors, scratch);
  });
}
BENCHMARK(BM_SelectedAnchors);

void BM_SelectedAnchorsMaxp(benchmark::State& state) {
  rabin::MaxpScratch maxp;
  select_anchors(state, [&maxp](const rabin::RabinTables& tables,
                                util::BytesView data,
                                std::vector<rabin::Anchor>& anchors,
                                rabin::ScanScratch&) {
    rabin::selected_anchors_maxp_into(tables, data, 31, anchors, maxp);
  });
}
BENCHMARK(BM_SelectedAnchorsMaxp);

void BM_SelectedAnchorsSampleByte(benchmark::State& state) {
  // EndRE's point: fingerprints only at anchors, not at every position.
  select_anchors(state, [](const rabin::RabinTables& tables,
                           util::BytesView data,
                           std::vector<rabin::Anchor>& anchors,
                           rabin::ScanScratch& scratch) {
    rabin::selected_anchors_samplebyte_into(tables, data, 16, 8, anchors,
                                            scratch);
  });
}
BENCHMARK(BM_SelectedAnchorsSampleByte);

void BM_ScanFromScratch(benchmark::State& state) {
  // The naive alternative to rolling: recompute each window from
  // scratch.  Bytes processed counts *hashed* bytes (windows x w) —
  // each window rereads all w bytes, and reporting payload bytes here,
  // as this bench once did, blended the two and read ~16x low.  The
  // payload-relative rate every other scan bench reports is exposed as
  // the separate payload_mb_per_s counter.
  rabin::RabinTables tables(16);
  const auto data = random_payload(1460);
  const std::size_t windows = data.size() - tables.window() + 1;
  for (auto _ : state) {
    rabin::Fingerprint acc = 0;
    for (std::size_t off = 0; off < windows; ++off) {
      acc ^= tables.of(util::BytesView(data.data() + off, tables.window()));
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(windows *
                                                    tables.window()));
  state.counters["payload_mb_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(data.size()) / 1e6,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ScanFromScratch);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
