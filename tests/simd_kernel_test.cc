// Equivalence tests for the scan kernels (rabin/scan_kernel.h): the
// block-split fill must reproduce the serial scan, both mask bodies must
// reproduce the naive bit loop, and selection through them must equal
// the naive oracles in tests/testutil.h — same fingerprints, same
// anchors, on every input, or the cache contents silently fork between
// peers.  The golden wire vectors pin the resulting wire bytes.
//
// The size sweeps deliberately hug the seams: payloads below one mask
// word, at and around multiples of the widest vector step (the AVX2 mask
// eats 32 bytes per iteration and writes 64-bit words) and around the
// w-1 positions at the end where no full window fits, because that is
// where a lane-split or tail loop goes wrong first.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/anchors.h"
#include "core/decoder.h"
#include "core/encoder.h"
#include "core/policies.h"
#include "rabin/scan_kernel.h"
#include "rabin/window.h"
#include "tests/testutil.h"
#include "util/rng.h"

namespace bytecache {
namespace {

using testutil::random_bytes;
using testutil::segment_stream;
using testutil::test_encoder;
using util::Bytes;
using util::Rng;

/// Sizes that straddle the interesting boundaries: the window edge,
/// every size below one 64-bit mask word, multiples of the 32/64-byte
/// vector strides (+/- 2), plus a few larger odd sizes so every lane of
/// the block split gets a tail.
std::vector<std::size_t> seam_sizes(std::size_t w) {
  std::vector<std::size_t> sizes = {w, w + 1, w + 2, 2 * w - 1, 2 * w + 1};
  for (std::size_t n = 1; n < 64; ++n) sizes.push_back(n);
  for (const std::size_t base : {std::size_t{64}, std::size_t{128},
                                 std::size_t{256}, std::size_t{1024},
                                 std::size_t{1460}, std::size_t{4096}}) {
    for (std::size_t d = 0; d <= 4; ++d) sizes.push_back(base - 2 + d);
  }
  return sizes;
}

/// The serial reference fill: the fused scan() template.
std::vector<rabin::Fingerprint> scan_reference(const rabin::RabinTables& tables,
                                               util::BytesView payload) {
  std::vector<rabin::Fingerprint> out;
  rabin::scan(tables, payload,
              [&](std::size_t, rabin::Fingerprint fp) { out.push_back(fp); });
  return out;
}

// ---------------------------------------------------------------- fill --

TEST(ScanKernelEquiv, FillMatchesScalarAtSeamSizes) {
  for (const std::size_t w : {std::size_t{16}, std::size_t{32},
                              std::size_t{64}}) {
    const rabin::RabinTables tables(w);
    Rng rng(testutil::test_seed(201));
    for (const std::size_t n : seam_sizes(w)) {
      if (n < w) continue;
      const Bytes payload = random_bytes(rng, n);
      // Poisoned output: a position the fill forgets to write shows up
      // as the sentinel, not as luckily-matching stale data.
      std::vector<rabin::Fingerprint> got(n - w + 1, 0xDEADDEADDEADDEAD);
      rabin::fill_fingerprints(tables, payload.data(), n, got.data());
      ASSERT_EQ(got, scan_reference(tables, payload)) << "w=" << w
                                                      << " n=" << n;
    }
  }
}

TEST(ScanKernelEquiv, FillMatchesScalarOnRandomSizes) {
  const rabin::RabinTables tables(16);
  Rng rng(testutil::test_seed(202));
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = rng.uniform(16, 3000);
    const Bytes payload = random_bytes(rng, n);
    std::vector<rabin::Fingerprint> got(n - 16 + 1);
    rabin::fill_fingerprints(tables, payload.data(), n, got.data());
    ASSERT_EQ(got, scan_reference(tables, payload)) << "n=" << n;
  }
}

// ---------------------------------------------------------------- mask --

using MaskFn = void (*)(const rabin::ByteSet&, const std::uint8_t*,
                        std::size_t, std::uint64_t*);

struct MaskImpl {
  const char* name;
  MaskFn fn;
};

/// Both mask bodies this CPU can run, plus the member_mask entry point.
std::vector<MaskImpl> mask_impls() {
  std::vector<MaskImpl> out = {{"portable", &rabin::detail::mask_portable},
                              {"member_mask", &rabin::member_mask}};
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx2")) {
    out.push_back({"avx2", &rabin::detail::mask_avx2});
  }
#endif
  return out;
}

std::vector<std::uint64_t> naive_mask(const rabin::ByteSet& set,
                                      const Bytes& payload) {
  std::vector<std::uint64_t> out((payload.size() + 63) / 64, 0);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    if (set[payload[i]] != 0) out[i >> 6] |= std::uint64_t{1} << (i & 63u);
  }
  return out;
}

void expect_masks_match(const rabin::ByteSet& set, const Bytes& payload,
                        const std::string& what) {
  const std::vector<std::uint64_t> expected = naive_mask(set, payload);
  for (const MaskImpl& impl : mask_impls()) {
    // Pre-set garbage: bits past n must come back zero, not survive.
    std::vector<std::uint64_t> got(expected.size(), ~std::uint64_t{0});
    impl.fn(set, payload.data(), payload.size(), got.data());
    ASSERT_EQ(got, expected) << impl.name << " " << what;
  }
}

/// A random membership set; every tenth is empty and every tenth (offset
/// by five) full, so the extremes are always covered.
rabin::ByteSet random_set(Rng& rng, int trial) {
  rabin::ByteSet set{};
  for (auto& e : set) {
    e = trial % 10 == 0 ? 0 : trial % 10 == 5 ? 1 : (rng.next_u64() & 1u);
  }
  return set;
}

TEST(ScanKernelEquiv, MemberMaskMatchesNaiveBitLoop) {
  Rng rng(testutil::test_seed(203));
  int trial = 0;
  for (const std::size_t n : seam_sizes(16)) {
    const rabin::ByteSet set = random_set(rng, trial++);
    expect_masks_match(set, random_bytes(rng, n), "n=" + std::to_string(n));
  }
  for (; trial < 100; ++trial) {
    const rabin::ByteSet set = random_set(rng, trial);
    const std::size_t n = rng.uniform(1, 2000);
    expect_masks_match(set, random_bytes(rng, n), "n=" + std::to_string(n));
  }
}

TEST(ScanKernelEquiv, MemberMaskOnEverySingleByteInput) {
  Rng rng(testutil::test_seed(206));
  for (int trial = 0; trial < 12; ++trial) {
    const rabin::ByteSet set = random_set(rng, trial);
    for (unsigned b = 0; b < 256; ++b) {
      expect_masks_match(set, Bytes{static_cast<std::uint8_t>(b)},
                         "byte=" + std::to_string(b));
    }
  }
}

// --------------------------------------------------- anchor selection --

TEST(ScanKernelEquiv, SelectionIdenticalUnderEveryKernel) {
  const rabin::RabinTables tables(16);
  Rng rng(testutil::test_seed(204));
  std::vector<std::size_t> sizes = seam_sizes(16);
  for (int trial = 0; trial < 40; ++trial) sizes.push_back(rng.uniform(1, 2000));
  for (const std::size_t n : sizes) {
    const Bytes payload = random_bytes(rng, n);
    ASSERT_EQ(rabin::selected_anchors(tables, payload, 4),
              testutil::value_sampling_reference(tables, payload, 4))
        << "n=" << n;
    ASSERT_EQ(rabin::selected_anchors_maxp(tables, payload, 31),
              testutil::maxp_reference(tables, payload, 31))
        << "n=" << n;
    ASSERT_EQ(rabin::selected_anchors_samplebyte(tables, payload, 16, 8),
              testutil::samplebyte_reference(tables, payload, 16, 8))
        << "n=" << n;
  }
}

// ------------------------------------------------- end-to-end wire bytes --

struct E2EConfig {
  const char* name;
  core::PolicyKind policy;
  core::SelectMode mode;
  std::size_t cache_bytes;
  bool epoch_resync;
};

// The six tracked data-plane configurations (mirrors bench_throughput's
// workload list).
constexpr E2EConfig kConfigs[] = {
    {"naive_valuesampling", core::PolicyKind::kNaive,
     core::SelectMode::kValueSampling, 0, false},
    {"naive_maxp", core::PolicyKind::kNaive, core::SelectMode::kMaxp, 0,
     false},
    {"naive_samplebyte", core::PolicyKind::kNaive,
     core::SelectMode::kSampleByte, 0, false},
    {"tcpseq_valuesampling", core::PolicyKind::kTcpSeq,
     core::SelectMode::kValueSampling, 0, false},
    {"naive_bounded256k", core::PolicyKind::kNaive,
     core::SelectMode::kValueSampling, 256 * 1024, false},
    {"resilient_valuesampling", core::PolicyKind::kResilient,
     core::SelectMode::kValueSampling, 0, true},
};

/// The oracle anchors for `payload` under `params`' selection scheme.
std::vector<rabin::Anchor> reference_anchors(const rabin::RabinTables& tables,
                                             util::BytesView payload,
                                             const core::DreParams& params) {
  switch (params.select_mode) {
    case core::SelectMode::kMaxp:
      return testutil::maxp_reference(tables, payload, params.maxp_p);
    case core::SelectMode::kSampleByte:
      return testutil::samplebyte_reference(tables, payload,
                                            params.samplebyte_period,
                                            params.samplebyte_skip);
    case core::SelectMode::kValueSampling:
      break;
  }
  return testutil::value_sampling_reference(tables, payload,
                                            params.select_bits);
}

// Every packet of a redundant stream, under every tracked configuration:
// the anchors both codecs derive from the payload equal the oracle's, and
// the decoder restores the original bytes from the encoder's wire bytes.
TEST(ScanKernelEquiv, WireBytesIdenticalAcrossKernelsForEveryConfig) {
  Rng rng(testutil::test_seed(205));
  // Redundant stream (repeated chunks + noise) so real regions, cache
  // churn, and — under the bounded config — evictions all happen.
  Bytes object;
  std::vector<Bytes> chunks;
  for (int i = 0; i < 6; ++i) {
    chunks.push_back(random_bytes(rng, 500 + 100 * static_cast<std::size_t>(i)));
  }
  for (int i = 0; i < 100; ++i) {
    const Bytes& c = chunks[rng.zipf(chunks.size(), 1.0)];
    object.insert(object.end(), c.begin(), c.end());
    if (i % 7 == 0) {
      const Bytes noise = random_bytes(rng, rng.uniform(50, 400));
      object.insert(object.end(), noise.begin(), noise.end());
    }
  }

  for (const E2EConfig& cfg : kConfigs) {
    core::DreParams params;
    params.select_mode = cfg.mode;
    params.epoch_resync = cfg.epoch_resync;
    const rabin::RabinTables tables(params.window, params.poly);
    cache::CacheConfig cc;
    cc.l1_bytes = cfg.cache_bytes;
    core::Encoder enc = test_encoder(cfg.policy, params, cc);
    core::Decoder dec(params, cc);
    std::size_t encoded = 0;
    for (const auto& pkt : segment_stream(object)) {
      const Bytes original = pkt->payload;
      ASSERT_EQ(core::compute_anchors(tables, original, params),
                reference_anchors(tables, original, params))
          << cfg.name;
      encoded += enc.process(*pkt).encoded ? 1 : 0;
      const auto dinfo = dec.process(*pkt);
      ASSERT_FALSE(core::is_drop(dinfo.status)) << cfg.name;
      ASSERT_EQ(pkt->payload, original) << cfg.name;
    }
    enc.audit();
    dec.audit();
    EXPECT_GT(encoded, 0u) << cfg.name;
  }
}

}  // namespace
}  // namespace bytecache
