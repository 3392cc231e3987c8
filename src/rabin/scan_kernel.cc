#include "rabin/scan_kernel.h"

#include "rabin/window.h"

namespace bytecache::rabin {

namespace {

#if defined(__x86_64__) || defined(__i386__)
bool has_avx2() {
  static const bool yes = __builtin_cpu_supports("avx2") != 0;
  return yes;
}
#else
constexpr bool has_avx2() { return false; }
#endif

// Membership bits of q[0..7] as one byte (bit k = set[q[k]]): the eight
// 0/1 entries sit in the low bit of each byte of x, and the multiply
// gathers byte k's bit into bit 56 + k without carries.
std::uint64_t pack8(const ByteSet& set, const std::uint8_t* q) {
  std::uint64_t x = 0;
  for (unsigned k = 0; k < 8; ++k) {
    x |= std::uint64_t{set[q[k]]} << (8 * k);
  }
  return (x * 0x0102040810204080u) >> 56;
}

}  // namespace

void fill_fingerprints(const RabinTables& tables, const std::uint8_t* p,
                       std::size_t n, Fingerprint* out) {
  const std::size_t w = tables.window();
  const std::size_t positions = n - w + 1;
  constexpr std::size_t kLanes = 4;
  // Below ~32 positions per lane the warm-up (w extra pushes per lane)
  // eats the ILP win; fall through to the serial scan.
  if (positions < kLanes * 32) {
    scan(tables, util::BytesView(p, n),
         [out](std::size_t i, Fingerprint fp) { out[i] = fp; });
    return;
  }
  const std::size_t len = positions / kLanes;
  const std::size_t s1 = len, s2 = 2 * len, s3 = 3 * len;
  Fingerprint f0 = kEmptyFingerprint, f1 = kEmptyFingerprint;
  Fingerprint f2 = kEmptyFingerprint, f3 = kEmptyFingerprint;
  for (std::size_t j = 0; j < w; ++j) {
    f0 = tables.push(f0, p[j]);
    f1 = tables.push(f1, p[s1 + j]);
    f2 = tables.push(f2, p[s2 + j]);
    f3 = tables.push(f3, p[s3 + j]);
  }
  out[0] = f0;
  out[s1] = f1;
  out[s2] = f2;
  out[s3] = f3;
  for (std::size_t s = 1; s < len; ++s) {
    f0 = tables.roll(f0, p[s - 1], p[s + w - 1]);
    f1 = tables.roll(f1, p[s1 + s - 1], p[s1 + s + w - 1]);
    f2 = tables.roll(f2, p[s2 + s - 1], p[s2 + s + w - 1]);
    f3 = tables.roll(f3, p[s3 + s - 1], p[s3 + s + w - 1]);
    out[s] = f0;
    out[s1 + s] = f1;
    out[s2 + s] = f2;
    out[s3 + s] = f3;
  }
  // Lane 3 rolls on through the remainder positions.
  for (std::size_t i = kLanes * len; i < positions; ++i) {
    f3 = tables.roll(f3, p[i - 1], p[i + w - 1]);
    out[i] = f3;
  }
}

void detail::mask_portable(const ByteSet& set, const std::uint8_t* p,
                           std::size_t n, std::uint64_t* masks) {
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    std::uint64_t m = 0;
    for (unsigned g = 0; g < 8; ++g) m |= pack8(set, p + i + 8 * g) << (8 * g);
    masks[i >> 6] = m;
  }
  if (i < n) {
    std::uint64_t m = 0;
    for (std::size_t k = i; k < n; ++k) {
      m |= std::uint64_t{set[p[k]]} << (k - i);
    }
    masks[i >> 6] = m;
  }
}

void member_mask(const ByteSet& set, const std::uint8_t* p, std::size_t n,
                 std::uint64_t* masks) {
#if defined(__x86_64__) || defined(__i386__)
  if (has_avx2()) {
    detail::mask_avx2(set, p, n, masks);
    return;
  }
#endif
  detail::mask_portable(set, p, n, masks);
}

const ScanKernel& scan_kernel() {
  static const ScanKernel kernel{has_avx2() ? "avx2" : "portable"};
  return kernel;
}

}  // namespace bytecache::rabin
