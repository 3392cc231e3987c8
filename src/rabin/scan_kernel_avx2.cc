// AVX2 body of member_mask (see scan_kernel.h).  This translation unit
// is the only one that emits AVX2 instructions; its one function carries
// a target("avx2") attribute so the file builds without -mavx2 and the
// library as a whole stays baseline-ISA.  member_mask calls it only after
// __builtin_cpu_supports("avx2").

#include "rabin/scan_kernel.h"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

namespace bytecache::rabin::detail {

// SAMPLEBYTE membership, 32 bytes per step via nibble decomposition:
// byte b = (h << 4) | l is in the set iff bit h of row[l] is set, where
// the 16 rows are split into two pshufb tables (h in 0..7 and 8..15).
__attribute__((target("avx2"))) void mask_avx2(const ByteSet& set,
                                               const std::uint8_t* p,
                                               std::size_t n,
                                               std::uint64_t* masks) {
  alignas(16) std::uint8_t rows0[16];
  alignas(16) std::uint8_t rows1[16];
  for (unsigned l = 0; l < 16; ++l) {
    std::uint8_t r0 = 0, r1 = 0;
    for (unsigned h = 0; h < 8; ++h) {
      r0 |= static_cast<std::uint8_t>(set[(h << 4) | l] << h);
      r1 |= static_cast<std::uint8_t>(set[((h + 8) << 4) | l] << h);
    }
    rows0[l] = r0;
    rows1[l] = r1;
  }
  const __m256i tbl0 = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(rows0)));
  const __m256i tbl1 = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(rows1)));
  const __m256i bittbl = _mm256_broadcastsi128_si256(
      _mm_setr_epi8(1, 2, 4, 8, 16, 32, 64, -128, 1, 2, 4, 8, 16, 32, 64,
                    -128));
  const __m256i lomask = _mm256_set1_epi8(0x0F);
  const __m256i seven = _mm256_set1_epi8(7);

  std::size_t i = 0;
  std::size_t word = 0;
  for (; i + 64 <= n; i += 64, ++word) {
    std::uint64_t m = 0;
    for (int half = 0; half < 2; ++half) {
      const __m256i v = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(p + i + 32 * half));
      const __m256i l = _mm256_and_si256(v, lomask);
      const __m256i h = _mm256_and_si256(_mm256_srli_epi16(v, 4), lomask);
      const __m256i r0 = _mm256_shuffle_epi8(tbl0, l);
      const __m256i r1 = _mm256_shuffle_epi8(tbl1, l);
      const __m256i use1 = _mm256_cmpgt_epi8(h, seven);  // h >= 8
      const __m256i rows = _mm256_blendv_epi8(r0, r1, use1);
      const __m256i bit =
          _mm256_shuffle_epi8(bittbl, _mm256_and_si256(h, seven));
      const __m256i hit = _mm256_cmpeq_epi8(_mm256_and_si256(rows, bit), bit);
      const auto mm = static_cast<std::uint32_t>(_mm256_movemask_epi8(hit));
      m |= static_cast<std::uint64_t>(mm) << (32 * half);
    }
    masks[word] = m;
  }
  if (i < n) {
    std::uint64_t m = 0;
    for (std::size_t k = i; k < n; ++k) {
      m |= std::uint64_t{set[p[k]]} << (k - i);
    }
    masks[word] = m;
  }
}

}  // namespace bytecache::rabin::detail

#endif  // defined(__x86_64__) || defined(__i386__)
