// The data-plane scan kernels: per-position Rabin fingerprints and
// SAMPLEBYTE membership masks, the first phase of every two-phase anchor
// selection in window.cc.
//
// The byte-serial roll loop in window.h is latency-bound: each step's
// push-table load feeds the next step's index, so a single lane runs at
// one L1 load latency per byte.  fill_fingerprints breaks that chain by
// block-splitting the payload into 4 independent lanes, each warmed up
// with w from-scratch pushes at its block start.  The warm-up is what
// makes the split *bit-identical* to the serial scan: the rolled
// fingerprint at any position equals the from-scratch fingerprint of
// that window (an identity the equivalence tests pin), so every lane
// reproduces exactly the values the serial loop would have produced —
// there is no seam approximation to patch up.  The lane state lives in
// general-purpose registers: a vpgatherqq vector roll was measured ~1.8x
// slower (gathers lose to two scalar L1 loads per step; DESIGN.md §7.1).
//
// member_mask is the one place with an ISA-specific body: on x86 CPUs
// with AVX2 it classifies 32 bytes per step with nibble pshufb lookups
// (scan_kernel_avx2.cc, the only target("avx2") function); elsewhere it
// runs a portable word-at-a-time mask.  Both write identical bits; the
// choice follows the CPU and has no user override.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "rabin/rabin.h"

namespace bytecache::rabin {

/// A 256-entry membership set: entry b is 1 iff byte value b is a member,
/// 0 otherwise (the SAMPLEBYTE sample set).
using ByteSet = std::array<std::uint8_t, 256>;

/// Writes out[i] = fingerprint of the w-byte window starting at payload
/// position i, for every full-window position i in [0, n - w].  Requires
/// n >= w and out sized for n - w + 1 entries.
void fill_fingerprints(const RabinTables& tables, const std::uint8_t* p,
                       std::size_t n, Fingerprint* out);

/// Sets bit i of masks[] iff set[p[i]] == 1.  masks must hold
/// (n + 63) / 64 words; bits past n are written zero.
void member_mask(const ByteSet& set, const std::uint8_t* p, std::size_t n,
                 std::uint64_t* masks);

/// Names the mask implementation member_mask runs on this CPU ("avx2" or
/// "portable"), for bench environment lines.
struct ScanKernel {
  const char* name;
};
[[nodiscard]] const ScanKernel& scan_kernel();

namespace detail {

/// Portable member_mask: each 64-bit word is built in a register, eight
/// table reads at a time packed into one byte by a multiply.
void mask_portable(const ByteSet& set, const std::uint8_t* p, std::size_t n,
                   std::uint64_t* masks);

#if defined(__x86_64__) || defined(__i386__)
/// AVX2 member_mask (scan_kernel_avx2.cc).  Call only on a CPU that
/// supports AVX2.
void mask_avx2(const ByteSet& set, const std::uint8_t* p, std::size_t n,
               std::uint64_t* masks);
#endif

}  // namespace detail

}  // namespace bytecache::rabin
