// Fast table-driven Rabin fingerprinting.
//
// For a byte string b0..b(n-1), the fingerprint is
//     fp(b) = ( x^(8n) + sum_i b_i * x^(8*(n-1-i)) ) mod P,   P = x^64 + q
// i.e. the bytes are the coefficients of a polynomial over GF(2), most
// significant byte first, with an implicit leading 1 byte.  The leading
// term matters: without it, a window of <= 8 bytes has degree < 64, is
// never reduced, and the "fingerprint" is just the raw bytes — its low
// bits mirror the last character, which ruins value sampling on ASCII
// payloads.  With it, every full window passes through the modulus and
// the bits are well mixed for any window size.
//
// Appending a byte is still
//     fp' = (fp * x^8 + b) mod P
// (the leading term shifts along with the content), evaluated by the push
// table in one XOR; removing the oldest byte of a w-byte window XORs out
// the correction ((x^8 + (b XOR 1)) * x^(8w)) mod P via the out table.
// Both tables are derived from the verified irreducible modulus in
// polynomial.h.
#pragma once

#include <array>
#include <cstdint>

#include "rabin/polynomial.h"
#include "util/bytes.h"

namespace bytecache::rabin {

using Fingerprint = std::uint64_t;

/// Initial fingerprint value: the polynomial "1", which after n pushes
/// becomes the leading x^(8n) term.
inline constexpr Fingerprint kEmptyFingerprint = 1;

/// Precomputed tables for one (modulus, window-size) pair.
///
/// Immutable after construction and shareable between any number of
/// fingerprinters; construction costs a few microseconds.
class RabinTables {
 public:
  /// `window` is the width w (bytes) used by the rolling remove operation.
  explicit RabinTables(std::size_t window, std::uint64_t poly = kDefaultPoly);

  /// Appends byte `b` to fingerprint `fp`:  (fp * x^8 + b) mod P.
  [[nodiscard]] Fingerprint push(Fingerprint fp, std::uint8_t b) const {
    return ((fp << 8) | b) ^ push_[fp >> 56];
  }

  /// Rolls the window: appends `in` and removes `out` (the byte that was
  /// pushed exactly `window` pushes ago).  The correction also restores
  /// the leading term to x^(8*window).
  [[nodiscard]] Fingerprint roll(Fingerprint fp, std::uint8_t out,
                                 std::uint8_t in) const {
    return push(fp, in) ^ out_[out];
  }

  /// Fingerprint of an arbitrary byte string, computed from scratch.
  [[nodiscard]] Fingerprint of(util::BytesView data) const;

  [[nodiscard]] std::size_t window() const { return window_; }
  [[nodiscard]] std::uint64_t poly() const { return poly_; }

 private:
  std::array<std::uint64_t, 256> push_;  // (t * x^64) mod P for top byte t
  std::array<std::uint64_t, 256> out_;   // (b * x^(8w)) mod P
  std::size_t window_;
  std::uint64_t poly_;
};

/// True if `fp` is a *selected* fingerprint: its last `bits` bits are zero.
/// The paper uses bits = 4, retaining 1/16 of positions (Section III-B).
[[nodiscard]] constexpr bool selected(Fingerprint fp, unsigned bits) {
  return (fp & ((std::uint64_t{1} << bits) - 1)) == 0;
}

}  // namespace bytecache::rabin
