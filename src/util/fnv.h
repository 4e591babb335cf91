// Byte-wise 64-bit FNV-1a: the one hasher behind the result and graph
// digests, the scenario config fingerprints and derived seeds, and the
// stream engine's state digest and config fingerprint.
//
//   util::Fnv1a h;
//   h.u64(count);
//   h.text(name);
//   const std::string key = h.hex();
//
// Integers and doubles are hashed as their 8 little-endian bytes, so a
// value hashes the same on every host.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace fs::util {

class Fnv1a {
 public:
  static constexpr std::uint64_t kOffsetBasis = 0xcbf29ce484222325ULL;
  static constexpr std::uint64_t kPrime = 0x100000001b3ULL;

  /// `basis` other than the standard offset basis is for hashes whose
  /// stored values were defined with another start state.
  explicit constexpr Fnv1a(std::uint64_t basis = kOffsetBasis) : h_(basis) {}

  void text(std::string_view s) {
    for (const char ch : s) byte(static_cast<unsigned char>(ch));
  }
  void u64(std::uint64_t v) {
    for (int shift = 0; shift < 64; shift += 8)
      byte(static_cast<unsigned char>(v >> shift));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

  std::uint64_t value() const { return h_; }
  /// The value as 16 lower-case hex digits.
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  void byte(unsigned char b) {
    h_ ^= b;
    h_ *= kPrime;
  }

  std::uint64_t h_;
};

}  // namespace fs::util
