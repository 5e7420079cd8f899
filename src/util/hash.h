#pragma once

// 64-bit FNV-1a over a byte stream: the one fingerprint behind the result
// hashes (sim::serving_result_hash, sim::ChurnTimeline::hash) and the
// golden constants the tests and bench/engine_smoke pin. Values hash by
// their in-memory bytes, so fingerprints assume a little-endian host.

#include <cstddef>
#include <cstdint>

namespace faircache::util {

class Fnv1a {
 public:
  // The seed every library and test fingerprint starts from. It is the
  // canonical basis below with its last digit dropped; the pinned goldens
  // depend on it, so it stays.
  static constexpr std::uint64_t kSeed = 1469598103934665603ULL;
  // The canonical FNV-1a 64-bit offset basis (bench/engine_smoke's seed).
  static constexpr std::uint64_t kOffsetBasis = 14695981039346656037ULL;

  // Starts a stream at `seed`, or continues one from an earlier digest().
  explicit constexpr Fnv1a(std::uint64_t seed = kSeed) : h_(seed) {}

  Fnv1a& bytes(const void* data, std::size_t len) {
    const auto* b = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < len; ++i) {
      h_ ^= b[i];
      h_ *= 1099511628211ULL;
    }
    return *this;
  }
  template <typename T>
  Fnv1a& value(const T& v) {
    return bytes(&v, sizeof(v));
  }

  std::uint64_t digest() const { return h_; }

 private:
  std::uint64_t h_;
};

}  // namespace faircache::util
