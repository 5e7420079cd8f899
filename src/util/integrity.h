#pragma once

// Incremental checksums over guarded engine state blocks — the detection
// half of the integrity-guard runtime (docs/ROBUSTNESS.md, "Integrity
// guard"). The stateful metrics::ContentionUpdater (dense and CSR row
// layouts alike) pins BFS trees once per topology and patches costs forever
// after; a silently corrupted entry (bit flip, dropped delta, bad
// take/restore, out-of-contract caller) would poison every subsequent
// solve. The updater therefore maintains a StateDigest over its guarded
// blocks and core::EngineGuard periodically recomputes it from the actual
// buffers; any divergence quarantines the updater.
//
// Digest scheme: an order-independent slot-weighted sum mod 2^64,
//
//     digest(block) = length_term(len) + Σ_s bits(block[s]) · weight(s)
//
// with weight(s) = (2s + 1) · φ64 (xxh/splitmix-style odd-constant
// mixing). The three properties the guard needs fall out directly:
//
//   * O(1) maintenance on patch — a sweep that rewrites slot s adds
//     replace_term(s, old, new) to the running sum (the hot delta loops
//     pay ~3 extra integer ops per touched entry);
//   * associative recompute — per-row partial sums combine in any order,
//     so the audit-time recomputation parallelizes and is bit-identical
//     at any thread count;
//   * guaranteed single-slot detection — weight(s) is odd, hence
//     invertible mod 2^64, so any change confined to one slot shifts the
//     digest by a nonzero amount (multi-slot corruptions collide only
//     with negligible probability; this is an SDC detector, not a MAC).
//
// length_term folds the block size into the digest, so truncated buffers
// are caught even when the removed tail was all zeros.

#include <bit>
#include <cstddef>
#include <cstdint>

namespace faircache::util {

inline constexpr std::uint64_t kIntegrityPhi = 0x9e3779b97f4a7c15ULL;

constexpr std::uint64_t slot_weight(std::uint64_t slot) {
  return (2 * slot + 1) * kIntegrityPhi;  // odd → invertible mod 2^64
}

// Raw bit image of a guarded value (doubles compare by bit pattern — the
// engines' determinism contract is bitwise, so the checksums are too).
constexpr std::uint64_t to_bits(double v) {
  return std::bit_cast<std::uint64_t>(v);
}
constexpr std::uint64_t to_bits(std::int32_t v) {
  return static_cast<std::uint64_t>(static_cast<std::uint32_t>(v));
}
constexpr std::uint64_t to_bits(std::uint32_t v) {
  return static_cast<std::uint64_t>(v);
}
constexpr std::uint64_t to_bits(std::int64_t v) {
  return static_cast<std::uint64_t>(v);
}
constexpr std::uint64_t to_bits(std::uint64_t v) { return v; }

constexpr double double_from_bits(std::uint64_t bits) {
  return std::bit_cast<double>(bits);
}

constexpr std::uint64_t contribution(std::uint64_t slot, std::uint64_t bits) {
  return bits * slot_weight(slot);
}

// Digest delta for rewriting slot `slot` from old_bits to new_bits: add the
// result to the maintained sum. The O(1) patch-time primitive.
constexpr std::uint64_t replace_term(std::uint64_t slot,
                                     std::uint64_t old_bits,
                                     std::uint64_t new_bits) {
  return (new_bits - old_bits) * slot_weight(slot);
}

// Size term mixed into every block digest (distinct slot space from data
// contributions: data slots are weighted 2s+1, the length is weighted by a
// second odd constant).
constexpr std::uint64_t length_term(std::size_t len) {
  return (static_cast<std::uint64_t>(len) + 1) * 0xff51afd7ed558ccdULL;
}

// Partial digest of `count` values starting at global slot `slot0` (no
// length term — the caller folds one per logical block). Partial sums over
// disjoint slot ranges add associatively, so parallel recomputation is
// exact.
template <typename T>
constexpr std::uint64_t digest_span(const T* data, std::size_t count,
                                    std::uint64_t slot0 = 0) {
  std::uint64_t sum = 0;
  for (std::size_t s = 0; s < count; ++s) {
    sum += contribution(slot0 + s, to_bits(data[s]));
  }
  return sum;
}

// Named per-block checksums of one stateful contention engine. The block
// split exists so a mismatch names what rotted — it decides nothing about
// recovery (any mismatch quarantines the whole engine).
struct StateDigest {
  std::uint64_t cost = 0;    // contention cost entries (dense matrix / CSR)
  std::uint64_t tree = 0;    // pinned trees: pre/end/order (+ CSR layout)
  std::uint64_t weight = 0;  // w_k(1+S(k)) the costs currently reflect
  std::uint64_t edge = 0;    // dissemination edge costs
  std::uint64_t aux = 0;     // row maxima, global max, epoch stamp

  friend bool operator==(const StateDigest&, const StateDigest&) = default;
};

// Name of the first block whose checksum differs, nullptr when equal —
// feeds the CorruptionReport event text.
const char* first_digest_mismatch(const StateDigest& have,
                                  const StateDigest& want);

// Descriptor of one injected state corruption, applied through the
// engines' test-only corrupt_for_testing() hooks (sim/state_faults.h
// schedules these; production code never constructs one). Lives here — the
// lowest common layer — because metrics implements the hooks and sim plans
// the campaigns.
struct StateCorruption {
  enum class Block {
    kCost,      // XOR `bits` into one contention cost entry
    kTree,      // XOR `bits` into one pinned pre_/end_ interval bound
    kOrder,     // XOR `bits` into one preorder→slot map entry
    kWeight,    // XOR `bits` into one tracked node weight (dropped delta)
    kEdgeCost,  // XOR `bits` into one dissemination edge cost
    kTruncate,  // drop `bits` (≥ 1) trailing entries from a guarded buffer
    kEpoch,     // XOR `bits` into the lent buffers' epoch stamp
  };

  Block block = Block::kCost;
  std::uint64_t index = 0;  // target slot, reduced mod the block size
  std::uint64_t bits = 1;   // XOR mask (kTruncate: entry count to drop)
};

}  // namespace faircache::util
