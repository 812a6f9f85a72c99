// DynamicBitset: a compact runtime-sized bit vector used for coverage maps.
//
// The fuzzing loop manipulates per-iteration and cumulative coverage maps at
// high frequency, so the operations the loop needs (clear, set, popcount,
// difference counting, or-with-detect-new) are implemented word-wise, and
// all of them are defined here so every model iteration inlines them.
#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace cftcg {

class DynamicBitset {
 public:
  DynamicBitset() = default;
  explicit DynamicBitset(std::size_t num_bits) { Resize(num_bits); }

  void Resize(std::size_t num_bits) {
    num_bits_ = num_bits;
    words_.assign((num_bits + 63) / 64, 0);
  }
  [[nodiscard]] std::size_t size() const { return num_bits_; }

  void Set(std::size_t index) {
    assert(index < num_bits_);
    words_[index >> 6] |= (1ULL << (index & 63));
  }
  void Reset(std::size_t index) {
    assert(index < num_bits_);
    words_[index >> 6] &= ~(1ULL << (index & 63));
  }
  [[nodiscard]] bool Test(std::size_t index) const {
    assert(index < num_bits_);
    return ((words_[index >> 6] >> (index & 63)) & 1) != 0;
  }

  /// Clears every bit (keeps the size).
  void ClearAll() {
    for (auto& w : words_) w = 0;
  }

  /// Number of set bits.
  [[nodiscard]] std::size_t Count() const {
    std::size_t total = 0;
    for (auto w : words_) total += static_cast<std::size_t>(std::popcount(w));
    return total;
  }

  /// Number of positions where this and other differ. Sizes must match.
  [[nodiscard]] std::size_t CountDifferences(const DynamicBitset& other) const {
    assert(num_bits_ == other.num_bits_);
    std::size_t total = 0;
    for (std::size_t i = 0; i < words_.size(); ++i) {
      total += static_cast<std::size_t>(std::popcount(words_[i] ^ other.words_[i]));
    }
    return total;
  }

  /// ORs other into this; returns the number of bits newly set by the merge.
  std::size_t MergeAndCountNew(const DynamicBitset& other) {
    assert(num_bits_ == other.num_bits_);
    std::size_t new_bits = 0;
    for (std::size_t i = 0; i < words_.size(); ++i) {
      const std::uint64_t fresh = other.words_[i] & ~words_[i];
      new_bits += static_cast<std::size_t>(std::popcount(fresh));
      words_[i] |= other.words_[i];
    }
    return new_bits;
  }

  /// True if other sets at least one bit this does not have.
  [[nodiscard]] bool HasNewBitsRelativeTo(const DynamicBitset& total) const {
    assert(num_bits_ == total.num_bits_);
    for (std::size_t i = 0; i < words_.size(); ++i) {
      if ((words_[i] & ~total.words_[i]) != 0) return true;
    }
    return false;
  }

  bool operator==(const DynamicBitset& other) const = default;

  /// 64-bit hash of the contents (used to deduplicate coverage signatures).
  [[nodiscard]] std::uint64_t Hash() const {
    // FNV-1a over the words; cheap and adequate for signature dedup.
    std::uint64_t h = 1469598103934665603ULL;
    for (auto w : words_) {
      h ^= w;
      h *= 1099511628211ULL;
    }
    return h;
  }

  [[nodiscard]] const std::vector<std::uint64_t>& words() const { return words_; }

  /// Restores a bitset from checkpointed words. The word vector must be the
  /// exact backing store for num_bits (returns false and leaves the bitset
  /// untouched otherwise).
  bool Restore(std::size_t num_bits, std::vector<std::uint64_t> words) {
    if (words.size() != (num_bits + 63) / 64) return false;
    num_bits_ = num_bits;
    words_ = std::move(words);
    return true;
  }

 private:
  std::size_t num_bits_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace cftcg
