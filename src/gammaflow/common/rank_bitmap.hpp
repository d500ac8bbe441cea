// A growable bitmap with O(log n) rank and select: 64 positions per word
// plus a Fenwick tree over the words' popcounts. Positions only append
// (set) and clear, which is how a column group's rows live and die, so the
// k-th live row and the number of live rows before a row each cost one
// walk of the tree and one word. count_bits and select_in_word, the
// in-word popcount and select, are free functions for other bitmaps too.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace gammaflow {

namespace detail {

inline constexpr std::uint64_t kBytes = 0x0101010101010101ULL;

/// Per-byte popcounts of x, one count in each byte.
inline std::uint64_t byte_counts(std::uint64_t x) noexcept {
  x -= (x >> 1) & 0x5555555555555555ULL;
  x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
  return (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
}

/// kSelectInByte[b * 8 + r]: position of the r-th set bit of byte b.
inline constexpr std::array<std::uint8_t, 2048> kSelectInByte = [] {
  std::array<std::uint8_t, 2048> table{};
  for (std::size_t b = 0; b < 256; ++b) {
    std::size_t r = 0;
    for (std::uint8_t bit = 0; bit < 8; ++bit) {
      if (((b >> bit) & 1u) != 0) table[b * 8 + r++] = bit;
    }
  }
  return table;
}();

}  // namespace detail

/// Set bits of x. Written out rather than std::popcount, which is a library
/// call on a baseline x86-64 target.
inline std::size_t count_bits(std::uint64_t x) noexcept {
  return static_cast<std::size_t>((detail::byte_counts(x) * detail::kBytes) >>
                                  56);
}

/// Position of the k-th set bit of x, counting from 0 (k < count_bits(x)):
/// the byte holding it from running byte sums, then a table lookup inside
/// the byte.
inline std::size_t select_in_word(std::uint64_t x, std::size_t k) noexcept {
  using detail::kBytes;
  const std::uint64_t sums = detail::byte_counts(x) * kBytes;  // bytes 0..i
  // High bit of byte i set iff sums[i] <= k; count them without a branch.
  const std::uint64_t le =
      ((k * kBytes | 0x8080808080808080ULL) - sums) & 0x8080808080808080ULL;
  const std::size_t shift = (((le >> 7) * kBytes) >> 56) * 8;
  const std::size_t rest = k - (((sums << 8) >> shift) & 0xFF);
  return shift + detail::kSelectInByte[((x >> shift) & 0xFF) * 8 + rest];
}

class RankBitmap {
 public:
  /// Positions ever appended, set or clear.
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// Set positions.
  [[nodiscard]] std::size_t count() const noexcept { return count_; }

  [[nodiscard]] bool test(std::size_t i) const noexcept {
    return ((words_[i >> 6] >> (i & 63)) & 1u) != 0;
  }

  /// Positions 64w..64w+63 as bits. Precondition: 64w < size().
  [[nodiscard]] std::uint64_t word(std::size_t w) const noexcept {
    return words_[w];
  }

  /// Appends one set position.
  void push_set() {
    if ((size_ & 63) == 0) {
      words_.push_back(1);
      // The new node covers its own word and the nodes just below it.
      const std::size_t node = words_.size();
      std::uint32_t sum = 1;
      for (std::size_t j = 1; j < (node & (~node + 1)); j <<= 1) {
        sum += tree_[node - j];
      }
      tree_.push_back(sum);
    } else {
      words_.back() |= std::uint64_t{1} << (size_ & 63);
      add(words_.size() - 1, 1);
    }
    ++size_;
    ++count_;
  }

  /// Clears position i. Precondition: test(i).
  void reset(std::size_t i) noexcept {
    words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
    add(i >> 6, ~std::uint32_t{0});  // -1, modulo 2^32
    --count_;
  }

  /// Set positions before i. Precondition: i <= size().
  [[nodiscard]] std::size_t rank(std::size_t i) const noexcept {
    std::size_t r = 0;
    for (std::size_t node = i >> 6; node > 0; node &= node - 1) {
      r += tree_[node];
    }
    if ((i & 63) != 0) {
      const std::uint64_t below = (std::uint64_t{1} << (i & 63)) - 1;
      r += count_bits(words_[i >> 6] & below);
    }
    return r;
  }

  /// The k-th set position, counting from 0. Precondition: k < count().
  [[nodiscard]] std::size_t select(std::size_t k) const noexcept {
    // Descend the tree to the word holding the k-th set position. The
    // steps take or skip by mask, not by branch: k is typically random.
    std::size_t w = 0;
    for (std::size_t step = std::bit_floor(words_.size()); step > 0;
         step >>= 1) {
      if (w + step > words_.size()) continue;
      const std::uint32_t below = tree_[w + step];
      const std::size_t take = std::size_t{0} - std::size_t{below <= k};
      w += step & take;
      k -= below & take;
    }
    return w * 64 + select_in_word(words_[w], k);
  }

  /// Replaces the contents with n set positions, in O(n / 64).
  void assign_set(std::size_t n) {
    words_.assign((n + 63) / 64, ~std::uint64_t{0});
    if ((n & 63) != 0) words_.back() = (std::uint64_t{1} << (n & 63)) - 1;
    tree_.assign(words_.size() + 1, 0);
    for (std::size_t node = 1; node <= words_.size(); ++node) {
      tree_[node] += static_cast<std::uint32_t>(count_bits(words_[node - 1]));
      const std::size_t parent = node + (node & (~node + 1));
      if (parent <= words_.size()) tree_[parent] += tree_[node];
    }
    size_ = count_ = n;
  }

 private:
  void add(std::size_t w, std::uint32_t delta) noexcept {
    for (std::size_t node = w + 1; node <= words_.size();
         node += node & (~node + 1)) {
      tree_[node] += delta;
    }
  }

  std::vector<std::uint64_t> words_;
  /// Fenwick tree over the words' popcounts: tree_[node] (1-based) sums
  /// the words in (node - lowbit(node), node].
  std::vector<std::uint32_t> tree_{0};
  std::size_t size_ = 0;
  std::size_t count_ = 0;
};

}  // namespace gammaflow
