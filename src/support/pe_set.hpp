// Fixed-capacity bitset over dense integer ids (PEs, nodes, ...).
//
// The space-search hot path works on candidate *domains*: sets of PEs a DFG
// node may still be placed on. Representing a domain as a word array turns
// the inner-loop operations — "intersect with a neighbourhood", "how many
// candidates remain", "is the domain wiped out" — into a handful of
// bitwise ops and popcounts, independent of how many elements the set holds.
// Capacity is fixed at construction (one cache-line-aligned heap
// allocation); every subsequent operation is allocation-free, which is what
// lets the searcher preallocate all of its domains up front and keep the
// recursion heap-silent.
//
// Word layout: capacity bits packed little-endian into 64-bit words; the
// unused high bits of the last word (the "tail") are always zero, so
// count()/empty()/== never need masking. Up to 64 ids a PeSet is a single
// word, but every call still goes through the heap block, the width loop,
// the always-on bounds asserts and the occupancy mark; WordSet below is
// the one-word set the space searcher uses in that regime instead (node
// sets of DFGs up to 64 nodes, domains on fabrics up to 64 PEs, 4x4-8x8).
// At 1K-4K PEs (32x32-64x64 fabrics) a set is 16-64 words and the bulk
// operations dispatch to the runtime-selected SIMD kernels in
// support/simd.hpp (AVX2/AVX-512 with a bit-identical scalar fallback).
//
// Tiled occupancy layout: the words are additionally viewed as cache-line
// tiles of simd::kTileWords (8) words, and every set tracks a one-word
// occupancy bitmap — bit t set means tile t *may* hold set bits, bit t
// clear means tile t is *definitely* all-zero. Deep in a search a 64-word
// grid-64 domain is typically narrowed to one or two neighbourhood-ball
// tiles, so the bulk read operations walk only the occupied tiles and the
// other 60+ cache lines are never loaded. The bitmap is a conservative
// over-approximation (clearing a bit requires proof, setting one doesn't),
// which keeps every operation exact: results, counts, iteration order, and
// the dirty-word trail are bit-identical with skipping on or off — only
// the memory traffic differs. simd::set_tile_skipping()/MONOMAP_TILES
// toggles the skipping globally (the bench records both layouts); sets
// wider than 64 tiles don't track occupancy and keep the full-span paths.
#ifndef MONOMAP_SUPPORT_PE_SET_HPP
#define MONOMAP_SUPPORT_PE_SET_HPP

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "support/assert.hpp"
#include "support/simd.hpp"

namespace monomap {

class PeSet {
 public:
  using Word = std::uint64_t;
  static constexpr int kWordBits = 64;
  /// Sets at least this many words wide route bulk operations through the
  /// dispatched SIMD kernels; narrower sets keep the inline word loops
  /// (which the compiler fully unrolls and which beat an indirect call for
  /// one-or-two-word sets, the small-mesh regime).
  static constexpr int kDispatchWords = 4;
  /// Words per occupancy tile: one 64-byte cache line.
  static constexpr int kTileWords = simd::kTileWords;
  /// Widest set whose tile count fits the one-word occupancy bitmap
  /// (64 tiles = 512 words = 32768 ids); wider sets skip nothing.
  static constexpr int kMaxTrackedWords = kTileWords * kWordBits;

  PeSet() = default;

  /// An empty set able to hold ids in [0, capacity).
  explicit PeSet(int capacity)
      : capacity_(capacity),
        words_(static_cast<std::size_t>((capacity + kWordBits - 1) / kWordBits),
               0) {
    MONOMAP_ASSERT(capacity >= 0);
  }

  /// The full set {0, ..., capacity-1}.
  static PeSet full(int capacity) {
    PeSet s(capacity);
    s.fill();
    return s;
  }

  [[nodiscard]] int capacity() const { return capacity_; }
  [[nodiscard]] int num_words() const {
    return static_cast<int>(words_.size());
  }
  [[nodiscard]] int num_tiles() const {
    return (num_words() + kTileWords - 1) / kTileWords;
  }
  /// Whether this set maintains the occupancy bitmap (<= 64 tiles).
  [[nodiscard]] bool tracks_tiles() const {
    return num_words() <= kMaxTrackedWords;
  }
  /// The occupancy over-approximation: bit t clear <=> tile t is all-zero.
  /// Meaningful only when tracks_tiles().
  [[nodiscard]] Word tile_occupancy() const { return occ_; }

  [[nodiscard]] bool test(int i) const {
    MONOMAP_ASSERT(i >= 0 && i < capacity_);
    return (words_[static_cast<std::size_t>(i / kWordBits)] >>
            (i % kWordBits)) & 1u;
  }
  void set(int i) {
    MONOMAP_ASSERT(i >= 0 && i < capacity_);
    words_[static_cast<std::size_t>(i / kWordBits)] |= Word{1}
                                                       << (i % kWordBits);
    mark_word_occupied(i / kWordBits);
  }
  void reset(int i) {
    MONOMAP_ASSERT(i >= 0 && i < capacity_);
    words_[static_cast<std::size_t>(i / kWordBits)] &=
        ~(Word{1} << (i % kWordBits));
  }

  void clear() {
    for (Word& w : words_) w = 0;
    occ_ = 0;
  }
  void fill() {
    for (Word& w : words_) w = ~Word{0};
    trim();
    const int nt = num_tiles();
    occ_ = nt >= kWordBits ? ~Word{0} : (Word{1} << nt) - 1;
  }

  [[nodiscard]] int count() const {
    if (num_words() >= kDispatchWords) {
      if (tile_skipping_active()) {
        int c = 0;
        for_tile_runs(occ_, [&](int base, int n) {
          c += simd::count(words_.data() + base,
                           static_cast<std::size_t>(n));
          return true;
        });
        return c;
      }
      return simd::count(words_.data(), words_.size());
    }
    int c = 0;
    for (const Word w : words_) c += std::popcount(w);
    return c;
  }
  [[nodiscard]] bool empty() const {
    if (num_words() >= kDispatchWords) {
      if (tile_skipping_active()) {
        return for_tile_runs(occ_, [&](int base, int n) {
          return simd::all_zero(words_.data() + base,
                                static_cast<std::size_t>(n));
        });
      }
      return simd::all_zero(words_.data(), words_.size());
    }
    for (const Word w : words_) {
      if (w != 0) return false;
    }
    return true;
  }

  PeSet& operator&=(const PeSet& o) {
    MONOMAP_ASSERT(o.words_.size() == words_.size());
    if (num_words() >= kDispatchWords) {
      simd::and_assign(words_.data(), o.words_.data(), words_.size());
    } else {
      for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= o.words_[i];
    }
    // Tiles nonzero in (a & b) are nonzero in both — intersecting the
    // over-approximations stays an over-approximation.
    occ_ &= o.occ_;
    return *this;
  }
  PeSet& operator|=(const PeSet& o) {
    MONOMAP_ASSERT(o.words_.size() == words_.size());
    if (num_words() >= kDispatchWords) {
      simd::or_assign(words_.data(), o.words_.data(), words_.size());
    } else {
      for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= o.words_[i];
    }
    occ_ |= o.occ_;
    return *this;
  }
  /// |this & o| without materialising the intersection.
  [[nodiscard]] int intersect_count(const PeSet& o) const {
    MONOMAP_ASSERT(o.words_.size() == words_.size());
    if (num_words() >= kDispatchWords) {
      if (tile_skipping_active()) {
        int c = 0;
        for_tile_runs(occ_ & o.occ_, [&](int base, int n) {
          c += simd::intersect_count(words_.data() + base,
                                     o.words_.data() + base,
                                     static_cast<std::size_t>(n));
          return true;
        });
        return c;
      }
      return simd::intersect_count(words_.data(), o.words_.data(),
                                   words_.size());
    }
    int c = 0;
    for (std::size_t i = 0; i < words_.size(); ++i) {
      c += std::popcount(words_[i] & o.words_[i]);
    }
    return c;
  }

  /// Non-mutating fused intersect over words [base, base+n), n <= 64: which
  /// words would `this &= o` change (bit i of .dirty <=> word base+i), and
  /// the OR of the intersection words in the range (.any). The searcher's
  /// trail uses this to rewrite (and record) only the dirty words.
  [[nodiscard]] simd::AndPreview intersect_preview(const PeSet& o, int base,
                                                   int n) const {
    MONOMAP_ASSERT(o.words_.size() == words_.size());
    MONOMAP_ASSERT(base >= 0 && n >= 0 &&
                   base + n <= static_cast<int>(words_.size()));
    return simd::and_preview(words_.data() + base, o.words_.data() + base,
                             static_cast<std::size_t>(n));
  }

  // is_subset_of and intersects are plain word loops at every width: the
  // searcher calls them only before the recursion (the root degree filter,
  // once per DFG node, and the depth-0 octant test, once per search).

  /// True if every member of this set is also in `o`.
  [[nodiscard]] bool is_subset_of(const PeSet& o) const {
    MONOMAP_ASSERT(o.words_.size() == words_.size());
    for (std::size_t i = 0; i < words_.size(); ++i) {
      if ((words_[i] & ~o.words_[i]) != 0) return false;
    }
    return true;
  }

  [[nodiscard]] bool intersects(const PeSet& o) const {
    MONOMAP_ASSERT(o.words_.size() == words_.size());
    for (std::size_t i = 0; i < words_.size(); ++i) {
      if ((words_[i] & o.words_[i]) != 0) return true;
    }
    return false;
  }

  // Occupancy is an over-approximation, so two equal sets may carry
  // different maps; equality compares the bits alone.
  friend bool operator==(const PeSet& a, const PeSet& b) {
    return a.capacity_ == b.capacity_ && a.words_ == b.words_;
  }
  friend bool operator!=(const PeSet& a, const PeSet& b) { return !(a == b); }

  /// Visits set ids in ascending order (callers rely on the order being
  /// identical with tile skipping on or off — skipped tiles hold no ids).
  template <typename F>
  void for_each(F&& f) const {
    const int nw = num_words();
    if (nw >= kDispatchWords && tile_skipping_active()) {
      for (Word rest = occ_; rest != 0; rest &= rest - 1) {
        const int t = std::countr_zero(rest);
        const int end = (t + 1) * kTileWords < nw ? (t + 1) * kTileWords : nw;
        for (int wi = t * kTileWords; wi < end; ++wi) {
          Word w = words_[static_cast<std::size_t>(wi)];
          while (w != 0) {
            const int bit = std::countr_zero(w);
            f(wi * kWordBits + bit);
            w &= w - 1;
          }
        }
      }
      return;
    }
    for (std::size_t wi = 0; wi < words_.size(); ++wi) {
      Word w = words_[wi];
      while (w != 0) {
        const int bit = std::countr_zero(w);
        f(static_cast<int>(wi) * kWordBits + bit);
        w &= w - 1;
      }
    }
  }

  // Raw word access: the searcher's trail saves/restores domains word-wise.
  [[nodiscard]] Word word(int i) const {
    return words_[static_cast<std::size_t>(i)];
  }
  /// Read-only view of the backing words (cache-line aligned).
  [[nodiscard]] std::span<const Word> words() const {
    return {words_.data(), words_.size()};
  }
  /// Checked word store for *new* bit patterns.
  void set_word(int i, Word w) {
    // Phantom bits beyond capacity() would corrupt count()/empty()/==.
    MONOMAP_ASSERT((w & ~tail_mask(i)) == 0);
    words_[static_cast<std::size_t>(i)] = w;
    if (w != 0) mark_word_occupied(i);
  }
  /// Unchecked word store for values previously read via word()/words():
  /// the backtracking trail restores thousands of words per search, and
  /// (with always-on asserts) re-deriving the tail mask per word is pure
  /// overhead for bits that were in the set before. Callers writing any
  /// *new* pattern must use set_word.
  void restore_word(int i, Word w) {
    words_[static_cast<std::size_t>(i)] = w;
    if (w != 0) mark_word_occupied(i);
  }
  /// Bulk this &= o over words [base, base+n) with no per-word dirty
  /// bookkeeping: the tiled searcher snapshots the whole tile beforehand,
  /// so nothing needs trailing here. Occupancy is untouched (the result
  /// only loses bits, so the old map stays a valid over-approximation);
  /// callers tighten via mark_tile_empty when the tile came out all-zero.
  void and_words(const PeSet& o, int base, int n) {
    Word* a = words_.data() + base;
    const Word* b = o.words_.data() + base;
    for (int i = 0; i < n; ++i) a[i] &= b[i];
  }
  /// Zero words [base, base+n) (tile wipe under an all-empty mask tile);
  /// the caller snapshots beforehand and tightens via mark_tile_empty.
  void zero_words(int base, int n) {
    Word* a = words_.data() + base;
    for (int i = 0; i < n; ++i) a[i] = 0;
  }
  /// Restore words [base, base+n) from a snapshot previously copied out of
  /// words() — the tile-granular undo. A snapshot is only ever taken of a
  /// tile that held bits (an all-zero tile is never dirty), so the tile is
  /// re-marked occupied wholesale: the exact analogue of restore_word's
  /// re-occupation, which is why backtracking needs no occupancy trail.
  void restore_words(int base, int n, const Word* old) {
    Word* a = words_.data() + base;
    for (int i = 0; i < n; ++i) a[i] = old[i];
    mark_word_occupied(base);
  }
  /// Caller-proven tightening: drop tile t from the occupancy map.
  /// Unchecked like restore_word (hot path); the caller must have just
  /// established that every word of tile t is zero (e.g. a full intersect
  /// preview of the tile came back all-zero) — marking a nonempty tile
  /// empty corrupts every subsequent bulk result. A later restore_word of
  /// a nonzero word re-occupies the tile, so backtracking needs no
  /// occupancy trail of its own.
  void mark_tile_empty(int t) { occ_ &= ~(Word{1} << t); }

 private:
  /// Clear the unused high bits of the last word so count()/empty() stay
  /// exact after fill().
  void trim() {
    if (!words_.empty()) {
      words_.back() &= tail_mask(static_cast<int>(words_.size()) - 1);
    }
  }

  /// Valid-bit mask of word `i` (all-ones except the last word's tail).
  [[nodiscard]] Word tail_mask(int i) const {
    const int tail = capacity_ % kWordBits;
    if (i + 1 == static_cast<int>(words_.size()) && tail != 0) {
      return (Word{1} << tail) - 1;
    }
    return ~Word{0};
  }

  void mark_word_occupied(int wi) {
    const int t = wi / kTileWords;
    // Sets wider than 64 tiles don't track occupancy (tracks_tiles() is
    // false and no read path consults occ_), but stay shift-safe.
    if (t < kWordBits) occ_ |= Word{1} << t;
  }

  [[nodiscard]] bool tile_skipping_active() const {
    return tracks_tiles() && simd::tile_skipping_enabled();
  }

  /// Invoke f(base_word, n_words) for each maximal run of tiles set in
  /// `occ` (ascending); stop and return false the first time f does.
  template <typename F>
  bool for_tile_runs(Word occ, F&& f) const {
    const int nw = num_words();
    while (occ != 0) {
      const int t = std::countr_zero(occ);
      const int end_t = t + std::countr_one(occ >> t);
      const int base = t * kTileWords;
      const int end = end_t * kTileWords < nw ? end_t * kTileWords : nw;
      if (!f(base, end - base)) return false;
      occ = end_t >= kWordBits ? Word{0} : occ & (~Word{0} << end_t);
    }
    return true;
  }

  int capacity_ = 0;
  Word occ_ = 0;
  std::vector<Word, simd::CacheAlignedAllocator<Word>> words_;
};

/// A set of ids in [0, 64) held in one word by value: the PeSet calls the
/// space searcher makes, so one search text runs on either type. A vector
/// of WordSets is a flat word array, and every operation is a plain word
/// operation — no heap block, width loop, occupancy mark or per-call
/// bounds assert. The capacity is checked once, at construction; the
/// word-indexed calls take PeSet's word index for signature parity, and it
/// is always 0.
class WordSet {
 public:
  using Word = PeSet::Word;
  static constexpr int kBits = PeSet::kWordBits;

  WordSet() = default;

  /// An empty set able to hold ids in [0, capacity), capacity <= 64.
  explicit WordSet(int capacity) {
    MONOMAP_ASSERT(capacity >= 0 && capacity <= kBits);
  }

  /// The one word of a PeSet of at most 64 ids.
  explicit WordSet(const PeSet& s) : bits_(s.num_words() == 0 ? 0 : s.word(0)) {
    MONOMAP_ASSERT(s.capacity() <= kBits);
  }

  /// The full set {0, ..., capacity-1}.
  static WordSet full(int capacity) {
    WordSet s(capacity);
    s.bits_ = capacity == kBits ? ~Word{0} : (Word{1} << capacity) - 1;
    return s;
  }

  [[nodiscard]] bool test(int i) const { return (bits_ >> i) & 1u; }
  void set(int i) { bits_ |= Word{1} << i; }
  void reset(int i) { bits_ &= ~(Word{1} << i); }
  void clear() { bits_ = 0; }

  [[nodiscard]] int count() const { return std::popcount(bits_); }
  [[nodiscard]] bool empty() const { return bits_ == 0; }

  WordSet& operator&=(const WordSet& o) {
    bits_ &= o.bits_;
    return *this;
  }
  WordSet& operator|=(const WordSet& o) {
    bits_ |= o.bits_;
    return *this;
  }
  [[nodiscard]] bool is_subset_of(const WordSet& o) const {
    return (bits_ & ~o.bits_) == 0;
  }
  [[nodiscard]] bool intersects(const WordSet& o) const {
    return (bits_ & o.bits_) != 0;
  }

  /// Visits set ids in ascending order, as PeSet::for_each does.
  template <typename F>
  void for_each(F&& f) const {
    for (Word w = bits_; w != 0; w &= w - 1) f(std::countr_zero(w));
  }

  [[nodiscard]] Word word(int /*i*/) const { return bits_; }
  void set_word(int /*i*/, Word w) { bits_ = w; }
  void restore_word(int /*i*/, Word w) { bits_ = w; }

 private:
  Word bits_ = 0;
};

}  // namespace monomap

#endif  // MONOMAP_SUPPORT_PE_SET_HPP
