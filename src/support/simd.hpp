// Runtime-dispatched SIMD kernels for multi-word bitset operations.
//
// The space search represents candidate domains as PeSet word arrays. On an
// 8x8 mesh a domain is one 64-bit word and the searcher's inline loops are
// already optimal, but production-scale fabrics (32x32-64x64, 1K-4K PEs)
// make every domain 16-64 words, and intersect/popcount over those
// arrays become the hot path. This layer provides the word-array kernels the
// multi-word regime needs, with three interchangeable implementations:
//
//   * kScalar — portable 4-way unrolled word loops; the reference semantics
//     every other path must match bit-for-bit,
//   * kAvx2   — 256-bit vectors, popcounts via the pshufb nibble-LUT trick,
//   * kAvx512 — 512-bit vectors with native vpopcntq.
//
// The vector paths are compiled with per-function target attributes, so the
// translation unit (and the whole default build) stays portable; dispatch
// picks the best level the running CPU supports. Every kernel is exact —
// the level changes throughput only, never results, which is what lets the
// scalar and SIMD builds produce bit-identical search traces (pinned by
// tests). The level can be forced with the MONOMAP_SIMD environment
// variable ("off"/"scalar", "avx2", "avx512", "auto") or programmatically
// with set_level() (used by tests and the bench's scalar-vs-SIMD rows).
#ifndef MONOMAP_SUPPORT_SIMD_HPP
#define MONOMAP_SUPPORT_SIMD_HPP

#include <cstddef>
#include <cstdint>
#include <new>

namespace monomap::simd {

using Word = std::uint64_t;

/// Words per layout tile: one 64-byte cache line (512 PEs). Multi-word
/// PeSets keep a one-word occupancy bitmap (bit t <=> tile t holds any set
/// bit, conservatively), so bulk reads skip definitely-empty lines — on a
/// 64x64 fabric a domain narrowed to a neighbourhood ball occupies 1-2 of
/// its 8 tiles and the other 6-7 lines are never loaded.
inline constexpr int kTileWords = 8;

/// Whether occupancy-directed tile skipping is active (default on; the
/// MONOMAP_TILES environment variable — "off"/"0" — disables it at
/// startup). Skipping never changes results or search traces, only which
/// cache lines get touched; the bench flips it to record the untiled
/// layout as a comparison row.
bool tile_skipping_enabled();

/// Enable/disable tile skipping; returns the previous setting. Thread-safe,
/// but flip it between searches, not during one (the searcher caches the
/// setting per run).
bool set_tile_skipping(bool enabled);

/// Kernel implementation tiers, in increasing capability order. Dispatch
/// never selects a level the CPU cannot execute.
enum class Level : int {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,  // requires AVX-512 F+BW+VPOPCNTDQ
};

const char* level_name(Level level);

/// Best level the running CPU supports (CPUID probe, cached).
Level best_supported_level();

/// The level kernels currently dispatch to. Defaults to the best supported
/// level, unless the MONOMAP_SIMD environment variable narrowed it at
/// startup.
Level active_level();

/// Force the dispatch level (clamped to best_supported_level()); returns
/// the level actually installed. Thread-safe, but callers racing searches
/// concurrently should not flip it mid-run — results stay exact either way,
/// only timing comparisons would blur.
Level set_level(Level level);

/// Result of the fused intersect preview (see and_preview).
struct AndPreview {
  /// Bit i set <=> (a[i] & b[i]) != a[i], i.e. word i would change.
  Word dirty;
  /// Nonzero iff the intersection is nonempty.
  Word any;
};

// --- kernels ---------------------------------------------------------------
// All kernels treat a/b as n-word little-endian bit arrays. They accept any
// n >= 0 and any alignment (PeSet hands them cache-line-aligned storage).

/// a &= b.
void and_assign(Word* a, const Word* b, std::size_t n);
/// a |= b.
void or_assign(Word* a, const Word* b, std::size_t n);
/// popcount(a).
int count(const Word* a, std::size_t n);
/// popcount(a & b) without materialising the intersection.
int intersect_count(const Word* a, const Word* b, std::size_t n);
bool all_zero(const Word* a, std::size_t n);
/// Non-mutating fused intersect: which words would a &= b change (dirty
/// mask, so the caller trails and rewrites only those), and is the result
/// empty. Requires n <= 64 so the dirty mask fits one word; callers with
/// wider arrays loop in 64-word blocks.
AndPreview and_preview(const Word* a, const Word* b, std::size_t n);

/// Resolved function pointers for the kernels the search engine's per-tile
/// loops call millions of times per run. The free functions above re-read
/// the dispatch table on every call — negligible for full-span sweeps, but
/// per 8-word tile the table load and indirection cost as much as the
/// kernel itself. Fetch once per search (after any set_level()) and call
/// through the pointers; the resolved level is pinned for the fetch's
/// lifetime, exactly like the searcher's cached tile-skipping flag.
struct HotKernels {
  AndPreview (*and_preview)(const Word*, const Word*, std::size_t);
  bool (*all_zero)(const Word*, std::size_t);
  int (*count)(const Word*, std::size_t);
};
HotKernels hot_kernels();

// --- aligned storage -------------------------------------------------------

/// Minimal allocator pinning allocations to cache-line (64-byte) starts, so
/// a multi-word PeSet never straddles an extra line and vector loads hit
/// aligned addresses. Drop-in for std::vector.
template <typename T>
struct CacheAlignedAllocator {
  using value_type = T;
  static constexpr std::align_val_t kAlign{64};

  CacheAlignedAllocator() = default;
  template <typename U>
  CacheAlignedAllocator(const CacheAlignedAllocator<U>&) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), kAlign));
  }
  void deallocate(T* p, std::size_t) { ::operator delete(p, kAlign); }

  template <typename U>
  bool operator==(const CacheAlignedAllocator<U>&) const {
    return true;
  }
};

}  // namespace monomap::simd

#endif  // MONOMAP_SUPPORT_SIMD_HPP
