// Kernel implementations for support/simd.hpp.
//
// Layout: one KernelTable of function pointers per level; dispatch swaps an
// atomic table pointer. The scalar table is the portable reference; the
// AVX2/AVX-512 tables are compiled with per-function target attributes so
// this file builds (and the binary runs) on any x86-64 — the vector code is
// only ever *executed* after a CPUID check. Non-x86 builds get the scalar
// table alone.
#include "support/simd.hpp"

#include <atomic>
#include <bit>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <string>

#include "support/assert.hpp"

// MONOMAP_SIMD_FORCE_SCALAR (CMake option) drops the vector tables even on
// x86 — the portability assert CI uses to prove the scalar reference builds
// and dispatches standalone, exactly as a non-x86 (e.g. NEON) host would.
#if !defined(MONOMAP_SIMD_FORCE_SCALAR) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define MONOMAP_SIMD_X86 1
#include <immintrin.h>
#else
#define MONOMAP_SIMD_X86 0
#endif

namespace monomap::simd {
namespace {

struct KernelTable {
  void (*and_assign)(Word*, const Word*, std::size_t);
  void (*or_assign)(Word*, const Word*, std::size_t);
  int (*count)(const Word*, std::size_t);
  int (*intersect_count)(const Word*, const Word*, std::size_t);
  bool (*all_zero)(const Word*, std::size_t);
  AndPreview (*and_preview)(const Word*, const Word*, std::size_t);
  Level level;
};

// --- scalar reference (4-way unrolled) -------------------------------------
// The unroll gives the compiler independent accumulator chains to schedule;
// semantics are the plain word loop.

void s_and_assign(Word* a, const Word* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    a[i] &= b[i];
    a[i + 1] &= b[i + 1];
    a[i + 2] &= b[i + 2];
    a[i + 3] &= b[i + 3];
  }
  for (; i < n; ++i) a[i] &= b[i];
}

void s_or_assign(Word* a, const Word* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    a[i] |= b[i];
    a[i + 1] |= b[i + 1];
    a[i + 2] |= b[i + 2];
    a[i + 3] |= b[i + 3];
  }
  for (; i < n; ++i) a[i] |= b[i];
}

int s_count(const Word* a, std::size_t n) {
  int c0 = 0;
  int c1 = 0;
  int c2 = 0;
  int c3 = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    c0 += std::popcount(a[i]);
    c1 += std::popcount(a[i + 1]);
    c2 += std::popcount(a[i + 2]);
    c3 += std::popcount(a[i + 3]);
  }
  for (; i < n; ++i) c0 += std::popcount(a[i]);
  return c0 + c1 + c2 + c3;
}

int s_intersect_count(const Word* a, const Word* b, std::size_t n) {
  int c0 = 0;
  int c1 = 0;
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    c0 += std::popcount(a[i] & b[i]);
    c1 += std::popcount(a[i + 1] & b[i + 1]);
  }
  for (; i < n; ++i) c0 += std::popcount(a[i] & b[i]);
  return c0 + c1;
}

bool s_all_zero(const Word* a, std::size_t n) {
  Word acc = 0;
  for (std::size_t i = 0; i < n; ++i) acc |= a[i];
  return acc == 0;
}

AndPreview s_and_preview(const Word* a, const Word* b, std::size_t n) {
  AndPreview r{0, 0};
  for (std::size_t i = 0; i < n; ++i) {
    const Word next = a[i] & b[i];
    r.any |= next;
    r.dirty |= static_cast<Word>(next != a[i]) << i;
  }
  return r;
}

constexpr KernelTable kScalarTable{
    s_and_assign, s_or_assign, s_count, s_intersect_count,
    s_all_zero, s_and_preview, Level::kScalar,
};

#if MONOMAP_SIMD_X86

// --- AVX2 ------------------------------------------------------------------
// target attributes keep the rest of the build portable. "popcnt" rides
// along for the scalar tails (every AVX2 CPU has it; dispatch still checks).

#define MONOMAP_AVX2 __attribute__((target("avx2,popcnt")))

MONOMAP_AVX2 void v2_and_assign(Word* a, const Word* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va = _mm256_loadu_si256(reinterpret_cast<__m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(a + i),
                        _mm256_and_si256(va, vb));
  }
  for (; i < n; ++i) a[i] &= b[i];
}

MONOMAP_AVX2 void v2_or_assign(Word* a, const Word* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va = _mm256_loadu_si256(reinterpret_cast<__m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(a + i),
                        _mm256_or_si256(va, vb));
  }
  for (; i < n; ++i) a[i] |= b[i];
}

/// Per-64-bit-lane popcount via the pshufb nibble lookup (Mula's method);
/// returns 4 lane counts as epi64.
MONOMAP_AVX2 inline __m256i v2_popcount_epi64(__m256i v) {
  const __m256i lookup =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1,
                       1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  const __m256i cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lookup, lo),
                                      _mm256_shuffle_epi8(lookup, hi));
  return _mm256_sad_epu8(cnt, _mm256_setzero_si256());
}

MONOMAP_AVX2 int v2_count(const Word* a, std::size_t n) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    acc = _mm256_add_epi64(acc, v2_popcount_epi64(va));
  }
  Word lanes[4];
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes), acc);
  int c = static_cast<int>(lanes[0] + lanes[1] + lanes[2] + lanes[3]);
  for (; i < n; ++i) c += std::popcount(a[i]);
  return c;
}

MONOMAP_AVX2 int v2_intersect_count(const Word* a, const Word* b,
                                    std::size_t n) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    acc = _mm256_add_epi64(acc, v2_popcount_epi64(_mm256_and_si256(va, vb)));
  }
  Word lanes[4];
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes), acc);
  int c = static_cast<int>(lanes[0] + lanes[1] + lanes[2] + lanes[3]);
  for (; i < n; ++i) c += std::popcount(a[i] & b[i]);
  return c;
}

MONOMAP_AVX2 bool v2_all_zero(const Word* a, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    if (!_mm256_testz_si256(va, va)) return false;
  }
  for (; i < n; ++i) {
    if (a[i] != 0) return false;
  }
  return true;
}

MONOMAP_AVX2 AndPreview v2_and_preview(const Word* a, const Word* b,
                                       std::size_t n) {
  AndPreview r{0, 0};
  __m256i vany = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const __m256i vn = _mm256_and_si256(va, vb);
    vany = _mm256_or_si256(vany, vn);
    // Lane-wise vn == va (all-ones / all-zeros per 64-bit lane); the double
    // movemask reads one bit per lane.
    const __m256i eq = _mm256_cmpeq_epi64(vn, va);
    const Word unchanged = static_cast<Word>(
        _mm256_movemask_pd(_mm256_castsi256_pd(eq)));
    r.dirty |= (~unchanged & 0xF) << i;
  }
  Word any_tail = !_mm256_testz_si256(vany, vany);
  for (; i < n; ++i) {
    const Word next = a[i] & b[i];
    any_tail |= next;
    r.dirty |= static_cast<Word>(next != a[i]) << i;
  }
  r.any = any_tail;
  return r;
}

constexpr KernelTable kAvx2Table{
    v2_and_assign, v2_or_assign, v2_count, v2_intersect_count,
    v2_all_zero, v2_and_preview, Level::kAvx2,
};

// --- AVX-512 ---------------------------------------------------------------

#define MONOMAP_AVX512 \
  __attribute__((target("avx512f,avx512bw,avx512vpopcntdq,popcnt")))

MONOMAP_AVX512 void v5_and_assign(Word* a, const Word* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i va = _mm512_loadu_si512(a + i);
    const __m512i vb = _mm512_loadu_si512(b + i);
    _mm512_storeu_si512(a + i, _mm512_and_si512(va, vb));
  }
  for (; i < n; ++i) a[i] &= b[i];
}

MONOMAP_AVX512 void v5_or_assign(Word* a, const Word* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i va = _mm512_loadu_si512(a + i);
    const __m512i vb = _mm512_loadu_si512(b + i);
    _mm512_storeu_si512(a + i, _mm512_or_si512(va, vb));
  }
  for (; i < n; ++i) a[i] |= b[i];
}

/// Sum of the eight epi64 lanes, stored and added as the AVX2 kernels do:
/// GCC 12's _mm512_reduce_add_epi64 trips -Wuninitialized in its own header.
MONOMAP_AVX512 inline int v5_sum_lanes(__m512i v) {
  Word lanes[8];
  _mm512_storeu_si512(lanes, v);
  Word sum = 0;
  for (const Word lane : lanes) sum += lane;
  return static_cast<int>(sum);
}

MONOMAP_AVX512 int v5_count(const Word* a, std::size_t n) {
  __m512i acc = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc = _mm512_add_epi64(acc,
                           _mm512_popcnt_epi64(_mm512_loadu_si512(a + i)));
  }
  int c = v5_sum_lanes(acc);
  for (; i < n; ++i) c += std::popcount(a[i]);
  return c;
}

MONOMAP_AVX512 int v5_intersect_count(const Word* a, const Word* b,
                                      std::size_t n) {
  __m512i acc = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i va = _mm512_loadu_si512(a + i);
    const __m512i vb = _mm512_loadu_si512(b + i);
    acc = _mm512_add_epi64(acc,
                           _mm512_popcnt_epi64(_mm512_and_si512(va, vb)));
  }
  int c = v5_sum_lanes(acc);
  for (; i < n; ++i) c += std::popcount(a[i] & b[i]);
  return c;
}

MONOMAP_AVX512 bool v5_all_zero(const Word* a, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i va = _mm512_loadu_si512(a + i);
    if (_mm512_test_epi64_mask(va, va) != 0) return false;
  }
  for (; i < n; ++i) {
    if (a[i] != 0) return false;
  }
  return true;
}

MONOMAP_AVX512 AndPreview v5_and_preview(const Word* a, const Word* b,
                                         std::size_t n) {
  AndPreview r{0, 0};
  __m512i vany = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i va = _mm512_loadu_si512(a + i);
    const __m512i vb = _mm512_loadu_si512(b + i);
    const __m512i vn = _mm512_and_si512(va, vb);
    vany = _mm512_or_si512(vany, vn);
    const __mmask8 changed = _mm512_cmpneq_epi64_mask(vn, va);
    r.dirty |= static_cast<Word>(changed) << i;
  }
  Word any_tail = _mm512_test_epi64_mask(vany, vany) != 0;
  for (; i < n; ++i) {
    const Word next = a[i] & b[i];
    any_tail |= next;
    r.dirty |= static_cast<Word>(next != a[i]) << i;
  }
  r.any = any_tail;
  return r;
}

constexpr KernelTable kAvx512Table{
    v5_and_assign, v5_or_assign, v5_count, v5_intersect_count,
    v5_all_zero, v5_and_preview, Level::kAvx512,
};

#endif  // MONOMAP_SIMD_X86

const KernelTable* table_for(Level level) {
#if MONOMAP_SIMD_X86
  switch (level) {
    case Level::kAvx512: return &kAvx512Table;
    case Level::kAvx2: return &kAvx2Table;
    case Level::kScalar: break;
  }
#endif
  (void)level;
  return &kScalarTable;
}

Level probe_best_level() {
#if MONOMAP_SIMD_X86
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512vpopcntdq") &&
      __builtin_cpu_supports("popcnt")) {
    return Level::kAvx512;
  }
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("popcnt")) {
    return Level::kAvx2;
  }
#endif
  return Level::kScalar;
}

Level clamp_to_supported(Level level) {
  const Level best = best_supported_level();
  return static_cast<int>(level) > static_cast<int>(best) ? best : level;
}

/// Startup level: the best supported one, narrowed by MONOMAP_SIMD.
/// "off"/"scalar"/"0" force the reference path, "avx2"/"avx512" request a
/// tier (clamped to what the CPU has), anything else (incl. "auto") keeps
/// the probe result.
Level startup_level() {
  const char* env = std::getenv("MONOMAP_SIMD");
  if (env == nullptr) return best_supported_level();
  std::string s(env);
  for (char& c : s) c = static_cast<char>(std::tolower(c));
  if (s == "off" || s == "scalar" || s == "0") return Level::kScalar;
  if (s == "avx2") return clamp_to_supported(Level::kAvx2);
  if (s == "avx512") return clamp_to_supported(Level::kAvx512);
  return best_supported_level();
}

std::atomic<const KernelTable*>& active_table() {
  static std::atomic<const KernelTable*> table{table_for(startup_level())};
  return table;
}

const KernelTable& kernels() {
  return *active_table().load(std::memory_order_relaxed);
}

/// Startup tile-skipping setting: on unless MONOMAP_TILES says "off"/"0".
bool startup_tile_skipping() {
  const char* env = std::getenv("MONOMAP_TILES");
  if (env == nullptr) return true;
  std::string s(env);
  for (char& c : s) c = static_cast<char>(std::tolower(c));
  return !(s == "off" || s == "0" || s == "false");
}

std::atomic<bool>& tile_skipping_flag() {
  static std::atomic<bool> flag{startup_tile_skipping()};
  return flag;
}

}  // namespace

const char* level_name(Level level) {
  switch (level) {
    case Level::kScalar: return "scalar";
    case Level::kAvx2: return "avx2";
    case Level::kAvx512: return "avx512";
  }
  return "?";
}

Level best_supported_level() {
  static const Level best = probe_best_level();
  return best;
}

Level active_level() { return kernels().level; }

Level set_level(Level level) {
  const Level clamped = clamp_to_supported(level);
  active_table().store(table_for(clamped), std::memory_order_relaxed);
  return clamped;
}

void and_assign(Word* a, const Word* b, std::size_t n) {
  kernels().and_assign(a, b, n);
}
void or_assign(Word* a, const Word* b, std::size_t n) {
  kernels().or_assign(a, b, n);
}
int count(const Word* a, std::size_t n) { return kernels().count(a, n); }
int intersect_count(const Word* a, const Word* b, std::size_t n) {
  return kernels().intersect_count(a, b, n);
}
bool all_zero(const Word* a, std::size_t n) {
  return kernels().all_zero(a, n);
}
AndPreview and_preview(const Word* a, const Word* b, std::size_t n) {
  MONOMAP_ASSERT(n <= 64);
  return kernels().and_preview(a, b, n);
}

HotKernels hot_kernels() {
  const KernelTable& t = kernels();
  return HotKernels{t.and_preview, t.all_zero, t.count};
}

bool tile_skipping_enabled() {
  return tile_skipping_flag().load(std::memory_order_relaxed);
}

bool set_tile_skipping(bool enabled) {
  return tile_skipping_flag().exchange(enabled, std::memory_order_relaxed);
}

}  // namespace monomap::simd
