// Tests for the support utilities: assertions, RNG, stopwatch/deadline,
// tables, CSV, the JSON writer and outcome escalation.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <future>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "support/assert.hpp"
#include "support/json.hpp"
#include "support/log.hpp"
#include "support/outcome.hpp"
#include "support/parallel.hpp"
#include "support/pe_set.hpp"
#include "support/rng.hpp"
#include "support/simd.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"

namespace monomap {
namespace {

TEST(Assert, ThrowsWithLocationAndMessage) {
  try {
    MONOMAP_ASSERT_MSG(1 == 2, "custom " << 42);
    FAIL() << "should have thrown";
  } catch (const AssertionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("support_test.cpp"), std::string::npos);
    EXPECT_NE(what.find("custom 42"), std::string::npos);
  }
}

TEST(Assert, PassesSilently) {
  EXPECT_NO_THROW(MONOMAP_ASSERT(2 + 2 == 4));
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, BoundedDrawsStayInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
    const auto v = rng.next_in(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
  EXPECT_THROW(rng.next_below(0), AssertionError);
}

TEST(Rng, UniformityRoughCheck) {
  Rng rng(99);
  int buckets[4] = {0, 0, 0, 0};
  for (int i = 0; i < 4000; ++i) {
    ++buckets[rng.next_below(4)];
  }
  for (const int b : buckets) {
    EXPECT_GT(b, 800);
    EXPECT_LT(b, 1200);
  }
}

TEST(Mix64, StableHash) {
  EXPECT_EQ(mix64(1), mix64(1));
  EXPECT_NE(mix64(1), mix64(2));
}

TEST(Stopwatch, MeasuresForwardTime) {
  Stopwatch w;
  const double a = w.elapsed_s();
  const double b = w.elapsed_s();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
  w.restart();
  EXPECT_GE(w.elapsed_s(), 0.0);
}

TEST(Deadline, UnlimitedNeverExpires) {
  const Deadline d = Deadline::unlimited();
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.remaining_s(), 1e9);
}

TEST(Deadline, ZeroBudgetExpiresImmediately) {
  const Deadline d(0.0);
  EXPECT_TRUE(d.expired());
  EXPECT_EQ(d.remaining_s(), 0.0);
}

TEST(PeSet, SetTestResetAndCount) {
  PeSet s(100);
  EXPECT_EQ(s.capacity(), 100);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0);
  s.set(0);
  s.set(63);
  s.set(64);  // crosses the word boundary
  s.set(99);
  EXPECT_EQ(s.count(), 4);
  EXPECT_TRUE(s.test(63));
  EXPECT_TRUE(s.test(64));
  EXPECT_FALSE(s.test(65));
  s.reset(63);
  EXPECT_FALSE(s.test(63));
  EXPECT_EQ(s.count(), 3);
  EXPECT_FALSE(s.empty());
  s.clear();
  EXPECT_TRUE(s.empty());
}

TEST(PeSet, FullRespectsCapacityTail) {
  // 70 is deliberately not a multiple of 64: the last word must be trimmed
  // or count() would see phantom high bits.
  const PeSet s = PeSet::full(70);
  EXPECT_EQ(s.count(), 70);
  EXPECT_TRUE(s.test(0));
  EXPECT_TRUE(s.test(69));
  const PeSet word = PeSet::full(64);
  EXPECT_EQ(word.count(), 64);
}

TEST(PeSet, IntersectionAndUnion) {
  PeSet a(130);
  PeSet b(130);
  a.set(1);
  a.set(80);
  a.set(129);
  b.set(80);
  b.set(129);
  b.set(2);
  PeSet i = a;
  i &= b;
  EXPECT_EQ(i.count(), 2);
  EXPECT_TRUE(i.test(80));
  EXPECT_TRUE(i.test(129));
  PeSet u = a;
  u |= b;
  EXPECT_EQ(u.count(), 4);
  EXPECT_TRUE(a.intersects(b));
  PeSet disjoint(130);
  disjoint.set(5);
  EXPECT_FALSE(a.intersects(disjoint));
}

TEST(PeSet, IterationOrderIsAscending) {
  PeSet s(400);  // a 20x20 grid: several words
  const int members[] = {0, 1, 63, 64, 65, 127, 128, 399};
  for (const int m : members) s.set(m);
  std::vector<int> seen;
  s.for_each([&](int i) { seen.push_back(i); });
  EXPECT_EQ(seen, std::vector<int>(std::begin(members), std::end(members)));
}

TEST(PeSet, EqualityAndWordAccess) {
  PeSet a(65);
  PeSet b(65);
  EXPECT_EQ(a, b);
  a.set(64);
  EXPECT_NE(a, b);
  EXPECT_EQ(a.num_words(), 2);
  const PeSet::Word saved = a.word(1);
  a.set_word(1, 0);
  EXPECT_EQ(a, b);
  a.set_word(1, saved);
  EXPECT_TRUE(a.test(64));
}

TEST(PeSet, MultiWordCapacitiesKeepTailInvariant) {
  // Around and across word boundaries, and the 64x64-fabric size. fill()
  // must trim the last word's tail or count()/empty()/== see phantom bits.
  for (const int cap : {64, 65, 127, 128, 4096}) {
    PeSet s = PeSet::full(cap);
    EXPECT_EQ(s.count(), cap) << "capacity " << cap;
    EXPECT_TRUE(s.test(cap - 1));
    const int tail = cap % PeSet::kWordBits;
    if (tail != 0) {
      EXPECT_EQ(s.word(s.num_words() - 1),
                (PeSet::Word{1} << tail) - 1) << "capacity " << cap;
    }
    s.reset(cap - 1);
    EXPECT_EQ(s.count(), cap - 1);
    s.clear();
    EXPECT_TRUE(s.empty());
  }
}

TEST(PeSet, SetWordRejectsPhantomTailBits) {
  PeSet s(65);  // last word holds exactly one valid bit
  EXPECT_NO_THROW(s.set_word(1, PeSet::Word{1}));
  EXPECT_THROW(s.set_word(1, PeSet::Word{2}), AssertionError);
  EXPECT_THROW(s.set_word(1, ~PeSet::Word{0}), AssertionError);
  // restore_word round-trips values previously read via word()/words().
  const PeSet::Word saved = s.word(1);
  s.restore_word(1, 0);
  EXPECT_FALSE(s.test(64));
  s.restore_word(1, saved);
  EXPECT_TRUE(s.test(64));
  EXPECT_EQ(s.words().size(), 2u);
  EXPECT_EQ(s.words()[1], saved);
}

TEST(PeSet, TileOccupancyTracksBulkWordOps) {
  // The occupancy-bitmap contract the tiled searcher's trail relies on:
  // a clear bit t implies tile t is all-zero (over-approximation), bulk
  // word ops never tighten the map on their own, mark_tile_empty is the
  // caller-proven tightening, and restore_words re-occupies wholesale —
  // which is why backtracking needs no occupancy trail.
  PeSet s(4096);  // the 64x64-fabric size: 64 words = 8 tiles
  ASSERT_TRUE(s.tracks_tiles());
  ASSERT_EQ(s.num_tiles(), 8);
  EXPECT_EQ(s.tile_occupancy(), PeSet::Word{0});

  constexpr int kTileBits = PeSet::kTileWords * PeSet::kWordBits;
  s.set(3);                  // tile 0
  s.set(5 * kTileBits + 17);  // tile 5
  EXPECT_EQ(s.tile_occupancy(),
            (PeSet::Word{1} << 0) | (PeSet::Word{1} << 5));

  // reset() leaves occupancy alone: the stale-high map is still a valid
  // over-approximation and exact results never depend on it.
  s.reset(5 * kTileBits + 17);
  EXPECT_EQ(s.tile_occupancy(),
            (PeSet::Word{1} << 0) | (PeSet::Word{1} << 5));
  EXPECT_EQ(s.count(), 1);

  // Tile-granular wipe + snapshot restore, exactly as the tile trail
  // does it.
  s.set(7);  // a second bit in tile 0
  std::array<PeSet::Word, PeSet::kTileWords> snap;
  std::copy_n(s.words().data(), PeSet::kTileWords, snap.begin());
  s.zero_words(0, PeSet::kTileWords);
  // Occupancy still claims tile 0, but results stay exact...
  EXPECT_EQ((s.tile_occupancy() >> 0) & 1, PeSet::Word{1});
  EXPECT_TRUE(s.empty());
  // ...until the caller-proven tightening drops the line from bulk scans
  // (tile 5's stale-high bit survives — tightening is per-tile).
  s.mark_tile_empty(0);
  EXPECT_EQ(s.tile_occupancy(), PeSet::Word{1} << 5);
  EXPECT_EQ(s.count(), 0);
  // Undo: restore_words re-marks the tile occupied.
  s.restore_words(0, PeSet::kTileWords, snap.data());
  EXPECT_EQ((s.tile_occupancy() >> 0) & 1, PeSet::Word{1});
  EXPECT_TRUE(s.test(3));
  EXPECT_TRUE(s.test(7));
  EXPECT_EQ(s.count(), 2);

  // Bulk intersect against a sparser set: bits only vanish, so the old
  // occupancy map deliberately stays put.
  PeSet m(4096);
  m.set(3);
  const PeSet::Word before = s.tile_occupancy();
  s.and_words(m, 0, PeSet::kTileWords);
  EXPECT_EQ(s.tile_occupancy(), before);
  EXPECT_EQ(s.count(), 1);
  EXPECT_TRUE(s.test(3));
  EXPECT_FALSE(s.test(7));

  // fill() occupies every tile; operator&= intersects the maps.
  PeSet f = PeSet::full(4096);
  EXPECT_EQ(f.tile_occupancy(), PeSet::Word{0xFF});
  f &= s;
  EXPECT_EQ(f.tile_occupancy(), s.tile_occupancy());
  EXPECT_EQ(f.count(), 1);

  // Invariant check: every tile holding a set bit is tracked as occupied.
  PeSet::Word exact = 0;
  for (int w = 0; w < s.num_words(); ++w) {
    if (s.word(w) != 0) exact |= PeSet::Word{1} << (w / PeSet::kTileWords);
  }
  EXPECT_EQ(exact & ~s.tile_occupancy(), PeSet::Word{0});
}

TEST(WordSet, AnswersEveryCallLikeAOneWordPeSet) {
  // The space searcher runs one text on either set type, so a random walk
  // of the calls it makes must leave both with the same bits and answers,
  // at every capacity up to one word.
  Rng rng(0x5e7);
  for (const int cap : {1, 16, 25, 63, 64}) {
    PeSet p = PeSet::full(cap);
    WordSet w = WordSet::full(cap);
    PeSet pm(cap);
    WordSet wm(cap);
    for (int step = 0; step < 2000; ++step) {
      const int i =
          static_cast<int>(rng.next_below(static_cast<std::uint32_t>(cap)));
      switch (rng.next_below(8)) {
        case 0:
          p.set(i);
          w.set(i);
          break;
        case 1:
          p.reset(i);
          w.reset(i);
          break;
        case 2:
          pm.set(i);
          wm.set(i);
          break;
        case 3:
          p &= pm;
          w &= wm;
          break;
        case 4:
          p |= pm;
          w |= wm;
          break;
        case 5:
          p.restore_word(0, pm.word(0));
          w.restore_word(0, wm.word(0));
          break;
        case 6:
          pm.clear();
          wm.clear();
          break;
        default:
          p.set_word(0, p.word(0) & ~pm.word(0));
          w.set_word(0, w.word(0) & ~wm.word(0));
          break;
      }
      ASSERT_EQ(w.word(0), p.word(0)) << "cap " << cap << " step " << step;
      ASSERT_EQ(w.test(i), p.test(i));
      ASSERT_EQ(w.count(), p.count());
      ASSERT_EQ(w.empty(), p.empty());
      ASSERT_EQ(w.is_subset_of(wm), p.is_subset_of(pm));
      ASSERT_EQ(w.intersects(wm), p.intersects(pm));
      ASSERT_EQ(WordSet(p).word(0), p.word(0));
    }
    std::vector<int> from_p, from_w;
    p.for_each([&](int x) { from_p.push_back(x); });
    w.for_each([&](int x) { from_w.push_back(x); });
    EXPECT_EQ(from_w, from_p);
  }
  EXPECT_THROW(WordSet(65), AssertionError);
  EXPECT_THROW(WordSet(PeSet(65)), AssertionError);
}

TEST(Simd, SetLevelClampsToSupport) {
  const simd::Level saved = simd::active_level();
  const simd::Level best = simd::best_supported_level();
  EXPECT_LE(static_cast<int>(saved), static_cast<int>(best));
  EXPECT_EQ(simd::set_level(simd::Level::kScalar), simd::Level::kScalar);
  EXPECT_EQ(simd::active_level(), simd::Level::kScalar);
  // Requesting beyond the CPU's capability installs the best level instead.
  EXPECT_EQ(simd::set_level(simd::Level::kAvx512), best);
  EXPECT_EQ(simd::set_level(saved), saved);
}

TEST(PeSet, FusedKernelsMatchNaiveCompositionAtEveryLevel) {
  // Property test pinning the bit-identical contract: every dispatched
  // operation (&=, |=, count, empty, intersect_count, intersect_preview)
  // agrees with a naive bit loop, and every SIMD level the CPU supports
  // agrees with every other. The capacities span the 1-word fast path, odd
  // tails, 6 and 7 words (the 19x19 pin fabric and the 20x20 fabric, where
  // AVX-512 runs only its scalar tail and AVX2 one vector step), and the
  // 64x64-fabric size.
  const simd::Level saved = simd::active_level();
  const int best = static_cast<int>(simd::best_supported_level());
  Rng rng(4242);
  for (const int cap : {64, 127, 257, 361, 400, 1024, 4096}) {
    for (int trial = 0; trial < 8; ++trial) {
      PeSet a(cap);
      PeSet b(cap);
      // Mixed densities, including near-empty intersections so the wipe
      // path gets exercised.
      const int density = 1 + static_cast<int>(rng.next_below(64));
      for (int i = 0; i < cap; ++i) {
        if (rng.next_below(64) < static_cast<std::uint64_t>(density)) {
          a.set(i);
        }
        if (rng.next_below(64) < 8u) b.set(i);
      }
      // Naive expectations via explicit bit loops.
      int expect_a = 0;
      int expect_inter = 0;
      int expect_union = 0;
      bool expect_subset = true;
      for (int i = 0; i < cap; ++i) {
        if (a.test(i)) ++expect_a;
        if (a.test(i) && b.test(i)) ++expect_inter;
        if (a.test(i) || b.test(i)) ++expect_union;
        if (a.test(i) && !b.test(i)) expect_subset = false;
      }
      for (int lv = 0; lv <= best; ++lv) {
        simd::set_level(static_cast<simd::Level>(lv));
        EXPECT_EQ(a.count(), expect_a) << "level " << lv;
        EXPECT_EQ(a.empty(), expect_a == 0) << "level " << lv;
        EXPECT_EQ(a.intersect_count(b), expect_inter) << "level " << lv;
        EXPECT_EQ(a.is_subset_of(b), expect_subset) << "level " << lv;
        EXPECT_EQ(a.intersects(b), expect_inter > 0) << "level " << lv;
        PeSet inter = a;
        inter &= b;
        PeSet uni = a;
        uni |= b;
        for (int i = 0; i < cap; ++i) {
          ASSERT_EQ(inter.test(i), a.test(i) && b.test(i))
              << "level " << lv << " id " << i;
          ASSERT_EQ(uni.test(i), a.test(i) || b.test(i))
              << "level " << lv << " id " << i;
        }
        EXPECT_EQ(inter.count(), expect_inter) << "level " << lv;
        EXPECT_EQ(inter.empty(), expect_inter == 0) << "level " << lv;
        EXPECT_EQ(uni.count(), expect_union) << "level " << lv;
        // Preview: dirty words are exactly those the intersection changes,
        // any == 0 iff the intersection is empty.
        for (int base = 0; base < a.num_words(); base += 64) {
          const int n = std::min(64, a.num_words() - base);
          const simd::AndPreview pv = a.intersect_preview(b, base, n);
          PeSet::Word expect_dirty = 0;
          PeSet::Word expect_any = 0;
          for (int w = 0; w < n; ++w) {
            const PeSet::Word aw = a.word(base + w);
            const PeSet::Word iw = aw & b.word(base + w);
            if (iw != aw) expect_dirty |= PeSet::Word{1} << w;
            expect_any |= iw;
          }
          EXPECT_EQ(pv.dirty, expect_dirty) << "level " << lv;
          EXPECT_EQ(pv.any != 0, expect_any != 0) << "level " << lv;
        }
      }
    }
  }
  simd::set_level(saved);
}

TEST(Simd, HotKernelsMatchFreeFunctionsAtEveryLevel) {
  // The pointers hot_kernels() pins resolve to the same level's kernels as
  // the free functions, across partial and whole tiles.
  const simd::Level saved = simd::active_level();
  const int best = static_cast<int>(simd::best_supported_level());
  Rng rng(777);
  for (const int n : {1, 7, 8, 9, 16, 63, 64, 512}) {
    for (int trial = 0; trial < 4; ++trial) {
      std::vector<simd::Word> a(static_cast<std::size_t>(n), 0);
      for (simd::Word& w : a) {
        if (rng.next_below(4) == 0) w = rng.next_u64();
      }
      for (int lv = 0; lv <= best; ++lv) {
        simd::set_level(static_cast<simd::Level>(lv));
        const simd::HotKernels hot = simd::hot_kernels();
        EXPECT_EQ(hot.count(a.data(), a.size()),
                  simd::count(a.data(), a.size()))
            << "level " << lv << " n " << n;
        EXPECT_EQ(hot.all_zero(a.data(), a.size()),
                  simd::all_zero(a.data(), a.size()))
            << "level " << lv << " n " << n;
        if (n <= 64) {
          const simd::AndPreview hp =
              hot.and_preview(a.data(), a.data(), a.size());
          const simd::AndPreview fp =
              simd::and_preview(a.data(), a.data(), a.size());
          EXPECT_EQ(hp.dirty, fp.dirty);
          EXPECT_EQ(hp.any, fp.any);
        }
      }
    }
  }
  simd::set_level(saved);
}

TEST(Deadline, CancelTokenForcesExpiry) {
  CancelToken token;
  const Deadline d(1e6, &token);
  EXPECT_FALSE(d.expired());
  token.cancel();
  EXPECT_TRUE(d.expired());
  EXPECT_TRUE(token.cancelled());
  token.reset();
  EXPECT_FALSE(d.expired());
  // A deadline without a token is unaffected by cancellation elsewhere.
  const Deadline plain(1e6);
  token.cancel();
  EXPECT_FALSE(plain.expired());
}

TEST(Deadline, CancelTokenChainsToParent) {
  CancelToken parent;
  CancelToken child(&parent);
  const Deadline d(1e6, &child);
  EXPECT_FALSE(d.expired());
  // Firing the parent is observed through the child (the speculative
  // mapper cancels a whole race via the caller's token this way)...
  parent.cancel();
  EXPECT_TRUE(child.cancelled());
  EXPECT_TRUE(d.expired());
  EXPECT_TRUE(d.cancel_fired());
  EXPECT_DOUBLE_EQ(d.remaining_s(), 0.0);
  parent.reset();
  EXPECT_FALSE(child.cancelled());
  // ...while firing the child leaves the parent (and its other children)
  // untouched.
  child.cancel();
  EXPECT_FALSE(parent.cancelled());
  EXPECT_TRUE(child.cancelled());
}

TEST(ThreadPool, RunsEveryTaskIncludingNested) {
  ThreadPool pool(4);
  std::atomic<int> done{0};
  for (int i = 0; i < 32; ++i) {
    pool.submit([&pool, &done] {
      // Tasks submitted from inside a worker must be awaited too.
      pool.submit([&done] { done.fetch_add(1); });
      done.fetch_add(1);
    });
  }
  pool.wait_idle();
  EXPECT_EQ(done.load(), 64);
  // The pool is reusable after an idle barrier.
  pool.submit([&done] { done.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 65);
}

TEST(ThreadPool, NestedTasksRunOnIdleWorkers) {
  // One task submits three more, then all four wait until the three have
  // started. That happens only if the nested tasks reach the three idle
  // workers rather than queueing behind the task that submitted them. The
  // wait is bounded by one shared deadline, so a failure costs ~10 s, not
  // a hang.
  ThreadPool pool(4);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::atomic<int> started{0};
  std::atomic<int> saw_all_started{0};
  const auto wait_for_nested = [&] {
    while (started.load() < 3 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (started.load() == 3) saw_all_started.fetch_add(1);
  };
  pool.submit([&] {
    for (int i = 0; i < 3; ++i) {
      pool.submit([&] {
        started.fetch_add(1);
        wait_for_nested();
      });
    }
    wait_for_nested();
  });
  pool.wait_idle();
  EXPECT_EQ(saw_all_started.load(), 4);
}

TEST(ThreadPool, RunsTasksInSubmissionOrder) {
  // One worker, so the run order is the queue order: external submissions
  // and the tasks they submit from inside the pool run oldest first. The
  // first task holds the worker until every external task is queued.
  ThreadPool pool(1);
  std::promise<void> queued;
  std::shared_future<void> all_queued = queued.get_future().share();
  std::vector<int> order;  // touched by the one worker only
  pool.submit([&] {
    all_queued.wait();
    order.push_back(0);
    pool.submit([&] { order.push_back(4); });
  });
  pool.submit([&] {
    order.push_back(1);
    pool.submit([&] { order.push_back(5); });
  });
  pool.submit([&] { order.push_back(2); });
  pool.submit([&] { order.push_back(3); });
  queued.set_value();
  pool.wait_idle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(ThreadPool, CountsARunningTaskAsOneBusyThread) {
  // A worker is busy while it runs a task, once however many BusyScopes
  // the task nests, and idle again once the task is done.
  const int before = BusyScope::busy_threads();
  {
    const BusyScope outer;
    const BusyScope inner;
    EXPECT_EQ(BusyScope::busy_threads(), before + 1);
  }
  EXPECT_EQ(BusyScope::busy_threads(), before);
  ThreadPool pool(1);
  int inside = -1;
  pool.submit([&] {
    const BusyScope nested;
    inside = BusyScope::busy_threads();
  });
  pool.wait_idle();
  EXPECT_EQ(inside, before + 1);
  EXPECT_EQ(BusyScope::busy_threads(), before);
}

TEST(ThreadPool, RethrowsFirstTaskExceptionFromWaitIdle) {
  ThreadPool pool(2);
  std::atomic<int> survivors{0};
  pool.submit([] { throw std::runtime_error("boom"); });
  for (int i = 0; i < 8; ++i) {
    pool.submit([&survivors] { survivors.fetch_add(1); });
  }
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // The failure did not take down the other tasks.
  EXPECT_EQ(survivors.load(), 8);
  // A later barrier with no new failure passes.
  pool.submit([&survivors] { survivors.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(survivors.load(), 9);
}

TEST(Log, ParseLevels) {
  EXPECT_EQ(parse_log_level("debug"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("INFO"), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("Warning"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("error"), LogLevel::kError);
  EXPECT_EQ(parse_log_level("off"), LogLevel::kOff);
  EXPECT_EQ(parse_log_level("bogus"), LogLevel::kWarn);
}

TEST(AsciiTable, RendersAlignedCells) {
  AsciiTable t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_separator();
  t.add_row({"longer", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| name"), std::string::npos);
  EXPECT_NE(s.find("longer"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
  EXPECT_THROW(t.add_row({"only-one-cell"}), AssertionError);
}

TEST(FormatTime, PaperStyle) {
  EXPECT_EQ(format_time_s(0.004), "~0.01");   // the paper's "~0.01"
  EXPECT_EQ(format_time_s(0.42), "0.42");
  EXPECT_EQ(format_time_s(223.514), "223.51");
  EXPECT_EQ(format_time_s(-1.0), "TO");       // timeout marker
}

TEST(FormatFixed, Digits) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(10288.8949, 2), "10288.89");
}

TEST(Csv, QuotesOnlyWhenNeeded) {
  std::ostringstream os;
  CsvWriter csv(os);
  csv.write_row({"plain", "with,comma", "with\"quote"});
  EXPECT_EQ(os.str(), "plain,\"with,comma\",\"with\"\"quote\"\n");
}

TEST(Outcome, EscalateKeepsTheHigherRankedStop) {
  // Lowest to highest: refuted < deadline < fault < memory < cancelled.
  const std::array<MapOutcome, 5> ranked{
      MapOutcome::kRefuted, MapOutcome::kDeadline, MapOutcome::kFault,
      MapOutcome::kMemory, MapOutcome::kCancelled};
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    for (std::size_t j = 0; j < ranked.size(); ++j) {
      EXPECT_EQ(escalate(ranked[i], ranked[j]), ranked[std::max(i, j)])
          << to_string(ranked[i]) << " then " << to_string(ranked[j]);
    }
  }
}

TEST(JsonWriter, RoundTripsThroughParse) {
  const std::string tricky = std::string("q\"b\\n\nc") + '\x01';
  json::Writer w;
  w.begin_object();
  w.field("text", tricky);
  w.field("int64_min", std::numeric_limits<std::int64_t>::min());
  w.field("int64_max", std::numeric_limits<std::int64_t>::max());
  w.field("uint64_max", std::numeric_limits<std::uint64_t>::max());
  w.field("nan", std::nan(""));
  w.field("inf", std::numeric_limits<double>::infinity());
  w.field("half", 0.5);
  w.field("flag", true);
  w.key("nested").begin_object();
  w.key("list").begin_array();
  w.value(1).value("two");
  w.begin_object().field("three", 3).end_object();
  w.begin_array().end_array();
  w.end_array();
  w.key("empty").begin_object().end_object();
  w.end_object();
  w.end_object();
  const std::string text = w.take();
  EXPECT_TRUE(w.str().empty());

  // Integers are written exactly, whatever a double can hold.
  EXPECT_NE(text.find("\"int64_min\":-9223372036854775808"), std::string::npos);
  EXPECT_NE(text.find("\"int64_max\":9223372036854775807"), std::string::npos);
  EXPECT_NE(text.find("\"uint64_max\":18446744073709551615"),
            std::string::npos);
  EXPECT_NE(text.find("\\u0001"), std::string::npos);

  const std::optional<json::Value> doc = json::parse(text);
  ASSERT_TRUE(doc.has_value()) << text;
  EXPECT_EQ(doc->string_or("text", ""), tricky);
  EXPECT_EQ(doc->number_or("int64_min", 0.0),
            static_cast<double>(std::numeric_limits<std::int64_t>::min()));
  EXPECT_EQ(doc->number_or("int64_max", 0.0),
            static_cast<double>(std::numeric_limits<std::int64_t>::max()));
  EXPECT_EQ(doc->number_or("uint64_max", 0.0),
            static_cast<double>(std::numeric_limits<std::uint64_t>::max()));
  ASSERT_NE(doc->find("nan"), nullptr);
  EXPECT_TRUE(doc->find("nan")->is_null());
  ASSERT_NE(doc->find("inf"), nullptr);
  EXPECT_TRUE(doc->find("inf")->is_null());
  EXPECT_EQ(doc->number_or("half", 0.0), 0.5);
  EXPECT_TRUE(doc->bool_or("flag", false));

  const json::Value* nested = doc->find("nested");
  ASSERT_NE(nested, nullptr);
  const json::Value* list = nested->find("list");
  ASSERT_NE(list, nullptr);
  ASSERT_TRUE(list->is_array());
  const json::Array& items = list->as_array();
  ASSERT_EQ(items.size(), 4u);
  EXPECT_EQ(items[0].as_number(), 1.0);
  EXPECT_EQ(items[1].as_string(), "two");
  EXPECT_EQ(items[2].number_or("three", 0.0), 3.0);
  EXPECT_TRUE(items[3].is_array());
  EXPECT_TRUE(items[3].as_array().empty());
  ASSERT_NE(nested->find("empty"), nullptr);
  EXPECT_TRUE(nested->find("empty")->as_object().empty());
}

}  // namespace
}  // namespace monomap
