#include "space/monomorphism.hpp"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <type_traits>
#include <utility>

#include "support/assert.hpp"
#include "support/fault.hpp"
#include "support/parallel.hpp"
#include "support/pe_set.hpp"
#include "support/resource.hpp"
#include "support/simd.hpp"

namespace monomap {

const char* to_string(SpaceOrder order) {
  switch (order) {
    case SpaceOrder::kDynamicMrv: return "dynamic-mrv";
    case SpaceOrder::kConnectivity: return "connectivity";
    case SpaceOrder::kDegree: return "degree";
    case SpaceOrder::kBfs: return "bfs";
    case SpaceOrder::kSparseMrv: return "sparse-mrv";
  }
  return "?";
}

const char* to_string(SpaceEngine engine) {
  switch (engine) {
    case SpaceEngine::kBitset: return "bitset";
    case SpaceEngine::kReference: return "reference";
  }
  return "?";
}

namespace {

// --- checks and orderings shared by both engines ---------------------------

bool check_labels(const Dfg& dfg, const CgraArch& arch,
                  const std::vector<int>& labels, int ii,
                  SpaceResult& result) {
  // Capacity per label layer must hold or no injective map exists.
  std::vector<int> count(static_cast<std::size_t>(ii), 0);
  for (NodeId v = 0; v < dfg.num_nodes(); ++v) {
    const int l = labels[static_cast<std::size_t>(v)];
    MONOMAP_ASSERT_MSG(l >= 0 && l < ii,
                       "label " << l << " outside [0," << ii << ")");
    if (++count[static_cast<std::size_t>(l)] > arch.num_pes()) {
      result.failure_reason =
          "label layer " + std::to_string(l) + " exceeds CGRA capacity";
      // Any |PEs|+1 nodes of the overfull layer are jointly unplaceable —
      // the narrowest possible conflict explanation.
      for (NodeId u = 0; u <= v; ++u) {
        if (labels[static_cast<std::size_t>(u)] == l) {
          result.conflict_nodes.push_back(u);
        }
      }
      return false;
    }
  }
  return true;
}

bool check_slot_adjacency(const Dfg& dfg, const std::vector<int>& labels,
                          int ii, SpaceResult& result) {
  // Consecutive-only MRRG: an edge is only mappable if its labels are
  // equal or cyclically consecutive.
  const Graph& g = dfg.graph();
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge& edge = g.edge(e);
    if (edge.src == edge.dst) continue;
    const int a = labels[static_cast<std::size_t>(edge.src)];
    const int b = labels[static_cast<std::size_t>(edge.dst)];
    const int d = (b - a + ii) % ii;
    if (!(d == 0 || d == 1 || d == ii - 1)) {
      result.failure_reason =
          "edge " + std::to_string(edge.src) + "->" +
          std::to_string(edge.dst) +
          " spans non-consecutive slots under kConsecutiveOnly";
      result.conflict_nodes = {std::min(edge.src, edge.dst),
                               std::max(edge.src, edge.dst)};
      return false;
    }
  }
  return true;
}

/// Whether this ordering recomputes its choice at every step (the dynamic
/// family); the rest use build_static_order below.
bool is_dynamic_order(SpaceOrder order) {
  return order == SpaceOrder::kDynamicMrv || order == SpaceOrder::kSparseMrv;
}

/// PE count at which kDynamicMrv auto-upgrades to the sparse-tuned ordering
/// (SpaceOptions::sparse_order_auto): 256 PEs = 4 words is where domains
/// outgrow the single-word regime and the dense heuristics stop paying.
/// Below it the upgrade never arms, keeping small-grid traces bit-identical
/// to the recorded baselines.
constexpr int kSparseOrderMinPes = 256;

/// Pin-fabric arming (BitsetSearcher::plan_pin_fabric). The real fabric
/// needs more than kPinFabricMinPes PEs, the multi-word threshold the
/// multiplicity filter also uses: on smaller fabrics the octant already
/// removes the 8-fold symmetry and few translations fit: a prototype armed
/// on 4x4/5x5 made the 300 novel compiles of the serve-mixed benchmark
/// 0.69 -> 0.98-1.00 s in total (nw 4x4 74 -> 102 ms).
constexpr int kPinFabricMinPes = PeSet::kWordBits;
/// ...and the pin fabric at most kPinFabricMaxPes PEs, so real sides of 32
/// or less. Mask memory grows with PEs squared: a 63x63 pin fabric holds
/// about 6 MiB of masks, a 255x255 one (a kMaxGridSide service request)
/// would take about 1.5 GiB.
constexpr std::int64_t kPinFabricMaxPes = 4096;

/// Static variable order for kConnectivity / kDegree / kBfs.
std::vector<NodeId> build_static_order(
    const Dfg& dfg, const std::vector<std::vector<NodeId>>& neighbors,
    SpaceOrder order) {
  const int n = dfg.num_nodes();
  std::vector<NodeId> result;
  result.reserve(static_cast<std::size_t>(n));

  auto degree = [&](NodeId v) {
    return static_cast<int>(neighbors[static_cast<std::size_t>(v)].size());
  };

  if (order == SpaceOrder::kDegree) {
    for (NodeId v = 0; v < n; ++v) result.push_back(v);
    std::stable_sort(result.begin(), result.end(),
                     [&](NodeId a, NodeId b) { return degree(a) > degree(b); });
    return result;
  }

  // kConnectivity and kBfs both grow a frontier; kConnectivity picks the
  // most-connected-to-placed next, kBfs follows FIFO discovery order.
  std::vector<bool> placed(static_cast<std::size_t>(n), false);
  std::vector<int> mapped_neighbors(static_cast<std::size_t>(n), 0);
  for (int step = 0; step < n; ++step) {
    NodeId best = kInvalidNode;
    for (NodeId v = 0; v < n; ++v) {
      if (placed[static_cast<std::size_t>(v)]) continue;
      if (best == kInvalidNode) {
        best = v;
        continue;
      }
      const int mb = mapped_neighbors[static_cast<std::size_t>(best)];
      const int mv = mapped_neighbors[static_cast<std::size_t>(v)];
      if (order == SpaceOrder::kConnectivity) {
        if (mv > mb || (mv == mb && degree(v) > degree(best))) {
          best = v;
        }
      } else {  // kBfs: first discovered (any mapped neighbour) wins
        if (mb == 0 && mv > 0) {
          best = v;
        } else if ((mb > 0) == (mv > 0) && degree(v) > degree(best) &&
                   mb == 0) {
          best = v;
        }
      }
    }
    result.push_back(best);
    placed[static_cast<std::size_t>(best)] = true;
    for (const NodeId u : neighbors[static_cast<std::size_t>(best)]) {
      ++mapped_neighbors[static_cast<std::size_t>(u)];
    }
  }
  return result;
}

/// True if the 8-fold symmetry reduction applies to this architecture.
bool symmetry_applicable(const CgraArch& arch) {
  return arch.rows() == arch.cols() && arch.topology() != Topology::kTorus;
}

/// For the very first placement on an empty square grid, candidates may be
/// restricted to one symmetry octant (sound: any solution can be
/// reflected/rotated into one whose first node lies there).
bool in_canonical_octant(const CgraArch& arch, PeId p) {
  const int half = (arch.rows() + 1) / 2;
  const int r = arch.row_of(p);
  const int c = arch.col_of(p);
  return r < half && c < half && c >= r;
}

// --- parallel split --------------------------------------------------------

/// Backtracks after which a bitset search hands the not-yet-started
/// candidates of its first branching level to the helper pool
/// (docs/performance.md, "Parallel split"). Checked on the backtrack path
/// only.
constexpr std::uint64_t kSplitAfterBacktracks = 64;

/// Ceiling on helper threads: a split level rarely holds more than a dozen
/// candidates, and every helper reserves its own trails.
constexpr int kMaxSplitHelpers = 7;

/// The cores this process may run on.
int split_cores() {
  static const int cores = [] {
    int n = static_cast<int>(std::thread::hardware_concurrency());
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) n = CPU_COUNT(&set);
    return std::max(n, 1);
  }();
  return cores;
}

/// The helper pool's size: one fewer than the cores, capped.
int split_helper_count() {
  return std::clamp(split_cores() - 1, 0, kMaxSplitHelpers);
}

/// Helpers a split may use now: one per core that no busy thread of this
/// process holds (BusyScope; the searching thread is one of them), within
/// the pool.
int idle_split_helpers() {
  return std::min(split_helper_count(),
                  split_cores() - BusyScope::busy_threads());
}

/// One step of a busy wait: a pause hint where the CPU has one. Every
/// 1,024th step yields the core to any other runnable thread.
inline void relax(unsigned step) {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
  if ((step & 1023U) == 1023U) std::this_thread::yield();
}

/// A split as the helper pool sees it: help() runs on a helper thread and
/// returns once the split needs no more work from it.
class SplitJob {
 public:
  virtual ~SplitJob() = default;
  virtual void help() = 0;

 private:
  friend class SplitPool;
  std::atomic<int> active_{0};  // helpers inside help()
};

/// The process-wide helper threads, started on the first split. One FIFO
/// queue of help() runs, each counted busy (BusyScope) while it runs. A
/// helper that finds the queue empty busy-waits for kSpinS (relax) before
/// it sleeps, or sleeps at once when no core is idle: a compile's searches
/// come a few hundred microseconds apart, and waking a sleeping helper
/// costs the arming search 5-10 us and the helper 25 us more before it
/// runs; in a measurement, helpers that slept at once or spun on
/// sched_yield also slowed the SAT time phase between searches by a third.
/// A finished split drops its queued runs and waits only for the ones
/// already running, which notice its cancellation within a backtrack.
class SplitPool {
 public:
  static SplitPool& instance() {
    static SplitPool pool(split_helper_count());
    return pool;
  }

  ~SplitPool() {
    {
      const std::lock_guard<std::mutex> lock(m_);
      stop_ = true;
      queued_.store(-1, std::memory_order_relaxed);
    }
    work_cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  SplitPool(const SplitPool&) = delete;
  SplitPool& operator=(const SplitPool&) = delete;

  /// Queue `runs` help() calls of `job`.
  void submit(SplitJob* job, int runs) {
    bool wake = false;
    {
      const std::lock_guard<std::mutex> lock(m_);
      for (int i = 0; i < runs; ++i) queue_.push_back(job);
      queued_.store(static_cast<int>(queue_.size()), std::memory_order_relaxed);
      wake = sleeping_ > 0;
    }
    if (wake) work_cv_.notify_all();
  }

  /// Drop `job`'s queued runs and wait until none of its runs is active.
  void retire(SplitJob* job) {
    {
      const std::lock_guard<std::mutex> lock(m_);
      queue_.erase(std::remove(queue_.begin(), queue_.end(), job),
                   queue_.end());
      queued_.store(static_cast<int>(queue_.size()), std::memory_order_relaxed);
    }
    for (unsigned step = 0;
         job->active_.load(std::memory_order_acquire) != 0; ++step) {
      relax(step);
    }
  }

 private:
  static constexpr double kSpinS = 1e-3;

  explicit SplitPool(int helpers) {
    threads_.reserve(static_cast<std::size_t>(helpers));
    for (int t = 0; t < helpers; ++t) {
      threads_.emplace_back([this] { loop(); });
    }
  }

  void loop() {
    std::unique_lock<std::mutex> lock(m_);
    for (;;) {
      if (queue_.empty() && !stop_) {
        lock.unlock();
        const Stopwatch spin;
        for (unsigned step = 1; queued_.load(std::memory_order_relaxed) == 0;
             ++step) {
          if ((step & 63U) == 0 &&
              (spin.elapsed_s() >= kSpinS ||
               BusyScope::busy_threads() >= split_cores())) {
            break;
          }
          relax(step);
        }
        lock.lock();
        ++sleeping_;
        work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        --sleeping_;
      }
      if (queue_.empty()) return;  // stopping
      SplitJob* job = queue_.front();
      queue_.pop_front();
      queued_.store(static_cast<int>(queue_.size()), std::memory_order_relaxed);
      job->active_.fetch_add(1, std::memory_order_relaxed);
      lock.unlock();
      {
        const BusyScope busy;
        job->help();
      }
      job->active_.fetch_sub(1, std::memory_order_release);  // last touch
      lock.lock();
    }
  }

  std::mutex m_;
  std::condition_variable work_cv_;
  std::deque<SplitJob*> queue_;  // guarded by m_, like the two below
  int sleeping_ = 0;
  bool stop_ = false;
  std::atomic<int> queued_{0};  // queue_.size(), readable while spinning
  std::vector<std::thread> threads_;  // last: the threads use the above
};

// --- bitset engine ---------------------------------------------------------

/// Bit-parallel domain-propagation search. One candidate domain (PE set) per
/// DFG node; assigning node v to PE p narrows the domains of v's unassigned
/// neighbours (mask intersection with N[p]), of unassigned same-label nodes
/// (PE p's slot is now taken), and — with supplemental filtering — of
/// unassigned nodes at DFG distance 2 (intersection with the distance-2
/// ball around p). Every changed word is recorded on a trail, so
/// unassignment is an O(#changes) word-wise restore. A domain wiped to zero
/// anywhere triggers an immediate retreat.
///
/// Failure handling is conflict-directed (FC-CBJ in Prosser's sense): every
/// domain pruning records its culprit in a per-node pruner set, a wipeout
/// charges the wiped node's pruners to the current decision's conflict set,
/// and exhausting a decision's candidates jumps straight to the deepest
/// decision level present in the accumulated conflict set — the levels in
/// between provably cannot repair the failure. When the whole search
/// exhausts, the final conflict set is exactly the node subset the
/// refutation depended on, which run() exports as the conflict explanation.
/// A conflict set with no assigned node at all refutes its node subset
/// outright, so the search stops immediately — even mid-tree, even under a
/// backtrack budget.
///
/// All state (domains, trails, conflict sets, orders) is preallocated in
/// the constructor; the recursion itself never allocates.
///
/// NodeSet holds sets of DFG nodes (pruner sets, conflict sets, the fail
/// set, the frontier) and Dom the candidate domains: WordSet where they fit
/// one word, PeSet otherwise (find_monomorphism picks). The search is the
/// same text and the same trace either way; one-word domains only skip the
/// tiled and SIMD paths, which never arm below 4 words, and number their
/// bits by the interior-first value rank instead of the PE id, so that a
/// domain's ascending bits are its candidates in value order.
///
/// A refutation that backtracks kSplitAfterBacktracks times may split: the
/// not-yet-started candidates of its first branching level go to helper
/// searchers on the process-wide SplitPool, and the level takes their
/// reports strictly in candidate order (arm_split, merge_split; see
/// docs/performance.md, "Parallel split").
template <typename NodeSet, typename Dom>
class BitsetSearcher {
  static constexpr bool kWordDomains = std::is_same_v<Dom, WordSet>;
  struct Split;

 public:
  BitsetSearcher(const Dfg& dfg, const CgraArch& arch,
                 const std::vector<int>& labels, int ii,
                 const SpaceOptions& options, const Deadline& deadline)
      : dfg_(dfg),
        real_(arch),
        fabric_(&arch),
        labels_(labels),
        ii_(ii),
        options_(options),
        deadline_(deadline),
        n_(dfg.num_nodes()) {
    own_.neighbors.resize(static_cast<std::size_t>(n_));
    own_.degree_of.resize(static_cast<std::size_t>(n_));
    for (NodeId v = 0; v < n_; ++v) {
      own_.neighbors[static_cast<std::size_t>(v)] =
          dfg.graph().undirected_neighbors(v);
      // Flat copy of the degrees: select_node's comparator reads them per
      // candidate pair, and the vector-of-vectors size() chase is
      // measurable there.
      own_.degree_of[static_cast<std::size_t>(v)] = static_cast<int>(
          own_.neighbors[static_cast<std::size_t>(v)].size());
      const int label = labels_[static_cast<std::size_t>(v)];
      MONOMAP_ASSERT_MSG(label >= 0 && label < ii_,
                         "label " << label << " outside [0," << ii_ << ")");
    }
    neighbors_ = own_.neighbors;
    degree_of_ = own_.degree_of;
    bfs_dist_.resize(static_cast<std::size_t>(n_));
    bfs_parent_.resize(static_cast<std::size_t>(n_));
    bfs_queue_.resize(static_cast<std::size_t>(n_));
    node_words_ = (n_ + PeSet::kWordBits - 1) / PeSet::kWordBits;
    // The ordering regime is the real fabric's, also on the pin fabric: in
    // a prototype, letting a 10x10 search's 361-PE pin fabric arm sparse
    // MRV cost hotspot3D 10x10 an II (4 -> 5).
    use_sparse_ = options_.order == SpaceOrder::kSparseMrv ||
                  (options_.order == SpaceOrder::kDynamicMrv &&
                   options_.sparse_order_auto &&
                   real_.num_pes() >= kSparseOrderMinPes);
    if (!is_dynamic_order(options_.order)) {
      own_.order = build_static_order(dfg, own_.neighbors, options_.order);
      order_ = own_.order;
    }
    std::vector<char> mult_used;
    if (options_.distance2_filter) {
      // Paths-of-length-2 adjacency of the labelled DFG: for every node a,
      // the nodes b at undirected distance exactly 2 with *all* their
      // common neighbours. The first witness drives the plain ball filter
      // (its existence is what makes the implied constraint valid on the
      // induced subproblem, so it joins the conflict explanation whenever
      // the pruning participates in a refutation); the size of the largest
      // same-label witness group is the pair's multiplicity, which the
      // multiplicity-aware filter turns into a sharper target mask.
      own_.dist2.resize(static_cast<std::size_t>(n_));
      PeSet seen(n_);
      std::vector<std::vector<NodeId>> wit(static_cast<std::size_t>(n_));
      std::vector<NodeId> partners;
      for (NodeId a = 0; a < n_; ++a) {
        seen.clear();
        seen.set(a);
        for (const NodeId w : neighbors_[static_cast<std::size_t>(a)]) {
          seen.set(w);
        }
        partners.clear();
        for (const NodeId w : neighbors_[static_cast<std::size_t>(a)]) {
          for (const NodeId b : neighbors_[static_cast<std::size_t>(w)]) {
            if (seen.test(b)) continue;  // a itself, or adjacent to a
            auto& wl = wit[static_cast<std::size_t>(b)];
            if (wl.empty()) partners.push_back(b);
            wl.push_back(w);
          }
        }
        for (const NodeId b : partners) {
          auto& wl = wit[static_cast<std::size_t>(b)];
          // Largest same-label witness group; ties break to the smallest
          // label so the pair (and the search trace) is deterministic.
          int best_label = -1;
          int best_count = 0;
          for (const NodeId w : wl) {
            const int l = labels_[static_cast<std::size_t>(w)];
            int c = 0;
            for (const NodeId x : wl) {
              c += labels_[static_cast<std::size_t>(x)] == l ? 1 : 0;
            }
            if (c > best_count ||
                (c == best_count && (best_label < 0 || l < best_label))) {
              best_count = c;
              best_label = l;
            }
          }
          D2Pair pair{b, wl[0], best_count, 0};
          if (best_count >= 2) {
            pair.wit_begin =
                static_cast<std::int32_t>(own_.d2_witness_pool.size());
            for (const NodeId w : wl) {
              if (labels_[static_cast<std::size_t>(w)] == best_label) {
                own_.d2_witness_pool.push_back(w);
              }
            }
            max_mult_ = std::max(max_mult_, best_count);
            if (static_cast<int>(mult_used.size()) <= best_count) {
              mult_used.resize(static_cast<std::size_t>(best_count) + 1, 0);
            }
            mult_used[static_cast<std::size_t>(best_count)] = 1;
          }
          own_.dist2[static_cast<std::size_t>(a)].push_back(pair);
          wl.clear();
        }
      }
      dist2_ = own_.dist2;
      d2_witness_pool_ = own_.d2_witness_pool;
    }

    // Everything below lives on the fabric the search runs on: the real
    // one, or its pin fabric.
    plan_pin_fabric();
    num_pes_ = fabric_->num_pes();
    words_ = (num_pes_ + PeSet::kWordBits - 1) / PeSet::kWordBits;
    num_tiles_ = (words_ + PeSet::kTileWords - 1) / PeSet::kTileWords;
    // Cached once per search so a run is internally consistent even if the
    // global toggle flips concurrently (the bench flips it between runs).
    tile_skip_ = words_ >= PeSet::kDispatchWords &&
                 words_ <= PeSet::kMaxTrackedWords &&
                 simd::tile_skipping_enabled();
    // Same once-per-search pinning for the dispatch level: the tiled loops
    // below call kernels per 8-word tile, where re-resolving the dispatch
    // table each call costs as much as the kernel itself.
    hk_ = simd::hot_kernels();

    // Global value order: interior-first rank memoised on the arch (same
    // key and stability as the reference engine's candidate sort, so both
    // engines expand values in the same order; the per-searcher
    // stable_sort over num_pes was measurable on a 64x64 fabric).
    value_rank_ = fabric_->interior_first_rank().data();
    if constexpr (kWordDomains) {
      // Rank-numbered one-word copies of the masks propagation intersects
      // with: bit r stands for the PE of rank r.
      value_order_ = fabric_->interior_first_order().data();
      for (int r = 0; r < num_pes_; ++r) {
        const PeId p = value_order_[r];
        own_.closed_tab.push_back(
            as_domain(fabric_->closed_neighbor_mask(p)));
        if (options_.distance2_filter) {
          own_.d2_tab.push_back(as_domain(fabric_->distance2_mask(p)));
        }
      }
      closed_tab_ = own_.closed_tab;
      d2_tab_ = own_.d2_tab;
    }
    if (options_.symmetry_breaking && !window_ &&
        symmetry_applicable(real_)) {
      use_octant_ = true;
      canonical_ = Dom(num_pes_);
      for (PeId p = 0; p < num_pes_; ++p) {
        if (in_canonical_octant(real_, p)) canonical_.set(bit_of(p));
      }
    }
    if (options_.distance2_filter) {
      // Per-multiplicity target-mask tables, only for the multiplicities
      // this DFG actually contains (commonly none, or just k = 2). Probing
      // stays within each PE's distance-2 ball, so the build is O(PEs)
      // with a constant per-PE factor. Armed on multi-word fabrics only:
      // on <= 64 PEs the k-masks are barely sharper than the ball (border
      // effects dominate) while the extra pruner witnesses enlarge
      // conflict sets and measurably weaken backjumping — nw 4x4 pays
      // ~8% more backtracks — whereas 16x16 and up win 13-26% (see
      // SpaceOptions::distance2_multiplicity). The real fabric's PE count
      // decides, also on the pin fabric.
      use_mult_ = options_.distance2_multiplicity && max_mult_ >= 2 &&
                  real_.num_pes() > PeSet::kWordBits;
      if constexpr (kWordDomains) MONOMAP_ASSERT(!use_mult_);
      if (use_mult_) {
        own_.d2k_masks.resize(static_cast<std::size_t>(max_mult_) + 1,
                              nullptr);
        for (int k = 2; k <= max_mult_; ++k) {
          if (mult_used[static_cast<std::size_t>(k)] == 0) continue;
          own_.d2k_masks[static_cast<std::size_t>(k)] =
              &fabric_->common_target_masks(k);
        }
        d2k_masks_ = own_.d2k_masks;
      }
    }
    gov_ = GovernorScope::current();
    // No split under a memory budget: helper trails would go uncharged.
    if (gov_ == nullptr && split_helper_count() > 0) {
      split_watch_ = kSplitAfterBacktracks;
    }
    init_state();
  }

  /// A split helper: views of the owner's tables, fresh state, and the
  /// owner's split-level state rebuilt by replaying the forced levels
  /// above the split from the root degree filter on. Runs without a
  /// governor, under the split's deadline and backtrack cap (lowered as
  /// the owner spends its budget), and never splits itself.
  BitsetSearcher(const BitsetSearcher& owner, const Split& split);

  ~BitsetSearcher() {
    finish_split();
    if (gov_ != nullptr) gov_->uncharge(gov_charged_);
  }

  BitsetSearcher(const BitsetSearcher&) = delete;
  BitsetSearcher& operator=(const BitsetSearcher&) = delete;

  SpaceResult run() {
    SpaceResult result;
    result.words_per_domain = words_;
    Stopwatch watch;
    if (gov_denied_) {
      // The constructor could not reserve the trails within the memory
      // budget: nothing was proven about the space.
      result.timed_out = true;
      result.memory_out = true;
      result.failure_reason = "space trail reservation exceeded the memory budget";
      result.seconds = watch.elapsed_s();
      return result;
    }
    if (!check_labels(dfg_, real_, labels_, ii_, result)) {
      result.seconds = watch.elapsed_s();
      return result;
    }
    if (options_.model == MrrgModel::kConsecutiveOnly &&
        !check_slot_adjacency(dfg_, labels_, ii_, result)) {
      result.seconds = watch.elapsed_s();
      return result;
    }
    if (options_.distance2_filter &&
        !apply_root_degree_filter(result)) {
      result.seconds = watch.elapsed_s();
      return result;
    }
    result.shallowest_retreat = n_ + 1;
    result.found = n_ == 0 ? true : search(0, result);
    // Every helper is cancelled and joined before the answer leaves.
    finish_split();
    // The no-steady-state-allocation invariant: the preallocated trails
    // were never outgrown (a regrowth would mean a capacity bound is
    // wrong).
    MONOMAP_ASSERT(trail_.capacity() == trail_reserved_);
    MONOMAP_ASSERT(tile_trail_.capacity() == tile_trail_reserved_);
    MONOMAP_ASSERT(pruner_trail_.capacity() == pruner_trail_reserved_);
    result.trail_words_saved =
        trail_words_saved_ + trail_.size() + tile_words_on_trail(0);
    result.multiplicity_prunings = mult_prunings_;
    result.tiles_skipped = tiles_skipped_;
    result.domain_bytes_touched = words_touched_ * sizeof(PeSet::Word);
    if (result.found) {
      result.pe = assignment_;
      for (PeId& p : result.pe) p = pe_of(p);
      if (window_) shift_onto_real(result.pe);
    } else if (result.failure_reason.empty()) {
      result.failure_reason = result.timed_out ? "search budget exhausted"
                                               : "search space exhausted";
      if (!result.timed_out) {
        // Complete refutation: the final conflict set names every node the
        // proof branched on or wiped out, plus every node whose placement
        // or existence pruned a domain the proof used — so the proof
        // stands on the induced subproblem of exactly these nodes (see
        // SpaceResult::conflict_nodes). A set holding the root pinned in
        // place was proven with the root at the pin only, so it is widened
        // first; one proven on the pin fabric needs no widening (see
        // plan_pin_fabric).
        if (!window_ && root_ != kInvalidNode && fail_set_.test(root_)) {
          widen_certificate(result);
        }
        fail_set_.for_each(
            [&](int u) { result.conflict_nodes.push_back(u); });
      }
    }
    result.seconds = watch.elapsed_s();
    return result;
  }

 private:
  /// The mutable search state, sized for the tables above: everything
  /// unassigned, domains full, trails reserved (charged to the governor,
  /// if any).
  void init_state() {
    assignment_.assign(static_cast<std::size_t>(n_), -1);
    mapped_neighbor_count_.assign(static_cast<std::size_t>(n_), 0);
    level_of_.assign(static_cast<std::size_t>(n_), -1);
    frontier_ = NodeSet(n_);
    fail_set_ = NodeSet(n_);
    // Dancing-links views of the unassigned node set: ascending-id order
    // globally (select_node's scan) and ascending-id order per label (the
    // mono1 sweep). Both iterate exactly the nodes the old scan-and-skip
    // loops reached, in the same order, without touching assigned nodes —
    // unlink on assign, relink on undo, strict LIFO, so a node's
    // neighbours are intact when it relinks.
    un_next_.assign(static_cast<std::size_t>(n_) + 1, 0);
    un_prev_.assign(static_cast<std::size_t>(n_) + 1, 0);
    for (NodeId v = 0; v <= n_; ++v) {
      const NodeId nx = v == n_ ? 0 : v + 1;
      un_next_[static_cast<std::size_t>(v)] = nx;
      un_prev_[static_cast<std::size_t>(nx)] = v;
    }
    lab_next_.assign(static_cast<std::size_t>(n_ + ii_), 0);
    lab_prev_.assign(static_cast<std::size_t>(n_ + ii_), 0);
    std::vector<NodeId> last(static_cast<std::size_t>(ii_));
    for (int l = 0; l < ii_; ++l) last[static_cast<std::size_t>(l)] = n_ + l;
    for (NodeId v = 0; v < n_; ++v) {
      NodeId& prev = last[static_cast<std::size_t>(
          labels_[static_cast<std::size_t>(v)])];
      lab_next_[static_cast<std::size_t>(prev)] = v;
      lab_prev_[static_cast<std::size_t>(v)] = prev;
      prev = v;
    }
    for (int l = 0; l < ii_; ++l) {
      const NodeId prev = last[static_cast<std::size_t>(l)];
      lab_next_[static_cast<std::size_t>(prev)] = n_ + l;
      lab_prev_[static_cast<std::size_t>(n_ + l)] = prev;
    }
    count_cache_.assign(static_cast<std::size_t>(n_), -1);
    pruners_.reserve(static_cast<std::size_t>(n_));
    cs_stack_.reserve(static_cast<std::size_t>(n_));
    domain_.reserve(static_cast<std::size_t>(n_));
    for (NodeId v = 0; v < n_; ++v) {
      pruners_.push_back(NodeSet(n_));
      cs_stack_.push_back(NodeSet(n_));
      domain_.push_back(Dom::full(num_pes_));
    }
    if (window_) box_.resize(static_cast<std::size_t>(n_) + 1);
    // One candidate buffer per depth: enumeration happens via the domain's
    // set bits (O(words + candidates)), not a scan over all PEs. The
    // storage is deliberately left uninitialised — search() always writes
    // a depth's slice from the domain before reading it, and zero-filling
    // n * num_pes ints is measurable against a whole small-kernel mapping
    // on a 64x64 fabric. One-word domains walk their rank-numbered words
    // instead and need it only under an explicit kSparseMrv.
    if (!kWordDomains || use_sparse_) {
      cand_arena_.reset(new PeId[static_cast<std::size_t>(n_) *
                                 static_cast<std::size_t>(num_pes_)]);
    }

    // Hard bound on live word-trail entries: per active depth and pruned
    // node, the same-label loop trails at most one word, and (untiled) the
    // node is touched by either the neighbour loop (<= words_) or the two
    // distance-2 filters (<= 2 * words_), never both; at most n_ depths
    // are active. With tile skipping armed the intersect paths never push
    // word entries at all — their changes go on the tile trail — leaving
    // only the one same-label word per (depth, node). Reserving the bound
    // up front is what keeps the recursion heap-silent — run() asserts it
    // was never exceeded.
    const std::size_t trail_cap =
        static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_) *
        static_cast<std::size_t>(tile_skip_ ? 1 : 2 * words_ + 1);
    // Tile-trail bound: per (depth, pruned node) the three intersects that
    // can touch it (neighbour mask, distance-2 ball, multiplicity mask)
    // each snapshot each occupied tile at most once.
    const std::size_t tile_cap =
        tile_skip_ ? static_cast<std::size_t>(n_) *
                         static_cast<std::size_t>(n_) * 3 *
                         static_cast<std::size_t>(num_tiles_)
                   : 0;
    // Pruner-set bound: per (depth, pruned node) the new bits are at most
    // the assigned culprit, the primary distance-2 witness, and one
    // same-label witness group.
    const std::size_t pruner_cap =
        static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_) *
        static_cast<std::size_t>(2 + std::max(max_mult_, 0));
    // The trails dominate the searcher's footprint and are reserved once,
    // so the governor is charged for the whole reservation up front. A
    // denied charge skips the reserves entirely; run() then aborts into a
    // memory outcome before the search starts.
    if (gov_ != nullptr) {
      const std::size_t bytes =
          (trail_cap + pruner_cap) * sizeof(TrailEntry) +
          tile_cap * sizeof(TileTrailEntry);
      if (gov_->try_charge(bytes)) {
        gov_charged_ = bytes;
      } else {
        gov_->trip("space trail reservation exceeded the memory budget");
        gov_denied_ = true;
        return;
      }
    }
    trail_.reserve(trail_cap);
    trail_reserved_ = trail_.capacity();
    tile_trail_.reserve(tile_cap);
    tile_trail_reserved_ = tile_trail_.capacity();
    pruner_trail_.reserve(pruner_cap);
    pruner_trail_reserved_ = pruner_trail_.capacity();
  }

  /// A helper's split-level state: the root degree filter, then the forced
  /// levels above the split, placed and propagated in order exactly as the
  /// owner placed them.
  void replay(const Split& split);

  /// Words the tile-trail entries from index `from` on snapshot.
  [[nodiscard]] std::uint64_t tile_words_on_trail(std::size_t from) const {
    std::uint64_t words = 0;
    for (std::size_t i = from; i < tile_trail_.size(); ++i) {
      words += static_cast<std::uint64_t>(
          std::min(PeSet::kTileWords, words_ - tile_trail_[i].base));
    }
    return words;
  }

  struct TrailEntry {
    NodeId node;
    std::int32_t word;
    PeSet::Word old_bits;
  };

  /// Tile-granular trail entry: a snapshot of one whole cache-line tile,
  /// taken by the tiled intersect path just before its bulk AND (or wipe).
  /// One entry replaces up to kTileWords dirty-word TrailEntry pushes and
  /// restores as a straight copy, so both sides of the trade are
  /// branch-free; tiles the preview proves untouched are never snapshot.
  /// Only ever pushed when tile_skip_ is armed.
  struct TileTrailEntry {
    NodeId node;
    std::int32_t base;  // first word of the tile
    PeSet::Word old_bits[PeSet::kTileWords];
  };

  /// Snapshot one tile of domain_[u] onto the tile trail. Callers only
  /// snapshot tiles the preview (or the all_zero probe) proved are about
  /// to change, so every snapshot holds at least one nonzero word — which
  /// is what lets undo's restore_words re-mark the tile occupied
  /// unconditionally.
  void push_tile(NodeId u, int base, int n, const PeSet& d) {
    tile_trail_.emplace_back();
    TileTrailEntry& e = tile_trail_.back();
    e.node = u;
    e.base = base;
    std::memcpy(e.old_bits, d.words().data() + base,
                static_cast<std::size_t>(n) * sizeof(PeSet::Word));
  }

  /// A node at undirected DFG distance exactly 2, with its common-neighbour
  /// evidence. `witness` is the first-discovered common neighbour (drives
  /// the plain ball filter); `mult` is the size of the largest same-label
  /// common-neighbour group, and when mult >= 2 that group lives at
  /// d2_witness_pool_[wit_begin, wit_begin + mult).
  struct D2Pair {
    NodeId partner;
    NodeId witness;
    std::int32_t mult;
    std::int32_t wit_begin;
  };

  enum class Change { kUnchanged, kChanged, kWiped };

  [[nodiscard]] bool assigned(NodeId v) const {
    return assignment_[static_cast<std::size_t>(v)] >= 0;
  }

  /// domain_[u] &= mask, trailing every change. Multi-word domains use a
  /// vectorised non-mutating preview: the dirty bitmask names exactly the
  /// words `&=` would change, and untouched words are never stored back.
  /// Untiled, each dirty word is trailed and rewritten individually (in
  /// ascending order, so the trail layout is identical at every SIMD
  /// level). With tile skipping the preview runs per occupied cache-line
  /// tile of the domain — tiles the occupancy map proves empty hold no
  /// candidates and contribute nothing — and the trail snapshots at tile
  /// granularity: one whole-tile copy, then a branch-free bulk AND,
  /// instead of the per-dirty-word loop. Tiles the *mask* proves empty are
  /// snapshot and wiped without loading the mask. Either way a tile whose
  /// intersection comes out all-zero is dropped from the domain's
  /// occupancy map, which is how domains narrow to a few lines as the
  /// search deepens. The search trace (return values, decisions, every
  /// counter except the trail/byte/tile telemetry) is identical across
  /// layouts, and fully bit-identical across SIMD levels within a layout
  /// (the preview and the occupancy map are level-independent); only the
  /// trail representation and the cache lines touched differ between
  /// layouts.
  Change intersect_domain(NodeId u, const Dom& mask) {
    Dom& d = domain_[static_cast<std::size_t>(u)];
    PeSet::Word any = 0;
    bool changed = false;
    if constexpr (kWordDomains) {
      changed = intersect_words(u, d, mask, any);
    } else if (tile_skip_) {
      const PeSet::Word occ = d.tile_occupancy();
      tiles_skipped_ +=
          static_cast<std::uint64_t>(num_tiles_ - std::popcount(occ));
      const PeSet::Word mocc = mask.tile_occupancy();
      for (PeSet::Word rest = occ; rest != 0; rest &= rest - 1) {
        const int t = std::countr_zero(rest);
        const int base = t * PeSet::kTileWords;
        const int n = std::min(PeSet::kTileWords, words_ - base);
        words_touched_ += static_cast<std::uint64_t>(n);
        if (((mocc >> t) & 1) == 0) {
          // The mask is empty on this whole tile: every surviving domain
          // word dies. Snapshot-and-wipe, unless the occupancy bit was
          // stale and the tile is already clear.
          if (!hk_.all_zero(d.words().data() + base,
                            static_cast<std::size_t>(n))) {
            push_tile(u, base, n, d);
            d.zero_words(base, n);
            changed = true;
          }
          d.mark_tile_empty(t);
          continue;
        }
        const simd::AndPreview pv =
            hk_.and_preview(d.words().data() + base,
                            mask.words().data() + base,
                            static_cast<std::size_t>(n));
        any |= pv.any;
        if (pv.dirty != 0) {
          push_tile(u, base, n, d);
          d.and_words(mask, base, n);
          changed = true;
        }
        if (pv.any == 0) d.mark_tile_empty(t);
      }
    } else if (words_ >= PeSet::kDispatchWords) {
      words_touched_ += static_cast<std::uint64_t>(words_);
      for (int base = 0; base < words_; base += 64) {
        const int n = std::min(64, words_ - base);
        const simd::AndPreview pv = d.intersect_preview(mask, base, n);
        any |= pv.any;
        for (PeSet::Word dirty = pv.dirty; dirty != 0; dirty &= dirty - 1) {
          const int w = base + std::countr_zero(dirty);
          const PeSet::Word old = d.word(w);
          trail_.push_back(TrailEntry{u, w, old});
          d.restore_word(w, old & mask.word(w));
          changed = true;
        }
      }
    } else {
      changed = intersect_words(u, d, mask, any);
    }
    if (changed) count_cache_[static_cast<std::size_t>(u)] = -1;
    if (any == 0) return Change::kWiped;
    return changed ? Change::kChanged : Change::kUnchanged;
  }

  /// intersect_domain's narrow path (fewer than kDispatchWords words, or
  /// one-word domains): trail and rewrite each changed word, OR-ing the
  /// result words into `any`. Returns whether any word changed.
  bool intersect_words(NodeId u, Dom& d, const Dom& mask, PeSet::Word& any) {
    bool changed = false;
    words_touched_ += static_cast<std::uint64_t>(dom_words());
    for (int w = 0; w < dom_words(); ++w) {
      const PeSet::Word old = d.word(w);
      const PeSet::Word next = old & mask.word(w);
      if (next != old) {
        trail_.push_back(TrailEntry{u, w, old});
        d.restore_word(w, next);
        changed = true;
      }
      any |= next;
    }
    return changed;
  }

  /// Words per domain, a constant for one-word domains so the word loops
  /// fold away.
  [[nodiscard]] int dom_words() const {
    if constexpr (kWordDomains) {
      return 1;
    } else {
      return words_;
    }
  }

  /// A fabric mask as a domain: the PeSet itself, or its one word in rank
  /// numbering.
  decltype(auto) as_domain(const PeSet& s) const {
    if constexpr (kWordDomains) {
      WordSet w(num_pes_);
      s.for_each([&](int p) { w.set(bit_of(p)); });
      return w;
    } else {
      return (s);
    }
  }

  /// The domain bit of PE p (its rank on one-word domains), and back.
  [[nodiscard]] int bit_of(PeId p) const {
    if constexpr (kWordDomains) {
      return value_rank_[static_cast<std::size_t>(p)];
    } else {
      return p;
    }
  }
  [[nodiscard]] PeId pe_of(int bit) const {
    if constexpr (kWordDomains) {
      return value_order_[static_cast<std::size_t>(bit)];
    } else {
      return bit;
    }
  }
  /// The value rank of a domain bit.
  [[nodiscard]] int rank_of(int bit) const {
    if constexpr (kWordDomains) {
      return bit;
    } else {
      return value_rank_[static_cast<std::size_t>(bit)];
    }
  }

  /// The masks propagation intersects with, as domains: the fabric's
  /// PeSets, or the flat one-word tables.
  [[nodiscard]] const Dom& closed_mask(PeId p) const {
    if constexpr (kWordDomains) {
      return closed_tab_[static_cast<std::size_t>(p)];
    } else {
      return fabric_->closed_neighbor_mask(p);
    }
  }
  [[nodiscard]] const Dom& ball_mask(PeId p) const {
    if constexpr (kWordDomains) {
      return d2_tab_[static_cast<std::size_t>(p)];
    } else {
      return fabric_->distance2_mask(p);
    }
  }

  /// domain_[u] -= {p}, trailing the change.
  Change remove_from_domain(NodeId u, PeId p) {
    Dom& d = domain_[static_cast<std::size_t>(u)];
    ++words_touched_;
    const int w = p / PeSet::kWordBits;
    const PeSet::Word bit = PeSet::Word{1} << (p % PeSet::kWordBits);
    const PeSet::Word old = d.word(w);
    // No-op removal: the domain is unchanged, and domains of unassigned
    // nodes are non-empty by invariant — skip the emptiness scan.
    if ((old & bit) == 0) return Change::kUnchanged;
    trail_.push_back(TrailEntry{u, w, old});
    d.restore_word(w, old & ~bit);
    // Exactly one set bit left the domain: an exact decrement keeps the
    // count memo warm through the whole mono1 sweep instead of forcing a
    // recount per touched node.
    int& cc = count_cache_[static_cast<std::size_t>(u)];
    if (cc >= 0) --cc;
    // A one-bit removal can only wipe the domain if its own word just went
    // to zero; every other word is untouched, so the common case skips the
    // whole-set emptiness scan (millions of calls per mono1 sweep).
    if ((old & ~bit) != 0) return Change::kChanged;
    return d.empty() ? Change::kWiped : Change::kChanged;
  }

  /// Record `culprit` as responsible for a pruning of u's current domain
  /// (trailed, so the record dies with the pruning it explains).
  void add_pruner(NodeId u, NodeId culprit) {
    NodeSet& ps = pruners_[static_cast<std::size_t>(u)];
    const int w = culprit / PeSet::kWordBits;
    const PeSet::Word bit = PeSet::Word{1} << (culprit % PeSet::kWordBits);
    const PeSet::Word old = ps.word(w);
    if ((old & bit) != 0) return;
    pruner_trail_.push_back(TrailEntry{u, w, old});
    ps.set_word(w, old | bit);
  }

  /// Root-level supplemental filter: every same-label subset of
  /// N(v) ∪ {v} must occupy distinct PEs inside N[phi(v)] (neighbours land
  /// there by mono3, v trivially, equal labels force distinct PEs by
  /// mono1) — so phi(v)'s closed neighbourhood must be at least that
  /// large. Prunes hub nodes off corner and edge PEs before the search
  /// starts. Prunings are permanent (never trailed) and record the
  /// maximising same-label witness set in pruners_[v] so conflict
  /// explanations that rest on them stay sound. Returns false when some
  /// domain is already wiped out, filling in the refutation.
  bool apply_root_degree_filter(SpaceResult& result) {
    std::vector<int> per_label(static_cast<std::size_t>(ii_), 0);
    for (NodeId v = 0; v < n_; ++v) {
      const auto [need, need_label] = closed_demand(v, per_label);
      if (need <= 1) continue;
      Dom& d = domain_[static_cast<std::size_t>(v)];
      const Dom& mask = as_domain(fabric_->min_closed_degree_mask(need));
      if (d.is_subset_of(mask)) continue;
      d &= mask;
      for (const NodeId u : neighbors_[static_cast<std::size_t>(v)]) {
        if (labels_[static_cast<std::size_t>(u)] == need_label) {
          pruners_[static_cast<std::size_t>(v)].set(u);
        }
      }
      if (d.empty()) {
        result.failure_reason =
            "node " + std::to_string(v) +
            " needs a closed neighbourhood larger than any PE offers";
        result.conflict_nodes.push_back(v);
        for (const NodeId u : neighbors_[static_cast<std::size_t>(v)]) {
          if (labels_[static_cast<std::size_t>(u)] == need_label && u != v) {
            result.conflict_nodes.push_back(u);
          }
        }
        std::sort(result.conflict_nodes.begin(),
                  result.conflict_nodes.end());
        return false;
      }
    }
    return true;
  }

  /// The root degree filter's demand at v: the size of the largest
  /// same-label subset of N(v) ∪ {v}, and its label. `per_label` is an
  /// all-zero scratch of ii_ counters, and is left all-zero.
  std::pair<int, int> closed_demand(NodeId v,
                                    std::vector<int>& per_label) const {
    int need = 0;
    int need_label = -1;
    auto bump = [&](NodeId u) {
      const int l = labels_[static_cast<std::size_t>(u)];
      if (++per_label[static_cast<std::size_t>(l)] > need) {
        need = per_label[static_cast<std::size_t>(l)];
        need_label = l;
      }
    };
    bump(v);
    for (const NodeId u : neighbors_[static_cast<std::size_t>(v)]) bump(u);
    per_label[static_cast<std::size_t>(labels_[
        static_cast<std::size_t>(v)])] = 0;
    for (const NodeId u : neighbors_[static_cast<std::size_t>(v)]) {
      per_label[static_cast<std::size_t>(labels_[
          static_cast<std::size_t>(u)])] = 0;
    }
    return {need, need_label};
  }

  /// The depth-0 node select_node picks on the real fabric, computed
  /// before any domain exists: there every domain starts full and the
  /// root degree filter cuts it to min_closed_degree_mask(need).
  /// kInvalidNode when the filter wipes a domain, which run() then reports
  /// on the real fabric.
  NodeId real_root() const {
    std::vector<int> per_label(static_cast<std::size_t>(ii_), 0);
    NodeId best = kInvalidNode;
    int best_count = 0;
    for (NodeId v = 0; v < n_; ++v) {
      int count = real_.num_pes();
      if (options_.distance2_filter) {
        const int need = closed_demand(v, per_label).first;
        if (need > 1) count = real_.min_closed_degree_mask(need).count();
        if (count == 0) return kInvalidNode;
      }
      if (best == kInvalidNode || prefer(v, count, best, best_count)) {
        best = v;
        best_count = count;
      }
    }
    return is_dynamic_order(options_.order) ? best : order_[0];
  }

  /// Pin fabric, for a mesh or king mesh too narrow to pin in place
  /// (translation_pin): the search runs on real_.pin_fabric(), the
  /// (2R-1)x(2C-1) fabric of the same topology, with the real depth-0 node
  /// pinned at its centre (R-1, C-1), and rejects every candidate that
  /// would stretch the placed nodes' bounding box past R rows or C columns
  /// (window_culprit). It is exact. A real placement, shifted so the root
  /// sits on the centre, stays on the pin fabric with its box at most R x C;
  /// a windowed placement shifted by its box's top-left corner lands back
  /// on the real fabric (shift_onto_real). A conflict set needs no
  /// widening: in any real placement of its sub-DFG every node lies within
  /// R-1 rows and C-1 columns of every other, so the same shift carries it
  /// onto the pin with its box intact. Arms on connected DFGs with
  /// symmetry breaking on, beside the PE bounds kPinFabricMinPes and
  /// kPinFabricMaxPes; the sparse-ordering and multiplicity regimes and the
  /// slot capacity stay the real fabric's.
  void plan_pin_fabric() {
    if (!options_.symmetry_breaking || n_ == 0) return;
    if (real_.topology() != Topology::kMesh &&
        real_.topology() != Topology::kDiagonal) {
      return;
    }
    const std::int64_t pin_pes =
        static_cast<std::int64_t>(2 * real_.rows() - 1) *
        static_cast<std::int64_t>(2 * real_.cols() - 1);
    if (real_.num_pes() <= kPinFabricMinPes || pin_pes > kPinFabricMaxPes) {
      return;
    }
    const NodeId root = real_root();
    if (root == kInvalidNode) return;
    const auto [reached, ecc] = bfs_from(root, [](NodeId) { return true; });
    if (reached < n_ || pins_in_place(ecc)) return;
    fabric_ = &real_.pin_fabric();
    root_ = root;
    window_ = true;
    box_.resize(static_cast<std::size_t>(n_) + 1);
  }

  /// Whether the in-place translation pin (e, e) fits the real fabric.
  [[nodiscard]] bool pins_in_place(int ecc) const {
    return real_.rows() >= 2 * ecc + 1 && real_.cols() >= 2 * ecc + 1;
  }

  /// Undirected BFS from `root` over the nodes `member` admits, filling
  /// bfs_dist_ (-1 = unreached) and bfs_parent_; returns the number of
  /// nodes reached and the largest distance among them.
  template <typename Member>
  std::pair<int, int> bfs_from(NodeId root, Member member) {
    std::fill(bfs_dist_.begin(), bfs_dist_.end(), -1);
    bfs_dist_[static_cast<std::size_t>(root)] = 0;
    bfs_parent_[static_cast<std::size_t>(root)] = kInvalidNode;
    bfs_queue_[0] = root;
    int head = 0;
    int tail = 1;
    int farthest = 0;
    while (head < tail) {
      const NodeId x = bfs_queue_[static_cast<std::size_t>(head++)];
      const int dx = bfs_dist_[static_cast<std::size_t>(x)];
      farthest = std::max(farthest, dx);
      for (const NodeId y : neighbors_[static_cast<std::size_t>(x)]) {
        if (bfs_dist_[static_cast<std::size_t>(y)] >= 0 || !member(y)) {
          continue;
        }
        bfs_dist_[static_cast<std::size_t>(y)] = dx + 1;
        bfs_parent_[static_cast<std::size_t>(y)] = x;
        bfs_queue_[static_cast<std::size_t>(tail++)] = y;
      }
    }
    return {tail, farthest};
  }

  /// Translation pin for the depth-0 node v: the domain bit of the PE at
  /// row e, column e (e = v's eccentricity in the undirected DFG), or -1
  /// when the pin does not apply. Every DFG edge lands on adjacent-or-same PEs, which on a
  /// mesh or king mesh moves each grid coordinate by at most one, so any
  /// placement keeps every node within e rows and e columns of phi(v).
  /// Shifting it until v sits at (e, e) therefore keeps every node inside
  /// rows and columns [0, 2e] — on the fabric when both sides are at least
  /// 2e + 1 — and a shift preserves mesh adjacency and keeps same-slot
  /// nodes on distinct PEs. So a placement exists iff one exists with v at
  /// (e, e), a PE inside the canonical octant. Needs a connected DFG (e
  /// finite); the torus is left to the octant. On the pin fabric the pin is
  /// its centre instead (plan_pin_fabric).
  PeId translation_pin(NodeId v) {
    if (window_) return fabric_->pe_at(real_.rows() - 1, real_.cols() - 1);
    if (!options_.symmetry_breaking) return -1;
    if (real_.topology() != Topology::kMesh &&
        real_.topology() != Topology::kDiagonal) {
      return -1;
    }
    const auto [reached, ecc] = bfs_from(v, [](NodeId) { return true; });
    if (reached < n_ || !pins_in_place(ecc)) return -1;
    root_ = v;
    root_ecc_ = ecc;
    return bit_of(real_.pe_at(ecc, ecc));
  }

  /// The placed nodes' bounding box on the pin fabric, with the
  /// earliest-placed node on each edge (the culprit window_culprit
  /// charges). box_[d] covers the nodes placed at depths below d; box_[0]
  /// is empty (inverted bounds).
  struct Box {
    int top = std::numeric_limits<int>::max();
    int bottom = std::numeric_limits<int>::min();
    int left = std::numeric_limits<int>::max();
    int right = std::numeric_limits<int>::min();
    NodeId top_node = kInvalidNode;
    NodeId bottom_node = kInvalidNode;
    NodeId left_node = kInvalidNode;
    NodeId right_node = kInvalidNode;
  };

  /// `box` grown by node v at PE p.
  Box extend(Box box, NodeId v, PeId p) const {
    const int r = fabric_->row_of(p);
    const int c = fabric_->col_of(p);
    if (r < box.top) {
      box.top = r;
      box.top_node = v;
    }
    if (r > box.bottom) {
      box.bottom = r;
      box.bottom_node = v;
    }
    if (c < box.left) {
      box.left = c;
      box.left_node = v;
    }
    if (c > box.right) {
      box.right = c;
      box.right_node = v;
    }
    return box;
  }

  /// The placed node that rules out PE p under the window: one on the box
  /// edge p would lie more than R-1 rows or C-1 columns from, or
  /// kInvalidNode when p keeps the box within R x C. The constraint is
  /// pairwise (it holds between any two nodes of any real placement), so
  /// that one node explains the rejection.
  NodeId window_culprit(const Box& box, PeId p) const {
    const int r = fabric_->row_of(p);
    const int c = fabric_->col_of(p);
    if (r - box.top >= real_.rows()) return box.top_node;
    if (box.bottom - r >= real_.rows()) return box.bottom_node;
    if (c - box.left >= real_.cols()) return box.left_node;
    if (box.right - c >= real_.cols()) return box.right_node;
    return kInvalidNode;
  }

  /// A found pin-fabric placement, shifted by its box's top-left corner
  /// onto the real fabric.
  void shift_onto_real(std::vector<PeId>& pe) const {
    const Box& box = box_[static_cast<std::size_t>(n_)];
    for (PeId& p : pe) {
      p = real_.pe_at(fabric_->row_of(p) - box.top,
                      fabric_->col_of(p) - box.left);
    }
  }

  /// A pinned refutation with conflict set S (holding root_) proves only
  /// that G[S] has no placement with the root at the pin. The shift
  /// argument of translation_pin covers every placement of G[S] only when
  /// each node of S lies within e of the root inside G[S], so each node
  /// farther away (or cut off) pulls in the nodes of a shortest DFG path
  /// from the root, at most e long. Every node of the widened set is then
  /// within e of the root inside it: any placement of it shifts onto the
  /// pin, and its restriction to S would contradict the refutation.
  void widen_certificate(SpaceResult& result) {
    std::vector<NodeId> far;
    bfs_from(root_, [&](NodeId u) { return fail_set_.test(u); });
    fail_set_.for_each([&](int u) {
      const int d = bfs_dist_[static_cast<std::size_t>(u)];
      if (d < 0 || d > root_ecc_) far.push_back(u);
    });
    if (far.empty()) return;
    // The unrestricted tree: shortest DFG paths from the root.
    bfs_from(root_, [](NodeId) { return true; });
    for (NodeId u : far) {
      for (; u != kInvalidNode; u = bfs_parent_[static_cast<std::size_t>(u)]) {
        fail_set_.set(u);
      }
    }
    result.certificate_widened = true;
  }

  /// Propagate the consequences of assignment v -> p into every unassigned
  /// domain, recording v (and, for distance-2 prunings, the path witness)
  /// as the culprit of every change. Returns the wiped-out node, or
  /// kInvalidNode on success.
  NodeId propagate_assign(NodeId v, PeId p) {
    // Frontier bookkeeping first, unconditionally: undo_assign always
    // decrements every neighbour, so the increments must not be skipped by
    // an early wipeout return below.
    for (const NodeId u : neighbors_[static_cast<std::size_t>(v)]) {
      if (++mapped_neighbor_count_[static_cast<std::size_t>(u)] == 1 &&
          !assigned(u)) {
        frontier_.set(u);
      }
    }
    const int label = labels_[static_cast<std::size_t>(v)];
    // PE p's slot at v's label is now occupied (mono1). The list walk
    // visits exactly the unassigned same-label nodes, in nodes_by_label_
    // order (v itself was unlinked before this propagation).
    const NodeId lsent = n_ + label;
    for (NodeId u = lab_next_[static_cast<std::size_t>(lsent)]; u != lsent;
         u = lab_next_[static_cast<std::size_t>(u)]) {
      const Change c = remove_from_domain(u, p);
      if (c != Change::kUnchanged) add_pruner(u, v);
      if (c == Change::kWiped) return u;
    }
    // Unassigned neighbours must land in N[p] (mono3); a same-label
    // neighbour additionally lost p itself above.
    for (const NodeId u : neighbors_[static_cast<std::size_t>(v)]) {
      if (assigned(u)) continue;
      const Change c = intersect_domain(u, closed_mask(p));
      if (c != Change::kUnchanged) add_pruner(u, v);
      if (c == Change::kWiped) return u;
    }
    // Supplemental distance-2 constraint: a DFG path v-w-u forces phi(u)
    // within two grid hops of p. The witness w joins u's pruners because
    // the implied constraint only holds on subproblems that contain w.
    if (options_.distance2_filter) {
      const Dom& ball = ball_mask(p);
      for (const D2Pair& pr : dist2_[static_cast<std::size_t>(v)]) {
        const NodeId u = pr.partner;
        if (assigned(u)) continue;
        // An assigned witness already propagated the tighter constraint:
        // domain(u) ⊆ N[phi(w)] ⊆ ball — the intersection is a no-op.
        if (!assigned(pr.witness)) {
          const Change c = intersect_domain(u, ball);
          if (c != Change::kUnchanged) {
            add_pruner(u, v);
            add_pruner(u, pr.witness);
          }
          if (c == Change::kWiped) return u;
        }
        // Multiplicity sharpening: pr.mult same-label common neighbours of
        // v and u need pr.mult distinct PEs inside N[p] ∩ N[phi(u)], so
        // phi(u) is confined to common_target_mask(p, pr.mult). All mult
        // witnesses join u's pruners — the implied constraint (and thus
        // any refutation resting on this pruning) needs the whole group in
        // the induced subproblem. It arms on multi-word fabrics only, so
        // one-word domains never carry it.
        if constexpr (!kWordDomains) {
          if (use_mult_ && pr.mult >= 2) {
            const Change c = intersect_domain(
                u, (*d2k_masks_[static_cast<std::size_t>(pr.mult)])
                       [static_cast<std::size_t>(p)]);
            if (c != Change::kUnchanged) {
              ++mult_prunings_;
              add_pruner(u, v);
              for (std::int32_t i = pr.wit_begin;
                   i < pr.wit_begin + pr.mult; ++i) {
                add_pruner(u, d2_witness_pool_[static_cast<std::size_t>(i)]);
              }
            }
            if (c == Change::kWiped) return u;
          }
        }
      }
    }
    return kInvalidNode;
  }

  void unlink_node(NodeId v) {
    un_next_[static_cast<std::size_t>(un_prev_[static_cast<std::size_t>(v)])] =
        un_next_[static_cast<std::size_t>(v)];
    un_prev_[static_cast<std::size_t>(un_next_[static_cast<std::size_t>(v)])] =
        un_prev_[static_cast<std::size_t>(v)];
    lab_next_[static_cast<std::size_t>(
        lab_prev_[static_cast<std::size_t>(v)])] =
        lab_next_[static_cast<std::size_t>(v)];
    lab_prev_[static_cast<std::size_t>(
        lab_next_[static_cast<std::size_t>(v)])] =
        lab_prev_[static_cast<std::size_t>(v)];
  }

  void relink_node(NodeId v) {
    un_next_[static_cast<std::size_t>(un_prev_[static_cast<std::size_t>(v)])] =
        v;
    un_prev_[static_cast<std::size_t>(un_next_[static_cast<std::size_t>(v)])] =
        v;
    lab_next_[static_cast<std::size_t>(
        lab_prev_[static_cast<std::size_t>(v)])] = v;
    lab_prev_[static_cast<std::size_t>(
        lab_next_[static_cast<std::size_t>(v)])] = v;
  }

  void undo_assign(NodeId v, std::size_t mark, std::size_t pruner_mark,
                   std::size_t tile_mark) {
    // Tile trail first, then word trail: within one undo scope the only
    // word entries pushed alongside tile entries are the same-label
    // removals, which run before the intersects that snapshot tiles — so
    // the chronologically older word values must be applied last to win.
    // One-word domains never tile.
    if constexpr (!kWordDomains) {
      for (std::size_t i = tile_trail_.size(); i > tile_mark; --i) {
        const TileTrailEntry& e = tile_trail_[i - 1];
        const int n = std::min(PeSet::kTileWords, words_ - e.base);
        trail_words_saved_ += static_cast<std::uint64_t>(n);
        count_cache_[static_cast<std::size_t>(e.node)] = -1;
        domain_[static_cast<std::size_t>(e.node)].restore_words(e.base, n,
                                                                e.old_bits);
      }
      tile_trail_.resize(tile_mark);
    }
    // restore_word, not set_word: every old_bits value was read out of the
    // set it goes back into, so the tail-mask re-check would be pure
    // overhead on the hottest loop in the engine.
    trail_words_saved_ += trail_.size() - mark;
    for (std::size_t i = trail_.size(); i > mark; --i) {
      const TrailEntry& e = trail_[i - 1];
      count_cache_[static_cast<std::size_t>(e.node)] = -1;
      domain_[static_cast<std::size_t>(e.node)].restore_word(e.word,
                                                             e.old_bits);
    }
    trail_.resize(mark);
    for (std::size_t i = pruner_trail_.size(); i > pruner_mark; --i) {
      const TrailEntry& e = pruner_trail_[i - 1];
      pruners_[static_cast<std::size_t>(e.node)].restore_word(e.word,
                                                              e.old_bits);
    }
    pruner_trail_.resize(pruner_mark);
    for (const NodeId u : neighbors_[static_cast<std::size_t>(v)]) {
      // An assigned u's bit is already clear; resetting it is harmless.
      if (--mapped_neighbor_count_[static_cast<std::size_t>(u)] == 0) {
        frontier_.reset(u);
      }
    }
    relink_node(v);
    assignment_[static_cast<std::size_t>(v)] = -1;
    // v's own mapped-neighbour count was untouched by this undo, so its
    // frontier membership is exactly count > 0 again.
    if (mapped_neighbor_count_[static_cast<std::size_t>(v)] > 0) {
      frontier_.set(v);
    }
  }

  /// Next node to branch on. Static orders read order_; dynamic MRV picks
  /// the unassigned node with the smallest domain (popcount), preferring
  /// frontier nodes, breaking ties by higher degree. The sparse variant
  /// (use_sparse_) weighs domain size against degree instead — minimising
  /// |domain(v)| / (deg(v) + 1), the classic dom/deg rule — because on a
  /// giant fabric every frontier domain collapses to a similar-sized
  /// neighbourhood ball and plain MRV degenerates to
  /// discovery order; the degree weighting branches on hub nodes first,
  /// whose placement prunes the most. Any selection rule is complete.
  /// domain.count() with the dispatch hoisted (see hk_): popcount only the
  /// occupied tiles. Exact — identical to PeSet::count() — this is purely
  /// the per-call table-resolution cost pulled out of select_node's loop.
  int domain_count(const Dom& d) const {
    if constexpr (!kWordDomains) {
      if (tile_skip_) {
        int c = 0;
        for (PeSet::Word rest = d.tile_occupancy(); rest != 0;
             rest &= rest - 1) {
          const int t = std::countr_zero(rest);
          const int base = t * PeSet::kTileWords;
          const int n = std::min(PeSet::kTileWords, words_ - base);
          c += hk_.count(d.words().data() + base, static_cast<std::size_t>(n));
        }
        return c;
      }
    }
    return d.count();
  }

  /// domain_count with a per-node memo. select_node rescans every
  /// unassigned node each expansion, but a propagation only narrows the
  /// assigned node's neighbourhood — every other domain still holds the
  /// count computed last time. The memo is exact (invalidated on every
  /// domain mutation and undo, decremented in place by mono1's single-bit
  /// removals), so MRV decisions and search traces are unchanged; only the
  /// repeated full-span popcounts over untouched domains disappear.
  int cached_domain_count(NodeId v) const {
    int& c = count_cache_[static_cast<std::size_t>(v)];
    if (c < 0) c = domain_count(domain_[static_cast<std::size_t>(v)]);
    return c;
  }

  /// select_node's rule: whether v, with `count` candidates, beats the
  /// current best.
  bool prefer(NodeId v, int count, NodeId best, int best_count) const {
    const auto deg = [&](NodeId x) {
      return static_cast<std::uint64_t>(
          degree_of_[static_cast<std::size_t>(x)]);
    };
    if (use_sparse_) {
      // count / (deg + 1) compared cross-multiplied, exact in integers.
      const std::uint64_t sv =
          static_cast<std::uint64_t>(count) * (deg(best) + 1);
      const std::uint64_t sb =
          static_cast<std::uint64_t>(best_count) * (deg(v) + 1);
      return sv < sb || (sv == sb && deg(v) > deg(best));
    }
    return count < best_count || (count == best_count && deg(v) > deg(best));
  }

  NodeId select_node(std::size_t depth) const {
    if (!is_dynamic_order(options_.order)) {
      return order_[depth];
    }
    NodeId best = kInvalidNode;
    int best_count = 0;
    const auto consider = [&](NodeId v) {
      const int count = cached_domain_count(v);
      if (best == kInvalidNode || prefer(v, count, best, best_count)) {
        best = v;
        best_count = count;
      }
    };
    // Frontier preference: any node with a placed neighbour beats every
    // node without one, so when the frontier set is non-empty only its
    // members can win. Iterating its bits ascending visits exactly the
    // frontier subsequence of the old full unassigned scan, so ties (and
    // therefore traces) resolve identically — without walking the
    // hundreds of untouched interior nodes a big patch keeps unassigned.
    if (!frontier_.empty()) {
      frontier_.for_each([&](int v) { consider(static_cast<NodeId>(v)); });
    } else {
      for (NodeId v = un_next_[static_cast<std::size_t>(n_)]; v != n_;
           v = un_next_[static_cast<std::size_t>(v)]) {
        consider(v);
      }
    }
    return best;
  }

  bool search(std::size_t depth, SpaceResult& result) {
    if (depth == static_cast<std::size_t>(n_)) return true;
    ++result.nodes_expanded;
    if (static_cast<int>(depth) + 1 > result.max_depth) {
      result.max_depth = static_cast<int>(depth) + 1;
    }
    if ((result.nodes_expanded & 0xFFF) == 0) {
      if (deadline_.expired()) {
        result.timed_out = true;
        result.deadline_expired = true;
        fail_level_ = -1;
        return false;
      }
      // Watchdog: some subsystem tripped the shared governor — abort this
      // walk into the same classified memory outcome.
      if (gov_ != nullptr && gov_->tripped()) {
        result.timed_out = true;
        result.memory_out = true;
        fail_level_ = -1;
        return false;
      }
    }
    if (options_.max_backtracks != 0) {
      if (result.backtracks > options_.max_backtracks) {
        result.timed_out = true;
        result.truncated = true;
        fail_level_ = -1;
        return false;
      }
      // A split helper reports the last count that passed (merge_split).
      budget_checked_at_ = result.backtracks;
    }
    // On the pin fabric the depth-0 node is the one the real fabric's
    // domains select (plan_pin_fabric).
    const NodeId v = window_ && depth == 0 ? root_ : select_node(depth);
    MONOMAP_ASSERT(v != kInvalidNode);
    level_of_[static_cast<std::size_t>(v)] = static_cast<int>(depth);
    // This decision's conflict set: v itself, plus everything that shaped
    // v's candidate list (the refutation below enumerates exactly the
    // unpruned candidates, so whoever pruned the rest is part of the
    // proof).
    NodeSet& cs = cs_stack_[depth];
    cs.clear();
    cs.set(v);
    cs |= pruners_[static_cast<std::size_t>(v)];
    // First placement: the translation pin when it applies (one
    // candidate), else the canonical octant unless that empties the
    // candidate set (mirrors the reference engine exactly). On the pin
    // fabric every later candidate must keep the bounding box within the
    // window, and the node a rejection rests on joins this decision's
    // conflict set.
    const PeId pin = depth == 0 ? translation_pin(v) : -1;
    if (pin >= 0) result.root_pinned = true;
    const bool canonical_only = pin < 0 && depth == 0 && use_octant_ &&
                                domain_[static_cast<std::size_t>(v)]
                                    .intersects(canonical_);
    if constexpr (kWordDomains) {
      if (!use_sparse_) {
        // Rank-numbered bits: the domain word, walked upwards, is the
        // candidate list in value order, with no copy and no sort.
        PeSet::Word cands = domain_[static_cast<std::size_t>(v)].word(0);
        if (pin >= 0) {
          cands &= PeSet::Word{1} << pin;
        } else if (canonical_only) {
          cands &= canonical_.word(0);
        }
        for (; cands != 0; cands &= cands - 1) {
          const Step s = branch(depth, v, std::countr_zero(cands), cs, result);
          if (s == Step::kPlaced) return true;
          if (s == Step::kStopped) return false;
          if (s == Step::kMerged) break;
        }
        return exhausted(depth, v, cs, result);
      }
    }
    // Snapshot the domain's candidates into this depth's buffer and order
    // them by the global value order (ranks are unique, so this reproduces
    // filtering value_order_ by the domain, without scanning all PEs).
    PeId* cands = cand_arena_.get() +
                  static_cast<std::size_t>(depth) *
                      static_cast<std::size_t>(num_pes_);
    int num_cands = 0;
    if (pin >= 0) {
      if (domain_[static_cast<std::size_t>(v)].test(pin)) {
        cands[num_cands++] = pin;
      }
    } else if (window_) {
      const Box& box = box_[depth];
      domain_[static_cast<std::size_t>(v)].for_each([&](int p) {
        const NodeId culprit = window_culprit(box, p);
        if (culprit != kInvalidNode) {
          cs.set(culprit);
          return;
        }
        cands[num_cands++] = static_cast<PeId>(p);
      });
    } else {
      domain_[static_cast<std::size_t>(v)].for_each([&](int p) {
        if (canonical_only && !canonical_.test(p)) return;
        cands[num_cands++] = static_cast<PeId>(p);
      });
    }
    // Sparse value ordering: once v has a placed neighbour, its domain is
    // (a subset of) that neighbour's ball — try candidates center-out by
    // grid distance to the anchor placement instead of the global
    // interior-first rank, so early branches stay compact and the trailing
    // far-corner candidates (the ones most likely to fail on the *next*
    // node's ball intersection) come last. Deterministic: ties fall back
    // to the unique global rank. Any value order is complete.
    PeId sparse_anchor = -1;
    if (use_sparse_) {
      for (const NodeId u : neighbors_[static_cast<std::size_t>(v)]) {
        if (assigned(u)) {
          sparse_anchor = pe_of(assignment_[static_cast<std::size_t>(u)]);
          break;
        }
      }
    }
    if (sparse_anchor >= 0) {
      std::sort(cands, cands + num_cands, [&](PeId a, PeId b) {
        const int da = fabric_->grid_distance(pe_of(a), sparse_anchor);
        const int db = fabric_->grid_distance(pe_of(b), sparse_anchor);
        if (da != db) return da < db;
        return rank_of(a) < rank_of(b);
      });
    } else if constexpr (!kWordDomains) {
      std::sort(cands, cands + num_cands, [&](PeId a, PeId b) {
        return value_rank_[static_cast<std::size_t>(a)] <
               value_rank_[static_cast<std::size_t>(b)];
      });
    }
    for (int ci = 0; ci < num_cands; ++ci) {
      const Step s = branch(depth, v, cands[ci], cs, result);
      if (s == Step::kPlaced) return true;
      if (s == Step::kStopped) return false;
      if (s == Step::kMerged) break;
    }
    return exhausted(depth, v, cs, result);
  }

  /// How a candidate, or the rest of a split level, came out.
  enum class Step {
    kRefuted,  // no placement below it; its conflict joined the level's set
    kPlaced,   // a placement was found
    kStopped,  // the level is over: cut off, or a retreat past it (undone)
    kMerged,   // the split took every remaining candidate; all refuted
  };

  /// One candidate of the decision at `depth`: place v on p, propagate,
  /// search below, and undo. A refutation charges its conflict to cs.
  Step try_candidate(std::size_t depth, NodeId v, PeId p, NodeSet& cs,
                     SpaceResult& result) {
    const std::size_t mark = trail_.size();
    const std::size_t pruner_mark = pruner_trail_.size();
    const std::size_t tile_mark = tile_trail_.size();
    assignment_[static_cast<std::size_t>(v)] = p;
    if (window_) box_[depth + 1] = extend(box_[depth], v, p);
    unlink_node(v);
    frontier_.reset(v);
    const NodeId wiped = propagate_assign(v, p);
    if (wiped == kInvalidNode) {
      if (search(depth + 1, result)) return Step::kPlaced;
      if (result.timed_out || fail_level_ < static_cast<int>(depth)) {
        // Cut off, or the failure below rests only on decisions above
        // this one (fail_set_ names no node assigned here or deeper): no
        // other value of v can repair it. Skip the remaining candidates
        // and deliver fail_set_ unchanged to the culprit level.
        undo_assign(v, mark, pruner_mark, tile_mark);
        level_of_[static_cast<std::size_t>(v)] = -1;
        return Step::kStopped;
      }
      // fail_level_ == depth: this decision is the deepest culprit.
      // Absorb the sub-refutation and try the next value.
      cs |= fail_set_;
    } else {
      // Immediate wipeout: charge the wiped node and whatever pruned its
      // domain (which includes v via propagate_assign).
      cs |= pruners_[static_cast<std::size_t>(wiped)];
      cs.set(wiped);
    }
    undo_assign(v, mark, pruner_mark, tile_mark);
    return Step::kRefuted;
  }

  /// try_candidate and the backtrack it costs when refuted. The split
  /// watch sits on this path only: split_watch_ is the backtrack count at
  /// which arm_split next looks (kSplitAfterBacktracks, then that many
  /// more each time it finds no idle core), 0 while a split is live (and
  /// in helpers), and the maximum once none can arm.
  Step branch(std::size_t depth, NodeId v, PeId p, NodeSet& cs,
              SpaceResult& result) {
    const Step s = try_candidate(depth, v, p, cs, result);
    if (s != Step::kRefuted) return s;
    if (++result.backtracks >= split_watch_) [[unlikely]] {
      return on_split_watch(depth, v, p, cs, result);
    }
    return Step::kRefuted;
  }

  /// Every candidate failed. Jump to the deepest decision level the
  /// conflict set names; levels in between cannot repair the failure. No
  /// assigned node in the set at all means the refutation is
  /// self-contained — the search as a whole is over, and cs is a sound
  /// certificate even if a budget would have truncated the full tree.
  bool exhausted(std::size_t depth, NodeId v, const NodeSet& cs,
                 SpaceResult& result) {
    level_of_[static_cast<std::size_t>(v)] = -1;
    int target = -1;
    if (options_.backjumping) {
      cs.for_each([&](int u) {
        target = std::max(target, level_of_[static_cast<std::size_t>(u)]);
      });
    } else {
      target = static_cast<int>(depth) - 1;
    }
    if (target < static_cast<int>(depth) - 1) ++result.backjumps;
    if (target < result.shallowest_retreat) {
      result.shallowest_retreat = target;
    }
    for (int w = 0; w < node_words_; ++w) {
      fail_set_.restore_word(w, cs.word(w));
    }
    fail_level_ = target;
    return false;
  }

  // --- parallel split ------------------------------------------------------

  /// A helper's account of one candidate of the split level: what
  /// try_candidate returned there and what it cost, as deltas the owner
  /// adds exactly as if it had searched the candidate itself.
  struct Report {
    static constexpr int kPending = 0;
    static constexpr int kDone = 1;
    static constexpr int kCutOff = 2;  // deadline, cancel or fault
    std::atomic<int> state{kPending};
    Step step = Step::kRefuted;
    /// kStopped by the helper's backtrack cap: the subtree stopped at the
    /// budget check after `backtracks`, having passed it at `checked_at`.
    bool truncated = false;
    std::uint64_t nodes_expanded = 0;
    std::uint64_t backtracks = 0;  // below the split level only
    std::uint64_t backjumps = 0;
    int max_depth = 0;
    int shallowest_retreat = 0;
    /// Highest backtrack count (of this subtree) at which the budget
    /// check passed, or kNoCheck.
    std::uint64_t checked_at = kNoCheck;
    std::uint64_t trail_words = 0;
    std::uint64_t words_touched = 0;
    std::uint64_t tiles_skipped = 0;
    std::uint64_t mult_prunings = 0;
    /// kRefuted: the conflict to add to the level's set. kStopped: the
    /// fail set delivered past the level, at fail_level.
    NodeSet conflict;
    int fail_level = -1;
    std::vector<PeId> pe;  // kPlaced: the assignment (domain bits)
    Box box;               // kPlaced on the pin fabric: its final box
  };

  static constexpr std::uint64_t kNoCheck =
      std::numeric_limits<std::uint64_t>::max();

  /// A live split: the split level, how to rebuild the state above it,
  /// its not-yet-started candidates in value order, and one report slot
  /// per candidate. The unclaimed candidates are always a range
  /// [front, back): the owner claims from the front as its loop reaches
  /// them, helpers from the back, so the owner waits on a helper only
  /// where the two meet.
  struct Split final : SplitJob {
    Split(const BitsetSearcher& owner_in, int depth_in, NodeId node_in,
          std::vector<std::pair<NodeId, PeId>> forced_in,
          std::vector<PeId> pending_in, std::uint64_t cap_in)
        : owner(owner_in),
          depth(depth_in),
          node(node_in),
          forced(std::move(forced_in)),
          pending(std::move(pending_in)),
          cap(cap_in),
          budget_left(cap_in),
          stop(owner_in.deadline_.cancel_token()),
          deadline(owner_in.deadline_.remaining_s(), &stop),
          range(static_cast<std::uint64_t>(pending.size()) << 32),
          reports(new Report[pending.size()]) {}

    void help() override {
      try {
        if (stop.cancelled()) return;
        BitsetSearcher helper(owner, *this);
        if (stop.cancelled()) return;
        helper.replay(*this);
        helper.serve(*this);
      } catch (...) {
        // A fault in the helper (or its set-up): the owner searches every
        // candidate left without a report itself, and meets it there.
        stop.cancel();
      }
    }

    /// Publish report j (the claimant's, exactly once).
    void publish(int j, int state) {
      reports[static_cast<std::size_t>(j)].state.store(
          state, std::memory_order_release);
    }

    /// Claim the front (the owner) or back (a helper) unclaimed index;
    /// -1 when none is left.
    int claim(bool from_back) {
      std::uint64_t r = range.load(std::memory_order_relaxed);
      for (;;) {
        const auto front = static_cast<std::uint32_t>(r);
        const auto back = static_cast<std::uint32_t>(r >> 32);
        if (front >= back) return -1;
        const std::uint64_t claimed =
            from_back ? (static_cast<std::uint64_t>(back - 1) << 32) | front
                      : r + 1;
        if (range.compare_exchange_weak(r, claimed,
                                        std::memory_order_relaxed)) {
          return static_cast<int>(from_back ? back - 1 : front);
        }
      }
    }

    const BitsetSearcher& owner;
    const int depth;
    const NodeId node;
    const std::vector<std::pair<NodeId, PeId>> forced;  // levels < depth
    const std::vector<PeId> pending;
    const std::uint64_t cap;  // helper backtrack cap; 0 = none
    /// Under a budget: the backtracks it leaves the owner now, an upper
    /// bound on what it leaves every candidate still ahead of the owner.
    /// A subtree that checks the budget past that is refused anyway
    /// (report_stands), so its helper stops there.
    std::atomic<std::uint64_t> budget_left;
    CancelToken stop;         // child of the owner's cancel token
    const Deadline deadline;  // the owner's wall clock, and stop
    std::atomic<std::uint64_t> range;  // front | back << 32
    std::unique_ptr<Report[]> reports;
  };

  /// A helper's loop: claim the split's candidates from the back, search
  /// each from the split-level state, and publish a report per claim,
  /// until none is left or the split is cancelled. Every claim is
  /// published, as kCutOff when no report stands, also when the helper
  /// throws: the owner waits for it.
  void serve(Split& split) {
    const std::size_t depth = static_cast<std::size_t>(split.depth);
    const NodeId v = split.node;
    level_of_[static_cast<std::size_t>(v)] = split.depth;
    const std::size_t trail_mark = trail_.size();
    const std::size_t tile_mark = tile_trail_.size();
    trail_words_saved_ = 0;
    words_touched_ = 0;
    tiles_skipped_ = 0;
    mult_prunings_ = 0;
    NodeSet& scratch = cs_stack_[depth];
    while (!split.stop.cancelled()) {
      const int j = split.claim(/*from_back=*/true);
      if (j < 0) return;
      struct Unreported {
        Split& split;
        int j;
        bool reported = false;
        ~Unreported() {
          if (!reported) split.publish(j, Report::kCutOff);
        }
      } unreported{split, j};
      Report& rep = split.reports[static_cast<std::size_t>(j)];
      SpaceResult local;
      local.shallowest_retreat = n_ + 1;
      scratch.clear();
      budget_checked_at_ = kNoCheck;
      const std::uint64_t saved0 = trail_words_saved_;
      const std::uint64_t touched0 = words_touched_;
      const std::uint64_t skipped0 = tiles_skipped_;
      const std::uint64_t mult0 = mult_prunings_;
      const Step step = try_candidate(
          depth, v, split.pending[static_cast<std::size_t>(j)], scratch, local);
      // Cut off by the deadline or the cancel: the owner searches this
      // candidate itself if it gets there.
      if (local.timed_out && !local.truncated) return;
      rep.step = step;
      rep.truncated = local.truncated;
      rep.nodes_expanded = local.nodes_expanded;
      rep.backtracks = local.backtracks;
      rep.backjumps = local.backjumps;
      rep.max_depth = local.max_depth;
      rep.shallowest_retreat = local.shallowest_retreat;
      rep.checked_at = budget_checked_at_;
      rep.trail_words = trail_words_saved_ - saved0;
      rep.words_touched = words_touched_ - touched0;
      rep.tiles_skipped = tiles_skipped_ - skipped0;
      rep.mult_prunings = mult_prunings_ - mult0;
      if (step == Step::kRefuted) {
        rep.conflict = scratch;
      } else if (step == Step::kStopped) {
        rep.conflict = fail_set_;
        rep.fail_level = fail_level_;
      } else {
        // kPlaced: the trail still holds the placement's changes.
        rep.trail_words += (trail_.size() - trail_mark) +
                           tile_words_on_trail(tile_mark);
        rep.pe = assignment_;
        if (window_) rep.box = box_[static_cast<std::size_t>(n_)];
      }
      fault::maybe_inject("space.split");
      split.publish(j, Report::kDone);
      unreported.reported = true;
      // A placement leaves the state placed; a retreat ends the level.
      // After the cap, the earlier candidates still matter.
      if (step != Step::kRefuted && !local.truncated) return;
    }
  }

  /// The backtrack counter reached split_watch_. In a helper: stop if the
  /// split was cancelled. In the owner: arm a split on the first visit,
  /// and once armed, hand the split level's loop to merge_split when the
  /// backtrack is that level's own.
  Step on_split_watch(std::size_t depth, NodeId v, PeId p, NodeSet& cs,
                      SpaceResult& result) {
    if (serving_ != nullptr) {
      if (!serving_->stop.cancelled()) {
        if (options_.max_backtracks != 0) {
          options_.max_backtracks = std::max<std::uint64_t>(
              serving_->budget_left.load(std::memory_order_relaxed), 1);
        }
        return Step::kRefuted;
      }
      result.timed_out = true;
      result.deadline_expired = true;
      fail_level_ = -1;
      level_of_[static_cast<std::size_t>(v)] = -1;
      return Step::kStopped;
    }
    if (split_ == nullptr) {
      arm_split(depth, p, result);
      if (split_ == nullptr) return Step::kRefuted;
    }
    share_budget_left(result);
    if (static_cast<int>(depth) != split_->depth) return Step::kRefuted;
    const Step s = merge_split(depth, v, cs, result);
    finish_split();
    return s;
  }

  /// The candidates search() tried at active level k, in the order it
  /// tried them, rebuilt from the domain of the level's node v: no
  /// propagation touches it while v stays placed. The depth-0 pin, octant
  /// and the window filter apply as they did there; levels that search()
  /// sorted in the candidate arena (multi-word or sparse) read their
  /// slice.
  std::vector<PeId> level_candidates(int k, NodeId v,
                                     const SpaceResult& result) const {
    const Dom& dom = domain_[static_cast<std::size_t>(v)];
    if (k == 0 && result.root_pinned) {
      return {assignment_[static_cast<std::size_t>(v)]};
    }
    std::vector<PeId> list;
    if (window_) {
      dom.for_each([&](int p) {
        if (window_culprit(box_[static_cast<std::size_t>(k)], p) ==
            kInvalidNode) {
          list.push_back(p);
        }
      });
    } else {
      const bool octant = k == 0 && use_octant_ && dom.intersects(canonical_);
      dom.for_each([&](int p) {
        if (!octant || canonical_.test(p)) list.push_back(p);
      });
    }
    if (!kWordDomains || use_sparse_) {
      // The sorted order search() used (sparse or rank).
      const PeId* slice = cand_arena_.get() +
                          static_cast<std::size_t>(k) *
                              static_cast<std::size_t>(num_pes_);
      list.assign(slice, slice + list.size());
    }
    return list;
  }

  /// The watch fired, at a backtrack at `depth` (p the candidate just
  /// refuted there), and no split is live. Find the first branching level
  /// d: the levels above it had one candidate each (the pin or a forced
  /// one). Hand its candidates after the one in progress to as many
  /// helpers as there are idle cores.
  void arm_split(std::size_t depth, PeId p, const SpaceResult& result) {
    split_watch_ = std::numeric_limits<std::uint64_t>::max();
    if (options_.max_backtracks != 0 &&
        result.backtracks >= options_.max_backtracks) {
      return;
    }
    const int idle = idle_split_helpers();
    if (idle <= 0) {
      // No idle core: look again kSplitAfterBacktracks backtracks later.
      split_watch_ = result.backtracks + kSplitAfterBacktracks;
      return;
    }
    std::vector<NodeId> at(depth + 1, kInvalidNode);
    for (NodeId u = 0; u < n_; ++u) {
      const int l = level_of_[static_cast<std::size_t>(u)];
      if (l >= 0 && l <= static_cast<int>(depth)) {
        at[static_cast<std::size_t>(l)] = u;
      }
    }
    int d = 0;
    std::vector<PeId> list;
    for (; d <= static_cast<int>(depth); ++d) {
      list = level_candidates(d, at[static_cast<std::size_t>(d)], result);
      if (list.size() >= 2) break;
    }
    if (d > static_cast<int>(depth)) return;
    const NodeId node = at[static_cast<std::size_t>(d)];
    const PeId current = d == static_cast<int>(depth)
                             ? p
                             : assignment_[static_cast<std::size_t>(node)];
    const auto it = std::find(list.begin(), list.end(), current);
    MONOMAP_ASSERT(it != list.end());
    std::vector<PeId> pending(it + 1, list.end());
    if (pending.empty()) return;
    std::vector<std::pair<NodeId, PeId>> forced;
    for (int k = 0; k < d; ++k) {
      const NodeId u = at[static_cast<std::size_t>(k)];
      forced.emplace_back(u, assignment_[static_cast<std::size_t>(u)]);
    }
    const std::uint64_t cap = options_.max_backtracks == 0
                                  ? 0
                                  : options_.max_backtracks - result.backtracks;
    const int runs = std::min(idle, static_cast<int>(pending.size()));
    split_ = std::make_unique<Split>(*this, d, node, std::move(forced),
                                     std::move(pending), cap);
    SplitPool::instance().submit(split_.get(), runs);
    split_watch_ = 0;
  }

  /// The split level's loop from here on: each remaining candidate in
  /// order, from its helper's report where one stands, else searched here.
  /// A report is applied as try_candidate's own outcome would have been;
  /// it stands unless it is missing, cut off, or does not hold in
  /// sequence under max_backtracks (report_stands).
  Step merge_split(std::size_t depth, NodeId v, NodeSet& cs,
                   SpaceResult& result) {
    Split& split = *split_;
    const int count = static_cast<int>(split.pending.size());
    for (int j = 0; j < count; ++j) {
      const Report* rep = nullptr;
      const int mine = split.claim(/*from_back=*/false);
      MONOMAP_ASSERT(mine < 0 || mine == j);
      if (mine < 0) {
        // A helper claimed it: wait for its report, busy, because waking
        // from a sleep took 40-90 us in a measurement, against searches
        // of a few hundred.
        Report& r = split.reports[static_cast<std::size_t>(j)];
        int state;
        for (unsigned step = 0;
             (state = r.state.load(std::memory_order_acquire)) ==
             Report::kPending;
             ++step) {
          relax(step);
        }
        if (state == Report::kDone) rep = &r;
      }
      if (rep != nullptr && !report_stands(*rep, result.backtracks)) {
        ++result.delegations_refused;
        rep = nullptr;
      }
      Step s;
      if (rep == nullptr) {
        s = try_candidate(depth, v,
                          split.pending[static_cast<std::size_t>(j)], cs,
                          result);
      } else {
        ++result.delegated_subtrees;
        s = apply_report(*rep, v, cs, result);
      }
      if (s != Step::kRefuted) return s;
      ++result.backtracks;
      share_budget_left(result);
    }
    return Step::kMerged;
  }

  /// Tell the split's helpers what the budget, if any, leaves.
  void share_budget_left(const SpaceResult& result) {
    if (options_.max_backtracks == 0) return;
    split_->budget_left.store(
        options_.max_backtracks > result.backtracks
            ? options_.max_backtracks - result.backtracks
            : 0,
        std::memory_order_relaxed);
  }

  /// Whether a report holds in sequence, after `before` backtracks: every
  /// budget check that passed in its subtree passes there too, and a
  /// subtree the helper's cap stopped stops at the same check in sequence.
  bool report_stands(const Report& rep, std::uint64_t before) const {
    const std::uint64_t max = options_.max_backtracks;
    if (max == 0) return true;
    const bool passed =
        rep.checked_at == kNoCheck || before + rep.checked_at <= max;
    return passed && (!rep.truncated || before + rep.backtracks > max);
  }

  /// A helper's report, applied as try_candidate's outcome.
  Step apply_report(const Report& rep, NodeId v, NodeSet& cs,
                    SpaceResult& result) {
    result.nodes_expanded += rep.nodes_expanded;
    result.backtracks += rep.backtracks;
    result.backjumps += rep.backjumps;
    result.max_depth = std::max(result.max_depth, rep.max_depth);
    result.shallowest_retreat =
        std::min(result.shallowest_retreat, rep.shallowest_retreat);
    trail_words_saved_ += rep.trail_words;
    words_touched_ += rep.words_touched;
    tiles_skipped_ += rep.tiles_skipped;
    mult_prunings_ += rep.mult_prunings;
    switch (rep.step) {
      case Step::kPlaced:
        assignment_ = rep.pe;
        if (window_) box_[static_cast<std::size_t>(n_)] = rep.box;
        return Step::kPlaced;
      case Step::kStopped:
        if (rep.truncated) {
          result.timed_out = true;
          result.truncated = true;
        } else {
          for (int w = 0; w < node_words_; ++w) {
            fail_set_.restore_word(w, rep.conflict.word(w));
          }
        }
        fail_level_ = rep.fail_level;
        level_of_[static_cast<std::size_t>(v)] = -1;
        return Step::kStopped;
      default:
        cs |= rep.conflict;
        return Step::kRefuted;
    }
  }

  /// Cancel the split, if any, and wait for its running helpers.
  void finish_split() {
    if (split_ == nullptr) return;
    split_->stop.cancel();
    SplitPool::instance().retire(split_.get());
    split_.reset();
    split_watch_ = std::numeric_limits<std::uint64_t>::max();
  }

  const Dfg& dfg_;
  const CgraArch& real_;     // the fabric the caller maps onto
  const CgraArch* fabric_;   // the one the domains live on: real_ or its
                             // pin fabric (plan_pin_fabric)
  const std::vector<int>& labels_;
  int ii_;
  SpaceOptions options_;
  const Deadline& deadline_;
  int n_;
  int num_pes_ = 0;     // fabric_'s
  int words_ = 0;       // words per PE set
  int node_words_ = 0;  // words per node set
  /// The tables the constructor builds and the search only reads. They
  /// are read through the spans below, which in a split helper view its
  /// owner's tables (own_ stays empty there): the owner joins every
  /// helper before it is destroyed (finish_split).
  struct Tables {
    std::vector<std::vector<NodeId>> neighbors;
    std::vector<std::vector<D2Pair>> dist2;
    std::vector<NodeId> d2_witness_pool;
    std::vector<const std::vector<PeSet>*> d2k_masks;
    std::vector<WordSet> closed_tab;
    std::vector<WordSet> d2_tab;
    std::vector<int> degree_of;
    std::vector<NodeId> order;
  };
  Tables own_;
  std::span<const std::vector<NodeId>> neighbors_;
  /// Per node: every node at undirected DFG distance exactly 2, with the
  /// first-discovered witness and the same-label multiplicity evidence.
  std::span<const std::vector<D2Pair>> dist2_;
  /// Backing store for the D2Pair same-label witness groups (mult >= 2).
  std::span<const NodeId> d2_witness_pool_;
  /// (*d2k_masks_[k])[p] == fabric_->common_target_mask(p, k); fetched from
  /// the arch's memo only for the multiplicities k >= 2 this DFG contains,
  /// when use_mult_ (nullptr for absent levels).
  std::span<const std::vector<PeSet>* const> d2k_masks_;
  // One-word domains: closed_neighbor_mask and distance2_mask per domain
  // bit, as flat rank-numbered words (closed_mask, ball_mask); empty
  // otherwise.
  std::span<const WordSet> closed_tab_;
  std::span<const WordSet> d2_tab_;
  int max_mult_ = 0;      // largest same-label witness-group size seen
  bool use_mult_ = false; // multiplicity filter armed (toggle && mult >= 2)
  int num_tiles_ = 0;     // occupancy tiles per domain
  bool tile_skip_ = false;   // tile skipping armed for this run
  simd::HotKernels hk_{};    // dispatch hoisted out of the per-tile loops
  bool use_sparse_ = false;  // sparse ordering armed (kSparseMrv, or auto)
  std::uint64_t mult_prunings_ = 0;
  std::uint64_t trail_words_saved_ = 0;
  std::uint64_t tiles_skipped_ = 0;   // tiles occupancy let us skip
  std::uint64_t words_touched_ = 0;   // domain words propagation touched
  std::vector<PeId> assignment_;
  std::vector<int> mapped_neighbor_count_;
  std::span<const int> degree_of_;  // |undirected_neighbors(v)|, flattened
  std::vector<int> level_of_;      // decision level per node; -1 unassigned
  // Unassigned nodes with >= 1 placed neighbour (mapped_neighbor_count_
  // > 0), maintained on assign/undo. select_node iterates this instead of
  // the whole unassigned list whenever it is non-empty.
  NodeSet frontier_;
  // Unassigned-node lists (dancing links; see init_state). un_* is the
  // global ascending-id list with its sentinel at index n_; lab_* chains
  // each label's nodes in ascending id with per-label sentinels at
  // n_ + label.
  std::vector<NodeId> un_next_;
  std::vector<NodeId> un_prev_;
  std::vector<NodeId> lab_next_;
  std::vector<NodeId> lab_prev_;
  std::vector<Dom> domain_;
  // Exact per-node |domain| memo for select_node (-1 = stale; see
  // cached_domain_count). mutable: reads recompute lazily from const paths.
  mutable std::vector<int> count_cache_;
  std::vector<NodeSet> pruners_;   // per node: who pruned its domain
  std::vector<NodeSet> cs_stack_;  // conflict set per decision level
  NodeSet fail_set_;               // conflict set of the failure in flight
  int fail_level_ = -1;            // level that failure resumes at
  std::vector<TrailEntry> trail_;
  std::size_t trail_reserved_ = 0;
  std::vector<TileTrailEntry> tile_trail_;  // tiled-layout undo snapshots
  std::size_t tile_trail_reserved_ = 0;
  std::vector<TrailEntry> pruner_trail_;
  std::size_t pruner_trail_reserved_ = 0;
  ResourceGovernor* gov_ = nullptr;  // bound scope at construction time
  std::size_t gov_charged_ = 0;      // trail reservation bytes charged
  bool gov_denied_ = false;          // reservation refused: run() aborts
  // Rank of each PE in the global value order (interior-first, the arch's
  // memoised table), and on one-word domains its inverse, the PE per rank.
  const int* value_rank_ = nullptr;
  const PeId* value_order_ = nullptr;
  std::unique_ptr<PeId[]> cand_arena_;  // per-depth candidate buffers
  std::span<const NodeId> order_;   // static variable order, if any
  bool use_octant_ = false;         // depth 0 prefers canonical_
  Dom canonical_;
  // Translation pin (translation_pin): the pinned depth-0 node and its
  // eccentricity, and the BFS buffers it and widen_certificate share.
  NodeId root_ = kInvalidNode;
  int root_ecc_ = 0;
  // Pin fabric (plan_pin_fabric): search there with the root at its
  // centre, under the window; box_[d] per depth when armed.
  bool window_ = false;
  std::vector<Box> box_;
  std::vector<int> bfs_dist_;
  std::vector<NodeId> bfs_parent_;
  std::vector<NodeId> bfs_queue_;
  // Parallel split (branch, arm_split): the backtrack count at which the
  // watch next calls on_split_watch, the live split this searcher owns,
  // the split a helper serves, and the last backtrack count the budget
  // check saw.
  std::uint64_t split_watch_ = std::numeric_limits<std::uint64_t>::max();
  std::unique_ptr<Split> split_;
  const Split* serving_ = nullptr;
  std::uint64_t budget_checked_at_ = kNoCheck;
};

template <typename NodeSet, typename Dom>
BitsetSearcher<NodeSet, Dom>::BitsetSearcher(const BitsetSearcher& owner,
                                             const Split& split)
    : dfg_(owner.dfg_),
      real_(owner.real_),
      fabric_(owner.fabric_),
      labels_(owner.labels_),
      ii_(owner.ii_),
      options_(owner.options_),
      deadline_(split.deadline),
      n_(owner.n_),
      num_pes_(owner.num_pes_),
      words_(owner.words_),
      node_words_(owner.node_words_),
      neighbors_(owner.neighbors_),
      dist2_(owner.dist2_),
      d2_witness_pool_(owner.d2_witness_pool_),
      d2k_masks_(owner.d2k_masks_),
      closed_tab_(owner.closed_tab_),
      d2_tab_(owner.d2_tab_),
      max_mult_(owner.max_mult_),
      use_mult_(owner.use_mult_),
      num_tiles_(owner.num_tiles_),
      tile_skip_(owner.tile_skip_),
      hk_(owner.hk_),
      use_sparse_(owner.use_sparse_),
      degree_of_(owner.degree_of_),
      value_rank_(owner.value_rank_),
      value_order_(owner.value_order_),
      order_(owner.order_),
      use_octant_(owner.use_octant_),
      canonical_(owner.canonical_),
      root_(owner.root_),
      root_ecc_(owner.root_ecc_),
      window_(owner.window_),
      split_watch_(0),
      serving_(&split) {
  options_.max_backtracks = split.cap;
  init_state();
}

template <typename NodeSet, typename Dom>
void BitsetSearcher<NodeSet, Dom>::replay(const Split& split) {
  SpaceResult unused;
  if (options_.distance2_filter) {
    const bool kept = apply_root_degree_filter(unused);
    MONOMAP_ASSERT(kept);
  }
  for (std::size_t k = 0; k < split.forced.size(); ++k) {
    const auto [u, p] = split.forced[k];
    level_of_[static_cast<std::size_t>(u)] = static_cast<int>(k);
    assignment_[static_cast<std::size_t>(u)] = p;
    if (window_) box_[k + 1] = extend(box_[k], u, p);
    unlink_node(u);
    frontier_.reset(u);
    const NodeId wiped = propagate_assign(u, p);
    MONOMAP_ASSERT(wiped == kInvalidNode);
  }
}

// --- reference engine ------------------------------------------------------

/// The original scan-based searcher (RI/VF3 style): candidate sets recounted
/// from adjacency lists at every step. Kept verbatim as the independent
/// oracle for differential testing.
class ReferenceSearcher {
 public:
  ReferenceSearcher(const Dfg& dfg, const CgraArch& arch,
                    const std::vector<int>& labels, int ii,
                    const SpaceOptions& options, const Deadline& deadline)
      : dfg_(dfg),
        arch_(arch),
        labels_(labels),
        ii_(ii),
        options_(options),
        deadline_(deadline),
        neighbors_(static_cast<std::size_t>(dfg.num_nodes())),
        assignment_(static_cast<std::size_t>(dfg.num_nodes()), -1),
        used_(static_cast<std::size_t>(arch.num_pes()) *
                  static_cast<std::size_t>(ii),
              false) {
    for (NodeId v = 0; v < dfg_.num_nodes(); ++v) {
      neighbors_[static_cast<std::size_t>(v)] =
          dfg_.graph().undirected_neighbors(v);
    }
  }

  SpaceResult run() {
    SpaceResult result;
    Stopwatch watch;
    if (!check_labels(dfg_, arch_, labels_, ii_, result)) {
      result.seconds = watch.elapsed_s();
      return result;
    }
    if (options_.model == MrrgModel::kConsecutiveOnly &&
        !check_slot_adjacency(dfg_, labels_, ii_, result)) {
      result.seconds = watch.elapsed_s();
      return result;
    }
    result.shallowest_retreat = dfg_.num_nodes() + 1;
    // kSparseMrv runs as plain dynamic MRV here: the sparse heuristics are
    // bitset-engine tuning, and since any ordering is complete the oracle
    // still agrees on found/not-found — which is what the differential
    // tests check.
    const bool found =
        is_dynamic_order(options_.order)
            ? (prepare_dynamic(), search_dynamic(0, result))
            : (order_ = build_static_order(dfg_, neighbors_, options_.order),
               search(0, result));
    result.found = found;
    if (found) {
      result.pe = assignment_;
    } else if (result.failure_reason.empty()) {
      result.failure_reason = result.timed_out ? "search budget exhausted"
                                               : "search space exhausted";
      if (!result.timed_out) {
        // The scan engine keeps no touched-set bookkeeping; the full node
        // set is the (trivially sound) conflict explanation.
        for (NodeId v = 0; v < dfg_.num_nodes(); ++v) {
          result.conflict_nodes.push_back(v);
        }
      }
    }
    result.seconds = watch.elapsed_s();
    return result;
  }

 private:
  [[nodiscard]] bool slot_used(PeId pe, int slot) const {
    return used_[static_cast<std::size_t>(slot) *
                     static_cast<std::size_t>(arch_.num_pes()) +
                 static_cast<std::size_t>(pe)];
  }
  void set_slot(PeId pe, int slot, bool value) {
    used_[static_cast<std::size_t>(slot) *
              static_cast<std::size_t>(arch_.num_pes()) +
          static_cast<std::size_t>(pe)] = value;
  }

  /// Count candidates of `v`, stopping once `limit` is reached (the MRV
  /// selection only needs "fewer than the current best?").
  std::size_t count_candidates(NodeId v, std::size_t limit) const {
    const int label = labels_[static_cast<std::size_t>(v)];
    PeId anchor = -1;
    for (const NodeId u : neighbors_[static_cast<std::size_t>(v)]) {
      if (assignment_[static_cast<std::size_t>(u)] >= 0) {
        anchor = assignment_[static_cast<std::size_t>(u)];
        break;
      }
    }
    std::size_t count = 0;
    if (anchor >= 0) {
      for (const PeId p : arch_.closed_neighbors(anchor)) {
        if (pe_compatible(v, p, label) && ++count >= limit) break;
      }
    } else {
      for (PeId p = 0; p < arch_.num_pes(); ++p) {
        if (pe_compatible(v, p, label) && ++count >= limit) break;
      }
    }
    return count;
  }

  /// The single compatibility predicate both candidate enumeration and MRV
  /// counting share: p's slot at v's label is free, every assigned
  /// neighbour is adjacent-or-same, and same-PE placement only happens
  /// across distinct label layers.
  [[nodiscard]] bool pe_compatible(NodeId v, PeId p, int label) const {
    if (slot_used(p, label)) return false;
    for (const NodeId u : neighbors_[static_cast<std::size_t>(v)]) {
      const PeId q = assignment_[static_cast<std::size_t>(u)];
      if (q < 0) continue;
      if (!arch_.adjacent_or_same(p, q)) return false;
      if (p == q && labels_[static_cast<std::size_t>(u)] == label) {
        return false;
      }
    }
    return true;
  }

  /// Candidate PEs for `v` given current assignment, cheapest filters first.
  void candidates(NodeId v, std::vector<PeId>& out) const {
    out.clear();
    const int label = labels_[static_cast<std::size_t>(v)];
    PeId anchor = -1;
    for (const NodeId u : neighbors_[static_cast<std::size_t>(v)]) {
      if (assignment_[static_cast<std::size_t>(u)] >= 0) {
        anchor = assignment_[static_cast<std::size_t>(u)];
        break;
      }
    }
    if (anchor >= 0) {
      for (const PeId p : arch_.closed_neighbors(anchor)) {
        if (pe_compatible(v, p, label)) out.push_back(p);
      }
    } else {
      for (PeId p = 0; p < arch_.num_pes(); ++p) {
        if (pe_compatible(v, p, label)) out.push_back(p);
      }
    }
    // Interior-first value order.
    std::stable_sort(out.begin(), out.end(), [&](PeId a, PeId b) {
      return arch_.closed_neighbors(a).size() >
             arch_.closed_neighbors(b).size();
    });
  }

  /// Cheap forward check: every unmapped neighbour of v must retain at least
  /// one available PE adjacent to v's placement.
  [[nodiscard]] bool neighbors_still_placeable(NodeId v) const {
    const PeId pv = assignment_[static_cast<std::size_t>(v)];
    for (const NodeId u : neighbors_[static_cast<std::size_t>(v)]) {
      if (assignment_[static_cast<std::size_t>(u)] >= 0) continue;
      const int lu = labels_[static_cast<std::size_t>(u)];
      bool open = false;
      for (const PeId q : arch_.closed_neighbors(pv)) {
        if (!slot_used(q, lu)) {
          open = true;
          break;
        }
      }
      if (!open) return false;
    }
    return true;
  }

  bool search(std::size_t depth, SpaceResult& result) {
    if (depth == order_.size()) return true;
    ++result.nodes_expanded;
    if (static_cast<int>(depth) + 1 > result.max_depth) {
      result.max_depth = static_cast<int>(depth) + 1;
    }
    if ((result.nodes_expanded & 0xFFF) == 0 && deadline_.expired()) {
      result.timed_out = true;
      result.deadline_expired = true;
      return false;
    }
    if (options_.max_backtracks != 0 &&
        result.backtracks > options_.max_backtracks) {
      result.timed_out = true;
      result.truncated = true;
      return false;
    }
    const NodeId v = order_[depth];
    std::vector<PeId> cands;
    candidates(v, cands);
    if (depth == 0 && options_.symmetry_breaking) {
      restrict_to_canonical(cands);
    }
    const int label = labels_[static_cast<std::size_t>(v)];
    for (const PeId p : cands) {
      assignment_[static_cast<std::size_t>(v)] = p;
      set_slot(p, label, true);
      if (!options_.forward_check || neighbors_still_placeable(v)) {
        if (search(depth + 1, result)) return true;
        if (result.timed_out) {
          // unwind without counting further backtracks
          assignment_[static_cast<std::size_t>(v)] = -1;
          set_slot(p, label, false);
          return false;
        }
      }
      assignment_[static_cast<std::size_t>(v)] = -1;
      set_slot(p, label, false);
      ++result.backtracks;
    }
    if (static_cast<int>(depth) - 1 < result.shallowest_retreat) {
      result.shallowest_retreat = static_cast<int>(depth) - 1;
    }
    return false;
  }

  void prepare_dynamic() {
    mapped_neighbor_count_.assign(
        static_cast<std::size_t>(dfg_.num_nodes()), 0);
  }

  /// Dynamic minimum-remaining-values search: at every depth pick the
  /// unmapped node with the fewest compatible PEs (preferring nodes already
  /// adjacent to the mapped region), recomputing candidate sets as the
  /// mapping grows. Dead ends (a node with zero candidates) are detected
  /// the moment they appear — much stronger pruning than a static order on
  /// hub-heavy DFGs like hotspot3D.
  bool search_dynamic(std::size_t depth, SpaceResult& result) {
    const std::size_t n = static_cast<std::size_t>(dfg_.num_nodes());
    if (depth == n) return true;
    ++result.nodes_expanded;
    if (static_cast<int>(depth) + 1 > result.max_depth) {
      result.max_depth = static_cast<int>(depth) + 1;
    }
    if ((result.nodes_expanded & 0xFFF) == 0 && deadline_.expired()) {
      result.timed_out = true;
      result.deadline_expired = true;
      return false;
    }
    if (options_.max_backtracks != 0 &&
        result.backtracks > options_.max_backtracks) {
      result.timed_out = true;
      result.truncated = true;
      return false;
    }
    // Select the most constrained node: prefer frontier nodes (those with
    // mapped neighbours); among them minimise candidate count, break ties
    // by higher degree. A zero-candidate frontier node forces an immediate
    // backtrack.
    NodeId best = kInvalidNode;
    std::size_t best_cands = 0;
    bool best_frontier = false;
    for (NodeId v = 0; v < dfg_.num_nodes(); ++v) {
      if (assignment_[static_cast<std::size_t>(v)] >= 0) continue;
      const bool frontier =
          mapped_neighbor_count_[static_cast<std::size_t>(v)] > 0;
      if (best != kInvalidNode && best_frontier && !frontier) continue;
      // Counting is capped: we only care whether v beats the current best.
      const std::size_t cap =
          (best == kInvalidNode || (frontier && !best_frontier))
              ? static_cast<std::size_t>(arch_.num_pes())
              : best_cands + 1;
      const std::size_t count =
          count_candidates(v, std::max<std::size_t>(cap, 1));
      if (frontier && count == 0) {
        ++result.backtracks;
        if (static_cast<int>(depth) - 1 < result.shallowest_retreat) {
          result.shallowest_retreat = static_cast<int>(depth) - 1;
        }
        return false;  // dead end: some neighbour choice was wrong
      }
      const bool better =
          best == kInvalidNode || (frontier && !best_frontier) ||
          (frontier == best_frontier &&
           (count < best_cands ||
            (count == best_cands &&
             neighbors_[static_cast<std::size_t>(v)].size() >
                 neighbors_[static_cast<std::size_t>(best)].size())));
      if (better) {
        best = v;
        best_cands = count;
        best_frontier = frontier;
      }
    }
    MONOMAP_ASSERT(best != kInvalidNode);
    std::vector<PeId> cands;
    candidates(best, cands);
    if (depth == 0 && options_.symmetry_breaking) {
      restrict_to_canonical(cands);
    }
    const int label = labels_[static_cast<std::size_t>(best)];
    for (const PeId p : cands) {
      assignment_[static_cast<std::size_t>(best)] = p;
      set_slot(p, label, true);
      for (const NodeId u : neighbors_[static_cast<std::size_t>(best)]) {
        ++mapped_neighbor_count_[static_cast<std::size_t>(u)];
      }
      if (search_dynamic(depth + 1, result)) return true;
      for (const NodeId u : neighbors_[static_cast<std::size_t>(best)]) {
        --mapped_neighbor_count_[static_cast<std::size_t>(u)];
      }
      assignment_[static_cast<std::size_t>(best)] = -1;
      set_slot(p, label, false);
      if (result.timed_out) return false;
      ++result.backtracks;
    }
    if (static_cast<int>(depth) - 1 < result.shallowest_retreat) {
      result.shallowest_retreat = static_cast<int>(depth) - 1;
    }
    return false;
  }

  /// Restrict the first placement to one symmetry octant of a square mesh.
  void restrict_to_canonical(std::vector<PeId>& cands) const {
    if (!symmetry_applicable(arch_)) return;
    std::vector<PeId> filtered;
    for (const PeId p : cands) {
      if (in_canonical_octant(arch_, p)) filtered.push_back(p);
    }
    if (!filtered.empty()) {
      cands = std::move(filtered);
    }
  }

  const Dfg& dfg_;
  const CgraArch& arch_;
  const std::vector<int>& labels_;
  int ii_;
  SpaceOptions options_;
  const Deadline& deadline_;
  std::vector<std::vector<NodeId>> neighbors_;
  std::vector<NodeId> order_;
  std::vector<PeId> assignment_;
  std::vector<bool> used_;
  std::vector<int> mapped_neighbor_count_;  // dynamic-MRV bookkeeping
};

}  // namespace

int space_split_helpers() { return split_helper_count(); }

SpaceResult find_monomorphism(const Dfg& dfg, const CgraArch& arch,
                              const std::vector<int>& labels, int ii,
                              const SpaceOptions& options,
                              const Deadline& deadline) {
  MONOMAP_ASSERT(static_cast<int>(labels.size()) == dfg.num_nodes());
  MONOMAP_ASSERT(ii >= 1);
  fault::maybe_inject("space.search");
  const BusyScope busy;
  if (options.engine == SpaceEngine::kReference) {
    return ReferenceSearcher(dfg, arch, labels, ii, options, deadline).run();
  }
  // Node sets and candidate domains take one word each wherever they fit:
  // at most 64 nodes, and at most 64 PEs (where neither the pin fabric nor
  // the multiplicity filter arms). The search and its trace are the same.
  if (dfg.num_nodes() > WordSet::kBits) {
    return BitsetSearcher<PeSet, PeSet>(dfg, arch, labels, ii, options,
                                        deadline)
        .run();
  }
  if (arch.num_pes() > WordSet::kBits) {
    return BitsetSearcher<WordSet, PeSet>(dfg, arch, labels, ii, options,
                                          deadline)
        .run();
  }
  return BitsetSearcher<WordSet, WordSet>(dfg, arch, labels, ii, options,
                                          deadline)
      .run();
}

}  // namespace monomap
