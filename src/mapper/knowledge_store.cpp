#include "mapper/knowledge_store.hpp"

#include <algorithm>
#include <utility>

#include "mapper/mapping.hpp"

namespace monomap {
namespace {

std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  return mix64(h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2)));
}

}  // namespace

std::uint64_t options_fingerprint(const DecoupledMapperOptions& options) {
  std::uint64_t h = 0x5049'4e4e'4544'2121ULL;
  h = fold(h, static_cast<std::uint64_t>(options.space.model));
  const TimeConstraintOptions& c = options.time.constraints;
  h = fold(h, (static_cast<std::uint64_t>(c.dependencies) << 0) |
                  (static_cast<std::uint64_t>(c.capacity) << 1) |
                  (static_cast<std::uint64_t>(c.connectivity) << 2) |
                  (static_cast<std::uint64_t>(c.strict_connectivity) << 3) |
                  (static_cast<std::uint64_t>(c.consecutive_slots) << 4));
  h = fold(h, static_cast<std::uint64_t>(options.time.max_horizon_extension));
  h = fold(h, static_cast<std::uint64_t>(options.time.engine));
  h = fold(h, static_cast<std::uint64_t>(options.max_ii));
  const SpaceOptions& s = options.space;
  h = fold(h, static_cast<std::uint64_t>(s.engine));
  h = fold(h, static_cast<std::uint64_t>(s.order));
  h = fold(h, (static_cast<std::uint64_t>(s.forward_check) << 0) |
                  (static_cast<std::uint64_t>(s.symmetry_breaking) << 1) |
                  (static_cast<std::uint64_t>(s.distance2_filter) << 2) |
                  (static_cast<std::uint64_t>(s.distance2_multiplicity) << 3) |
                  (static_cast<std::uint64_t>(s.backjumping) << 4));
  h = fold(h, s.max_backtracks);
  h = fold(h, static_cast<std::uint64_t>(options.anytime));
  h = fold(h, static_cast<std::uint64_t>(options.max_schedules));
  h = fold(h, static_cast<std::uint64_t>(options.memory_budget_mb));
  return h;
}

std::size_t KnowledgeStore::KeyHash::operator()(const Key& k) const {
  std::uint64_t h = fold(k.arch_fp, k.dfg_hi);
  h = fold(h, k.dfg_lo);
  h = fold(h, k.options_fp);
  return static_cast<std::size_t>(h);
}

KnowledgeStore::KnowledgeStore() : KnowledgeStore(Options{}) {}

KnowledgeStore::KnowledgeStore(Options options)
    : options_(options), governor_(options.memory_budget_mb << 20) {}

KnowledgeStore::Stripe& KnowledgeStore::stripe_for(const Key& key) {
  return stripes_[KeyHash{}(key) % kStripes];
}

KnowledgeStore::Key KnowledgeStore::memo_key(
    const DfgFingerprint& fp, std::uint64_t arch_fp,
    const DecoupledMapperOptions& options) {
  Key key;
  key.arch_fp = arch_fp;
  key.options_fp = options_fingerprint(options);
  if (fp.canonical) {
    key.dfg_hi = fp.iso_hi;
    key.dfg_lo = fp.iso_lo;
  } else {
    // No transfer permutation: degrade to exact identity, tagged so an
    // exact hash can never alias an iso hash.
    key.dfg_hi = fp.exact;
    key.dfg_lo = ~std::uint64_t{0};
  }
  return key;
}

std::optional<MapResult> KnowledgeStore::lookup(
    const Dfg& dfg, const CgraArch& arch, const DfgFingerprint& fp,
    std::uint64_t arch_fp, const DecoupledMapperOptions& options) {
  const Key key = memo_key(fp, arch_fp, options);
  Stripe& stripe = stripe_for(key);
  MemoEntry snapshot;
  {
    const std::lock_guard<std::mutex> lock(stripe.m);
    auto it = stripe.memo.find(key);
    if (it == stripe.memo.end()) {
      memo_misses_.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
    stripe.lru.splice(stripe.lru.begin(), stripe.lru, it->second.lru);
    snapshot = it->second;  // copy out; validate outside the lock
  }
  if (snapshot.num_nodes != dfg.num_nodes() ||
      snapshot.num_edges != dfg.num_edges()) {
    memo_invalid_.fetch_add(1, std::memory_order_relaxed);
    memo_misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  // Translate canonical -> this request's node ids. Non-canonical entries
  // were stored with the identity permutation against the exact key, so
  // the ids already line up.
  const std::size_t n = static_cast<std::size_t>(dfg.num_nodes());
  std::vector<int> time(n);
  std::vector<PeId> pe(n);
  for (NodeId v = 0; v < dfg.num_nodes(); ++v) {
    const std::size_t ci =
        fp.canonical ? static_cast<std::size_t>(
                           fp.canon[static_cast<std::size_t>(v)])
                     : static_cast<std::size_t>(v);
    time[static_cast<std::size_t>(v)] = snapshot.time[ci];
    pe[static_cast<std::size_t>(v)] = snapshot.pe[ci];
  }
  MapResult result;
  result.mapping = Mapping(snapshot.ii, std::move(time), std::move(pe));
  if (!mapping_is_valid(dfg, arch, result.mapping, options.space.model)) {
    // Fingerprint collision (or automorphism mismatch): the cached answer
    // does not fit this graph. Served as a miss — soundness never rests on
    // hash uniqueness.
    memo_invalid_.fetch_add(1, std::memory_order_relaxed);
    memo_misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  result.success = true;
  result.outcome = MapOutcome::kFeasible;
  result.ii = snapshot.ii;
  result.mii = snapshot.mii;
  result.ii_refuted_up_to = snapshot.ii_refuted_up_to;
  result.ii_lo = std::max(1, snapshot.ii_refuted_up_to + 1);
  result.ii_hi = snapshot.ii;
  result.schedules_tried = 0;  // the hit costs no search
  result.causes.push_back({"memo", "served from the knowledge store"});
  memo_hits_.fetch_add(1, std::memory_order_relaxed);
  return result;
}

void KnowledgeStore::store(const Dfg& dfg, const DfgFingerprint& fp,
                           std::uint64_t arch_fp,
                           const DecoupledMapperOptions& options,
                           const MapResult& result) {
  if (result.outcome != MapOutcome::kFeasible || result.mapping.empty() ||
      result.mapping.num_nodes() != dfg.num_nodes()) {
    return;
  }
  const Key key = memo_key(fp, arch_fp, options);
  MemoEntry entry;
  entry.ii = result.ii;
  entry.mii = result.mii;
  entry.ii_refuted_up_to = result.ii_refuted_up_to;
  entry.num_nodes = dfg.num_nodes();
  entry.num_edges = dfg.num_edges();
  const std::size_t n = static_cast<std::size_t>(dfg.num_nodes());
  entry.time.resize(n);
  entry.pe.resize(n);
  for (NodeId v = 0; v < dfg.num_nodes(); ++v) {
    const std::size_t ci =
        fp.canonical ? static_cast<std::size_t>(
                           fp.canon[static_cast<std::size_t>(v)])
                     : static_cast<std::size_t>(v);
    entry.time[ci] = result.mapping.time(v);
    entry.pe[ci] = result.mapping.pe(v);
  }
  entry.bytes = sizeof(MemoEntry) + n * (sizeof(int) + sizeof(PeId)) + 64;

  Stripe& stripe = stripe_for(key);
  const std::lock_guard<std::mutex> lock(stripe.m);
  if (stripe.memo.count(key) != 0) {
    return;  // an equivalent answer is already cached
  }
  std::size_t evictions = 0;
  const std::size_t cap = options_.max_memo_entries / kStripes + 1;
  while (stripe.memo_count >= cap && !stripe.lru.empty()) {
    evict_lru_locked(stripe, &evictions);
  }
  bool charged = false;
  while (!(charged = governor_.try_charge(entry.bytes))) {
    if (stripe.lru.empty()) {
      break;  // nothing local to shed; skip the insert
    }
    evict_lru_locked(stripe, &evictions);
  }
  memo_evictions_.fetch_add(evictions, std::memory_order_relaxed);
  if (!charged) {
    return;
  }
  stripe.lru.push_front(key);
  entry.lru = stripe.lru.begin();
  stripe.memo.emplace(key, std::move(entry));
  ++stripe.memo_count;
  memo_stores_.fetch_add(1, std::memory_order_relaxed);
}

void KnowledgeStore::evict_lru_locked(Stripe& stripe, std::size_t* counter) {
  const Key victim = stripe.lru.back();
  auto it = stripe.memo.find(victim);
  if (it != stripe.memo.end()) {
    governor_.uncharge(it->second.bytes);
    stripe.memo.erase(it);
    --stripe.memo_count;
    ++*counter;
  }
  stripe.lru.pop_back();
}

KnowledgeStore::StatsSnapshot KnowledgeStore::stats() const {
  StatsSnapshot s;
  s.memo_hits = memo_hits_.load(std::memory_order_relaxed);
  s.memo_misses = memo_misses_.load(std::memory_order_relaxed);
  s.memo_stores = memo_stores_.load(std::memory_order_relaxed);
  s.memo_evictions = memo_evictions_.load(std::memory_order_relaxed);
  s.memo_invalid = memo_invalid_.load(std::memory_order_relaxed);
  s.bytes_used = governor_.used();
  s.bytes_peak = governor_.peak();
  return s;
}

}  // namespace monomap
