// Cross-request memo cache: the concurrently shared half of the mapper
// split (the per-request DecoupledMapper instance stays stateless).
//
// A bounded LRU cache of completed feasible MapResults, keyed by (arch
// fingerprint, canonical DFG fingerprint, options fingerprint) so
// isomorphic requests share entries. The options fingerprint covers every
// knob that shapes the answer; the wall deadline is deliberately excluded
// — it shapes *whether* an answer was found, and only completed feasible
// results are cached. The mapping is stored in canonical node space; a hit
// translates it through the requesting DFG's canonical permutation and
// re-validates, so a fingerprint collision costs a miss, never an invalid
// answer. Non-canonical fingerprints (canonicalisation budget blown)
// degrade to exact-identity keys.
//
// Lock-striped: keys hash to one of kStripes independent shards, each with
// its own mutex, map and LRU list, so concurrent requests on different
// DFGs never contend. Memory is accounted against an internal
// ResourceGovernor; a denied charge evicts LRU entries of the inserting
// stripe.
#ifndef MONOMAP_MAPPER_KNOWLEDGE_STORE_HPP
#define MONOMAP_MAPPER_KNOWLEDGE_STORE_HPP

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "mapper/decoupled_mapper.hpp"
#include "mapper/fingerprint.hpp"
#include "support/resource.hpp"

namespace monomap {

/// Hash of every option that shapes the ANSWER a mapper returns (engines,
/// models, constraint toggles, budgets, retry policy, anytime, schedule
/// caps...). timeout_s is excluded: only completed feasible results are
/// memoised, and those are deadline-independent. Two requests with equal
/// options fingerprints asking for the same (arch, DFG) get the same
/// answer, so the memo may serve one to the other.
std::uint64_t options_fingerprint(const DecoupledMapperOptions& options);

class KnowledgeStore {
 public:
  struct Options {
    /// Byte budget for everything the store retains; 0 = unlimited.
    std::size_t memory_budget_mb = 64;
    /// Hard cap on memo entries across all stripes (LRU beyond it).
    std::size_t max_memo_entries = 4096;
  };

  struct StatsSnapshot {
    std::uint64_t memo_hits = 0;
    std::uint64_t memo_misses = 0;
    std::uint64_t memo_stores = 0;
    std::uint64_t memo_evictions = 0;
    /// Hits rejected because the translated mapping failed validation
    /// (fingerprint collision or a stale entry) — served as misses.
    std::uint64_t memo_invalid = 0;
    /// Always 0: the store keeps no certificates or refuted-II floors. The
    /// fields stay for their one reader, perfbench/serve.cpp.
    std::uint64_t certs_published = 0;
    std::uint64_t floor_hits = 0;
    std::size_t bytes_used = 0;
    std::size_t bytes_peak = 0;
  };

  KnowledgeStore();  // default Options
  explicit KnowledgeStore(Options options);
  KnowledgeStore(const KnowledgeStore&) = delete;
  KnowledgeStore& operator=(const KnowledgeStore&) = delete;

  /// Look up a completed result for (arch, dfg, options). On a hit the
  /// cached canonical mapping is translated through `fp.canon` and
  /// re-validated against THIS dfg/arch; failure (collision) is a miss.
  std::optional<MapResult> lookup(const Dfg& dfg, const CgraArch& arch,
                                  const DfgFingerprint& fp,
                                  std::uint64_t arch_fp,
                                  const DecoupledMapperOptions& options);

  /// Memoise `result` when it is a completed feasible (non-degraded)
  /// mapping; anything else is ignored — deadline-shaped outcomes must
  /// not be served to other requests.
  void store(const Dfg& dfg, const DfgFingerprint& fp, std::uint64_t arch_fp,
             const DecoupledMapperOptions& options, const MapResult& result);

  [[nodiscard]] StatsSnapshot stats() const;

 private:
  struct Key {
    std::uint64_t arch_fp = 0;
    std::uint64_t dfg_hi = 0;
    std::uint64_t dfg_lo = 0;
    std::uint64_t options_fp = 0;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const;
  };

  /// A completed feasible mapping in canonical node space.
  struct MemoEntry {
    int ii = 0;
    MiiBreakdown mii;  // a hit reports the bounds the stored walk started at
    int ii_refuted_up_to = 0;
    int num_nodes = 0;
    int num_edges = 0;
    std::vector<int> time;  // canonical index -> absolute time
    std::vector<PeId> pe;   // canonical index -> PE
    std::list<Key>::iterator lru;
    std::size_t bytes = 0;
  };

  struct Stripe {
    mutable std::mutex m;
    std::unordered_map<Key, MemoEntry, KeyHash> memo;
    std::list<Key> lru;  // front = most recent
    std::size_t memo_count = 0;
  };

  static constexpr std::size_t kStripes = 16;

  Stripe& stripe_for(const Key& key);
  static Key memo_key(const DfgFingerprint& fp, std::uint64_t arch_fp,
                      const DecoupledMapperOptions& options);
  void evict_lru_locked(Stripe& stripe, std::size_t* counter);

  Options options_;
  ResourceGovernor governor_;
  Stripe stripes_[kStripes];

  std::atomic<std::uint64_t> memo_hits_{0};
  std::atomic<std::uint64_t> memo_misses_{0};
  std::atomic<std::uint64_t> memo_stores_{0};
  std::atomic<std::uint64_t> memo_evictions_{0};
  std::atomic<std::uint64_t> memo_invalid_{0};
};

}  // namespace monomap

#endif  // MONOMAP_MAPPER_KNOWLEDGE_STORE_HPP
