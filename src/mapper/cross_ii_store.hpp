// Cross-II nogood store: slot-partition certificates shared between the
// speculative mapper's II attempts.
//
// A space refutation at II says "this subset of nodes can never jointly
// occupy these kernel slots". Under MrrgModel::kRegisterPersistence the
// spatial sub-problem restricted to those nodes depends only on the slot
// *partition* they induce — capacity wants distinct PEs per same-label
// group and the MRRG adjacency never reads label values — and *merging*
// partition blocks only adds same-slot constraints, i.e. only tightens.
// So the refutation generalises far beyond the II it was found at:
//
//   Any schedule, at ANY II, whose labels restricted to the conflict
//   nodes induce a partition equal to or coarser than the certificate's
//   is spatially infeasible.
//
// (PR 5's within-II rotation lifting is the special case where the
// relabelling is a cyclic rotation at the same II. The consecutive-only
// model is excluded: there cyclic label *distances* matter and they change
// with II, so certificates must not cross II boundaries.)
//
// The store keeps one canonical certificate per distinct partition and
// hands them to other II attempts two ways:
//  * eager clauses — drain() + instantiate_rotations(): the II' cyclic
//    rotations of the source slots are sound at II' (equal source slots
//    stay equal; a collision of distinct slots mod II' is a block merge —
//    coarser, still infeasible) and drop into TimeSession as ordinary
//    label nogoods, so the speculative SAT search starts warm;
//  * a prefilter — cert_hits_labels(): the full arbitrary-permutation
//    check (every block monochromatic in the candidate schedule) applied
//    to each yielded schedule, catching the relabellings the rotation
//    clauses cannot express without exponentially many clauses.
//
// Thread-safe: add() and drain() take an internal mutex; certificates are
// returned by value so readers never alias store internals.
#ifndef MONOMAP_MAPPER_CROSS_II_STORE_HPP
#define MONOMAP_MAPPER_CROSS_II_STORE_HPP

#include <cstddef>
#include <deque>
#include <mutex>
#include <set>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "support/resource.hpp"

namespace monomap {

/// A space refutation abstracted to what made it infeasible: the conflict
/// nodes partitioned by the kernel slot they shared, in canonical form
/// (nodes ascending within a block, blocks ascending by first node).
struct SlotPartitionCert {
  int source_ii = 0;
  std::vector<std::vector<NodeId>> blocks;
  /// The source schedule's slot per block (aligned with `blocks`); kept so
  /// rotation instantiation at another II reproduces concrete placements.
  std::vector<int> block_slots;
};

/// Put `cert` in canonical form: nodes ascending within each block, blocks
/// ascending by first node, block_slots kept aligned with the blocks.
void canonicalize(SlotPartitionCert& cert);

/// True when `labels` (full per-node label vector) realises the
/// certificate's partition or a coarsening of it — i.e. every block is
/// monochromatic. Such a schedule is spatially infeasible; the space
/// search need not run.
bool cert_hits_labels(const SlotPartitionCert& cert,
                      const std::vector<int>& labels);

/// Instantiate the certificate at `target_ii` as concrete (node, slot)
/// placement sets: one per cyclic rotation k, mapping block b to slot
/// (block_slots[b] + k) mod target_ii. Each returned set is a sound label
/// nogood at target_ii (see file comment for why collisions stay sound).
std::vector<std::vector<std::pair<NodeId, int>>> instantiate_rotations(
    const SlotPartitionCert& cert, int target_ii);

/// Thread-safe accumulator of slot-partition certificates, shared by every
/// II attempt of one speculative map() call. Append-only; readers poll new
/// certificates with a cursor so repeated drains are incremental.
class CrossIiNogoodStore {
 public:
  CrossIiNogoodStore() = default;
  ~CrossIiNogoodStore();
  CrossIiNogoodStore(const CrossIiNogoodStore&) = delete;
  CrossIiNogoodStore& operator=(const CrossIiNogoodStore&) = delete;

  /// Record the refutation of `nodes` under `labels` (full per-node label
  /// vector) found at `source_ii`. Returns true when the induced partition
  /// was new, false when an identical certificate was already stored.
  bool add(int source_ii, const std::vector<NodeId>& nodes,
           const std::vector<int>& labels);

  /// Insert an already-canonical certificate (blocks sorted internally and
  /// ordered by first node) — the KnowledgeStore seeding path, which
  /// replays certificates learned by previous requests. Pass source_ii = 0
  /// ("foreign") so every attempt instantiates its rotation clauses: the
  /// skip-own-II shortcut in the mapping loop assumes same-II certificates
  /// were already lifted by the session that learned them, which is false
  /// for seeded ones. Returns false on duplicate partition.
  bool add_cert(SlotPartitionCert cert);

  /// Append every certificate added since `*cursor` to `out` and advance
  /// the cursor. A fresh cursor of 0 drains the full store. Certificates
  /// evicted under memory pressure before this reader reached them are
  /// silently skipped (losing a nogood costs search effort, never
  /// soundness).
  void drain(std::size_t* cursor, std::vector<SlotPartitionCert>* out) const;

  /// Bind the request's memory governor: each stored certificate is
  /// charged, and a denied charge evicts oldest-first before giving up.
  /// Call before the store is shared across threads.
  void set_governor(ResourceGovernor* governor);

  [[nodiscard]] std::size_t size() const;
  /// Certificates evicted under memory pressure since construction.
  [[nodiscard]] std::size_t evicted() const;

 private:
  [[nodiscard]] static std::size_t cert_bytes(const SlotPartitionCert& cert);
  void evict_front_locked();

  mutable std::mutex m_;
  // A deque plus a monotone base offset: drain() cursors are *virtual*
  // indices (base_ + deque position), so evicting from the front never
  // shifts a reader's cursor onto a certificate it already consumed.
  std::deque<SlotPartitionCert> certs_;
  std::size_t base_ = 0;
  // Canonical partitions already stored (block_slots excluded: two
  // refutations inducing the same partition are the same knowledge).
  // Evicted partitions stay in this set: re-adding an evicted certificate
  // would just be re-charged and re-evicted under the same pressure.
  std::set<std::vector<std::vector<NodeId>>> seen_;
  ResourceGovernor* gov_ = nullptr;
  std::size_t gov_charged_ = 0;
  std::size_t evicted_ = 0;
};

}  // namespace monomap

#endif  // MONOMAP_MAPPER_CROSS_II_STORE_HPP
