// Monomorphism search: spatial phase of the decoupled mapper (Sec. IV-C).
//
// Given a time solution (a slot label per DFG node), find an injective map
// from nodes to MRRG vertices (PE, slot) such that every node lands on its
// own label's layer and every DFG edge lands on an MRRG edge. Because the
// label layer of each node is fixed, this reduces to placing nodes on PEs:
//
//   * two nodes with equal labels need distinct PEs (mono1),
//   * adjacent DFG nodes need adjacent-or-same PEs (mono3, register-
//     persistence MRRG model),
//
// which is a labelled-subgraph-monomorphism search in the style of RI/VF3
// ([29],[30]). The default bitset engine additionally runs Glasgow-solver
// style supplemental distance-2 filtering (a DFG path u-w-v forces
// phi(u), phi(v) within two grid hops of each other) and conflict-directed
// backjumping: every domain wipeout remembers which placements pruned the
// wiped domain, exhausted nodes jump straight to the deepest culprit
// decision, and a completed refutation exports its final conflict set as a
// small, sound infeasibility certificate (SpaceResult::conflict_nodes).
#ifndef MONOMAP_SPACE_MONOMORPHISM_HPP
#define MONOMAP_SPACE_MONOMORPHISM_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "arch/cgra.hpp"
#include "arch/mrrg.hpp"
#include "ir/dfg.hpp"
#include "support/stopwatch.hpp"

namespace monomap {

/// Variable-ordering heuristic (ablation A3).
enum class SpaceOrder {
  kDynamicMrv,    // minimum-remaining-values, recomputed at every step
                  // (default: fail-first; subsumes forward checking)
  kConnectivity,  // static greatest-constraint-first (RI-style)
  kDegree,        // static by descending degree
  kBfs,           // breadth-first from the max-degree node
  kSparseMrv,     // dynamic dom/deg-weighted MRV + ball-center-out value
                  // ordering, tuned for giant sparse domains (bitset
                  // engine; the reference engine treats it as kDynamicMrv).
                  // Completeness-preserving: any variable/value order
                  // explores the same space, so found/not-found never
                  // changes, only search effort. kDynamicMrv auto-upgrades
                  // to this on fabrics of 256+ PEs unless
                  // SpaceOptions::sparse_order_auto is cleared.
};

const char* to_string(SpaceOrder order);

/// Search-engine implementation (both explore the same space and agree on
/// found/not-found for complete runs; see tests/space_engines_test.cpp).
enum class SpaceEngine {
  /// Bit-parallel candidate domains (one bitset per DFG node: one word up
  /// to 64 PEs, a PeSet above) updated incrementally on assign/unassign
  /// through a trail: MRV selection is a popcount, forward checking is
  /// domain-wipeout detection, and the steady-state recursion performs no
  /// heap allocation. Glasgow-solver style; the default.
  kBitset,
  /// The original scan-based searcher: per-step candidate recounts against
  /// adjacency lists. Kept as the independent oracle for differential
  /// testing and for the A3 ablation's forward-check toggle.
  kReference,
};

const char* to_string(SpaceEngine engine);

struct SpaceOptions {
  SpaceEngine engine = SpaceEngine::kBitset;
  SpaceOrder order = SpaceOrder::kDynamicMrv;
  MrrgModel model = MrrgModel::kRegisterPersistence;
  /// Reference engine only: cheap one-step lookahead. The bitset engine's
  /// domain propagation subsumes it and cannot be disabled.
  bool forward_check = true;
  /// Restrict the very first placement. On a square mesh or king mesh it
  /// goes to one symmetry octant. The bitset engine additionally pins it by
  /// translation when the topology is mesh or king mesh and the DFG is
  /// connected (SpaceResult::root_pinned; docs/performance.md,
  /// "Translation pin"). If both sides are at least 2e+1 (e = the first
  /// node's eccentricity in the undirected DFG), the first node's only
  /// candidate is the PE at row e, column e, because every placement
  /// shifts there. Otherwise, on an R x C fabric of more than 64 PEs whose
  /// (2R-1)x(2C-1) pin fabric has at most 4,096, the search runs on the pin
  /// fabric with the first node at its centre and every placement kept
  /// within an R x C bounding box, and the placement it finds is shifted
  /// back. Sound and complete either way; the reference engine stays
  /// unpinned.
  bool symmetry_breaking = true;
  /// Bitset engine: supplemental distance-2 constraints, two mechanisms
  /// under one toggle: (a) paths-of-length-2 filtering — assigning a node
  /// intersects the domains of DFG nodes at distance exactly 2 with the
  /// CGRA's distance-2 ball, so hopeless placements wipe out levels
  /// earlier — and (b) the root degree filter, which strips PEs whose
  /// closed neighbourhood cannot host a node's largest same-label
  /// neighbour set before the search starts. Both are implied by the
  /// original constraints — toggling never changes found/not-found, only
  /// search effort (ablation toggle; note it disables both, so it
  /// measures the supplemental-filtering family, not paths-of-length-2
  /// alone).
  bool distance2_filter = true;
  /// Bitset engine: multiplicity-aware distance-2 filtering (requires
  /// distance2_filter). When two DFG nodes a, b have k >= 2 common
  /// neighbours that carry the *same* slot label, those k nodes need k
  /// distinct PEs adjacent-or-equal to both phi(a) and phi(b) (mono1 +
  /// mono3), so assigning a restricts b's domain to
  /// CgraArch::common_target_mask(phi(a), k) — a strict sharpening of the
  /// plain distance-2 ball (on a mesh, k = 2 excludes the straight-line
  /// distance-2 targets and k = 3 pins phi(b) = phi(a)). The searcher arms
  /// it on multi-word fabrics only (> 64 PEs): there it cuts refutation
  /// backtracks 13-26% on the hard suite cases, while on tiny grids the
  /// masks are barely sharper than the ball and the extra conflict-set
  /// witnesses measurably weaken backjumping, so small-fabric traces stay
  /// exactly as before. Implied by the original constraints: toggling
  /// never changes found/not-found, only search effort (ablation toggle;
  /// pinned by tests/space_engines_test.cpp).
  bool distance2_multiplicity = true;
  /// Bitset engine: when order is kDynamicMrv, automatically switch to the
  /// sparse-tuned ordering (kSparseMrv: dom/deg-weighted MRV +
  /// ball-center-out value ordering) on fabrics of 256+ PEs, where domains
  /// span multiple cache lines and the dense-regime heuristics stop paying.
  /// Below the threshold plain dynamic MRV runs untouched, so small-grid
  /// search traces stay bit-identical to the recorded baselines.
  /// Completeness-preserving either way; clear this (or set order
  /// explicitly) to pin one ordering for A/B runs.
  bool sparse_order_auto = true;
  /// Bitset engine: conflict-directed backjumping. On exhausting a node's
  /// candidates the search jumps to the deepest decision that pruned any
  /// domain involved in the failure, instead of the chronological parent.
  /// Complete either way (ablation toggle).
  bool backjumping = true;
  /// Backtrack budget per invocation; 0 = unlimited. Exhausting the budget
  /// sets `truncated` (and `timed_out`): the search proved nothing about
  /// the remaining space, so no conflict explanation is emitted. The
  /// decoupled mapper adapts this budget per schedule — shrinking it for
  /// schedule families that keep dying shallow and extending it for
  /// near-misses (the policy constants beside run_mapping_loop) — rather
  /// than treating exhaustion as a verdict on the schedule. (300k: with
  /// conflict-directed backjumping and distance-2 filtering the engine
  /// refutes or places every realistic suite schedule that completes at
  /// all well under this — nw's hardest 4x4 refutation, the suite
  /// maximum, needs ~280k — while anything larger only makes truncated
  /// searches cost more.)
  std::uint64_t max_backtracks = 300'000;
};

struct SpaceResult {
  bool found = false;
  /// Search stopped early (deadline or backtrack budget).
  bool timed_out = false;
  /// The *wall-clock deadline* expired (subset of timed_out).
  bool deadline_expired = false;
  /// The *backtrack budget* ran out (subset of timed_out, disjoint from
  /// deadline_expired): the search was cut off having proven nothing.
  bool truncated = false;
  /// The request's ResourceGovernor denied the searcher's trail reservation
  /// or tripped mid-search (subset of timed_out): the search was cut off
  /// having proven nothing, and the caller classifies the run as a
  /// `memory` outcome rather than a deadline.
  bool memory_out = false;
  std::vector<PeId> pe;  // per node; valid when found
  std::uint64_t nodes_expanded = 0;
  std::uint64_t backtracks = 0;
  /// Bitset engine: non-chronological retreats — exhausting a node's
  /// candidates jumped over at least one intervening decision level.
  std::uint64_t backjumps = 0;
  /// Deepest decision level reached (nodes simultaneously assigned, plus
  /// the one being branched). max_depth == num_nodes on success.
  int max_depth = 0;
  /// Shallowest decision level any candidate exhaustion retreated to
  /// (the minimum backjump target; chronological parent on the reference
  /// engine). Initialised to num_nodes + 1, so that value means "no
  /// retreat happened". The mapper's adaptive budget policy keys off
  /// this: a truncated search whose conflicts all stayed confined near
  /// the leaves is a near-miss worth a bigger budget, while one whose
  /// conflict sets reached shallow decisions marks a hopeless schedule
  /// family.
  int shallowest_retreat = 0;
  /// Bitset engine: words per candidate domain (1 up to 64 PEs, 16 at
  /// 32x32, 64 at 64x64) — the unit of domain-trail traffic.
  int words_per_domain = 0;
  /// Bitset engine: total words recorded on (and restored from) the domain
  /// trail. Untiled, the trail saves exactly the words a propagation
  /// changed; with tile skipping armed the intersect paths snapshot at
  /// cache-line-tile granularity instead (each entry counts its whole
  /// tile, at most kTileWords), trading a few clean words per snapshot
  /// for branch-free save/restore. Compare against
  /// backtracks * num_nodes * words_per_domain — the traffic a
  /// whole-domain snapshot scheme would pay — to see the saving in bench
  /// JSON. Layout-dependent by design: tiled and untiled rows report
  /// different values for identical searches.
  std::uint64_t trail_words_saved = 0;
  /// Bitset engine: domain prunings contributed by the multiplicity-aware
  /// distance-2 filter (distance2_multiplicity).
  std::uint64_t multiplicity_prunings = 0;
  /// Bitset engine: cache-line tiles the domain-intersection path skipped
  /// because the tile-occupancy map proved them empty (see PeSet). Counted
  /// against the occupancy map, so the value is identical at every SIMD
  /// level and with skipping disabled it is exactly 0.
  std::uint64_t tiles_skipped = 0;
  /// Bitset engine: bytes of domain words the propagation path actually
  /// read or wrote (intersections + single-bit removals). With tile
  /// skipping this shrinks to the occupied-tile traffic; untiled it is
  /// words_per_domain * 8 per intersection. Deterministic given the trace,
  /// so bench layout comparisons pair rows with equal effort counters and
  /// differing bytes.
  std::uint64_t domain_bytes_touched = 0;
  /// Bitset engine: subtrees of the first branching level that split
  /// helpers searched and this search merged in candidate order, and
  /// helper reports it searched again itself because they would have
  /// crossed max_backtracks in sequence (docs/performance.md, "Parallel
  /// split"). Timing-dependent, unlike every other counter here: the
  /// answer and the counters above are the sequential search's either way.
  std::uint64_t delegated_subtrees = 0;
  std::uint64_t delegations_refused = 0;
  double seconds = 0.0;
  std::string failure_reason;
  /// Conflict explanation, set only when the search produced a complete
  /// refutation (found == false, timed_out == false): a subset of DFG
  /// nodes whose induced sub-DFG, with these slot labels, already admits
  /// no placement — adding more nodes only tightens the problem, so any
  /// schedule that gives exactly these slots to these nodes is spatially
  /// infeasible. The bitset engine derives this from conflict-directed
  /// backjumping's final conflict set: the nodes the refutation branched
  /// on or wiped out plus every node whose placement (or existence, for
  /// distance-2 witnesses and degree-filter witnesses) pruned a domain the
  /// refutation used. A refutation whose conflict set contains no assigned
  /// node ends the search immediately — sound even under a backtrack
  /// budget, because the certificate does not depend on the unexplored
  /// region. The reference engine and the precheck failures report coarser
  /// but still sound sets. The decoupled mapper turns this into a
  /// time-phase nogood clause. A refutation under the in-place translation
  /// pin is widened first (certificate_widened) so that it holds unpinned;
  /// one proven on the pin fabric holds unpinned as it stands.
  std::vector<NodeId> conflict_nodes;
  /// Bitset engine: the translation pin fired, so the depth-0 node had a
  /// single candidate: (e, e) on the fabric, or the centre of the pin
  /// fabric (SpaceOptions::symmetry_breaking). On the pin fabric the
  /// domain and trail telemetry above (words_per_domain,
  /// trail_words_saved, tiles_skipped, domain_bytes_touched) describe the
  /// pin fabric's domains; pe and conflict_nodes refer to the real fabric
  /// as always.
  bool root_pinned = false;
  /// Bitset engine: a pinned refutation's conflict set left some of its
  /// nodes farther than e from the pinned node inside the induced sub-DFG,
  /// and conflict_nodes gained shortest DFG paths from the pinned node to
  /// them, so every placement of the certificate shifts onto the pin.
  bool certificate_widened = false;
};

/// Search for a monomorphism of `dfg` (with per-node slot `labels`, values
/// in [0, ii)) into the MRRG of `arch` at the given II. A long bitset
/// refutation may hand subtrees to helper threads; every helper is joined
/// before the call returns.
SpaceResult find_monomorphism(const Dfg& dfg, const CgraArch& arch,
                              const std::vector<int>& labels, int ii,
                              const SpaceOptions& options = SpaceOptions{},
                              const Deadline& deadline = Deadline::unlimited());

/// Helper threads a bitset refutation can split across: one fewer than the
/// cores this process may run on, at most 7, so 0 on one core.
int space_split_helpers();

}  // namespace monomap

#endif  // MONOMAP_SPACE_MONOMORPHISM_HPP
