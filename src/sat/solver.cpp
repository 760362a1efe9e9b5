#include "sat/solver.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

#include "support/fault.hpp"
#include "support/resource.hpp"

namespace monomap {

const char* to_string(SatStatus status) {
  switch (status) {
    case SatStatus::kSat: return "SAT";
    case SatStatus::kUnsat: return "UNSAT";
    case SatStatus::kUnknown: return "UNKNOWN";
  }
  return "?";
}

namespace {

/// A clause's name: the arena offset of its header.
using CRef = std::uint32_t;
constexpr CRef kNoClause = std::numeric_limits<CRef>::max();

/// Every clause of a solver in one flat array of 32-bit words. A clause is
/// a 4-word header — its size; its LBD above a deleted flag (bit 1) and a
/// learnt flag (bit 0); its activity, a double over two words — followed by
/// its literal codes. Clauses are appended in creation order and compact()
/// keeps that order, so a smaller CRef is always an older clause.
class ClauseArena {
 public:
  static constexpr std::size_t kHeaderWords = 4;

  /// Arena bytes a clause of n literals occupies.
  static constexpr std::size_t bytes(std::size_t n) {
    return (kHeaderWords + n) * sizeof(std::uint32_t);
  }

  CRef alloc(const std::vector<Lit>& lits, bool learnt, int lbd) {
    const std::size_t at = words_.size();
    MONOMAP_ASSERT_MSG(at + kHeaderWords + lits.size() < kNoClause,
                       "clause arena outgrew 32-bit references");
    words_.resize(at + kHeaderWords + lits.size());
    words_[at] = static_cast<std::uint32_t>(lits.size());
    words_[at + 1] = (static_cast<std::uint32_t>(lbd) << 2) |
                     (learnt ? kLearntBit : 0U);
    set_activity(static_cast<CRef>(at), 0.0);
    std::uint32_t* out = &words_[at + kHeaderWords];
    for (const Lit l : lits) *out++ = static_cast<std::uint32_t>(l.code());
    return static_cast<CRef>(at);
  }

  [[nodiscard]] std::uint32_t size(CRef c) const { return words_[c]; }
  [[nodiscard]] bool learnt(CRef c) const {
    return (words_[c + 1] & kLearntBit) != 0;
  }
  [[nodiscard]] bool deleted(CRef c) const {
    return (words_[c + 1] & kDeletedBit) != 0;
  }
  /// Mark `c` deleted; compact() reclaims its words.
  void free(CRef c) {
    words_[c + 1] |= kDeletedBit;
    deleted_words_ += kHeaderWords + size(c);
  }
  [[nodiscard]] int lbd(CRef c) const {
    return static_cast<int>(words_[c + 1] >> 2);
  }
  [[nodiscard]] double activity(CRef c) const {
    double a;
    std::memcpy(&a, &words_[c + 2], sizeof a);
    return a;
  }
  void set_activity(CRef c, double a) {
    std::memcpy(&words_[c + 2], &a, sizeof a);
  }

  /// The clause's literal codes, in place.
  [[nodiscard]] std::uint32_t* lits(CRef c) {
    return &words_[c + kHeaderWords];
  }
  [[nodiscard]] Lit lit(CRef c, std::size_t i) const {
    return Lit::from_code(
        static_cast<std::int32_t>(words_[c + kHeaderWords + i]));
  }

  /// Drop the deleted clauses: the live ones move to a fresh array in
  /// arena order. Returns the old array, in which each live clause's flags
  /// word now holds its new offset (see forwarded()).
  std::vector<std::uint32_t> compact() {
    std::vector<std::uint32_t> to;
    to.reserve(words_.size() - deleted_words_);
    for (std::size_t c = 0; c < words_.size();) {
      const std::size_t len = kHeaderWords + words_[c];
      if (!deleted(static_cast<CRef>(c))) {
        const auto moved = static_cast<std::uint32_t>(to.size());
        to.insert(to.end(), words_.begin() + static_cast<std::ptrdiff_t>(c),
                  words_.begin() + static_cast<std::ptrdiff_t>(c + len));
        words_[c + 1] = moved;
      }
      c += len;
    }
    deleted_words_ = 0;
    words_.swap(to);
    return to;
  }
  /// Where compact() moved the live clause `c` of the returned old array.
  [[nodiscard]] static CRef forwarded(const std::vector<std::uint32_t>& old,
                                      CRef c) {
    return old[c + 1];
  }

 private:
  static constexpr std::uint32_t kLearntBit = 1;
  static constexpr std::uint32_t kDeletedBit = 2;

  std::vector<std::uint32_t> words_;
  std::size_t deleted_words_ = 0;
};

struct Watch {
  CRef cref = kNoClause;
  Lit blocker;  // if blocker is true, the clause is satisfied — skip it
};

/// Binary max-heap over variable activities (VSIDS order).
class VarHeap {
 public:
  void grow(int num_vars) { pos_.resize(static_cast<std::size_t>(num_vars), -1); }

  [[nodiscard]] bool contains(SatVar v) const {
    return pos_[static_cast<std::size_t>(v)] >= 0;
  }
  [[nodiscard]] bool empty() const { return heap_.empty(); }

  void insert(SatVar v, const std::vector<double>& act) {
    if (contains(v)) return;
    pos_[static_cast<std::size_t>(v)] = static_cast<int>(heap_.size());
    heap_.push_back(v);
    sift_up(static_cast<int>(heap_.size()) - 1, act);
  }

  SatVar pop_max(const std::vector<double>& act) {
    const SatVar top = heap_.front();
    swap_entries(0, static_cast<int>(heap_.size()) - 1);
    pos_[static_cast<std::size_t>(top)] = -1;
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0, act);
    return top;
  }

  void increased(SatVar v, const std::vector<double>& act) {
    if (contains(v)) sift_up(pos_[static_cast<std::size_t>(v)], act);
  }

 private:
  void swap_entries(int a, int b) {
    std::swap(heap_[static_cast<std::size_t>(a)], heap_[static_cast<std::size_t>(b)]);
    pos_[static_cast<std::size_t>(heap_[static_cast<std::size_t>(a)])] = a;
    pos_[static_cast<std::size_t>(heap_[static_cast<std::size_t>(b)])] = b;
  }
  void sift_up(int i, const std::vector<double>& act) {
    while (i > 0) {
      const int parent = (i - 1) / 2;
      if (act[static_cast<std::size_t>(heap_[static_cast<std::size_t>(parent)])] >=
          act[static_cast<std::size_t>(heap_[static_cast<std::size_t>(i)])]) {
        break;
      }
      swap_entries(i, parent);
      i = parent;
    }
  }
  void sift_down(int i, const std::vector<double>& act) {
    const int n = static_cast<int>(heap_.size());
    for (;;) {
      int best = i;
      const int l = 2 * i + 1;
      const int r = 2 * i + 2;
      auto a = [&](int k) {
        return act[static_cast<std::size_t>(heap_[static_cast<std::size_t>(k)])];
      };
      if (l < n && a(l) > a(best)) best = l;
      if (r < n && a(r) > a(best)) best = r;
      if (best == i) break;
      swap_entries(i, best);
      i = best;
    }
  }

  std::vector<SatVar> heap_;
  std::vector<int> pos_;
};

/// Without memory pressure the learnt database is reduced at a restart once
/// it holds more than kLearntAllowance clauses, and each such reduction
/// raises the allowance by kLearntAllowanceGrowth. It grows per reduction,
/// not per restart: under Luby restarts a per-restart allowance outruns
/// the database, which then is never reduced.
constexpr std::size_t kLearntAllowance = 8192;
constexpr std::size_t kLearntAllowanceGrowth = 1024;

/// Luby restart sequence (1,1,2,1,1,2,4,...).
std::uint64_t luby(std::uint64_t i) {
  std::uint64_t k = 1;
  while ((1ULL << k) - 1 < i + 1) ++k;
  while ((1ULL << k) - 1 != i + 1) {
    i -= (1ULL << (k - 1)) - 1;
    k = 1;
    while ((1ULL << k) - 1 < i + 1) ++k;
  }
  return 1ULL << (k - 1);
}

}  // namespace

struct SatSolver::Impl {
  // Clause database: every clause lives in the arena; the learnt ones are
  // also listed, oldest first, for reduction.
  ClauseArena arena;
  int num_problem = 0;
  std::vector<CRef> learnts;
  std::size_t learnt_allowance = kLearntAllowance;
  std::vector<std::vector<Watch>> watches;  // indexed by literal code

  std::vector<LBool> values;        // indexed by literal code
  std::vector<bool> polarity;       // phase saving (last value)
  std::vector<int> level;
  std::vector<CRef> reason;
  std::vector<double> activity;
  VarHeap order;

  std::vector<Lit> trail;
  std::vector<int> trail_lim;
  std::size_t qhead = 0;

  bool ok = true;
  double var_inc = 1.0;
  double var_decay = 0.95;
  double cla_inc = 1.0;

  // Assumption literals of the current solve_assuming() call (one decision
  // level each, placed before any free decision), the failed subset of the
  // last assumption-refuted call, and whether the last kUnsat was only
  // relative to the assumptions (the formula itself stays usable).
  std::vector<Lit> assumptions;
  std::vector<Lit> conflict;
  bool assumption_failed = false;

  std::vector<bool> model;
  SatStats stats;

  // analyze() scratch
  std::vector<bool> seen;
  std::vector<Lit> analyze_stack;
  std::vector<Lit> learnt_scratch;  // reused across conflicts in search()

  // compute_lbd() scratch: level -> id of the last conflict that touched it.
  // Bumping the id each call makes "have I counted this level yet?" a plain
  // array read, with no per-clause allocation, sort, or clearing.
  std::vector<std::uint64_t> lbd_stamp;
  std::uint64_t lbd_stamp_id = 0;

  // Memory governor for the learnt DB (see support/resource.hpp). Captured
  // from the thread-local scope at the first solve; bytes charged here are
  // given back as reduce_db() deletes clauses and in full on destruction.
  ResourceGovernor* gov = nullptr;
  std::size_t gov_charged = 0;
  bool out_of_memory = false;  // last kUnknown was a budget trip

  ~Impl() {
    if (gov != nullptr) gov->uncharge(gov_charged);
  }

  [[nodiscard]] int num_vars() const {
    return static_cast<int>(level.size());
  }

  [[nodiscard]] int decision_level() const {
    return static_cast<int>(trail_lim.size());
  }

  [[nodiscard]] LBool value(SatVar v) const {
    return values[2 * static_cast<std::size_t>(v)];
  }
  [[nodiscard]] LBool value(Lit l) const {
    return values[static_cast<std::size_t>(l.code())];
  }

  SatVar new_var() {
    const auto v = static_cast<SatVar>(level.size());
    values.push_back(LBool::kUndef);
    values.push_back(LBool::kUndef);
    polarity.push_back(false);
    level.push_back(0);
    reason.push_back(kNoClause);
    activity.push_back(0.0);
    seen.push_back(false);
    watches.emplace_back();
    watches.emplace_back();
    order.grow(num_vars());
    order.insert(v, activity);
    return v;
  }

  void var_bump(SatVar v) {
    activity[static_cast<std::size_t>(v)] += var_inc;
    if (activity[static_cast<std::size_t>(v)] > 1e100) {
      for (double& a : activity) a *= 1e-100;
      var_inc *= 1e-100;
    }
    order.increased(v, activity);
  }

  void var_decay_step() { var_inc /= var_decay; }

  void cla_bump(CRef c) {
    const double a = arena.activity(c) + cla_inc;
    arena.set_activity(c, a);
    if (a > 1e20) {
      for (const CRef l : learnts) {
        arena.set_activity(l, arena.activity(l) * 1e-20);
      }
      cla_inc *= 1e-20;
    }
  }

  void attach(CRef c) {
    MONOMAP_ASSERT(arena.size(c) >= 2);
    const Lit c0 = arena.lit(c, 0);
    const Lit c1 = arena.lit(c, 1);
    watches[static_cast<std::size_t>(c0.code())].push_back(Watch{c, c1});
    watches[static_cast<std::size_t>(c1.code())].push_back(Watch{c, c0});
  }

  void detach(CRef c) {
    for (std::size_t i = 0; i < 2; ++i) {
      auto& list = watches[static_cast<std::size_t>(arena.lit(c, i).code())];
      for (std::size_t j = 0; j < list.size(); ++j) {
        if (list[j].cref == c) {
          list[j] = list.back();
          list.pop_back();
          break;
        }
      }
    }
  }

  void enqueue(Lit p, CRef from) {
    MONOMAP_ASSERT(value(p) == LBool::kUndef);
    const SatVar v = p.var();
    values[static_cast<std::size_t>(p.code())] = LBool::kTrue;
    values[static_cast<std::size_t>((~p).code())] = LBool::kFalse;
    polarity[static_cast<std::size_t>(v)] = !p.negated();
    level[static_cast<std::size_t>(v)] = decision_level();
    reason[static_cast<std::size_t>(v)] = from;
    trail.push_back(p);
  }

  CRef propagate() {
    CRef conflict_ref = kNoClause;
    while (qhead < trail.size()) {
      const Lit p = trail[qhead++];  // p is true
      ++stats.propagations;
      const auto false_code = static_cast<std::uint32_t>((~p).code());
      std::vector<Watch>& list = watches[false_code];
      Watch* i = list.data();
      Watch* j = i;
      Watch* const end = i + list.size();
      while (i != end) {
        const Lit blocker = i->blocker;
        if (value(blocker) == LBool::kTrue) {
          *j++ = *i++;
          continue;
        }
        const CRef cr = i->cref;
        std::uint32_t* c = arena.lits(cr);
        // Ensure the false literal (~p) is at position 1.
        if (c[0] == false_code) {
          std::swap(c[0], c[1]);
        }
        ++i;
        const Lit first = Lit::from_code(static_cast<std::int32_t>(c[0]));
        if (first != blocker && value(first) == LBool::kTrue) {
          *j++ = Watch{cr, first};
          continue;
        }
        // Look for a new literal to watch.
        bool found = false;
        const std::uint32_t size = arena.size(cr);
        for (std::uint32_t k = 2; k < size; ++k) {
          if (values[c[k]] != LBool::kFalse) {
            std::swap(c[1], c[k]);
            watches[c[1]].push_back(Watch{cr, first});
            found = true;
            break;
          }
        }
        if (found) continue;
        // Clause is unit or conflicting.
        *j++ = Watch{cr, first};
        if (value(first) == LBool::kFalse) {
          conflict_ref = cr;
          qhead = trail.size();
          while (i != end) *j++ = *i++;
          break;
        }
        enqueue(first, cr);
      }
      list.resize(static_cast<std::size_t>(j - list.data()));
      if (conflict_ref != kNoClause) break;
    }
    return conflict_ref;
  }

  void cancel_until(int target_level) {
    if (decision_level() <= target_level) return;
    const int bound = trail_lim[static_cast<std::size_t>(target_level)];
    for (int i = static_cast<int>(trail.size()) - 1; i >= bound; --i) {
      const Lit l = trail[static_cast<std::size_t>(i)];
      const SatVar v = l.var();
      values[static_cast<std::size_t>(l.code())] = LBool::kUndef;
      values[static_cast<std::size_t>((~l).code())] = LBool::kUndef;
      reason[static_cast<std::size_t>(v)] = kNoClause;
      if (!order.contains(v)) order.insert(v, activity);
    }
    trail.resize(static_cast<std::size_t>(bound));
    trail_lim.resize(static_cast<std::size_t>(target_level));
    qhead = trail.size();
  }

  /// True if `l` is redundant in the current learnt clause (all antecedents
  /// seen or at level 0) — non-recursive self-subsumption check.
  bool lit_redundant(Lit l) {
    const CRef r = reason[static_cast<std::size_t>(l.var())];
    if (r == kNoClause) return false;
    for (std::uint32_t k = 0, n = arena.size(r); k < n; ++k) {
      const Lit q = arena.lit(r, k);
      if (q.var() == l.var()) continue;
      if (level[static_cast<std::size_t>(q.var())] == 0) continue;
      if (!seen[static_cast<std::size_t>(q.var())]) return false;
    }
    return true;
  }

  /// 1-UIP conflict analysis; fills `learnt` (learnt[0] = asserting literal)
  /// and returns the backtrack level.
  int analyze(CRef conflict_ref, std::vector<Lit>& learnt) {
    learnt.clear();
    learnt.push_back(Lit());  // placeholder for the asserting literal
    int counter = 0;
    Lit p;
    bool p_valid = false;
    std::size_t index = trail.size();
    CRef reason_ref = conflict_ref;

    for (;;) {
      MONOMAP_ASSERT(reason_ref != kNoClause);
      if (arena.learnt(reason_ref)) cla_bump(reason_ref);
      for (std::uint32_t k = 0, n = arena.size(reason_ref); k < n; ++k) {
        const Lit q = arena.lit(reason_ref, k);
        if (p_valid && q == p) continue;
        const SatVar v = q.var();
        if (!seen[static_cast<std::size_t>(v)] &&
            level[static_cast<std::size_t>(v)] > 0) {
          seen[static_cast<std::size_t>(v)] = true;
          var_bump(v);
          if (level[static_cast<std::size_t>(v)] >= decision_level()) {
            ++counter;
          } else {
            learnt.push_back(q);
          }
        }
      }
      // Select next literal to expand from the trail.
      do {
        --index;
      } while (!seen[static_cast<std::size_t>(trail[index].var())]);
      p = trail[index];
      p_valid = true;
      seen[static_cast<std::size_t>(p.var())] = false;
      reason_ref = reason[static_cast<std::size_t>(p.var())];
      --counter;
      if (counter == 0) break;
    }
    learnt[0] = ~p;

    // Minimise: drop literals whose reasons are subsumed by the clause.
    // Keep the pre-minimisation set to reset `seen` afterwards — stale seen
    // flags would corrupt every later analysis.
    analyze_stack.assign(learnt.begin() + 1, learnt.end());
    std::size_t kept = 1;
    for (std::size_t i = 1; i < learnt.size(); ++i) {
      if (!lit_redundant(learnt[i])) {
        learnt[kept++] = learnt[i];
      } else {
        ++stats.minimized_literals;
      }
    }
    learnt.resize(kept);

    // Compute backtrack level = max level among learnt[1..].
    int bt = 0;
    std::size_t max_i = 1;
    for (std::size_t i = 1; i < learnt.size(); ++i) {
      const int lv = level[static_cast<std::size_t>(learnt[i].var())];
      if (lv > bt) {
        bt = lv;
        max_i = i;
      }
    }
    if (learnt.size() > 1) {
      std::swap(learnt[1], learnt[max_i]);
    }
    // Clear seen flags for every literal that was ever marked, including
    // the ones minimisation removed.
    seen[static_cast<std::size_t>(learnt[0].var())] = false;
    for (const Lit l : analyze_stack) {
      seen[static_cast<std::size_t>(l.var())] = false;
    }
    return learnt.size() == 1 ? 0 : bt;
  }

  /// `failed` is an assumption literal found false while placing the
  /// assumptions. Walk its implication ancestry down the trail and collect
  /// the assumption (decision) literals the refutation rests on — MiniSat's
  /// analyzeFinal, except `conflict` stores the failed assumptions
  /// themselves rather than their negations. Must run before backtracking.
  void analyze_final(Lit failed) {
    conflict.clear();
    conflict.push_back(failed);
    if (decision_level() == 0) return;
    seen[static_cast<std::size_t>(failed.var())] = true;
    for (int i = static_cast<int>(trail.size()) - 1;
         i >= trail_lim[0]; --i) {
      const SatVar x = trail[static_cast<std::size_t>(i)].var();
      if (!seen[static_cast<std::size_t>(x)]) continue;
      seen[static_cast<std::size_t>(x)] = false;
      const CRef r = reason[static_cast<std::size_t>(x)];
      if (r == kNoClause) {
        // A decision above level 0 is always one of the assumptions.
        MONOMAP_ASSERT(level[static_cast<std::size_t>(x)] > 0);
        conflict.push_back(trail[static_cast<std::size_t>(i)]);
      } else {
        for (std::uint32_t k = 0, n = arena.size(r); k < n; ++k) {
          const Lit q = arena.lit(r, k);
          if (q.var() != x && level[static_cast<std::size_t>(q.var())] > 0) {
            seen[static_cast<std::size_t>(q.var())] = true;
          }
        }
      }
    }
    // If ~failed was implied at level 0 the loop never visits it; the
    // refutation is {failed} against the formula alone.
    seen[static_cast<std::size_t>(failed.var())] = false;
  }

  [[nodiscard]] int compute_lbd(const std::vector<Lit>& lits) {
    // Number of distinct decision levels.
    if (lbd_stamp.size() < level.size() + 1) {
      lbd_stamp.resize(level.size() + 1, 0);
    }
    ++lbd_stamp_id;
    int distinct = 0;
    for (const Lit l : lits) {
      const int lv = level[static_cast<std::size_t>(l.var())];
      if (lbd_stamp[static_cast<std::size_t>(lv)] != lbd_stamp_id) {
        lbd_stamp[static_cast<std::size_t>(lv)] = lbd_stamp_id;
        ++distinct;
      }
    }
    return distinct;
  }

  void reduce_db() {
    // Keep glue clauses (lbd <= 2) and reasons; delete the worst half of the
    // rest, ordered by (lbd desc, activity asc).
    std::vector<CRef> candidates;
    for (const CRef c : learnts) {
      if (arena.lbd(c) > 2 && !is_reason(c)) candidates.push_back(c);
    }
    std::sort(candidates.begin(), candidates.end(),
              [this](CRef a, CRef b) {
                if (arena.lbd(a) != arena.lbd(b)) {
                  return arena.lbd(a) > arena.lbd(b);
                }
                return arena.activity(a) < arena.activity(b);
              });
    candidates.resize(candidates.size() / 2);
    // Detach in creation order, so the watch lists come out the same
    // whatever the allocation history.
    std::sort(candidates.begin(), candidates.end());
    std::size_t freed = 0;
    for (const CRef c : candidates) {
      detach(c);
      freed += ClauseArena::bytes(arena.size(c));
      arena.free(c);
    }
    stats.deleted_clauses += candidates.size();
    std::erase_if(learnts, [this](CRef c) { return arena.deleted(c); });
    if (gov != nullptr) {
      // Give the victims' bytes back. Clamped to what THIS solver charged:
      // clauses learnt before the governor was bound were never charged,
      // and unclamped refunds would underflow the shared used() counter.
      freed = std::min(freed, gov_charged);
      gov->uncharge(freed);
      gov_charged -= freed;
    }
    compact();
  }

  /// Reclaim deleted clauses' words and rename every reference to a moved
  /// clause. Watch lists, learnts and reasons keep their order.
  void compact() {
    const std::vector<std::uint32_t> old = arena.compact();
    for (auto& list : watches) {
      for (Watch& w : list) w.cref = ClauseArena::forwarded(old, w.cref);
    }
    for (CRef& c : learnts) c = ClauseArena::forwarded(old, c);
    for (CRef& r : reason) {
      if (r != kNoClause) r = ClauseArena::forwarded(old, r);
    }
  }

  [[nodiscard]] bool is_reason(CRef c) const {
    const SatVar v = arena.lit(c, 0).var();
    return reason[static_cast<std::size_t>(v)] == c &&
           value(v) != LBool::kUndef;
  }

  Lit pick_branch() {
    while (!order.empty()) {
      // Peek-and-pop until an unassigned variable emerges.
      const SatVar v = order.pop_max(activity);
      if (value(v) == LBool::kUndef) {
        ++stats.decisions;
        return Lit(v, !polarity[static_cast<std::size_t>(v)]);
      }
    }
    return Lit();  // all assigned
  }

  SatStatus search(std::uint64_t restart_conflicts, const Deadline& deadline,
                   std::uint64_t conflict_budget) {
    std::uint64_t conflicts_here = 0;
    std::vector<Lit>& learnt = learnt_scratch;  // persists across restarts
    for (;;) {
      const CRef conflict_ref = propagate();
      if (conflict_ref != kNoClause) {
        ++stats.conflicts;
        ++conflicts_here;
        if (decision_level() == 0) return SatStatus::kUnsat;
        const int bt = analyze(conflict_ref, learnt);
        cancel_until(bt);
        if (learnt.size() == 1) {
          enqueue(learnt[0], kNoClause);
        } else {
          if (gov != nullptr) {
            // Charge the new learnt clause against the memory budget. On
            // denial, shed (reduce_db is safe mid-search: reason clauses
            // are locked by is_reason) and retry once; if the budget still
            // cannot hold it, trip and abort into a clean memory outcome.
            const std::size_t bytes = ClauseArena::bytes(learnt.size());
            bool granted = gov->try_charge(bytes);
            if (!granted) {
              gov->note_shed();
              reduce_db();
              granted = gov->try_charge(bytes);
            }
            if (!granted) {
              gov->trip("sat learnt DB exceeded the memory budget");
              out_of_memory = true;
              return SatStatus::kUnknown;
            }
            gov_charged += bytes;
          }
          const CRef c = arena.alloc(learnt, true, compute_lbd(learnt));
          learnts.push_back(c);
          ++stats.learned_clauses;
          attach(c);
          cla_bump(c);
          enqueue(learnt[0], c);
        }
        var_decay_step();
        cla_inc *= 1.001;

        if (conflict_budget != 0 && stats.conflicts >= conflict_budget) {
          return SatStatus::kUnknown;
        }
        if ((conflicts_here & 0xFF) == 0) {
          if (deadline.expired()) return SatStatus::kUnknown;
          // Watchdog: another subsystem tripped the shared governor —
          // convert this search into the same classified memory outcome.
          if (gov != nullptr && gov->tripped()) {
            out_of_memory = true;
            return SatStatus::kUnknown;
          }
        }
      } else {
        if (conflicts_here >= restart_conflicts) {
          ++stats.restarts;
          cancel_until(0);
          return SatStatus::kUnknown;  // caller restarts
        }
        if (decision_level() == 0) {
          if (learnts.size() > learnt_allowance) {
            reduce_db();
            learnt_allowance += kLearntAllowanceGrowth;
          } else if (gov != nullptr && gov->soft_pressure() &&
                     learnts.size() > 256) {
            reduce_db();
          }
        }
        // Place pending assumptions first, one decision level each (decision
        // level i+1 holds assumptions[i]). Restarts and backjumps into the
        // assumption prefix re-enter this loop and re-place the tail.
        Lit next;
        while (decision_level() <
               static_cast<int>(assumptions.size())) {
          const Lit p =
              assumptions[static_cast<std::size_t>(decision_level())];
          if (value(p) == LBool::kTrue) {
            // Already implied: dedicate an empty level to keep the
            // level <-> assumption-index correspondence.
            trail_lim.push_back(static_cast<int>(trail.size()));
          } else if (value(p) == LBool::kFalse) {
            analyze_final(p);
            assumption_failed = true;
            return SatStatus::kUnsat;
          } else {
            next = p;
            break;
          }
        }
        if (next.code() == kLitUndefCode) {
          next = pick_branch();
          if (next.code() == kLitUndefCode) {
            return SatStatus::kSat;
          }
        }
        trail_lim.push_back(static_cast<int>(trail.size()));
        enqueue(next, kNoClause);
      }
    }
  }
};

SatSolver::SatSolver() : impl_(std::make_unique<Impl>()) {}
SatSolver::~SatSolver() = default;

SatVar SatSolver::new_var() { return impl_->new_var(); }

int SatSolver::num_vars() const { return impl_->num_vars(); }

int SatSolver::num_clauses() const { return impl_->num_problem; }

bool SatSolver::add_clause(std::vector<Lit> lits) {
  Impl& s = *impl_;
  if (!s.ok) return false;
  MONOMAP_ASSERT(s.decision_level() == 0);
  // Normalise: sort, dedupe, drop false literals, detect tautologies and
  // satisfied clauses (w.r.t. the level-0 assignment).
  std::sort(lits.begin(), lits.end());
  std::vector<Lit> out;
  out.reserve(lits.size());
  Lit prev;
  for (const Lit l : lits) {
    MONOMAP_ASSERT_MSG(l.var() >= 0 && l.var() < num_vars(),
                       "literal references unknown variable " << l.var());
    if (s.value(l) == LBool::kTrue) return true;  // already satisfied
    if (s.value(l) == LBool::kFalse) continue;    // always false: drop
    if (!out.empty() && l == prev) continue;      // duplicate
    if (!out.empty() && l == ~prev) return true;  // tautology
    out.push_back(l);
    prev = l;
  }
  if (out.empty()) {
    s.ok = false;
    return false;
  }
  if (out.size() == 1) {
    s.enqueue(out[0], kNoClause);
    if (s.propagate() != kNoClause) {
      s.ok = false;
      return false;
    }
    return true;
  }
  s.attach(s.arena.alloc(out, false, 0));
  ++s.num_problem;
  return true;
}

SatStatus SatSolver::solve(const Deadline& deadline,
                           std::uint64_t conflict_budget) {
  return solve_assuming({}, deadline, conflict_budget);
}

SatStatus SatSolver::solve_assuming(const std::vector<Lit>& assumptions,
                                    const Deadline& deadline,
                                    std::uint64_t conflict_budget) {
  fault::maybe_inject("sat.solve");
  Impl& s = *impl_;
  s.conflict.clear();
  s.assumption_failed = false;
  s.out_of_memory = false;
  if (s.gov == nullptr) s.gov = GovernorScope::current();
  if (!s.ok) return SatStatus::kUnsat;
  s.assumptions = assumptions;
  s.cancel_until(0);
  if (s.propagate() != kNoClause) {
    s.ok = false;
    return SatStatus::kUnsat;
  }
  const std::uint64_t budget_base =
      conflict_budget == 0 ? 0 : s.stats.conflicts + conflict_budget;
  for (std::uint64_t round = 0;; ++round) {
    const std::uint64_t restart_len = 100 * luby(round);
    const SatStatus status =
        s.search(restart_len, deadline,
                 budget_base == 0 ? 0 : budget_base);
    if (status == SatStatus::kSat) {
      s.model.assign(s.level.size(), false);
      for (std::size_t v = 0; v < s.level.size(); ++v) {
        s.model[v] = s.value(static_cast<SatVar>(v)) == LBool::kTrue;
      }
      s.cancel_until(0);
      s.assumptions.clear();
      return SatStatus::kSat;
    }
    if (status == SatStatus::kUnsat) {
      // A refutation that rests on assumptions leaves the formula alive;
      // only an assumption-free (level-0) refutation poisons the solver.
      if (!s.assumption_failed) s.ok = false;
      s.cancel_until(0);
      s.assumptions.clear();
      return SatStatus::kUnsat;
    }
    s.cancel_until(0);
    if (s.out_of_memory || deadline.expired() ||
        (budget_base != 0 && s.stats.conflicts >= budget_base)) {
      s.assumptions.clear();
      return SatStatus::kUnknown;
    }
  }
}

const std::vector<Lit>& SatSolver::failed_assumptions() const {
  return impl_->conflict;
}

int SatSolver::num_learnts() const {
  return static_cast<int>(impl_->learnts.size());
}

bool SatSolver::last_unknown_was_memory() const {
  return impl_->out_of_memory;
}

void SatSolver::set_polarity(SatVar v, bool phase) {
  MONOMAP_ASSERT(v >= 0 && v < num_vars());
  impl_->polarity[static_cast<std::size_t>(v)] = phase;
}

bool SatSolver::model_value(SatVar v) const {
  MONOMAP_ASSERT(v >= 0 &&
                 static_cast<std::size_t>(v) < impl_->model.size());
  return impl_->model[static_cast<std::size_t>(v)];
}

const SatStats& SatSolver::stats() const { return impl_->stats; }

bool load_into_solver(const CnfFormula& formula, SatSolver& solver) {
  while (solver.num_vars() < formula.num_vars) {
    solver.new_var();
  }
  for (const auto& clause : formula.clauses) {
    std::vector<Lit> lits;
    lits.reserve(clause.size());
    for (const int l : clause) {
      MONOMAP_ASSERT(l != 0);
      const SatVar v = (l > 0 ? l : -l) - 1;
      lits.push_back(Lit(v, l < 0));
    }
    if (!solver.add_clause(std::move(lits))) {
      return false;
    }
  }
  return true;
}

}  // namespace monomap
