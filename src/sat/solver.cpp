#include "sat/solver.hpp"

#include <algorithm>
#include <cmath>

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

struct Clause {
  std::vector<Lit> lits;
  double activity = 0.0;
  int lbd = 0;
  bool learnt = false;

  [[nodiscard]] std::size_t size() const { return lits.size(); }
  Lit& operator[](std::size_t i) { return lits[i]; }
  const Lit& operator[](std::size_t i) const { return lits[i]; }
};

struct Watch {
  Clause* clause = nullptr;
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
  // Clause database. Problem clauses and learnt clauses are owned here;
  // watchers hold raw pointers (stable: unique_ptr heap allocations).
  std::vector<std::unique_ptr<Clause>> problem;
  std::vector<std::unique_ptr<Clause>> learnts;
  std::vector<std::vector<Watch>> watches;  // indexed by literal code

  std::vector<LBool> assigns;
  std::vector<bool> polarity;       // phase saving (last value)
  std::vector<int> level;
  std::vector<Clause*> reason;
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

  /// Footprint estimate for a learnt clause of n literals: the Clause
  /// header, its literal storage, and a nod to allocator/watcher overhead.
  [[nodiscard]] static std::size_t clause_bytes(std::size_t n) {
    return sizeof(Clause) + n * sizeof(Lit) + 2 * sizeof(Watch) + 32;
  }

  [[nodiscard]] int decision_level() const {
    return static_cast<int>(trail_lim.size());
  }

  [[nodiscard]] LBool value(SatVar v) const {
    return assigns[static_cast<std::size_t>(v)];
  }
  [[nodiscard]] LBool value(Lit l) const {
    const LBool v = assigns[static_cast<std::size_t>(l.var())];
    if (v == LBool::kUndef) return LBool::kUndef;
    return l.negated() ? negate(v) : v;
  }

  SatVar new_var() {
    const auto v = static_cast<SatVar>(assigns.size());
    assigns.push_back(LBool::kUndef);
    polarity.push_back(false);
    level.push_back(0);
    reason.push_back(nullptr);
    activity.push_back(0.0);
    seen.push_back(false);
    watches.emplace_back();
    watches.emplace_back();
    order.grow(static_cast<int>(assigns.size()));
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

  void cla_bump(Clause& c) {
    c.activity += cla_inc;
    if (c.activity > 1e20) {
      for (auto& cl : learnts) cl->activity *= 1e-20;
      cla_inc *= 1e-20;
    }
  }

  void attach(Clause* c) {
    MONOMAP_ASSERT(c->size() >= 2);
    watches[static_cast<std::size_t>((*c)[0].code())].push_back(
        Watch{c, (*c)[1]});
    watches[static_cast<std::size_t>((*c)[1].code())].push_back(
        Watch{c, (*c)[0]});
  }

  void detach(Clause* c) {
    for (int i = 0; i < 2; ++i) {
      auto& list = watches[static_cast<std::size_t>((*c)[static_cast<std::size_t>(i)].code())];
      for (std::size_t j = 0; j < list.size(); ++j) {
        if (list[j].clause == c) {
          list[j] = list.back();
          list.pop_back();
          break;
        }
      }
    }
  }

  void enqueue(Lit p, Clause* from) {
    MONOMAP_ASSERT(value(p) == LBool::kUndef);
    const SatVar v = p.var();
    assigns[static_cast<std::size_t>(v)] = lbool_from(!p.negated());
    polarity[static_cast<std::size_t>(v)] = !p.negated();
    level[static_cast<std::size_t>(v)] = decision_level();
    reason[static_cast<std::size_t>(v)] = from;
    trail.push_back(p);
  }

  Clause* propagate() {
    Clause* conflict = nullptr;
    while (qhead < trail.size()) {
      const Lit p = trail[qhead++];  // p is true
      ++stats.propagations;
      auto& list = watches[static_cast<std::size_t>((~p).code())];
      std::size_t i = 0;
      std::size_t j = 0;
      while (i < list.size()) {
        const Watch w = list[i];
        if (value(w.blocker) == LBool::kTrue) {
          list[j++] = list[i++];
          continue;
        }
        Clause& c = *w.clause;
        // Ensure the false literal (~p) is at position 1.
        const Lit false_lit = ~p;
        if (c[0] == false_lit) {
          std::swap(c[0], c[1]);
        }
        ++i;
        const Lit first = c[0];
        if (first != w.blocker && value(first) == LBool::kTrue) {
          list[j++] = Watch{&c, first};
          continue;
        }
        // Look for a new literal to watch.
        bool found = false;
        for (std::size_t k = 2; k < c.size(); ++k) {
          if (value(c[k]) != LBool::kFalse) {
            std::swap(c[1], c[k]);
            watches[static_cast<std::size_t>(c[1].code())].push_back(
                Watch{&c, first});
            found = true;
            break;
          }
        }
        if (found) continue;
        // Clause is unit or conflicting.
        list[j++] = Watch{&c, first};
        if (value(first) == LBool::kFalse) {
          conflict = &c;
          qhead = trail.size();
          while (i < list.size()) list[j++] = list[i++];
          break;
        }
        enqueue(first, &c);
      }
      list.resize(j);
      if (conflict != nullptr) break;
    }
    return conflict;
  }

  void cancel_until(int target_level) {
    if (decision_level() <= target_level) return;
    const int bound = trail_lim[static_cast<std::size_t>(target_level)];
    for (int i = static_cast<int>(trail.size()) - 1; i >= bound; --i) {
      const SatVar v = trail[static_cast<std::size_t>(i)].var();
      assigns[static_cast<std::size_t>(v)] = LBool::kUndef;
      reason[static_cast<std::size_t>(v)] = nullptr;
      if (!order.contains(v)) order.insert(v, activity);
    }
    trail.resize(static_cast<std::size_t>(bound));
    trail_lim.resize(static_cast<std::size_t>(target_level));
    qhead = trail.size();
  }

  /// True if `l` is redundant in the current learnt clause (all antecedents
  /// seen or at level 0) — non-recursive self-subsumption check.
  bool lit_redundant(Lit l) {
    Clause* r = reason[static_cast<std::size_t>(l.var())];
    if (r == nullptr) return false;
    for (const Lit q : r->lits) {
      if (q.var() == l.var()) continue;
      if (level[static_cast<std::size_t>(q.var())] == 0) continue;
      if (!seen[static_cast<std::size_t>(q.var())]) return false;
    }
    return true;
  }

  /// 1-UIP conflict analysis; fills `learnt` (learnt[0] = asserting literal)
  /// and returns the backtrack level.
  int analyze(Clause* conflict, std::vector<Lit>& learnt) {
    learnt.clear();
    learnt.push_back(Lit());  // placeholder for the asserting literal
    int counter = 0;
    Lit p;
    bool p_valid = false;
    std::size_t index = trail.size();
    Clause* reason_clause = conflict;

    for (;;) {
      MONOMAP_ASSERT(reason_clause != nullptr);
      if (reason_clause->learnt) cla_bump(*reason_clause);
      for (const Lit q : reason_clause->lits) {
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
      reason_clause = reason[static_cast<std::size_t>(p.var())];
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
      Clause* r = reason[static_cast<std::size_t>(x)];
      if (r == nullptr) {
        // A decision above level 0 is always one of the assumptions.
        MONOMAP_ASSERT(level[static_cast<std::size_t>(x)] > 0);
        conflict.push_back(trail[static_cast<std::size_t>(i)]);
      } else {
        for (const Lit q : r->lits) {
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
    if (lbd_stamp.size() < assigns.size() + 1) {
      lbd_stamp.resize(assigns.size() + 1, 0);
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
    std::vector<Clause*> candidates;
    for (auto& c : learnts) {
      if (c->lbd > 2 && !is_reason(c.get())) {
        candidates.push_back(c.get());
      }
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Clause* a, const Clause* b) {
                if (a->lbd != b->lbd) return a->lbd > b->lbd;
                return a->activity < b->activity;
              });
    const std::size_t to_delete = candidates.size() / 2;
    std::vector<Clause*> victims(candidates.begin(),
                                 candidates.begin() + static_cast<std::ptrdiff_t>(to_delete));
    std::sort(victims.begin(), victims.end());
    for (Clause* c : victims) {
      detach(c);
    }
    auto is_victim = [&victims](const Clause* c) {
      return std::binary_search(victims.begin(), victims.end(),
                                const_cast<Clause*>(c));
    };
    auto it = std::remove_if(learnts.begin(), learnts.end(),
                             [&](const std::unique_ptr<Clause>& c) {
                               return is_victim(c.get());
                             });
    stats.deleted_clauses += static_cast<std::uint64_t>(learnts.end() - it);
    if (gov != nullptr) {
      // Give the victims' bytes back. Clamped to what THIS solver charged:
      // clauses learnt before the governor was bound were never charged,
      // and unclamped refunds would underflow the shared used() counter.
      std::size_t freed = 0;
      for (Clause* c : victims) freed += clause_bytes(c->lits.size());
      freed = std::min(freed, gov_charged);
      gov->uncharge(freed);
      gov_charged -= freed;
    }
    learnts.erase(it, learnts.end());
  }

  [[nodiscard]] bool is_reason(const Clause* c) const {
    if (c->lits.empty()) return false;
    const SatVar v = c->lits[0].var();
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
      Clause* conflict = propagate();
      if (conflict != nullptr) {
        ++stats.conflicts;
        ++conflicts_here;
        if (decision_level() == 0) return SatStatus::kUnsat;
        const int bt = analyze(conflict, learnt);
        cancel_until(bt);
        if (learnt.size() == 1) {
          enqueue(learnt[0], nullptr);
        } else {
          if (gov != nullptr) {
            // Charge the new learnt clause against the memory budget. On
            // denial, shed (reduce_db is safe mid-search: reason clauses
            // are locked by is_reason) and retry once; if the budget still
            // cannot hold it, trip and abort into a clean memory outcome.
            const std::size_t bytes = clause_bytes(learnt.size());
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
          auto clause = std::make_unique<Clause>();
          clause->lits = learnt;
          clause->learnt = true;
          clause->lbd = compute_lbd(learnt);
          Clause* raw = clause.get();
          learnts.push_back(std::move(clause));
          ++stats.learned_clauses;
          attach(raw);
          cla_bump(*raw);
          enqueue(learnt[0], raw);
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
        if ((learnts.size() > 8192 + 1024 * stats.restarts ||
             (gov != nullptr && gov->soft_pressure() &&
              learnts.size() > 256)) &&
            decision_level() == 0) {
          reduce_db();
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
        enqueue(next, nullptr);
      }
    }
  }
};

SatSolver::SatSolver() : impl_(std::make_unique<Impl>()) {}
SatSolver::~SatSolver() = default;

SatVar SatSolver::new_var() { return impl_->new_var(); }

int SatSolver::num_vars() const {
  return static_cast<int>(impl_->assigns.size());
}

int SatSolver::num_clauses() const {
  return static_cast<int>(impl_->problem.size());
}

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
    s.enqueue(out[0], nullptr);
    if (s.propagate() != nullptr) {
      s.ok = false;
      return false;
    }
    return true;
  }
  auto clause = std::make_unique<Clause>();
  clause->lits = std::move(out);
  Clause* raw = clause.get();
  s.problem.push_back(std::move(clause));
  s.attach(raw);
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
  if (s.propagate() != nullptr) {
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
      s.model.assign(s.assigns.size(), false);
      for (std::size_t v = 0; v < s.assigns.size(); ++v) {
        s.model[v] = (s.assigns[v] == LBool::kTrue);
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
