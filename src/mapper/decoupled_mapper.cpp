#include "mapper/decoupled_mapper.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>

#include "sched/mii.hpp"
#include "support/fault.hpp"
#include "support/json.hpp"
#include "support/log.hpp"
#include "support/parallel.hpp"
#include "support/resource.hpp"
#include "support/stopwatch.hpp"

namespace monomap {

/// DecoupledMapperOptions::max_schedules for one walk, shared by all of its
/// attempts: every schedule pulled takes one unit, and a time search that
/// comes back empty hands its unit back.
class DecoupledMapper::ScheduleBudget {
 public:
  explicit ScheduleBudget(int limit) : limit_(limit) {}

  /// False once the walk has pulled `limit` schedules (never when 0).
  bool take() {
    if (limit_ <= 0) return true;
    if (used_++ < limit_) return true;
    --used_;
    return false;
  }

  void give_back() {
    if (limit_ > 0) --used_;
  }

 private:
  const int limit_;
  std::atomic<int> used_{0};
};

namespace {

/// Publish the sound II interval from the refuted prefix and the mapping.
void publish_interval(MapResult& r) {
  r.ii_lo = std::max(1, r.ii_refuted_up_to + 1);
  r.ii_hi = r.success ? r.ii : 0;
}

/// Record a stop on a result without a mapping; a cancel of `deadline`,
/// when it fired, outranks the stop it surfaced through.
void record_stop(MapResult& r, MapOutcome stop, const Deadline& deadline) {
  r.outcome = escalate(r.outcome, deadline.cancel_fired()
                                      ? MapOutcome::kCancelled
                                      : stop);
}

template <typename T>
T merge_sum(T into, T from) {
  return into + from;
}

template <typename T>
T merge_max(T into, T from) {
  return std::max(into, from);
}

/// Fold one resolved attempt's effort counters into an aggregate. Result
/// fields that identify the outcome (success, ii, mapping, failure_reason,
/// learnt_retained) stay the receiver's.
void merge_attempt_counters(MapResult& into, const MapResult& from) {
#define MONOMAP_MERGE(type, name, merge) \
  into.name = merge_##merge(into.name, from.name);
  MONOMAP_MAP_COUNTERS(MONOMAP_MERGE)
#undef MONOMAP_MERGE
#define MONOMAP_MERGE(type, name, merge)       \
  into.time_stats.name =                       \
      merge_##merge(into.time_stats.name, from.time_stats.name);
  MONOMAP_TIME_COUNTERS(MONOMAP_MERGE)
#undef MONOMAP_MERGE
}

/// The verdict on work an injected fault or an allocation failure killed.
/// Anything else — AssertionError above all: an invariant violation is a
/// bug, not a fault — is rethrown.
MapResult fault_result(const std::exception_ptr& error) {
  MapResult r;
  try {
    std::rethrow_exception(error);
  } catch (const fault::FaultInjectedError& e) {
    r.outcome = MapOutcome::kFault;
    r.failure_reason = std::string("injected fault: ") + e.what();
    r.causes.push_back({e.site(), "injected fault"});
  } catch (const std::bad_alloc&) {
    r.outcome = MapOutcome::kMemory;
    r.failure_reason = "allocation failure";
    r.causes.push_back({"alloc", "allocation failure"});
  }
  return r;
}

/// Create this request's governor when a budget is configured and no outer
/// scope already bound one (a nested call — a batch case's map() — inherits
/// the outer request's budget).
std::unique_ptr<ResourceGovernor> make_request_governor(
    std::size_t memory_budget_mb) {
  if (GovernorScope::current() != nullptr || memory_budget_mb == 0) {
    return nullptr;
  }
  return std::make_unique<ResourceGovernor>(memory_budget_mb << 20);
}

/// Fold governor telemetry into the result and backstop the memory
/// classification: a tripped governor on a non-success is a memory
/// outcome even when the trip surfaced through a generic timeout path.
void absorb_governor(MapResult& r, const ResourceGovernor* gov) {
  if (gov == nullptr) return;
  r.mem_peak_bytes = std::max(r.mem_peak_bytes, gov->peak());
  r.mem_sheds += gov->sheds();
  if (gov->tripped()) {
    if (!r.success) r.outcome = escalate(r.outcome, MapOutcome::kMemory);
    r.causes.push_back({"governor", gov->trip_reason()});
  }
}

}  // namespace

void write_json(json::Writer& w, const MapResult& r) {
  w.field("outcome", to_string(r.outcome));
  w.field("success", r.success);
  w.field("ii", r.ii);
  w.field("ii_lo", r.ii_lo);
  w.field("ii_hi", r.ii_hi);
  w.field("mii", r.mii.mii());
  w.field("sound_refutation", r.sound_refutation);
#define MONOMAP_WRITE(type, name, merge) w.field(#name, r.name);
  MONOMAP_MAP_COUNTERS(MONOMAP_WRITE)
#undef MONOMAP_WRITE
#define MONOMAP_WRITE(type, name, merge) w.field(#name, r.time_stats.name);
  MONOMAP_TIME_COUNTERS(MONOMAP_WRITE)
#undef MONOMAP_WRITE
  w.field("learnt_retained", r.time_stats.learnt_retained);
}

MapResult DecoupledMapper::map_at_ii(const Dfg& dfg, const CgraArch& arch,
                                     int ii, const Deadline& deadline) const {
  const MiiBreakdown mii = compute_mii(dfg, arch);
  MapResult result;
  if (ii < mii.mii()) {
    // No schedule exists below mII: refuted by the bound itself.
    result.failure_reason = "time search exhausted up to max II";
    result.sound_refutation = true;
  } else {
    ScheduleBudget budget(options_.max_schedules);
    result = attempt(dfg, arch, ii, deadline, budget);
  }
  result.mii = mii;
  // An attempt above mII never looked at the IIs below it, so it reports
  // only the universally known [1, mII) floor; its own verdict travels in
  // sound_refutation.
  result.ii_refuted_up_to =
      (result.sound_refutation && ii == mii.mii()) ? ii : mii.mii() - 1;
  publish_interval(result);
  return result;
}

MapResult DecoupledMapper::attempt(const Dfg& dfg, const CgraArch& arch,
                                   int ii, const Deadline& deadline,
                                   ScheduleBudget& budget) const {
  TimeSolverOptions time_options = options_.time;
  if (options_.space.model == MrrgModel::kConsecutiveOnly) {
    // Restricted interconnect: keep the time search consistent with the
    // space model, or every schedule with a long slot span would be
    // rejected in space.
    time_options.constraints.consecutive_slots = true;
  }
  for (int retries = 0;; ++retries) {
    MapResult failed;
    try {
      TimeSolver time_solver(dfg, arch, ii, time_options);
      MapResult result;
      run_mapping_loop(dfg, arch, deadline, time_solver, budget, result);
      result.time_stats = time_solver.stats();
      result.total_s = result.time_phase_s + result.space_phase_s;
      result.fault_retries = retries;
      return result;
    } catch (...) {
      // Fault containment: an injected fault (or allocation failure)
      // abandons the attempt's state entirely — solvers may be
      // mid-search — and retries it from scratch after a bounded backoff.
      failed = fault_result(std::current_exception());
    }
    if (retries >= options_.max_fault_retries ||
        !fault::backoff_sleep(deadline, retries)) {
      failed.fault_retries = retries;
      record_stop(failed, failed.outcome, deadline);
      return failed;
    }
  }
}

namespace {

// The per-II policy of run_mapping_loop.
//
// After this many *uninformative* space failures at one II the attempt
// gives the II up. Uninformative means the search either truncated (budget
// ran out, nothing learned) or refuted the schedule with a conflict set
// spanning most of the DFG (> half the nodes — the nogood prunes almost no
// other schedules, the classic signature of a spatially dead II). Narrow
// refutations don't count against this: each one feeds a sound
// family-pruning nogood back into the time search, so retrying is
// progress, not wheel-spinning. (The paper's Sec. IV-D argues failures
// should be rare; when the DFG has high-degree hubs the counting argument
// has gaps, and escalating II is what produces the II > mII rows of its
// Table III.)
constexpr int kMaxUninformativePerIi = 8;
// Hard cap on narrow (family-pruning) refutations at one II: guards against
// an II whose huge schedule space is spatially dead but only refutable one
// narrow family at a time.
constexpr int kMaxNarrowRefutationsPerIi = 64;
// The per-schedule backtrack budget starts at SpaceOptions::max_backtracks
// and adapts to how each failure died (keyed off
// SpaceResult::shallowest_retreat, the minimum backjump target). These
// bound the adaptation: its floor; the divisor after an uninformative
// failure — 2 is cautious, keeping mid-sized probes alive for schedules
// that are placeable but need some search, where 4+ would kill dead-II
// mills faster at the risk of truncating a findable placement; and the
// ceiling multiplier of a near-miss doubling (base * boost).
constexpr std::uint64_t kMinSpaceBacktracks = 4'096;
constexpr std::uint64_t kBudgetShrinkDivisor = 2;
constexpr std::uint64_t kMaxBudgetBoost = 8;
// A truncated search whose shallowest backjump target stayed at or above
// this fraction of the nodes is a near-miss: its conflicts never implicated
// the shallow placements.
constexpr double kNearMissDepthFraction = 0.75;

}  // namespace

void DecoupledMapper::run_mapping_loop(const Dfg& dfg, const CgraArch& arch,
                                       const Deadline& deadline,
                                       TimeSolver& time_solver,
                                       ScheduleBudget& schedules,
                                       MapResult& result) const {
  Stopwatch phase;
  const std::uint64_t base_budget = options_.space.max_backtracks;
  std::uint64_t budget = base_budget;
  // Failures at the current II, by what they taught us: uninformative ones
  // (truncations, and refutations whose conflict set spans most of the
  // DFG — their nogood prunes almost nothing) burn the II's retry budget;
  // narrow refutations are progress (each prunes a whole schedule family)
  // and only a generous separate cap bounds them.
  int uninformative_at_current_ii = 0;
  int narrow_refutations_at_current_ii = 0;
  bool refuted_at_current_ii = false;  // any complete refutation at this II
  bool probed_at_current_ii = false;   // last-chance probe already granted
  for (;;) {
    if (!schedules.take()) {
      // Deterministic work budget: unlike a wall deadline this trips at a
      // bit-reproducible point, so degraded anytime results are replayable.
      result.outcome = MapOutcome::kDeadline;
      result.failure_reason = "schedule budget exhausted";
      result.causes.push_back({"budget", "schedule budget exhausted"});
      break;
    }
    phase.restart();
    const std::optional<TimeSolution> schedule = time_solver.next(deadline);
    result.time_phase_s += phase.elapsed_s();
    if (!schedule.has_value()) {
      schedules.give_back();
      if (time_solver.memory_out()) {
        record_stop(result, MapOutcome::kMemory, deadline);
        result.failure_reason = "time search exceeded the memory budget";
        result.causes.push_back({"time", "memory budget exceeded"});
      } else if (time_solver.timed_out()) {
        record_stop(result, MapOutcome::kDeadline, deadline);
        result.failure_reason = "time search hit the deadline";
      } else {
        // Natural exhaustion refutes the II soundly when no space search
        // here was truncated: every schedule was either fully refuted in
        // space or pruned by a sound nogood.
        result.failure_reason = "time search exhausted up to max II";
        result.sound_refutation = result.space_truncated == 0;
        result.causes.push_back({"time", "search space exhausted"});
      }
      break;
    }
    ++result.schedules_tried;

    std::vector<int> labels(static_cast<std::size_t>(dfg.num_nodes()));
    for (NodeId v = 0; v < dfg.num_nodes(); ++v) {
      labels[static_cast<std::size_t>(v)] = schedule->label(v);
    }
    phase.restart();
    SpaceOptions space_options = options_.space;
    space_options.max_backtracks = budget;
    const SpaceResult space = find_monomorphism(dfg, arch, labels, schedule->ii,
                                                space_options, deadline);
    result.space_phase_s += phase.elapsed_s();
    result.space_backjumps += space.backjumps;

    if (space.found) {
      result.success = true;
      result.outcome = MapOutcome::kFeasible;
      result.ii = schedule->ii;
      result.mapping = Mapping(schedule->ii, schedule->time, space.pe);
      // The decoupling invariant: every returned mapping is valid.
      const auto violations =
          validate_mapping(dfg, arch, result.mapping, options_.space.model);
      MONOMAP_ASSERT_MSG(violations.empty(),
                         "mapper produced invalid mapping: "
                             << violations.front().what);
      break;
    }
    if (space.memory_out) {
      record_stop(result, MapOutcome::kMemory, deadline);
      result.failure_reason = "space search exceeded the memory budget";
      result.causes.push_back({"space", "memory budget exceeded"});
      break;
    }
    if (space.deadline_expired) {
      record_stop(result, MapOutcome::kDeadline, deadline);
      result.failure_reason = "space search hit the deadline";
      break;
    }
    // No monomorphism for this labelling (or the backtrack budget decided
    // to stop looking): block it and retry. A complete refutation carries
    // a conflict explanation — a node subset that can never co-occupy
    // these slots — fed back as a time-phase nogood so the time search
    // skips every schedule repeating those placements, not just this
    // label vector. Truncated searches learned nothing; only they count
    // toward giving the II up, and the adaptive budget decides how much
    // to spend on the next one from how this one died.
    if (!space.timed_out && !space.conflict_nodes.empty()) {
      time_solver.add_space_nogood(*schedule, space.conflict_nodes);
    }
    const bool narrow_conflict =
        !space.timed_out &&
        static_cast<int>(space.conflict_nodes.size()) * 2 <=
            dfg.num_nodes();
    if (space.truncated) {
      ++result.space_truncated;
      ++uninformative_at_current_ii;
      // A truncated space search proves nothing about this II: it can
      // never enter the sound refuted interval.
    } else {
      ++result.space_exhausted;
      refuted_at_current_ii = true;
      if (narrow_conflict) {
        ++narrow_refutations_at_current_ii;
      } else {
        ++uninformative_at_current_ii;
      }
    }
    if (base_budget != 0) {
      const double retreat_fraction =
          dfg.num_nodes() > 0
              ? static_cast<double>(space.shallowest_retreat) /
                    dfg.num_nodes()
              : 1.0;
      if (space.truncated && retreat_fraction >= kNearMissDepthFraction) {
        // Near-miss: every conflict so far stayed confined near the
        // leaves — the shallow decisions were never implicated, so a
        // deeper look may finish the job.
        const std::uint64_t cap = base_budget * kMaxBudgetBoost;
        if (budget < cap) {
          budget = std::min(budget * 2, cap);
          ++result.budget_extensions;
        }
      } else if (narrow_conflict) {
        // Narrow refutation: the conflict channel is pruning whole
        // schedule families — restore full effort for the next family.
        budget = base_budget;
      } else {
        // Shallow truncation or wide refutation: the failure implicates
        // the earliest placements (or all of them) — this schedule family
        // dies early and wide, so stop paying full price to re-learn
        // that — cautiously: with 8 retries the budget reaches ~1% of
        // base, not the floor.
        const std::uint64_t floor = std::min(kMinSpaceBacktracks, base_budget);
        if (budget / kBudgetShrinkDivisor >= floor) {
          budget /= kBudgetShrinkDivisor;
          ++result.budget_shrinks;
        } else if (budget > floor) {
          budget = floor;
          ++result.budget_shrinks;
        }
      }
    }
    MONOMAP_DEBUG("space failed at II="
                  << schedule->ii << " (" << space.failure_reason << ") in "
                  << space.seconds << "s, " << space.backtracks
                  << " backtracks, depth " << space.shallowest_retreat << ".."
                  << space.max_depth << "/" << dfg.num_nodes()
                  << ", conflict " << space.conflict_nodes.size()
                  << " nodes; uninformative " << uninformative_at_current_ii
                  << ", narrow " << narrow_refutations_at_current_ii
                  << ", next budget " << budget);
    const bool out_of_retries =
        uninformative_at_current_ii >= kMaxUninformativePerIi;
    const bool out_of_refutations =
        narrow_refutations_at_current_ii >= kMaxNarrowRefutationsPerIi;
    if (out_of_retries || out_of_refutations) {
      if (out_of_retries && !out_of_refutations && !probed_at_current_ii &&
          !refuted_at_current_ii && base_budget != 0 &&
          budget < base_budget) {
        // Last-chance probe. Every failure here was a truncation and the
        // budget had shrunk: the II's feasibility is genuinely unknown and
        // the last few schedules were starved. One full-budget schedule
        // before giving the II up (at most one per II; IIs with refutation
        // evidence escalate without it) — this is what keeps cfd on 5x5 at
        // II 6 instead of drifting to 8 when the shrink sequence outruns
        // the placeable schedule.
        probed_at_current_ii = true;
        budget = base_budget;
        ++result.budget_probes;
        MONOMAP_DEBUG("last-chance probe at II=" << schedule->ii);
        continue;
      }
      // Giving an II up by retry-cap heuristic is NOT a refutation:
      // schedules at it may remain untried, so sound_refutation stays off.
      result.failure_reason = "space search failed for every II up to max";
      MONOMAP_DEBUG("giving up II=" << schedule->ii);
      break;
    }
  }
}

namespace {

// The II attempts are CPU-bound SAT/search work: workers beyond the
// machine's cores only timeslice against each other, turning speculation
// from free use of spare cores into a tax on the frontier attempt. Treat
// the requested thread count as a ceiling; on a small machine the race
// degenerates gracefully toward the sequential walk (queued attempts run
// frontier-first and a win cancels them before they start).
int hardware_cores() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

int clamp_pool_threads(int requested) {
  return requested <= 0 ? hardware_cores()
                        : std::min(requested, hardware_cores());
}

}  // namespace

/// One II walk: pinned per-II attempts, a frontier walking upward over
/// refuted attempts, and a commit rule that accepts a feasible II only once
/// every smaller II is refuted (minimal-II optimality; the same answer at
/// every lookahead). mII and the II ceiling are computed once, here.
///
/// Completion-driven: each attempt's tail resolves its state under the
/// walk mutex, advances the frontier, and launches whatever the window
/// [frontier, frontier + lookahead] is missing. With a pool the attempts
/// are its tasks and the pool's wait_idle() is the barrier; without one
/// (lookahead 0) they queue and run_queued() runs them on the caller's
/// thread in launch order. Pool tasks hold the walk's address, so a pool
/// must be declared after the walks it runs: its destructor then joins
/// the workers before any walk dies, exception paths included.
class DecoupledMapper::Walk {
 public:
  Walk(const DecoupledMapper& mapper, const Dfg& dfg, const CgraArch& arch,
       const Deadline& deadline, int lookahead, ResourceGovernor* gov)
      : mapper_(mapper),
        dfg_(dfg),
        arch_(arch),
        deadline_(deadline),
        lookahead_(std::max(lookahead, 0)),
        anytime_(mapper.options_.anytime),
        gov_(gov),
        mii_(compute_mii(dfg, arch)),
        ceiling_(mapper.options_.max_ii > 0
                     ? mapper.options_.max_ii
                     : std::max(mii_.mii(), std::max(1, dfg.num_nodes()))),
        budget_(mapper.options_.max_schedules),
        frontier_(mii_.mii()),
        refuted_up_to_(frontier_ - 1) {}
  Walk(const Walk&) = delete;
  Walk& operator=(const Walk&) = delete;

  /// Launch the anytime probe, then the first attempt window, as tasks of
  /// `pool` (null: queued for run_queued()). Call once.
  void start(ThreadPool* pool) {
    const std::lock_guard<std::mutex> lock(m_);
    pool_ = pool;
    if (frontier_ > ceiling_) {
      // Nothing between the start and the ceiling: the walk is refuted
      // without a single SAT call.
      MapResult none;
      none.failure_reason = "time search exhausted up to max II";
      commit_locked(std::move(none), frontier_);
      return;
    }
    if (anytime_) launch_locked(ceiling_);
    fill_window_locked();
  }

  /// Run the queued attempts on the calling thread until none is left (the
  /// pool-less walk). Returns what an attempt threw past its own fault
  /// handling, like ThreadPool::wait_idle_collect().
  std::exception_ptr run_queued() {
    try {
      for (;;) {
        std::pair<int, Attempt*> next;
        {
          const std::lock_guard<std::mutex> lock(m_);
          if (queue_.empty()) return nullptr;
          next = queue_.front();
          queue_.pop_front();
        }
        run_attempt(next.first, next.second);
      }
    } catch (...) {
      return std::current_exception();
    }
  }

  /// The committed result. Valid once no attempt is left running; if a
  /// failure left the walk uncommitted (its attempt's tail never ran), the
  /// accumulated effort is returned classified as a fault instead of
  /// asserting — batch siblings must not lose their results over it.
  MapResult take() {
    const std::lock_guard<std::mutex> lock(m_);
    if (!done_) {
      MapResult aborted;
      aborted.outcome = MapOutcome::kFault;
      aborted.failure_reason = "II walk aborted by a worker failure";
      aborted.causes.push_back(
          {"walk", "worker failed before the walk committed"});
      commit_locked(std::move(aborted), frontier_);
    }
    return std::move(final_);
  }

 private:
  struct Attempt {
    explicit Attempt(const CancelToken* parent) : token(parent) {}
    CancelToken token;  // parented to the caller's token, if any
    MapResult result;   // valid once resolved
    bool resolved = false;
  };

  // Fill the window [frontier, min(frontier + lookahead, ceiling)] with
  // attempts; never at or above an already-feasible II. m_ held.
  void fill_window_locked() {
    if (done_) return;
    int cap = frontier_ + std::min(lookahead_, ceiling_ - frontier_);
    if (best_feasible_ >= 0) cap = std::min(cap, best_feasible_ - 1);
    for (int ii = frontier_; ii <= cap; ++ii) launch_locked(ii);
  }

  void launch_locked(int ii) {
    if (attempts_.count(ii) != 0) return;
    auto attempt = std::make_unique<Attempt>(deadline_.cancel_token());
    Attempt* a = attempt.get();
    attempts_.emplace(ii, std::move(attempt));
    if (pool_ != nullptr) {
      pool_->submit([this, ii, a] { run_attempt(ii, a); });
    } else {
      queue_.emplace_back(ii, a);
    }
  }

  void run_attempt(int ii, Attempt* a) {
    // Pool workers are fresh threads: bind the request's governor so the
    // attempt's solvers charge the shared budget.
    const GovernorScope scope(gov_);
    MapResult r;
    if (a->token.cancelled()) {
      // Cancelled while still queued (a smaller II already won, or the
      // caller pulled the plug) — don't even build the solver.
      r.outcome = MapOutcome::kCancelled;
      r.failure_reason = "cancelled before start";
    } else {
      // The attempt shares the walk's wall budget (what remains of it, so
      // both deadlines end at the same instant) and carries its own cancel
      // token so a smaller feasible II can cut it individually.
      const Deadline deadline(deadline_.remaining_s(), &a->token);
      r = mapper_.attempt(dfg_, arch_, ii, deadline, budget_);
    }

    const std::lock_guard<std::mutex> lock(m_);
    a->result = std::move(r);
    a->resolved = true;
    if (a->result.success && (best_feasible_ < 0 || ii < best_feasible_)) {
      best_feasible_ = ii;
      // Larger IIs can no longer win — cancel them; smaller ones keep
      // running, the commit rule still needs their refutations.
      for (auto& [other_ii, other] : attempts_) {
        if (other_ii > ii && !other->resolved) {
          other->token.cancel();
        }
      }
    }
    advance_locked();
  }

  // Walk the frontier over resolved attempts, commit when its verdict is
  // final, then refill the launch window. m_ held.
  void advance_locked() {
    while (!done_) {
      const auto it = attempts_.find(frontier_);
      if (it == attempts_.end() || !it->second->resolved) break;
      Attempt& a = *it->second;
      if (a.result.success) {
        // Every II below the frontier was refuted — this is THE minimal
        // feasible II of the walk.
        commit_locked(std::move(a.result), frontier_);
        return;
      }
      if (a.result.outcome != MapOutcome::kRefuted) {
        // The walk never cancels its frontier (only IIs above a feasible
        // one), so this is the wall clock, the schedule budget, a fault,
        // the governor or the caller's token. Optimality below a held
        // feasible II is unprovable now.
        if (anytime_ && best_feasible_ >= 0 && !deadline_.cancel_fired()) {
          // Anytime contract: surrender optimality, not the mapping. The
          // best held feasible II ships marked degraded, with the sound
          // interval [refuted_up_to_ + 1, best_feasible_] and the
          // frontier's stop cause attached. (An explicit caller cancel
          // still returns nothing — cancellation never degrades.)
          const int held_ii = best_feasible_;
          MapResult held = std::move(attempts_.at(held_ii)->result);
          merge_attempt_counters(held, a.result);
          held.outcome = MapOutcome::kDegraded;
          held.failure_reason = a.result.failure_reason;
          held.causes = a.result.causes;
          std::ostringstream note;
          note << "II=" << frontier_ << " unresolved below the held II="
               << held_ii;
          held.causes.push_back({"anytime", note.str()});
          commit_locked(std::move(held), held_ii);
          return;
        }
        // Strict mode: report the stop rather than a possibly non-minimal
        // mapping.
        MapResult stop = std::move(a.result);
        if (best_feasible_ >= 0) {
          std::ostringstream note;
          note << stop.failure_reason << " (II=" << frontier_
               << " unresolved; a feasible mapping at II=" << best_feasible_
               << " was held back by the commit rule)";
          stop.failure_reason = note.str();
        }
        commit_locked(std::move(stop), frontier_);
        return;
      }
      // Refuted. A sound refutation contiguous with the refuted prefix
      // extends the sound interval; a heuristic give-up does not.
      if (a.result.sound_refutation && frontier_ == refuted_up_to_ + 1) {
        refuted_up_to_ = frontier_;
      }
      if (frontier_ >= ceiling_) {
        // The topmost II carries the exhaustion verdict itself.
        commit_locked(std::move(a.result), frontier_);
        return;
      }
      merge_attempt_counters(aggregate_, a.result);
      ++frontier_;
    }
    fill_window_locked();
  }

  // `final_result` came from the attempt at `from_ii`. m_ held.
  void commit_locked(MapResult final_result, int from_ii) {
    merge_attempt_counters(final_result, aggregate_);
    if (anytime_ && from_ii != ceiling_) {
      // The probe's effort is the walk's too (the schedule budget already
      // counted it), unless it was cancelled while still running.
      const auto probe = attempts_.find(ceiling_);
      if (probe != attempts_.end() && probe->second->resolved) {
        merge_attempt_counters(final_result, probe->second->result);
      }
    }
    final_result.mii = mii_;
    final_result.ii_refuted_up_to = refuted_up_to_;
    final_result.sound_refutation =
        final_result.outcome == MapOutcome::kRefuted &&
        refuted_up_to_ >= ceiling_;
    final_result.total_s =
        final_result.time_phase_s + final_result.space_phase_s;
    publish_interval(final_result);
    for (auto& [ii, attempt] : attempts_) {
      if (!attempt->resolved) attempt->token.cancel();
    }
    final_ = std::move(final_result);
    done_ = true;
  }

  const DecoupledMapper& mapper_;
  const Dfg& dfg_;
  const CgraArch& arch_;
  const Deadline& deadline_;
  const int lookahead_;
  const bool anytime_;
  ThreadPool* pool_ = nullptr;  // null = run_queued() on the caller
  ResourceGovernor* const gov_;   // request governor, rebound per attempt
  const MiiBreakdown mii_;
  const int ceiling_;  // inclusive; the anytime probe runs here
  ScheduleBudget budget_;

  std::mutex m_;
  std::map<int, std::unique_ptr<Attempt>> attempts_;
  std::deque<std::pair<int, Attempt*>> queue_;  // pool-less launches
  int frontier_;            // lowest unresolved II
  int best_feasible_ = -1;  // smallest II with a held feasible mapping
  // Largest II such that every II up to it is soundly refuted (IIs below
  // mII included); heuristic give-ups do not extend it.
  int refuted_up_to_;
  // Effort counters of the refuted IIs the frontier walked over, merged in
  // ascending II order (cancelled racers above the final II are
  // deliberately excluded — they are wall clock, not work the answer
  // needed).
  MapResult aggregate_;
  MapResult final_;
  bool done_ = false;
};

MapResult DecoupledMapper::map(const Dfg& dfg, const CgraArch& arch,
                               int lookahead) const {
  const Deadline deadline = options_.timeout_s > 0
                                ? Deadline(options_.timeout_s)
                                : Deadline::unlimited();
  return map(dfg, arch, deadline, lookahead);
}

MapResult DecoupledMapper::map(const Dfg& dfg, const CgraArch& arch,
                               const Deadline& deadline, int lookahead) const {
  std::unique_ptr<ResourceGovernor> owned_gov =
      make_request_governor(options_.memory_budget_mb);
  const GovernorScope scope(owned_gov.get());
  ResourceGovernor* gov = GovernorScope::current();

  Walk run(*this, dfg, arch, deadline, lookahead, gov);
  // The frontier plus the IIs raced beyond it: min(lookahead + 1, cores)
  // workers.
  std::optional<ThreadPool> pool;
  if (lookahead > 0) {
    pool.emplace(std::min(lookahead, hardware_cores() - 1) + 1);
  }
  run.start(pool ? &*pool : nullptr);
  const std::exception_ptr error =
      pool ? pool->wait_idle_collect() : run.run_queued();
  MapResult result = run.take();
  if (error != nullptr) {
    // A task died past its attempt's fault handling: classify the known
    // fault classes onto the result (take() already salvaged the effort
    // counters); anything else propagates out of fault_result.
    const MapResult fault = fault_result(error);
    if (!result.success) {
      result.outcome = escalate(result.outcome, fault.outcome);
      result.causes.insert(result.causes.end(), fault.causes.begin(),
                           fault.causes.end());
    }
  }
  absorb_governor(result, gov);
  publish_interval(result);
  return result;
}

std::vector<MapResult> DecoupledMapper::map_batch(
    const std::vector<const Dfg*>& dfgs, const CgraArch& arch,
    int num_threads) const {
  // One budget for the whole batch. Historically every item silently got
  // its own full options_.timeout_s, so a batch could run items * timeout.
  const Deadline deadline = options_.timeout_s > 0
                                ? Deadline(options_.timeout_s)
                                : Deadline::unlimited();
  return map_batch(dfgs, arch, deadline, num_threads);
}

std::vector<MapResult> DecoupledMapper::map_batch(
    const std::vector<const Dfg*>& dfgs, const CgraArch& arch,
    const Deadline& deadline, int num_threads, BatchStats* stats) const {
  std::vector<MapResult> results(dfgs.size());
  if (stats != nullptr) *stats = BatchStats{};
  if (dfgs.empty()) return results;
  // One memory budget for the whole batch, as one deadline: every case
  // charges (and reports) the batch's governor.
  std::unique_ptr<ResourceGovernor> owned_gov =
      make_request_governor(options_.memory_budget_mb);
  const GovernorScope scope(owned_gov.get());
  ResourceGovernor* gov = GovernorScope::current();
  if (num_threads == 1) {
    // Sequential reference path: every case runs the plain map() in order.
    for (std::size_t i = 0; i < dfgs.size(); ++i) {
      results[i] = map(*dfgs[i], arch, deadline);
      if (stats != nullptr) {
        ++stats->outcome_counts[static_cast<std::size_t>(
            results[i].outcome)];
      }
    }
    return results;
  }
  // Pooled path: every case is a lookahead-1 walk whose per-II attempts
  // are the pool's tasks. A hard case decomposes into attempts any idle
  // worker takes, instead of pinning one thread for the whole batch.
  // Each case commits what its own map() would.
  std::vector<std::unique_ptr<Walk>> walks;
  walks.reserve(dfgs.size());
  for (const Dfg* dfg : dfgs) {
    walks.push_back(std::make_unique<Walk>(*this, *dfg, arch, deadline,
                                           /*lookahead=*/1, gov));
  }
  ThreadPool pool(clamp_pool_threads(num_threads));
  for (auto& w : walks) w->start(&pool);
  // One poisoned case must not sink the batch: the known fault classes
  // are already folded into the affected case's take() fallback;
  // anything else (AssertionError first) propagates out of fault_result.
  if (const std::exception_ptr error = pool.wait_idle_collect()) {
    (void)fault_result(error);
  }
  for (std::size_t i = 0; i < walks.size(); ++i) {
    results[i] = walks[i]->take();
    absorb_governor(results[i], gov);
    if (stats != nullptr) {
      ++stats->outcome_counts[static_cast<std::size_t>(results[i].outcome)];
    }
  }
  if (stats != nullptr) stats->fault_requeues = pool.fault_requeues();
  return results;
}

}  // namespace monomap
