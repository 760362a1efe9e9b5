#include "mapper/decoupled_mapper.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>

#include "sched/mii.hpp"
#include "support/fault.hpp"
#include "support/log.hpp"
#include "support/parallel.hpp"
#include "support/resource.hpp"
#include "support/stopwatch.hpp"

namespace monomap {

/// Cross-II state threaded through one speculative attempt's mapping loop:
/// the shared store, this attempt's II, and the local certificate snapshot
/// the schedule prefilter scans.
struct DecoupledMapper::CrossIiContext {
  CrossIiNogoodStore* store = nullptr;
  int attempt_ii = 0;
  std::size_t cursor = 0;                // drain position in the store
  std::vector<SlotPartitionCert> certs;  // local snapshot for the prefilter
};

namespace {

/// Derive the structured verdict from the result flags (precedence:
/// feasible > degraded > cancelled > memory > fault > deadline > refuted —
/// cancellation never degrades) and publish the sound II interval.
/// Idempotent; entry points re-run it after adding governor telemetry.
void finalize_outcome(MapResult& r) {
  if (r.success) {
    r.outcome = r.degraded ? MapOutcome::kDegraded : MapOutcome::kFeasible;
  } else if (r.cancelled) {
    r.outcome = MapOutcome::kCancelled;
  } else if (r.memory_out) {
    r.outcome = MapOutcome::kMemory;
  } else if (r.faulted) {
    r.outcome = MapOutcome::kFault;
  } else if (r.timed_out) {
    r.outcome = MapOutcome::kDeadline;
  } else {
    r.outcome = MapOutcome::kRefuted;
  }
  r.ii_lo = std::max(1, r.ii_refuted_up_to + 1);
  r.ii_hi = r.success ? r.ii : 0;
}

/// Fold one resolved attempt's effort counters into an aggregate. Result
/// fields that identify the outcome (success, ii, mapping, failure_reason,
/// last_space, final_ii, learnt_retained) stay the receiver's.
void merge_attempt_counters(MapResult& into, const MapResult& from) {
  into.time_phase_s += from.time_phase_s;
  into.space_phase_s += from.space_phase_s;
  into.schedules_tried += from.schedules_tried;
  into.space_truncated += from.space_truncated;
  into.space_exhausted += from.space_exhausted;
  into.space_backjumps += from.space_backjumps;
  into.budget_extensions += from.budget_extensions;
  into.budget_shrinks += from.budget_shrinks;
  into.budget_probes += from.budget_probes;
  into.speculative_hits += from.speculative_hits;
  into.nogoods_lifted_cross_ii += from.nogoods_lifted_cross_ii;
  into.fault_retries += from.fault_retries;
  into.mem_sheds += from.mem_sheds;
  into.mem_peak_bytes = std::max(into.mem_peak_bytes, from.mem_peak_bytes);
  TimeSolverStats& t = into.time_stats;
  const TimeSolverStats& f = from.time_stats;
  t.instances_built += f.instances_built;
  t.sat_calls += f.sat_calls;
  t.solutions_yielded += f.solutions_yielded;
  t.sessions_created += f.sessions_created;
  t.horizon_extensions += f.horizon_extensions;
  t.assumptions_used += f.assumptions_used;
  t.nogoods_added += f.nogoods_added;
  t.narrow_nogoods += f.narrow_nogoods;
  t.nogoods_lifted += f.nogoods_lifted;
  t.nogoods_deduped += f.nogoods_deduped;
  t.nogoods_lifted_cross_ii += f.nogoods_lifted_cross_ii;
  t.capacity_refuted_horizons += f.capacity_refuted_horizons;
}

/// Create this request's governor when a budget is configured and no outer
/// scope already bound one (nested calls — the anytime probe, portfolio
/// racers on the caller's thread — inherit the outer request's budget).
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
    if (!r.success && !r.cancelled) r.memory_out = true;
    r.causes.push_back({"governor", gov->trip_reason()});
  }
}

}  // namespace

MapResult DecoupledMapper::map(const Dfg& dfg, const CgraArch& arch) const {
  const Deadline deadline = options_.timeout_s > 0
                                ? Deadline(options_.timeout_s)
                                : Deadline::unlimited();
  return map(dfg, arch, deadline);
}

MapResult DecoupledMapper::map(const Dfg& dfg, const CgraArch& arch,
                               const Deadline& deadline) const {
  std::unique_ptr<ResourceGovernor> owned_gov =
      make_request_governor(options_.memory_budget_mb);
  const GovernorScope scope(owned_gov.get());
  ResourceGovernor* gov = GovernorScope::current();

  // Fault containment: an injected fault (or allocation failure) escaping
  // the walk abandons that attempt's state entirely — solvers may be
  // mid-search — and retries from scratch after a bounded backoff.
  // AssertionError is NOT caught: an invariant violation is a bug, not a
  // fault to retry.
  MapResult result;
  int retries = 0;
  for (;;) {
    bool retryable = false;
    try {
      result = map_sequential(dfg, arch, deadline);
      result.fault_retries += retries;
      break;
    } catch (const fault::FaultInjectedError& e) {
      result = MapResult{};
      result.faulted = true;
      result.timed_out = true;
      result.failure_reason = std::string("injected fault: ") + e.what();
      result.causes.push_back({e.site(), "injected fault"});
      retryable = true;
    } catch (const std::bad_alloc&) {
      result = MapResult{};
      result.memory_out = true;
      result.timed_out = true;
      result.failure_reason = "allocation failure";
      result.causes.push_back({"alloc", "allocation failure"});
      retryable = true;
    }
    if (!retryable || retries >= options_.max_fault_retries ||
        !fault::backoff_sleep(deadline, retries)) {
      result.fault_retries = retries;
      result.cancelled = deadline.cancel_fired();
      break;
    }
    ++retries;
  }
  absorb_governor(result, gov);
  finalize_outcome(result);
  return result;
}

MapResult DecoupledMapper::map_walk(const Dfg& dfg, const CgraArch& arch,
                                    const Deadline& deadline,
                                    const TimeSolverOptions& time_opts) const {
  MapResult result;
  TimeSolverOptions time_options = time_opts;
  if (options_.space.model == MrrgModel::kConsecutiveOnly) {
    // Restricted interconnect: keep the time search consistent with the
    // space model, or every schedule with a long slot span would be
    // rejected in space.
    time_options.constraints.consecutive_slots = true;
  }
  TimeSolver time_solver(dfg, arch, time_options);
  result.mii = time_solver.mii();
  run_mapping_loop(dfg, arch, deadline, time_solver, nullptr, result);
  result.time_stats = time_solver.stats();
  result.total_s = result.time_phase_s + result.space_phase_s;
  return result;
}

MapResult DecoupledMapper::map_sequential(const Dfg& dfg, const CgraArch& arch,
                                          const Deadline& deadline) const {
  if (!options_.anytime) {
    return map_walk(dfg, arch, deadline, options_.time);
  }
  // Anytime mode: secure the fallback first. At the automatic ceiling
  // (max(mII, #nodes)) a fully sequential schedule always satisfies
  // capacity and connectivity, so the probe is cheap and near-certain;
  // a user-configured max_ii is probed instead when set.
  const MiiBreakdown mii = compute_mii(dfg, arch);
  const int probe_ii = options_.time.max_ii > 0
                           ? options_.time.max_ii
                           : std::max(mii.mii(), std::max(1, dfg.num_nodes()));
  MapResult probe = map_at_ii(dfg, arch, probe_ii, deadline);
  if (!probe.success) {
    // No safety net to degrade onto — fall back to the plain walk (the
    // probe's effort is merged so telemetry still accounts for it).
    MapResult result = map_walk(dfg, arch, deadline, options_.time);
    merge_attempt_counters(result, probe);
    return result;
  }
  if (probe_ii <= mii.mii()) {
    // The ceiling IS the floor: the probe is provably optimal.
    probe.ii_refuted_up_to = mii.mii() - 1;
    return probe;
  }
  TimeSolverOptions walk_time = options_.time;
  walk_time.max_ii = probe_ii - 1;
  MapResult walk = map_walk(dfg, arch, deadline, walk_time);
  if (walk.success) {
    merge_attempt_counters(walk, probe);
    return walk;
  }
  if (walk.cancelled) {
    // Cancellation never degrades: the caller asked this run to stop
    // producing, not for its best effort so far.
    merge_attempt_counters(walk, probe);
    return walk;
  }
  // The capped walk ended without a better mapping. If it soundly refuted
  // everything below the probe, the probe is the proven optimum; otherwise
  // return it marked degraded with the sound interval the walk did
  // establish.
  MapResult result = std::move(probe);
  merge_attempt_counters(result, walk);
  result.ii_refuted_up_to = walk.ii_refuted_up_to;
  if (walk.ii_refuted_up_to >= probe_ii - 1) {
    return result;  // kFeasible, interval collapses to [probe_ii, probe_ii]
  }
  result.degraded = true;
  result.timed_out = walk.timed_out;
  result.memory_out = walk.memory_out;
  result.faulted = walk.faulted;
  result.failure_reason = walk.failure_reason;
  result.causes = walk.causes;
  result.causes.push_back(
      {"anytime", "walk below the held mapping was cut short"});
  return result;
}

MapResult DecoupledMapper::map_at_ii(const Dfg& dfg, const CgraArch& arch,
                                     int ii, const Deadline& deadline,
                                     CrossIiNogoodStore* store) const {
  MapResult result;
  TimeSolverOptions time_options = options_.time;
  if (options_.space.model == MrrgModel::kConsecutiveOnly) {
    time_options.constraints.consecutive_slots = true;
  }
  // Pin the time search to exactly this II. (An ii below mII comes back
  // refuted immediately: the solver clamps its start to mII, which then
  // exceeds max_ii — correct, since no schedule exists there.)
  time_options.min_ii = ii;
  time_options.max_ii = ii;
  TimeSolver time_solver(dfg, arch, time_options);
  result.mii = time_solver.mii();
  CrossIiContext ctx;
  ctx.store = store;
  ctx.attempt_ii = ii;
  run_mapping_loop(dfg, arch, deadline, time_solver,
                   store != nullptr ? &ctx : nullptr, result);
  result.time_stats = time_solver.stats();
  result.total_s = result.time_phase_s + result.space_phase_s;
  finalize_outcome(result);
  return result;
}

MapResult DecoupledMapper::map_warm(const Dfg& dfg, const CgraArch& arch,
                                    const Deadline& deadline,
                                    CrossIiNogoodStore* store,
                                    int refuted_floor) const {
  std::unique_ptr<ResourceGovernor> owned_gov =
      make_request_governor(options_.memory_budget_mb);
  const GovernorScope scope(owned_gov.get());
  ResourceGovernor* gov = GovernorScope::current();

  MapResult aggregate;   // counters of the non-final attempts
  MapResult final_result;
  int floor = std::max(0, refuted_floor);
  int ii = floor + 1;
  int cap = options_.time.max_ii;  // 0 = unknown until the first attempt
  int retries = 0;
  bool first = true;
  for (;;) {
    MapResult attempt;
    bool retryable = false;
    try {
      DecoupledMapperOptions per = options_;
      if (options_.max_schedules > 0) {
        // The schedule budget spans the whole walk, like map()'s.
        per.max_schedules =
            options_.max_schedules - aggregate.schedules_tried;
        if (per.max_schedules <= 0) {
          final_result.timed_out = true;
          final_result.failure_reason = "schedule budget exhausted";
          final_result.causes.push_back(
              {"budget", "schedule budget exhausted"});
          break;
        }
      }
      attempt = DecoupledMapper(per).map_at_ii(dfg, arch, ii, deadline,
                                               store);
    } catch (const fault::FaultInjectedError& e) {
      attempt = MapResult{};
      attempt.faulted = true;
      attempt.timed_out = true;
      attempt.failure_reason = std::string("injected fault: ") + e.what();
      attempt.causes.push_back({e.site(), "injected fault"});
      retryable = true;
    } catch (const std::bad_alloc&) {
      attempt = MapResult{};
      attempt.memory_out = true;
      attempt.timed_out = true;
      attempt.failure_reason = "allocation failure";
      attempt.causes.push_back({"alloc", "allocation failure"});
      retryable = true;
    }
    if (retryable) {
      if (retries >= options_.max_fault_retries ||
          !fault::backoff_sleep(deadline, retries)) {
        attempt.fault_retries = retries;
        attempt.cancelled = deadline.cancel_fired();
        final_result = std::move(attempt);
        break;
      }
      ++retries;
      continue;  // retry the same II
    }
    if (first) {
      first = false;
      final_result.mii = attempt.mii;
      if (cap <= 0) {
        cap = std::max(attempt.mii.mii(), std::max(1, dfg.num_nodes()));
      }
    }
    const int mii = attempt.mii.mii();
    if (attempt.success || attempt.timed_out) {
      const MiiBreakdown walk_mii = final_result.mii;
      final_result = std::move(attempt);
      final_result.mii = walk_mii;
      break;
    }
    // Refuted at this II. IIs below mII are refuted by the bound itself,
    // so a pinned attempt below it closes the whole gap in one step.
    const int closed_up_to = mii > ii ? mii - 1 : ii;
    if (attempt.sound_refutation && ii == floor + 1) {
      floor = closed_up_to;
    }
    const int next_ii = std::max(ii + 1, mii);
    if (next_ii > cap) {
      const MiiBreakdown walk_mii = final_result.mii;
      final_result = std::move(attempt);
      final_result.mii = walk_mii;
      final_result.success = false;
      final_result.timed_out = false;
      final_result.failure_reason = "warm walk exhausted the II range";
      break;
    }
    merge_attempt_counters(aggregate, attempt);
    ii = next_ii;
  }
  merge_attempt_counters(final_result, aggregate);
  final_result.fault_retries += retries;
  final_result.ii_refuted_up_to = floor;
  absorb_governor(final_result, gov);
  finalize_outcome(final_result);
  return final_result;
}

void DecoupledMapper::run_mapping_loop(const Dfg& dfg, const CgraArch& arch,
                                       const Deadline& deadline,
                                       TimeSolver& time_solver,
                                       CrossIiContext* ctx,
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
  int last_ii = -1;
  // Sound refutation accounting. An II counts as soundly refuted only when
  // its time search exhausted naturally (never via skip_to_next_ii — the
  // retry caps are heuristics) AND no space search at it was truncated:
  // every schedule was either fully refuted in space or pruned by a sound
  // nogood/prefilter certificate. The run value advances contiguously from
  // the solver's starting II, so the reported interval never has holes.
  const int start_ii = time_solver.current_ii();
  int run_refuted_up_to = start_ii - 1;
  bool truncated_at_current_ii = false;
  bool skipped_current_ii = false;
  const auto note_ii_closed = [&](int closed_ii) {
    if (closed_ii >= 0 && !skipped_current_ii && !truncated_at_current_ii &&
        closed_ii == run_refuted_up_to + 1) {
      run_refuted_up_to = closed_ii;
    }
    truncated_at_current_ii = false;
    skipped_current_ii = false;
  };
  for (;;) {
    if (options_.max_schedules > 0 &&
        result.schedules_tried >= options_.max_schedules) {
      // Deterministic work budget: unlike a wall deadline this trips at a
      // bit-reproducible point, so degraded anytime results are replayable.
      result.timed_out = true;
      result.failure_reason = "schedule budget exhausted";
      result.causes.push_back({"budget", "schedule budget exhausted"});
      break;
    }
    if (ctx != nullptr) {
      // Pull certificates the other racing IIs learned since the last
      // look: instantiate their cyclic-rotation clauses into this II's
      // solver (warm start — see CrossIiNogoodStore) and extend the local
      // snapshot the prefilter below scans. Own-II certificates skip the
      // clause step: add_space_nogood already lifted their rotations here.
      std::vector<SlotPartitionCert> fresh;
      ctx->store->drain(&ctx->cursor, &fresh);
      for (SlotPartitionCert& cert : fresh) {
        if (cert.source_ii != ctx->attempt_ii) {
          for (auto& rotation :
               instantiate_rotations(cert, ctx->attempt_ii)) {
            if (time_solver.add_cross_ii_nogood(std::move(rotation))) {
              ++result.nogoods_lifted_cross_ii;
            }
          }
        }
        ctx->certs.push_back(std::move(cert));
      }
    }
    phase.restart();
    const std::optional<TimeSolution> schedule = time_solver.next(deadline);
    result.time_phase_s += phase.elapsed_s();
    if (!schedule.has_value()) {
      result.timed_out = time_solver.timed_out();
      result.cancelled = result.timed_out && deadline.cancel_fired();
      if (result.timed_out && time_solver.memory_out()) {
        result.memory_out = true;
        result.failure_reason = "time search exceeded the memory budget";
        result.causes.push_back({"time", "memory budget exceeded"});
      } else {
        result.failure_reason = result.timed_out
                                    ? "time search hit the deadline"
                                    : "time search exhausted up to max II";
      }
      if (!result.timed_out) {
        // Natural exhaustion of the whole range: close the last II the
        // solver visited, and if the run stayed contiguous to it — or the
        // range was refuted purely in time (last_ii == -1, not one
        // schedule yielded) — the full range up to max_ii is sound.
        note_ii_closed(last_ii);
        if (last_ii == -1 || run_refuted_up_to == last_ii) {
          run_refuted_up_to = time_solver.max_ii();
        }
        result.causes.push_back({"time", "search space exhausted"});
      }
      break;
    }
    ++result.schedules_tried;
    if (schedule->ii != last_ii) {
      // The time solver escalates II on its own when an II's schedules are
      // exhausted; the new II's first schedule gets the full search effort.
      // The II it left behind is closed: fold it into the sound run.
      note_ii_closed(last_ii);
      uninformative_at_current_ii = 0;
      narrow_refutations_at_current_ii = 0;
      refuted_at_current_ii = false;
      probed_at_current_ii = false;
      budget = base_budget;
      last_ii = schedule->ii;
    }

    std::vector<int> labels(static_cast<std::size_t>(dfg.num_nodes()));
    for (NodeId v = 0; v < dfg.num_nodes(); ++v) {
      labels[static_cast<std::size_t>(v)] = schedule->label(v);
    }
    phase.restart();
    // Cross-II certificate prefilter: a schedule realising (or coarsening)
    // a stored refutation partition is spatially infeasible — synthesise
    // the refutation another II already paid for instead of searching.
    // The synthetic SpaceResult then flows through the exact policy path a
    // real refutation takes (nogood feedback, narrow/wide classification,
    // budget adaptation, retry caps).
    bool prefilter_hit = false;
    SpaceResult space;
    if (ctx != nullptr) {
      for (const SlotPartitionCert& cert : ctx->certs) {
        if (cert_hits_labels(cert, labels)) {
          prefilter_hit = true;
          ++result.speculative_hits;
          space.found = false;
          space.failure_reason = "cross-II certificate prefilter";
          space.shallowest_retreat = 0;
          for (const auto& block : cert.blocks) {
            space.conflict_nodes.insert(space.conflict_nodes.end(),
                                        block.begin(), block.end());
          }
          break;
        }
      }
    }
    if (!prefilter_hit) {
      SpaceOptions space_options = options_.space;
      if (options_.adaptive_space_budget) {
        space_options.max_backtracks = budget;
      } else if (uninformative_at_current_ii +
                         narrow_refutations_at_current_ii >
                     0 &&
                 space_options.max_backtracks != 0) {
        // Historical flat policy: the first schedule at an II gets the full
        // search effort, retries a quarter.
        space_options.max_backtracks =
            std::max<std::uint64_t>(space_options.max_backtracks / 4, 4096);
      }
      space = find_monomorphism(dfg, arch, labels, schedule->ii,
                                space_options, deadline);
    }
    result.space_phase_s += phase.elapsed_s();
    result.space_backjumps += space.backjumps;
    result.last_space = space;

    if (space.found) {
      result.success = true;
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
      result.timed_out = true;
      result.memory_out = true;
      result.cancelled = deadline.cancel_fired();
      result.failure_reason = "space search exceeded the memory budget";
      result.causes.push_back({"space", "memory budget exceeded"});
      break;
    }
    if (space.deadline_expired) {
      result.timed_out = true;
      result.cancelled = deadline.cancel_fired();
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
      if (ctx != nullptr && !prefilter_hit) {
        // Publish the refutation for the other racing IIs (the prefilter's
        // own hits are already in the store — they came from it).
        ctx->store->add(ctx->attempt_ii, space.conflict_nodes, labels);
      }
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
      truncated_at_current_ii = true;
    } else {
      ++result.space_exhausted;
      refuted_at_current_ii = true;
      if (narrow_conflict) {
        ++narrow_refutations_at_current_ii;
      } else {
        ++uninformative_at_current_ii;
      }
    }
    if (options_.adaptive_space_budget && base_budget != 0) {
      const double retreat_fraction =
          dfg.num_nodes() > 0
              ? static_cast<double>(space.shallowest_retreat) /
                    dfg.num_nodes()
              : 1.0;
      if (space.truncated &&
          retreat_fraction >= options_.near_miss_depth_fraction) {
        // Near-miss: every conflict so far stayed confined near the
        // leaves — the shallow decisions were never implicated, so a
        // deeper look may finish the job.
        const std::uint64_t cap =
            base_budget *
            std::max<std::uint64_t>(options_.max_space_budget_boost, 1);
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
        // that. The default divisor of 2 is deliberately cautious: it
        // keeps mid-sized probes alive for schedules that are placeable
        // but need some search (with 8 retries the budget reaches ~1% of
        // base, not the floor); raise space_budget_shrink_divisor to kill
        // dead-II mills faster.
        const std::uint64_t floor =
            std::min(options_.min_space_backtracks, base_budget);
        const std::uint64_t divisor =
            std::max<std::uint64_t>(options_.space_budget_shrink_divisor, 2);
        if (budget / divisor >= floor) {
          budget /= divisor;
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
        options_.max_space_retries_per_ii > 0 &&
        uninformative_at_current_ii >= options_.max_space_retries_per_ii;
    const bool out_of_refutations =
        options_.max_space_refutations_per_ii > 0 &&
        narrow_refutations_at_current_ii >=
            options_.max_space_refutations_per_ii;
    if (out_of_retries || out_of_refutations) {
      if (out_of_retries && !out_of_refutations &&
          options_.last_chance_probe && options_.adaptive_space_budget &&
          !probed_at_current_ii && !refuted_at_current_ii &&
          base_budget != 0 && budget < base_budget) {
        // Every failure here was a truncation and the budget had shrunk:
        // the II's feasibility is genuinely unknown and the last few
        // schedules were starved. One full-budget schedule before giving
        // the II up — this is what keeps cfd on 5x5 at II 6 instead of
        // drifting to 8 when the shrink sequence outruns the placeable
        // schedule.
        probed_at_current_ii = true;
        budget = base_budget;
        ++result.budget_probes;
        MONOMAP_DEBUG("last-chance probe at II=" << schedule->ii);
        continue;
      }
      uninformative_at_current_ii = 0;
      narrow_refutations_at_current_ii = 0;
      refuted_at_current_ii = false;
      probed_at_current_ii = false;
      budget = base_budget;
      // Giving an II up by retry-cap heuristic is NOT a refutation:
      // schedules at it may remain untried. Keep it out of the sound run.
      skipped_current_ii = true;
      phase.restart();
      const bool more = time_solver.skip_to_next_ii();
      result.time_phase_s += phase.elapsed_s();
      if (!more) {
        result.failure_reason = "space search failed for every II up to max";
        break;
      }
      MONOMAP_DEBUG("escalating to II=" << time_solver.current_ii());
    }
  }
  // Publish the sound interval. A pinned attempt starting above mII (the
  // speculative racers) cannot claim IIs below its own start refuted — it
  // never looked at them — so it only reports the universally-known
  // [1, mII) floor; its per-run verdict travels via sound_refutation.
  const int mii = result.mii.mii();
  result.sound_refutation = !result.success && !result.timed_out &&
                            run_refuted_up_to >= time_solver.max_ii();
  result.ii_refuted_up_to =
      (start_ii <= mii) ? run_refuted_up_to : mii - 1;
}

std::vector<SpaceOptions> default_portfolio_configs(const SpaceOptions& base) {
  // Diverse variable orders first (they explore genuinely different trees),
  // then a no-symmetry variant: on rare instances the canonical-octant
  // restriction steers the first placement away from the only easy region.
  std::vector<SpaceOptions> configs;
  for (const SpaceOrder order :
       {SpaceOrder::kDynamicMrv, SpaceOrder::kConnectivity,
        SpaceOrder::kDegree}) {
    SpaceOptions c = base;
    c.order = order;
    configs.push_back(c);
  }
  SpaceOptions no_sym = base;
  no_sym.order = SpaceOrder::kDynamicMrv;
  no_sym.symmetry_breaking = false;
  configs.push_back(no_sym);
  return configs;
}

MapResult DecoupledMapper::map_portfolio(const Dfg& dfg, const CgraArch& arch,
                                         const PortfolioOptions& portfolio) const {
  const std::vector<SpaceOptions> configs =
      portfolio.configs.empty() ? default_portfolio_configs(options_.space)
                                : portfolio.configs;
  const int num_configs = static_cast<int>(configs.size());
  MONOMAP_ASSERT(num_configs > 0);

  CancelToken winner_found;
  // One shared budget for the whole race: copies of `base` share the same
  // start instant and all observe the first-win token.
  const Deadline base(options_.timeout_s > 0
                          ? options_.timeout_s
                          : std::numeric_limits<double>::infinity(),
                      &winner_found);

  std::vector<MapResult> results(static_cast<std::size_t>(num_configs));
  auto run_config = [&](int index) {
    // A win (or expiry) skips the configurations still waiting for a
    // thread; in sequential mode this is the early exit.
    if (base.expired()) return;
    DecoupledMapperOptions opt = options_;
    opt.space = configs[static_cast<std::size_t>(index)];
    MapResult r = DecoupledMapper(opt).map(dfg, arch, base);
    r.portfolio_config = index;
    // Only a win ends the race. A failure is not definitive even with
    // timed_out == false: the mapper truncates per-schedule space searches
    // with backtrack budgets (without flagging the overall result), so a
    // configuration with a different variable order may still succeed.
    if (r.success) {
      winner_found.cancel();
    }
    results[static_cast<std::size_t>(index)] = std::move(r);
  };
  parallel_for_indices(num_configs, portfolio.num_threads, run_config);

  // First-win: lowest-index success (in the threaded race every loser was
  // cancelled moments after the winner finished, so any success is "the"
  // winner up to scheduling noise; picking the lowest index keeps the
  // reduction deterministic given the same set of successes).
  for (MapResult& r : results) {
    if (r.success) return std::move(r);
  }
  // All failed: prefer a definitive exhaustion over a cancelled/timed-out
  // racer, else fall back to the first configuration's result.
  for (MapResult& r : results) {
    if (r.portfolio_config >= 0 && !r.timed_out &&
        !r.failure_reason.empty()) {
      return std::move(r);
    }
  }
  for (MapResult& r : results) {
    if (r.portfolio_config >= 0) return std::move(r);
  }
  MapResult none;
  none.failure_reason = "portfolio: no configuration ran before the deadline";
  none.timed_out = true;
  return none;
}

namespace {

/// One speculative cross-II race: per-II pinned attempts on a shared
/// work-stealing pool, a frontier walking upward over refutations, and a
/// commit rule that only accepts a feasible II once every smaller II is
/// refuted (minimal-II optimality, agreement with sequential map()).
///
/// Completion-driven: no thread ever blocks waiting for an attempt. Each
/// attempt's tail (still on the worker) resolves its state under the run
/// mutex, advances the frontier, and launches whatever the window
/// [frontier, frontier + lookahead] is missing. The pool's wait_idle() is
/// therefore the natural barrier: when no tasks remain, every run has
/// committed.
class SpeculativeRun {
 public:
  struct Config {
    int start_ii = 1;   // mII — where the frontier starts
    int max_ii = 1;     // inclusive II ceiling (mirrors TimeSolver's rule)
    int lookahead = 2;  // IIs kept in flight beyond the frontier
    bool lift = false;  // cross-II certificate sharing (register persistence)
    bool anytime = false;       // degrade to the best held feasible mapping
    int max_fault_retries = 3;  // per-attempt injected-fault retry cap
  };

  SpeculativeRun(const DecoupledMapper& mapper, const Dfg& dfg,
                 const CgraArch& arch, const Deadline& base,
                 const Config& config, WorkStealingPool& pool,
                 MiiBreakdown mii, ResourceGovernor* gov)
      : mapper_(mapper),
        dfg_(dfg),
        arch_(arch),
        base_(base),
        config_(config),
        pool_(pool),
        mii_(std::move(mii)),
        gov_(gov),
        frontier_(config.start_ii),
        refuted_up_to_(config.start_ii - 1) {
    store_.set_governor(gov);
  }

  /// Launch the initial attempt window. Call once, before wait_idle().
  void start() {
    const std::lock_guard<std::mutex> lock(m_);
    if (frontier_ > config_.max_ii) {
      // mII already beyond the configured cap — same verdict the
      // sequential solver reaches without a single SAT call.
      MapResult none;
      none.failure_reason = "time search exhausted up to max II";
      commit_locked(std::move(none));
      return;
    }
    launch_locked();
  }

  /// The committed result. Valid after the pool drained; if a worker
  /// failure left the run uncommitted (its attempt's tail never ran), the
  /// accumulated effort is returned classified as a fault instead of
  /// asserting — batch siblings must not lose their results over it.
  MapResult take() {
    const std::lock_guard<std::mutex> lock(m_);
    if (!done_) {
      MapResult aborted = std::move(aggregate_);
      aborted.faulted = true;
      aborted.timed_out = true;
      aborted.failure_reason = "speculative run aborted by a worker failure";
      aborted.causes.push_back(
          {"speculative", "worker failed before the run committed"});
      aborted.ii_refuted_up_to = refuted_up_to_;
      commit_locked(std::move(aborted));
    }
    return std::move(final_);
  }

 private:
  struct Attempt {
    explicit Attempt(const CancelToken* parent) : token(parent) {}
    enum class State { kRunning, kFeasible, kRefuted, kTimedOut };
    CancelToken token;  // parented to the caller's token, if any
    MapResult result;
    State state = State::kRunning;
    bool cancelled_by_us = false;
  };

  // Fill the window [frontier, min(frontier + lookahead, max_ii)] with
  // running attempts; never above an already-feasible II. m_ held.
  void launch_locked() {
    if (done_) return;
    int cap = std::min(frontier_ + config_.lookahead, config_.max_ii);
    if (best_feasible_ >= 0) cap = std::min(cap, best_feasible_ - 1);
    for (int ii = frontier_; ii <= cap; ++ii) {
      if (attempts_.count(ii) != 0) continue;
      auto attempt = std::make_unique<Attempt>(base_.cancel_token());
      Attempt* a = attempt.get();
      attempts_.emplace(ii, std::move(attempt));
      pool_.submit([this, ii, a] { run_attempt(ii, a); });
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
      r.timed_out = true;
      r.cancelled = true;
      r.failure_reason = "cancelled before start";
    } else {
      // The attempt shares the run's wall budget (remaining as of launch —
      // both deadlines tick from the same start) and carries its own
      // cancel token so a smaller feasible II can cut it individually.
      // Injected faults and allocation failures abandon the attempt's
      // solvers and retry from scratch after a bounded backoff; a
      // permanent fault resolves the attempt as unresolved-at-deadline so
      // the frontier reports it instead of crashing the race.
      const Deadline deadline(base_.remaining_s(), &a->token);
      int retries = 0;
      for (;;) {
        bool retryable = false;
        try {
          r = mapper_.map_at_ii(dfg_, arch_, ii, deadline,
                                config_.lift ? &store_ : nullptr);
          r.fault_retries += retries;
          break;
        } catch (const fault::FaultInjectedError& e) {
          r = MapResult{};
          r.faulted = true;
          r.timed_out = true;
          r.failure_reason = std::string("injected fault: ") + e.what();
          r.causes.push_back({e.site(), "injected fault"});
          retryable = true;
        } catch (const std::bad_alloc&) {
          r = MapResult{};
          r.memory_out = true;
          r.timed_out = true;
          r.failure_reason = "allocation failure";
          r.causes.push_back({"alloc", "allocation failure"});
          retryable = true;
        }
        if (!retryable || retries >= config_.max_fault_retries ||
            !fault::backoff_sleep(deadline, retries)) {
          r.fault_retries = retries;
          r.cancelled = deadline.cancel_fired();
          break;
        }
        ++retries;
      }
    }

    const std::lock_guard<std::mutex> lock(m_);
    a->result = std::move(r);
    a->state = a->result.success     ? Attempt::State::kFeasible
               : a->result.timed_out ? Attempt::State::kTimedOut
                                     : Attempt::State::kRefuted;
    if (a->state == Attempt::State::kFeasible &&
        (best_feasible_ < 0 || ii < best_feasible_)) {
      best_feasible_ = ii;
      // Larger IIs can no longer win — cancel them; smaller ones keep
      // running, the commit rule still needs their refutations.
      for (auto& [other_ii, other] : attempts_) {
        if (other_ii > ii && other->state == Attempt::State::kRunning) {
          other->cancelled_by_us = true;
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
      if (it == attempts_.end() ||
          it->second->state == Attempt::State::kRunning) {
        break;
      }
      Attempt& a = *it->second;
      if (a.state == Attempt::State::kFeasible) {
        // Every II below the frontier was refuted — this is THE minimal
        // feasible II, same answer the sequential walk reaches.
        MapResult final_result = std::move(a.result);
        merge_attempt_counters(final_result, aggregate_);
        final_result.ii_refuted_up_to = refuted_up_to_;
        commit_locked(std::move(final_result));
        return;
      }
      if (a.state == Attempt::State::kTimedOut) {
        // The frontier is never cancelled by us (only IIs above a feasible
        // one are), so this is the shared wall budget or the caller's
        // token. Optimality below a held feasible II is unprovable now.
        if (config_.anytime && best_feasible_ >= 0 && !base_.cancel_fired()) {
          // Anytime contract: surrender optimality, not the mapping. The
          // best held feasible II ships marked degraded, with the sound
          // interval [refuted_up_to_ + 1, best_feasible_] and the
          // frontier's stop cause attached. (An explicit caller cancel
          // still returns nothing — cancellation never degrades.)
          const auto best = attempts_.find(best_feasible_);
          MONOMAP_ASSERT(best != attempts_.end());
          MapResult final_result = std::move(best->second->result);
          merge_attempt_counters(final_result, aggregate_);
          merge_attempt_counters(final_result, a.result);
          final_result.degraded = true;
          final_result.timed_out = a.result.timed_out;
          final_result.memory_out = a.result.memory_out;
          final_result.faulted = a.result.faulted;
          final_result.ii_refuted_up_to = refuted_up_to_;
          std::ostringstream note;
          note << "II=" << frontier_ << " unresolved ("
               << a.result.failure_reason << ")";
          final_result.causes.push_back({"speculative", note.str()});
          commit_locked(std::move(final_result));
          return;
        }
        // Strict mode: report the timeout rather than a possibly
        // non-minimal mapping.
        MapResult final_result = std::move(a.result);
        merge_attempt_counters(final_result, aggregate_);
        final_result.ii_refuted_up_to = refuted_up_to_;
        if (best_feasible_ >= 0) {
          std::ostringstream note;
          note << final_result.failure_reason << " (II=" << frontier_
               << " unresolved; a feasible mapping at II=" << best_feasible_
               << " was held back by the determinism rule)";
          final_result.failure_reason = note.str();
        }
        commit_locked(std::move(final_result));
        return;
      }
      // Refuted. A pinned attempt whose whole (single-II) range was
      // soundly refuted extends the contiguous sound interval.
      if (a.result.sound_refutation && it->first == refuted_up_to_ + 1) {
        refuted_up_to_ = it->first;
      }
      // The topmost II carries the exhaustion verdict itself.
      if (it->first >= config_.max_ii) {
        MapResult final_result = std::move(a.result);
        merge_attempt_counters(final_result, aggregate_);
        final_result.ii_refuted_up_to = refuted_up_to_;
        commit_locked(std::move(final_result));
        return;
      }
      merge_attempt_counters(aggregate_, a.result);
      ++frontier_;
    }
    launch_locked();
  }

  void commit_locked(MapResult final_result) {
    final_result.mii = mii_;
    final_result.total_s =
        final_result.time_phase_s + final_result.space_phase_s;
    finalize_outcome(final_result);
    for (auto& [ii, attempt] : attempts_) {
      if (attempt->state == Attempt::State::kRunning) {
        attempt->cancelled_by_us = true;
        attempt->token.cancel();
      }
    }
    final_ = std::move(final_result);
    done_ = true;
  }

  const DecoupledMapper& mapper_;
  const Dfg& dfg_;
  const CgraArch& arch_;
  const Deadline& base_;
  const Config config_;
  WorkStealingPool& pool_;
  const MiiBreakdown mii_;
  ResourceGovernor* gov_;  // request governor, rebound on each worker
  CrossIiNogoodStore store_;

  std::mutex m_;
  std::map<int, std::unique_ptr<Attempt>> attempts_;
  int frontier_;            // lowest unresolved II
  int best_feasible_ = -1;  // smallest II with a held feasible mapping
  // Largest II such that [start_ii, refuted_up_to_] is contiguously,
  // soundly refuted (pinned attempts report sound_refutation; heuristic
  // give-ups do not extend this).
  int refuted_up_to_;
  // Effort counters of the refuted IIs the frontier walked over, merged in
  // ascending II order (cancelled speculative losers above the final II
  // are deliberately excluded — they are wall-clock, not work the answer
  // needed).
  MapResult aggregate_;
  MapResult final_;
  bool done_ = false;
};

SpeculativeRun::Config speculative_config(const DecoupledMapperOptions& options,
                                          const Dfg& dfg, int lookahead,
                                          bool share_nogoods,
                                          const MiiBreakdown& mii) {
  SpeculativeRun::Config config;
  config.start_ii = mii.mii();
  // Same auto ceiling as TimeSolver: at II = #nodes a fully sequential
  // schedule always satisfies capacity and connectivity.
  config.max_ii = options.time.max_ii > 0
                      ? options.time.max_ii
                      : std::max(mii.mii(), std::max(1, dfg.num_nodes()));
  config.lookahead = std::max(lookahead, 0);
  config.lift = share_nogoods &&
                options.space.model == MrrgModel::kRegisterPersistence;
  config.anytime = options.anytime;
  config.max_fault_retries = options.max_fault_retries;
  return config;
}

// The II attempts are CPU-bound SAT/search work: workers beyond the
// machine's cores only timeslice against each other, turning speculation
// from free use of spare cores into a tax on the frontier attempt. Treat
// the requested thread count as a ceiling; on a small machine the race
// degenerates gracefully toward the sequential walk (queued attempts run
// frontier-first and a win cancels them before they start).
int clamp_pool_threads(int requested) {
  const int cores =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  if (requested <= 0) return cores;
  return std::min(requested, cores);
}

}  // namespace

MapResult DecoupledMapper::map_speculative(const Dfg& dfg,
                                           const CgraArch& arch,
                                           const SpeculativeOptions& spec) const {
  const Deadline deadline = options_.timeout_s > 0
                                ? Deadline(options_.timeout_s)
                                : Deadline::unlimited();
  return map_speculative(dfg, arch, deadline, spec);
}

MapResult DecoupledMapper::map_speculative(const Dfg& dfg,
                                           const CgraArch& arch,
                                           const Deadline& deadline,
                                           const SpeculativeOptions& spec) const {
  std::unique_ptr<ResourceGovernor> owned_gov =
      make_request_governor(options_.memory_budget_mb);
  const GovernorScope scope(owned_gov.get());
  ResourceGovernor* gov = GovernorScope::current();

  WorkStealingPool pool(clamp_pool_threads(spec.num_threads));
  MiiBreakdown mii = compute_mii(dfg, arch);
  const SpeculativeRun::Config config = speculative_config(
      options_, dfg, spec.lookahead, spec.share_nogoods, mii);
  SpeculativeRun run(*this, dfg, arch, deadline, config, pool,
                     std::move(mii), gov);
  run.start();
  const std::exception_ptr error = pool.wait_idle_collect();
  MapResult result = run.take();
  result.steals = pool.steals();
  if (error != nullptr) {
    // A worker died past its retry budget. Classify the known fault
    // classes onto the result (take() already salvaged the effort
    // counters); anything else — AssertionError above all — propagates.
    try {
      std::rethrow_exception(error);
    } catch (const fault::FaultInjectedError& e) {
      if (!result.success) {
        result.faulted = true;
        result.causes.push_back({e.site(), "injected fault"});
      }
    } catch (const std::bad_alloc&) {
      if (!result.success) {
        result.memory_out = true;
        result.causes.push_back({"alloc", "allocation failure"});
      }
    }
  }
  absorb_governor(result, gov);
  finalize_outcome(result);
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
  // Pooled path: every case becomes a speculative run with lookahead 1 —
  // its per-II attempts are the pool's tasks. A hard case decomposes into
  // subtasks the other workers steal, instead of pinning one thread for
  // the whole batch (the pre-pool behaviour: static case-per-thread via
  // parallel_for_indices, where one pathological case idled its siblings).
  // No certificate sharing: batch results stay bit-exactly what the
  // per-case sequential map() would return (see SpeculativeOptions::
  // share_nogoods for why warm starts can move the committed II).
  std::unique_ptr<ResourceGovernor> owned_gov =
      make_request_governor(options_.memory_budget_mb);
  const GovernorScope scope(owned_gov.get());
  ResourceGovernor* gov = GovernorScope::current();

  WorkStealingPool pool(clamp_pool_threads(num_threads));
  std::vector<std::unique_ptr<SpeculativeRun>> runs;
  runs.reserve(dfgs.size());
  for (const Dfg* dfg : dfgs) {
    MiiBreakdown mii = compute_mii(*dfg, arch);
    const SpeculativeRun::Config config = speculative_config(
        options_, *dfg, /*lookahead=*/1, /*share_nogoods=*/false, mii);
    runs.push_back(std::make_unique<SpeculativeRun>(
        *this, *dfg, arch, deadline, config, pool, std::move(mii), gov));
  }
  for (auto& run : runs) run->start();
  const std::exception_ptr error = pool.wait_idle_collect();
  if (error != nullptr) {
    // One poisoned case must not sink the batch: the known fault classes
    // are already folded into the affected case's take() fallback;
    // anything else (AssertionError first) propagates.
    try {
      std::rethrow_exception(error);
    } catch (const fault::FaultInjectedError&) {
    } catch (const std::bad_alloc&) {
    }
  }
  for (std::size_t i = 0; i < runs.size(); ++i) {
    results[i] = runs[i]->take();
    if (stats != nullptr) {
      ++stats->outcome_counts[static_cast<std::size_t>(results[i].outcome)];
    }
  }
  if (stats != nullptr) {
    stats->steals = pool.steals();
    stats->fault_requeues = pool.fault_requeues();
  }
  return results;
}

}  // namespace monomap
