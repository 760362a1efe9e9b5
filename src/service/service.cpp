#include "service/service.hpp"

#include <algorithm>
#include <future>
#include <optional>
#include <utility>

#include "io/dfg_io.hpp"
#include "support/assert.hpp"
#include "support/fault.hpp"
#include "support/json.hpp"
#include "support/outcome.hpp"
#include "support/parallel.hpp"
#include "support/stopwatch.hpp"
#include "workloads/suite.hpp"

namespace monomap {
namespace {

constexpr std::size_t kLatencyWindow = 4096;

/// A response opened with its id and ok members.
json::Writer response(const std::string& id, bool ok) {
  json::Writer w;
  w.begin_object().field("id", id).field("ok", ok);
  return w;
}

std::string error_response(const std::string& id, const std::string& what) {
  return response(id, false).field("error", what).end_object().take();
}

/// A request that ended in `outcome` before reaching the mapper.
std::string stop_response(const std::string& id, MapOutcome outcome,
                          const std::string& causes, const std::string& what) {
  return response(id, false)
      .field("outcome", to_string(outcome))
      .field("exit_code", exit_code(outcome))
      .field("causes", causes)
      .field("error", what)
      .end_object()
      .take();
}

/// A compile job's answer and the worker's own time for it.
struct Compiled {
  MapResult result;
  double seconds = 0.0;
};

/// Gives back one unit of a count when it leaves scope.
struct Release {
  std::atomic<int>& count;
  ~Release() { count.fetch_sub(1, std::memory_order_acq_rel); }
};

/// The response to a map request the memo or the mapper answered.
std::string map_response(const ServeRequest& req, const Dfg& dfg,
                         const MapResult& result, bool memo_hit,
                         double seconds) {
  json::Writer w = response(req.id, result.success);
  w.field("outcome", to_string(result.outcome))
      .field("exit_code", exit_code(result.outcome))
      .field("ii", result.ii)
      .field("mii", result.mii.mii())
      .field("ii_lo", result.ii_lo)
      .field("ii_hi", result.ii_hi)
      .field("schedules_tried", result.schedules_tried)
      .field("memo_hit", memo_hit)
      .field("seconds", seconds);
  if (!result.causes.empty()) {
    w.field("causes", format_causes(result.causes));
  }
  if (!result.success && !result.failure_reason.empty()) {
    w.field("error", result.failure_reason);
  }
  if (req.want_mapping && result.success) {
    w.field("mapping", mapping_to_text(dfg, result.mapping));
  }
  return w.end_object().take();
}

}  // namespace

MappingService::MappingService() : MappingService(Options{}) {}

MappingService::MappingService(Options options)
    : options_(std::move(options)),
      store_(KnowledgeStore::Options{options_.store_budget_mb,
                                     options_.max_memo_entries}),
      latencies_s_(kLatencyWindow, 0.0) {
  pool_ = std::make_unique<ThreadPool>(std::max(1, options_.threads));
}

MappingService::~MappingService() {
  // Drain in-flight jobs before the pool (and the store they use) die.
  (void)pool_->wait_idle_collect();
}

void MappingService::record_latency(double seconds) {
  const std::lock_guard<std::mutex> lock(latency_m_);
  latencies_s_[latency_next_] = seconds;
  latency_next_ = (latency_next_ + 1) % kLatencyWindow;
  latency_count_ = std::min(latency_count_ + 1, kLatencyWindow);
}

std::string MappingService::handle_line(const std::string& line) {
  ParsedRequest parsed = parse_request(line);
  if (!parsed.ok) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return error_response(parsed.request.id, parsed.error);
  }
  const ServeRequest& req = parsed.request;
  switch (req.verb) {
    case ServeRequest::Verb::kStats:
      return render_stats(req.id);
    case ServeRequest::Verb::kShutdown:
      shutdown_.store(true, std::memory_order_release);
      return response(req.id, true)
          .field("verb", "shutdown")
          .end_object()
          .take();
    case ServeRequest::Verb::kMap:
      return handle_map(req);
  }
  return error_response(req.id, "unreachable verb");
}

std::string MappingService::reject_oversized_line() {
  errors_.fetch_add(1, std::memory_order_relaxed);
  return error_response("", "bad request: line longer than " +
                                std::to_string(kMaxRequestLineBytes) +
                                " bytes");
}

std::string MappingService::handle_map(const ServeRequest& req) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  Stopwatch watch;
  // Every failure becomes a response here, the compile job's included (it
  // hands its exception back): the front end runs on the caller's thread,
  // which in the daemon is a connection thread an escaped exception would
  // take the process down with.
  std::string response;
  try {
    response = serve_map(req, watch);
  } catch (const fault::FaultInjectedError& e) {
    faults_.fetch_add(1, std::memory_order_relaxed);
    response = stop_response(req.id, MapOutcome::kFault,
                             e.site() + ": injected fault", e.what());
  } catch (const InputError& e) {
    // The loaders refuse malformed DFG text and unknown bench names with an
    // InputError: a bad request, not a crash.
    errors_.fetch_add(1, std::memory_order_relaxed);
    response = error_response(req.id, std::string("bad request: ") + e.what());
  } catch (const std::exception& e) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    response = error_response(req.id, e.what());
  } catch (...) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    response = error_response(req.id, "unknown failure");
  }
  record_latency(watch.elapsed_s());
  return response;
}

std::string MappingService::serve_map(const ServeRequest& req,
                                      const Stopwatch& watch) {
  // The daemon-path fault site: fires before any real work so the ASan
  // sweep proves a failed request becomes a classified outcome on the
  // wire with the server still up.
  fault::maybe_inject("serve.request");
  // Busy while it works, not while it waits for its compile job.
  std::optional<BusyScope> busy(std::in_place);

  Dfg dfg = req.bench.empty() ? dfg_from_text(req.dfg_text)
                              : benchmark_by_name(req.bench).dfg;
  // `held` keeps the fabric alive to the end of the request, evicted or not.
  std::shared_ptr<const CgraArch> held =
      fabric(req.rows, req.cols, req.topology);
  DecoupledMapperOptions opts = options_.mapper;
  opts.anytime = req.anytime;
  if (req.max_schedules > 0) opts.max_schedules = req.max_schedules;
  if (req.max_ii > 0) opts.max_ii = req.max_ii;

  std::optional<DfgFingerprint> fp;
  std::uint64_t arch_fp = 0;
  if (req.memo == -1 ? options_.memo : req.memo != 0) {
    fp = fingerprint_dfg(dfg);
    arch_fp = fingerprint_arch(*held);
    const std::optional<MapResult> hit =
        store_.lookup(dfg, *held, *fp, arch_fp, opts);
    if (hit.has_value()) {
      return map_response(req, dfg, *hit, true, watch.elapsed_s());
    }
  }

  // Admission control bounds the compile jobs queued or running; a hit
  // never gets here. An overloaded service answers NOW with the outcome an
  // expired deadline would have produced — the client's retry policy
  // treats both the same — instead of queueing into a latency cliff.
  const int ahead = compiles_in_flight_.fetch_add(1, std::memory_order_acq_rel);
  const Release slot{compiles_in_flight_};
  if (options_.queue_limit > 0 && ahead >= options_.queue_limit) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return stop_response(req.id, MapOutcome::kDeadline,
                         "admission: queue full", "admission queue full");
  }

  // The compile job reads what the front end built, so nothing is parsed,
  // fingerprinted or looked up twice; the front end blocks on the job's
  // future, so those locals outlive the job, and the future hands back the
  // answer or rethrows the job's exception. The deadline starts when a
  // worker picks the job up, and `seconds` is the front end's time plus the
  // worker's: the request's own work without the queue wait.
  const double front_s = watch.elapsed_s();
  const double deadline_s =
      req.deadline_s > 0.0 ? req.deadline_s : options_.default_deadline_s;
  const auto job = std::make_shared<std::packaged_task<Compiled()>>(
      [this, &dfg, &held, &fp, arch_fp, &opts, deadline_s] {
        const Stopwatch work;
        Compiled compiled{
            DecoupledMapper(opts).map(dfg, *held, Deadline(deadline_s))};
        if (fp.has_value()) {
          store_.store(dfg, *fp, arch_fp, opts, compiled.result);
        }
        compiled.seconds = work.elapsed_s();
        return compiled;
      });
  std::future<Compiled> answer = job->get_future();
  pool_->submit([job] { (*job)(); });
  busy.reset();
  const Compiled compiled = answer.get();
  if (compiled.result.outcome == MapOutcome::kFault) {
    faults_.fetch_add(1, std::memory_order_relaxed);
  }
  return map_response(req, dfg, compiled.result, false,
                      front_s + compiled.seconds);
}

std::shared_ptr<const CgraArch> MappingService::fabric(int rows, int cols,
                                                       Topology topology) {
  if (rows > kMaxCachedFabricSide || cols > kMaxCachedFabricSide) {
    return std::make_shared<const CgraArch>(rows, cols, topology);
  }
  const std::lock_guard<std::mutex> lock(fabrics_m_);
  auto it = std::find_if(fabrics_.begin(), fabrics_.end(),
                         [&](const std::shared_ptr<const CgraArch>& a) {
                           return a->rows() == rows && a->cols() == cols &&
                                  a->topology() == topology;
                         });
  if (it != fabrics_.end()) {
    std::rotate(fabrics_.begin(), it, it + 1);
  } else {
    auto built = std::make_shared<const CgraArch>(rows, cols, topology);
    if (fabrics_.size() == kFabricCacheEntries) {
      fabrics_.pop_back();
    }
    fabrics_.insert(fabrics_.begin(), std::move(built));
  }
  return fabrics_.front();
}

std::string MappingService::render_stats(const std::string& id) const {
  const StatsSnapshot s = stats();
  return response(id, true)
      .field("verb", "stats")
      .field("requests", s.requests)
      .field("rejected", s.rejected)
      .field("errors", s.errors)
      .field("faults", s.faults)
      .field("p50_ms", s.p50_ms)
      .field("p99_ms", s.p99_ms)
      .field("memo_hits", s.store.memo_hits)
      .field("memo_misses", s.store.memo_misses)
      .field("memo_stores", s.store.memo_stores)
      .field("memo_evictions", s.store.memo_evictions)
      .field("mem_bytes", s.store.bytes_used)
      .field("mem_peak_bytes", s.store.bytes_peak)
      .field("fabrics_cached", s.fabrics_cached)
      .field("threads", pool_->num_threads())
      .field("queue_limit", options_.queue_limit)
      .end_object()
      .take();
}

MappingService::StatsSnapshot MappingService::stats() const {
  StatsSnapshot s;
  s.requests = requests_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  s.faults = faults_.load(std::memory_order_relaxed);
  std::vector<double> window;
  {
    const std::lock_guard<std::mutex> lock(latency_m_);
    window.assign(latencies_s_.begin(),
                  latencies_s_.begin() +
                      static_cast<std::ptrdiff_t>(latency_count_));
  }
  if (!window.empty()) {
    std::sort(window.begin(), window.end());
    const auto pick = [&window](double q) {
      const std::size_t idx = std::min(
          window.size() - 1,
          static_cast<std::size_t>(q * static_cast<double>(window.size())));
      return window[idx] * 1000.0;
    };
    s.p50_ms = pick(0.50);
    s.p99_ms = pick(0.99);
  }
  {
    const std::lock_guard<std::mutex> lock(fabrics_m_);
    s.fabrics_cached = fabrics_.size();
  }
  s.store = store_.stats();
  return s;
}

}  // namespace monomap
