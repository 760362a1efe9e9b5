#include "service/service.hpp"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <utility>

#include "io/dfg_io.hpp"
#include "support/assert.hpp"
#include "support/fault.hpp"
#include "support/json.hpp"
#include "support/outcome.hpp"
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

}  // namespace

MappingService::MappingService() : MappingService(Options{}) {}

MappingService::MappingService(Options options)
    : options_(std::move(options)),
      store_(KnowledgeStore::Options{options_.store_budget_mb,
                                     options_.max_memo_entries}),
      latencies_s_(kLatencyWindow, 0.0) {
  pool_ = std::make_unique<WorkStealingPool>(std::max(1, options_.threads));
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
  // Admission control: bound queued + running map requests. An overloaded
  // service answers NOW with the outcome an expired deadline would have
  // produced — the client's retry policy treats both the same — instead of
  // queueing into a latency cliff.
  const int limit = options_.queue_limit;
  if (limit > 0 &&
      in_flight_.fetch_add(1, std::memory_order_acq_rel) >= limit) {
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    rejected_.fetch_add(1, std::memory_order_relaxed);
    record_latency(watch.elapsed_s());
    return stop_response(req.id, MapOutcome::kDeadline,
                         "admission: queue full", "admission queue full");
  }
  if (limit <= 0) {
    in_flight_.fetch_add(1, std::memory_order_acq_rel);
  }

  struct Job {
    std::mutex m;
    std::condition_variable cv;
    bool done = false;
    std::string response;
  };
  auto job = std::make_shared<Job>();
  pool_->submit([this, job, req] {
    std::string response;
    try {
      response = run_map_job(req);
    } catch (const std::exception& e) {
      errors_.fetch_add(1, std::memory_order_relaxed);
      response = error_response(req.id, e.what());
    } catch (...) {
      errors_.fetch_add(1, std::memory_order_relaxed);
      response = error_response(req.id, "unknown worker failure");
    }
    {
      const std::lock_guard<std::mutex> lock(job->m);
      job->response = std::move(response);
      job->done = true;
    }
    job->cv.notify_all();
  });
  std::string response;
  {
    std::unique_lock<std::mutex> lock(job->m);
    job->cv.wait(lock, [&job] { return job->done; });
    response = std::move(job->response);
  }
  in_flight_.fetch_sub(1, std::memory_order_acq_rel);
  record_latency(watch.elapsed_s());
  return response;
}

std::string MappingService::run_map_job(const ServeRequest& req) {
  Stopwatch watch;
  // The daemon-path fault site: fires before any real work so the ASan
  // sweep proves a failed request becomes a classified outcome on the
  // wire with the server still up.
  try {
    fault::maybe_inject("serve.request");
  } catch (const fault::FaultInjectedError& e) {
    faults_.fetch_add(1, std::memory_order_relaxed);
    return stop_response(req.id, MapOutcome::kFault,
                         e.site() + ": injected fault", e.what());
  }

  // Materialise the problem. The loaders refuse malformed DFG text and
  // unknown bench names with an InputError — a bad request, not a crash.
  std::optional<Dfg> dfg;
  try {
    if (!req.bench.empty()) {
      dfg = benchmark_by_name(req.bench).dfg;
    } else {
      dfg = dfg_from_text(req.dfg_text);
    }
  } catch (const InputError& e) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return error_response(req.id, std::string("bad request: ") + e.what());
  }
  // `held` keeps the fabric alive to the end of the job, evicted or not.
  const std::shared_ptr<const CgraArch> held =
      fabric(req.rows, req.cols, req.topology);
  const CgraArch& arch = *held;

  DecoupledMapperOptions opts = options_.mapper;
  opts.anytime = req.anytime;
  if (req.max_schedules > 0) opts.max_schedules = req.max_schedules;
  if (req.max_ii > 0) opts.max_ii = req.max_ii;
  const bool use_memo = req.memo == -1 ? options_.memo : req.memo != 0;
  const double deadline_s =
      req.deadline_s > 0.0 ? req.deadline_s : options_.default_deadline_s;

  std::optional<DfgFingerprint> fp;
  std::uint64_t arch_fp = 0;
  std::optional<MapResult> cached;
  if (use_memo) {
    fp = fingerprint_dfg(*dfg);
    arch_fp = fingerprint_arch(arch);
    cached = store_.lookup(*dfg, arch, *fp, arch_fp, opts);
  }
  const bool memo_hit = cached.has_value();
  MapResult result;
  if (memo_hit) {
    result = std::move(*cached);
  } else {
    result = DecoupledMapper(opts).map(*dfg, arch, Deadline(deadline_s));
    if (use_memo) store_.store(*dfg, *fp, arch_fp, opts, result);
  }
  if (result.outcome == MapOutcome::kFault) {
    faults_.fetch_add(1, std::memory_order_relaxed);
  }

  json::Writer w = response(req.id, result.success);
  w.field("outcome", to_string(result.outcome))
      .field("exit_code", exit_code(result.outcome))
      .field("ii", result.ii)
      .field("mii", result.mii.mii())
      .field("ii_lo", result.ii_lo)
      .field("ii_hi", result.ii_hi)
      .field("schedules_tried", result.schedules_tried)
      .field("memo_hit", memo_hit)
      .field("seconds", watch.elapsed_s());
  if (!result.causes.empty()) {
    w.field("causes", format_causes(result.causes));
  }
  if (!result.success && !result.failure_reason.empty()) {
    w.field("error", result.failure_reason);
  }
  if (req.want_mapping && result.success) {
    w.field("mapping", mapping_to_text(*dfg, result.mapping));
  }
  return w.end_object().take();
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
