// MappingService: the daemon's engine, usable in-process.
//
// One instance owns the shared KnowledgeStore, a ThreadPool that compiles
// memo misses, admission control and latency telemetry.
// handle_line() is the single entry point — the socket front-end
// (tools/monomap_serve) and the in-process load generator (bench_serve) and
// tests all feed request lines through it, so every path exercises the same
// code.
//
// Request path: a front end on the calling thread parses the line, loads
// the DFG, takes the fabric, fingerprints both and looks the request up in
// the memo; a hit (an exact or isomorphic repeat with the same options
// fingerprint) is answered there, without any search and without waiting
// for the pool. A miss passes admission (a bounded count of compile jobs
// queued or running; an overloaded service answers immediately with a
// `deadline` outcome and an "admission" cause instead of queueing
// unboundedly) and becomes a compile job on the pool: a plain
// DecoupledMapper::map of the DFG, fabric, fingerprints and options the
// front end built, under the request's Deadline, whose feasible answer is
// memoised for the next request. The fabrics (CgraArch) requests name are
// kept in a small LRU cache, with the tables each builds on first use, so a
// repeat request does not rebuild them.
//
// Failure containment: the `serve.request` fault-injection site fires at
// the top of the front end; an injected fault (or any exception the
// mapper's own retries could not absorb) is classified onto the wire as a
// `fault` outcome and the service keeps serving. Malformed input — a
// protocol error, DFG text the loader refuses, an unknown bench name — is
// an error response, never a crash. No exception leaves handle_line(): in
// the daemon it runs on a connection thread.
#ifndef MONOMAP_SERVICE_SERVICE_HPP
#define MONOMAP_SERVICE_SERVICE_HPP

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "mapper/decoupled_mapper.hpp"
#include "mapper/knowledge_store.hpp"
#include "service/protocol.hpp"
#include "support/parallel.hpp"
#include "support/stopwatch.hpp"

namespace monomap {

class MappingService {
 public:
  struct Options {
    /// Compile pool threads. Memo hits are answered on the calling thread
    /// (the socket front-end's per-connection reader threads).
    int threads = 1;
    /// Admission bound: compile jobs in flight (queued + running) beyond
    /// this are rejected with a `deadline` outcome. A memo hit is never
    /// refused. <= 0 = unbounded.
    int queue_limit = 16;
    /// Deadline for requests that do not carry their own.
    double default_deadline_s = 30.0;
    /// Serve memo hits unless the request opts out.
    bool memo = true;
    /// KnowledgeStore sizing.
    std::size_t store_budget_mb = 64;
    std::size_t max_memo_entries = 4096;
    /// Base per-request mapper configuration; requests may override
    /// anytime/max_schedules/max_ii.
    DecoupledMapperOptions mapper;
  };

  struct StatsSnapshot {
    std::uint64_t requests = 0;
    std::uint64_t rejected = 0;
    std::uint64_t errors = 0;
    std::uint64_t faults = 0;
    double p50_ms = 0.0;
    double p99_ms = 0.0;
    /// Fabrics held by the fabric cache (at most kFabricCacheEntries).
    std::size_t fabrics_cached = 0;
    KnowledgeStore::StatsSnapshot store;
  };

  /// Fabrics with both sides up to kMaxCachedFabricSide are kept between
  /// requests, the kFabricCacheEntries most recently used of them. A
  /// 32x32 fabric holds about 384 KiB of masks, a kMaxGridSide one about
  /// 96 MiB, so larger fabrics are built per request. A cached fabric also
  /// keeps its pin fabric once a space search has used it
  /// (CgraArch::pin_fabric, built only for sides of 32 or less): a 32x32
  /// fabric's 63x63 pin fabric holds about 6 MiB of masks, plus 2 MiB per
  /// multiplicity level its searches ask for.
  static constexpr int kMaxCachedFabricSide = 32;
  static constexpr std::size_t kFabricCacheEntries = 4;

  MappingService();  // default Options
  explicit MappingService(Options options);
  ~MappingService();
  MappingService(const MappingService&) = delete;
  MappingService& operator=(const MappingService&) = delete;

  /// Handle one request line; returns the response JSON (no newline).
  /// Thread-safe; a failed request comes back as a response, never as an
  /// exception. A memo miss blocks the calling thread until a pool worker
  /// has compiled it (connection threads are the natural callers).
  std::string handle_line(const std::string& line);

  /// The response to a line the front-end stopped reading past
  /// kMaxRequestLineBytes, counted as an error. Thread-safe.
  std::string reject_oversized_line();

  /// A shutdown verb was accepted; the front-end should stop accepting.
  [[nodiscard]] bool shutdown_requested() const {
    return shutdown_.load(std::memory_order_acquire);
  }

  [[nodiscard]] StatsSnapshot stats() const;
  [[nodiscard]] const Options& options() const { return options_; }

 private:
  std::string handle_map(const ServeRequest& req);
  /// The front end of a map request; throws what handle_map classifies.
  std::string serve_map(const ServeRequest& req, const Stopwatch& watch);
  std::string render_stats(const std::string& id) const;
  void record_latency(double seconds);
  /// The fabric a request maps onto. A request holds its own reference, so
  /// evicting a fabric from the cache never frees it under a running job.
  std::shared_ptr<const CgraArch> fabric(int rows, int cols,
                                         Topology topology);

  Options options_;
  KnowledgeStore store_;
  std::unique_ptr<ThreadPool> pool_;
  std::atomic<bool> shutdown_{false};
  std::atomic<int> compiles_in_flight_{0};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> faults_{0};

  mutable std::mutex fabrics_m_;
  /// Cached fabrics, most recently used first; each also keeps the tables
  /// CgraArch builds on first use (common_target_masks and the like).
  std::vector<std::shared_ptr<const CgraArch>> fabrics_;

  mutable std::mutex latency_m_;
  std::vector<double> latencies_s_;  // ring buffer
  std::size_t latency_next_ = 0;
  std::size_t latency_count_ = 0;
};

}  // namespace monomap

#endif  // MONOMAP_SERVICE_SERVICE_HPP
