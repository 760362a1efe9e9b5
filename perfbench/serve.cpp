// serve-mixed: a closed loop of kClients client threads against an
// in-process MappingService with the daemon's default single worker.
//
// Set-up starts a service and primes its memo with the suite DFGs on 4x4 and
// 5x5, sent as DFG text. The timed stream then mixes reads (85%: a primed
// DFG under a fresh seeded node relabelling, answered by fingerprint + store
// lookup + re-validation) with writes (15%: a novel seeded random_dfg, a
// memo miss that runs a warm walk and publishes). The run repeats set-up and
// stream kRounds times, each time with a fresh service and the same
// requests, so every round does the same work. Every request asks for the
// mapping, and every returned mapping is validated against the DFG text
// sent, after the timed region.
#include <algorithm>
#include <array>
#include <cstdio>
#include <latch>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "io/dfg_io.hpp"
#include "mapper/fingerprint.hpp"
#include "mapper/knowledge_store.hpp"
#include "service/protocol.hpp"
#include "service/service.hpp"
#include "support/json.hpp"
#include "workloads/suite.hpp"
#include "workloads/synthetic.hpp"

namespace perfbench {
namespace {

using namespace monomap;

/// Two clients and the worker are three busy threads on a 4-vCPU host, so
/// the run measures the service rather than the host's scheduler; a read
/// still waits behind the other client's write.
constexpr int kClients = 2;
constexpr std::array<int, 2> kPrimeGrids{4, 5};
/// Suite DFGs left out of priming. They take 0.6-2 s each to prime on these
/// grids, three quarters of the set-up time, which would leave no time for
/// the rounds.
constexpr std::array<std::string_view, 2> kUnprimed{"cfd", "hotspot3D"};
/// Set-up and stream repeat kRounds times. Every round does the same work,
/// so each timing metric reports the round at its best quartile (the 5th
/// best of 20): a round little disturbed by other tenants of the host, as
/// a table3 compile reports its best sample, but not the single luckiest.
constexpr int kRounds = 20;
/// Stream length per second of --seconds, over all rounds. The count, not
/// the clock, ends a stream, so every seed sends the same number of
/// requests.
constexpr int kRequestsPerSecond = 1000;
/// Out of every kMixBlock requests of a client, kWritesPerBlock are novel.
constexpr int kMixBlock = 20;
constexpr int kWritesPerBlock = 3;
constexpr double kRequestDeadlineS = 10.0;
constexpr std::uint64_t kNovelPoolSeed = 0x5eed;

struct Request {
  std::string name;  // primes only: the suite benchmark
  std::string line;
  std::string dfg_text;
  int grid = 0;
  bool write = false;
  int paper_ii = -1;  // primes only: Table III II on this grid
};

struct Reply {
  std::string body;
  double start_s = 0.0;
  double rtt_s = 0.0;
};

/// One round: the priming replies, then the timed stream's replies per
/// client and the stream's wall time.
struct Round {
  double setup_s = 0.0;
  std::vector<Reply> primes;
  std::vector<std::vector<Reply>> replies;
  double stream_s = 0.0;
};

std::string map_line(const std::string& id, const std::string& dfg_text,
                     int grid) {
  return "{\"verb\":\"map\",\"id\":\"" + id + "\",\"dfg\":\"" +
         json::escape(dfg_text) + "\",\"grid\":" + std::to_string(grid) +
         ",\"deadline_s\":" + std::to_string(kRequestDeadlineS) +
         ",\"mapping\":true}";
}

Dfg relabelled(const Dfg& dfg, std::mt19937_64& rng) {
  std::vector<NodeId> perm(static_cast<std::size_t>(dfg.num_nodes()));
  for (std::size_t v = 0; v < perm.size(); ++v) perm[v] = static_cast<NodeId>(v);
  std::shuffle(perm.begin(), perm.end(), rng);
  std::vector<Edge> edges;
  for (EdgeId e = 0; e < dfg.num_edges(); ++e) {
    const Edge& edge = dfg.graph().edge(e);
    edges.push_back(Edge{perm[static_cast<std::size_t>(edge.src)],
                         perm[static_cast<std::size_t>(edge.dst)], edge.attr});
  }
  return Dfg::from_edges(dfg.name(), dfg.num_nodes(), edges);
}

struct Inputs {
  std::vector<Request> primes;
  std::vector<std::vector<Request>> clients;  // the timed stream, per client
};

Inputs make_inputs(std::uint64_t seed, int total_requests) {
  Inputs in;
  for (const int grid : kPrimeGrids) {
    const auto slot = std::find(kPaperGridSizes.begin(), kPaperGridSizes.end(),
                                grid) - kPaperGridSizes.begin();
    const bool paper_grid = slot < static_cast<long>(kPaperGridSizes.size());
    for (const Benchmark& b : benchmark_suite()) {
      if (std::find(kUnprimed.begin(), kUnprimed.end(), b.name) !=
          kUnprimed.end()) {
        continue;
      }
      Request r;
      r.name = b.name;
      r.dfg_text = dfg_to_text(b.dfg);
      r.grid = grid;
      r.line = map_line("prime-" + b.name, r.dfg_text, grid);
      r.paper_ii = paper_grid ? b.paper_ii[static_cast<std::size_t>(slot)] : -1;
      in.primes.push_back(std::move(r));
    }
  }
  std::mt19937_64 rng(seed);
  // Novel graphs come from one fixed pool, so every seed writes the same
  // graphs and the tail of the latency distribution does not depend on
  // which hard graphs a seed happens to draw. The seed decides where each
  // write lands in the stream.
  std::mt19937_64 pool_rng(kNovelPoolSeed);
  const int per_client =
      std::max(kMixBlock, total_requests / kClients / kMixBlock * kMixBlock);
  in.clients.resize(kClients);
  for (int c = 0; c < kClients; ++c) {
    for (int block = 0; block < per_client / kMixBlock; ++block) {
      std::array<bool, kMixBlock> writes{};
      for (int w = 0; w < kWritesPerBlock; ++w) writes[static_cast<std::size_t>(w)] = true;
      std::shuffle(writes.begin(), writes.end(), rng);
      for (const bool write : writes) {
        Request r;
        r.write = write;
        if (write) {
          SyntheticSpec spec;
          spec.num_nodes = 12 + static_cast<int>(pool_rng() % 19);
          spec.seed = pool_rng();
          r.dfg_text = dfg_to_text(random_dfg(spec));
          r.grid = kPrimeGrids[pool_rng() % kPrimeGrids.size()];
        } else {
          const Request& prime = in.primes[rng() % in.primes.size()];
          const Dfg base = dfg_from_text(prime.dfg_text);
          r.dfg_text = dfg_to_text(relabelled(base, rng));
          r.grid = prime.grid;
        }
        std::vector<Request>& stream = in.clients[static_cast<std::size_t>(c)];
        char id[32];
        std::snprintf(id, sizeof(id), "c%d-%zu", c, stream.size());
        r.line = map_line(id, r.dfg_text, r.grid);
        stream.push_back(std::move(r));
      }
    }
  }
  return in;
}

/// The parsed fields of one map response the harness reads.
struct Answer {
  bool ok = false;
  std::string outcome;
  int ii = 0;
  int ii_lo = 0;
  int ii_hi = 0;
  int mii = 0;
  int schedules = 0;
  bool memo_hit = false;
  double seconds = 0.0;
  std::string mapping;
};

std::optional<Answer> parse_answer(const std::string& body) {
  const std::optional<json::Value> doc = json::parse(body);
  if (!doc.has_value() || !doc->is_object()) return std::nullopt;
  Answer a;
  a.ok = doc->bool_or("ok", false);
  a.outcome = doc->string_or("outcome", "error");
  a.ii = static_cast<int>(doc->number_or("ii", 0.0));
  a.ii_lo = static_cast<int>(doc->number_or("ii_lo", 0.0));
  a.ii_hi = static_cast<int>(doc->number_or("ii_hi", 0.0));
  a.mii = static_cast<int>(doc->number_or("mii", 0.0));
  a.schedules = static_cast<int>(doc->number_or("schedules_tried", 0.0));
  a.memo_hit = doc->bool_or("memo_hit", false);
  a.seconds = doc->number_or("seconds", 0.0);
  a.mapping = doc->string_or("mapping", "");
  return a;
}

/// Checks one response against the request that produced it: a feasible
/// outcome whose mapping validates on the DFG text that was sent. Returns
/// "" when the answer holds.
std::string check(const Request& req, const std::optional<Answer>& a) {
  if (!a.has_value()) return "unparsable response";
  if (!a->ok || a->outcome != "feasible") return "outcome " + a->outcome;
  try {
    const Dfg dfg = dfg_from_text(req.dfg_text);
    const Mapping m = mapping_from_text(a->mapping, dfg.num_nodes());
    if (m.ii() != a->ii) return "mapping II differs from the reported II";
    if (!validate_mapping(dfg, CgraArch::square(req.grid), m).empty()) {
      return "mapping fails validate_mapping";
    }
  } catch (const std::exception& e) {
    return std::string("malformed mapping: ") + e.what();
  }
  return "";
}

/// Sends requests [begin, end) one after another, each after the previous
/// reply, appending the replies to `out`.
void send(MappingService& service, const std::vector<Request>& requests,
          std::size_t begin, std::size_t end, std::vector<Reply>* out) {
  for (std::size_t i = begin; i < end; ++i) {
    const double start = now_s();
    std::string body = service.handle_line(requests[i].line);
    out->push_back(Reply{std::move(body), start, now_s() - start});
  }
}

MappingService::Options service_options() {
  MappingService::Options options;
  options.threads = 1;  // the daemon default
  return options;
}

/// Service counters summed over the rounds' timed streams.
struct StreamStats {
  double memo_hits = 0.0;
  double memo_misses = 0.0;
  double memo_invalid = 0.0;
  double certs_published = 0.0;
  double floor_hits = 0.0;
  double rejected = 0.0;

  void add(const MappingService::StatsSnapshot& before,
           const MappingService::StatsSnapshot& after) {
    memo_hits += static_cast<double>(after.store.memo_hits - before.store.memo_hits);
    memo_misses +=
        static_cast<double>(after.store.memo_misses - before.store.memo_misses);
    memo_invalid +=
        static_cast<double>(after.store.memo_invalid - before.store.memo_invalid);
    certs_published += static_cast<double>(after.store.certs_published -
                                           before.store.certs_published);
    floor_hits +=
        static_cast<double>(after.store.floor_hits - before.store.floor_hits);
    rejected += static_cast<double>(after.rejected - before.rejected);
  }
};

/// Starts a service, primes it and sends it the timed stream: all clients
/// start together, and each sends its next request only after the previous
/// reply.
Round run_round(const Inputs& in, Tracer& tracer, StreamStats* stats) {
  Round round;
  const double setup_start = now_s();
  MappingService service(service_options());
  send(service, in.primes, 0, in.primes.size(), &round.primes);
  const double setup_end = now_s();
  round.setup_s = setup_end - setup_start;
  tracer.record("setup", setup_start, setup_end);

  const MappingService::StatsSnapshot before = service.stats();
  round.replies.resize(kClients);
  std::latch ready(kClients + 1);
  double stream_start = 0.0;
  {
    std::vector<std::jthread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        ready.arrive_and_wait();
        send(service, in.clients[c], 0, in.clients[c].size(), &round.replies[c]);
      });
    }
    stream_start = now_s();
    ready.arrive_and_wait();
  }
  round.stream_s = now_s() - stream_start;
  stats->add(before, service.stats());
  return round;
}

}  // namespace

Outcome run_serve_mixed(const RunConfig& config) {
  Tracer tracer(config.trace);
  const Inputs in = make_inputs(
      config.seed,
      static_cast<int>(config.seconds * kRequestsPerSecond / kRounds));

  StreamStats stats;
  std::vector<Round> rounds;
  for (int r = 0; r < kRounds; ++r) rounds.push_back(run_round(in, tracer, &stats));

  // Checks, outside the timed region.
  Outcome out;
  out.headline = "req_p50_ms";
  std::vector<std::string> failures;
  double feasible = 0.0;
  auto tally = [&](const Request& req, const std::optional<Answer>& a) {
    ++out.attempted;
    const std::string why = check(req, a);
    if (why.empty()) {
      feasible += 1.0;
    } else {
      ++out.failed;
      failures.push_back(req.line.substr(0, 40) + "...: " + why);
    }
  };

  // Priming compiles: cold compiles through the service, whose answers give
  // the II metrics of this workload. Each must repeat across rounds.
  std::vector<std::pair<std::string, std::string>> records;
  bool outcome_drift = false;
  double ii_sum = 0.0;
  double gap_sum = 0.0;
  double ii_paper = 0.0;
  double paper_sum = 0.0;
  for (std::size_t i = 0; i < in.primes.size(); ++i) {
    const Request& req = in.primes[i];
    std::vector<double> rtt;
    std::string first;
    std::string first_answer;
    for (std::size_t r = 0; r < rounds.size(); ++r) {
      const std::optional<Answer> a = parse_answer(rounds[r].primes[i].body);
      tally(req, a);
      rtt.push_back(rounds[r].primes[i].rtt_s * 1e3);
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "outcome=%s ii=%d ii_lo=%d ii_hi=%d schedules=%d",
                    a ? a->outcome.c_str() : "error", a ? a->ii : 0,
                    a ? a->ii_lo : 0, a ? a->ii_hi : 0, a ? a->schedules : 0);
      const std::string answer =
          a ? a->outcome + " " + std::to_string(a->ii) : "error";
      if (r == 0) {
        first = buf;
        first_answer = answer;
        const int nodes = dfg_from_text(req.dfg_text).num_nodes();
        const bool solved = a && a->ok;
        const int ii = solved ? a->ii : std::max(a ? a->mii : 0, nodes);
        ii_sum += ii;
        gap_sum += ii - (a ? a->ii_lo : 1);
        if (req.paper_ii > 0) {
          ii_paper += ii;
          paper_sum += req.paper_ii;
        }
      } else if (first != buf) {
        std::printf("drift prime %s@%d round0 {%s} round%zu {%s}\n",
                    req.name.c_str(), req.grid, first.c_str(), r, buf);
        outcome_drift |= answer != first_answer;
      }
    }
    records.emplace_back(req.name + "@" + std::to_string(req.grid), first);
    std::printf("prime grid=%d suite=%-14s %s paper_ii=%d best_ms=%.3f\n",
                req.grid, req.name.c_str(), first.c_str(), req.paper_ii,
                *std::min_element(rtt.begin(), rtt.end()));
  }
  compare_with_reference(config, records);

  // Per-round end-to-end figures. The metrics are their best quartile,
  // except setup_s, their median.
  std::vector<double> setup_s;
  std::vector<double> compile_total_s;
  std::vector<double> compile_geomean_ms;
  std::vector<double> p50_ms;
  std::vector<double> p99_ms;
  std::vector<double> per_s;
  // Per-layer figures, over all rounds.
  std::vector<double> job_ms;
  std::vector<double> wait_ms;
  std::vector<double> novel_ms;
  double searches = 0.0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    std::vector<double> rtt_ms;
    std::vector<double> round_novel_ms;
    for (std::size_t c = 0; c < kClients; ++c) {
      const auto& reqs = in.clients[c];
      const auto& reps = rounds[r].replies[c];
      for (std::size_t i = 0; i < reqs.size(); ++i) {
        const std::optional<Answer> a = parse_answer(reps[i].body);
        tally(reqs[i], a);
        (reqs[i].write ? writes : reads) += 1;
        rtt_ms.push_back(reps[i].rtt_s * 1e3);
        tracer.record(reqs[i].write ? "request write" : "request read",
                      reps[i].start_s, reps[i].start_s + reps[i].rtt_s);
        if (!a.has_value()) continue;
        job_ms.push_back(a->seconds * 1e3);
        wait_ms.push_back(std::max(0.0, reps[i].rtt_s - a->seconds) * 1e3);
        if (!a->memo_hit) {
          round_novel_ms.push_back(a->seconds * 1e3);
          searches += a->schedules;
        }
      }
    }
    // The compiles of this workload are the novel writes of the stream: the
    // same fixed pool of graphs for every seed and every round.
    double total_s = 0.0;
    for (const double ms : round_novel_ms) total_s += ms / 1e3;
    setup_s.push_back(rounds[r].setup_s);
    compile_total_s.push_back(total_s);
    compile_geomean_ms.push_back(geomean(round_novel_ms));
    p50_ms.push_back(quantile(rtt_ms, 0.50));
    p99_ms.push_back(quantile(rtt_ms, 0.99));
    per_s.push_back(static_cast<double>(rtt_ms.size()) / rounds[r].stream_s);
    novel_ms.insert(novel_ms.end(), round_novel_ms.begin(), round_novel_ms.end());
    std::printf("round %zu setup_s=%.4f stream_s=%.4f req_per_s=%.1f "
                "req_p50_ms=%.4f req_p99_ms=%.3f compile_total_s=%.4f\n",
                r, setup_s.back(), rounds[r].stream_s, per_s.back(),
                p50_ms.back(), p99_ms.back(), total_s);
  }
  out.correct = out.failed == 0 && !outcome_drift;
  for (const std::string& f : failures) std::printf("failed %s\n", f.c_str());
  std::printf("stream: %d clients, %d rounds, %llu requests (%llu reads, "
              "%llu writes)\n",
              kClients, kRounds, static_cast<unsigned long long>(reads + writes),
              static_cast<unsigned long long>(reads),
              static_cast<unsigned long long>(writes));

  auto best_quartile = [](std::vector<double> v, bool higher_is_better) {
    std::sort(v.begin(), v.end());
    if (higher_is_better) std::reverse(v.begin(), v.end());
    return v[(v.size() - 1) / 4];
  };
  out.set("compile_total_s", best_quartile(compile_total_s, false), "s");
  out.set("compile_geomean_ms", best_quartile(compile_geomean_ms, false), "ms");
  out.set("ii_sum", ii_sum, "count");
  out.set("ii_gap_sum", gap_sum, "count");
  out.set("ii_paper_ratio", paper_sum > 0.0 ? ii_paper / paper_sum : 0.0,
          "ratio");
  out.set("feasible_share", feasible / static_cast<double>(out.attempted),
          "ratio");
  out.set("req_p50_ms", best_quartile(p50_ms, false), "ms");
  out.set("req_p99_ms", best_quartile(p99_ms, false), "ms");
  out.set("req_per_s", best_quartile(per_s, true), "1/s");
  out.set("peak_rss_mb", peak_rss_mb(), "MB");
  out.set("setup_s", median(setup_s), "s");

  const double lookups = stats.memo_hits + stats.memo_misses;
  out.set("space.searches", searches / kRounds, "count");
  out.set("mapper.memo_hit_ratio",
          lookups > 0.0 ? stats.memo_hits / lookups : 0.0, "ratio");
  out.set("mapper.memo_invalid", stats.memo_invalid / kRounds, "count");
  out.set("mapper.certs_published", stats.certs_published / kRounds, "count");
  out.set("mapper.floor_hits", stats.floor_hits / kRounds, "count");
  out.set("mapper.novel_map_ms_p50", quantile(novel_ms, 0.50), "ms");
  out.set("mapper.novel_map_ms_p99", quantile(novel_ms, 0.99), "ms");
  out.set("service.job_ms_p50", quantile(job_ms, 0.50), "ms");
  out.set("service.job_ms_p99", quantile(job_ms, 0.99), "ms");
  out.set("service.queue_wait_ms_p50", quantile(wait_ms, 0.50), "ms");
  out.set("service.queue_wait_ms_p99", quantile(wait_ms, 0.99), "ms");
  out.set("service.rejected", stats.rejected / kRounds, "count");

  if (tracer.enabled()) {
    // Standalone timings of the layers a request crosses, on the same
    // inputs, outside the round trip: protocol parse, DFG fingerprint and
    // store lookup (a store primed with the priming answers).
    KnowledgeStore store;
    const DecoupledMapperOptions options = service_options().mapper;
    for (std::size_t i = 0; i < in.primes.size(); ++i) {
      const std::optional<Answer> a = parse_answer(rounds.back().primes[i].body);
      if (!a.has_value() || !a->ok) continue;
      const Dfg dfg = dfg_from_text(in.primes[i].dfg_text);
      MapResult result;
      result.success = true;
      result.outcome = MapOutcome::kFeasible;
      result.ii = a->ii;
      result.mapping = mapping_from_text(a->mapping, dfg.num_nodes());
      store.store(dfg, fingerprint_dfg(dfg),
                  fingerprint_arch(CgraArch::square(in.primes[i].grid)),
                  options, result);
    }
    std::vector<double> parse_us;
    std::vector<double> fingerprint_us;
    std::vector<double> lookup_us;
    for (const auto& reqs : in.clients) {
      for (const Request& req : reqs) {
        double start = now_s();
        const ParsedRequest parsed = parse_request(req.line);
        parse_us.push_back((now_s() - start) * 1e6);
        tracer.record("parse_request", start, now_s());
        if (!parsed.ok) continue;

        const Dfg dfg = dfg_from_text(req.dfg_text);
        start = now_s();
        const DfgFingerprint fp = fingerprint_dfg(dfg);
        fingerprint_us.push_back((now_s() - start) * 1e6);
        tracer.record("fingerprint_dfg", start, now_s());
        if (req.write) continue;

        const CgraArch arch = CgraArch::square(req.grid);
        const std::uint64_t arch_fp = fingerprint_arch(arch);
        start = now_s();
        (void)store.lookup(dfg, arch, fp, arch_fp, options);
        lookup_us.push_back((now_s() - start) * 1e6);
        tracer.record("store_lookup", start, now_s());
      }
    }
    out.set("service.parse_us_p50", quantile(parse_us, 0.50), "us");
    out.set("mapper.fingerprint_us_p50", quantile(fingerprint_us, 0.50), "us");
    out.set("mapper.fingerprint_us_p99", quantile(fingerprint_us, 0.99), "us");
    out.set("mapper.store_lookup_us_p50", quantile(lookup_us, 0.50), "us");
    out.set("mapper.store_lookup_us_p99", quantile(lookup_us, 0.99), "us");
    tracer.dump(config.state_dir + "/trace-" + config.workload + ".jsonl");
  }
  return out;
}

}  // namespace perfbench
