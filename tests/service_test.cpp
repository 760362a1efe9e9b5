// MappingService + KnowledgeStore: protocol robustness, memo soundness
// (identical and isomorphic repeats), the memo-miss differential against
// map(), the fabric cache under concurrency, memo hits answered while a
// compile runs, admission control, fault containment, a seeded mutation
// run of the front end, shutdown.
#include "service/service.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "io/dfg_io.hpp"
#include "mapper/fingerprint.hpp"
#include "mapper/knowledge_store.hpp"
#include "mapper/mapping.hpp"
#include "service/protocol.hpp"
#include "support/fault.hpp"
#include "support/json.hpp"
#include "workloads/suite.hpp"

namespace monomap {
namespace {

json::Value parse_response(const std::string& response) {
  const std::optional<json::Value> doc = json::parse(response);
  EXPECT_TRUE(doc.has_value() && doc->is_object()) << response;
  return doc.has_value() ? *doc : json::Value();
}

std::string map_request(const std::string& bench, bool memo) {
  return "{\"verb\":\"map\",\"id\":\"t\",\"bench\":\"" + bench +
         "\",\"grid\":4,\"deadline_s\":30,\"memo\":" +
         (memo ? "true" : "false") + "}";
}

// ---- protocol ------------------------------------------------------------

TEST(ServeProtocolTest, MalformedInputIsAnErrorNeverACrash) {
  const char* bad[] = {
      "",                                       // empty
      "not json",                               // unparsable
      "[1,2,3]",                                // not an object
      "{\"verb\":\"fly\",\"bench\":\"fft\"}",   // unknown verb
      "{\"verb\":\"map\"}",                     // neither bench nor dfg
      "{\"verb\":\"map\",\"bench\":\"fft\",\"dfg\":\"x\"}",  // both
      "{\"verb\":\"map\",\"bench\":\"fft\",\"grid\":0}",     // grid range
      "{\"verb\":\"map\",\"bench\":\"fft\",\"grid\":1.5}",   // non-integer
      "{\"verb\":\"map\",\"bench\":\"fft\",\"grid\":129}",   // > kMaxGridSide
      "{\"verb\":\"map\",\"bench\":\"fft\",\"max_schedules\":-1}",
      "{\"verb\":\"map\",\"bench\":\"fft\",\"max_ii\":4097}",  // > nodes cap
      "{\"verb\":\"map\",\"bench\":\"fft\",\"topology\":\"ring\"}",
      "{\"verb\":\"map\",\"bench\":\"fft\",\"deadline_s\":-2}",
      "{\"verb\":\"map\",\"bench\":\"fft\",\"memo\":1}",
  };
  for (const char* line : bad) {
    const ParsedRequest parsed = parse_request(line);
    EXPECT_FALSE(parsed.ok) << line;
    EXPECT_FALSE(parsed.error.empty()) << line;
  }
}

TEST(ServeProtocolTest, DefaultsAndOverrides) {
  const ParsedRequest parsed = parse_request(
      "{\"verb\":\"map\",\"id\":7,\"bench\":\"fft\",\"grid\":5,"
      "\"topology\":\"torus\",\"deadline_s\":2.5,\"memo\":false,"
      "\"anytime\":true,\"max_schedules\":9,\"mapping\":true}");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  const ServeRequest& req = parsed.request;
  EXPECT_EQ(req.id, "7");
  EXPECT_EQ(req.rows, 5);
  EXPECT_EQ(req.cols, 5);
  EXPECT_EQ(req.topology, Topology::kTorus);
  EXPECT_DOUBLE_EQ(req.deadline_s, 2.5);
  EXPECT_EQ(req.memo, 0);
  EXPECT_TRUE(req.anytime);
  EXPECT_EQ(req.max_schedules, 9);
  EXPECT_TRUE(req.want_mapping);
}

TEST(ServiceTest, MalformedLineGetsErrorResponseAndServiceSurvives) {
  MappingService service;
  const json::Value err = parse_response(service.handle_line("garbage"));
  EXPECT_FALSE(err.bool_or("ok", true));
  const json::Value ok =
      parse_response(service.handle_line(map_request("fft", false)));
  EXPECT_TRUE(ok.bool_or("ok", false));
  EXPECT_EQ(service.stats().errors, 1u);
}

TEST(ServiceTest, UnmappableDfgTextIsABadRequest) {
  // DFG text the mapper cannot take (no nodes, a distance-0 self-loop, a
  // distance-0 cycle) and an unknown bench name are refused by the loaders
  // as a bad request, not by an invariant check deep in the mapper. The
  // error carries the loader's message alone: no source location, no
  // assertion text.
  MappingService service;
  std::vector<std::string> lines;
  for (const char* text : {"dfg e\nnodes 0\nend\n",
                           "dfg s\nnodes 1\nedge 0 0 0\nend\n",
                           "dfg c\nnodes 2\nedge 0 1 0\nedge 1 0 0\nend\n"}) {
    lines.push_back("{\"verb\":\"map\",\"id\":\"t\",\"grid\":4,\"dfg\":\"" +
                    json::escape(text) + "\"}");
  }
  lines.push_back(map_request("no-such-bench", false));
  for (const std::string& line : lines) {
    const json::Value r = parse_response(service.handle_line(line));
    EXPECT_FALSE(r.bool_or("ok", true)) << line;
    const std::string error = r.string_or("error", "");
    EXPECT_EQ(error.rfind("bad request:", 0), 0u) << error;
    EXPECT_EQ(error.find(".cpp:"), std::string::npos) << error;
    EXPECT_EQ(error.find("assertion failed"), std::string::npos) << error;
  }
  const json::Value ok =
      parse_response(service.handle_line(map_request("fft", false)));
  EXPECT_TRUE(ok.bool_or("ok", false));
  EXPECT_EQ(service.stats().errors, 4u);
}

// ---- memo ----------------------------------------------------------------

TEST(ServiceTest, ExactRepeatIsMemoHitWithSameAnswer) {
  MappingService service;
  const json::Value cold =
      parse_response(service.handle_line(map_request("fft", true)));
  const json::Value hit =
      parse_response(service.handle_line(map_request("fft", true)));
  ASSERT_TRUE(cold.bool_or("ok", false));
  ASSERT_TRUE(hit.bool_or("ok", false));
  EXPECT_FALSE(cold.bool_or("memo_hit", true));
  EXPECT_TRUE(hit.bool_or("memo_hit", false));
  EXPECT_EQ(cold.number_or("ii", -1.0), hit.number_or("ii", -2.0));
  EXPECT_EQ(hit.number_or("schedules_tried", -1.0), 0.0);
  EXPECT_EQ(service.stats().store.memo_hits, 1u);
}

TEST(ServiceTest, MemoHitReportsTheMissMii) {
  // A hit answers with the bounds the stored walk started from: fft on 4x4
  // has mII 7, on the miss and on the repeat.
  MappingService service;
  const json::Value miss =
      parse_response(service.handle_line(map_request("fft", true)));
  const json::Value hit =
      parse_response(service.handle_line(map_request("fft", true)));
  ASSERT_TRUE(miss.bool_or("ok", false));
  ASSERT_TRUE(hit.bool_or("ok", false));
  ASSERT_TRUE(hit.bool_or("memo_hit", false));
  EXPECT_EQ(miss.number_or("mii", -1.0), 7.0);
  EXPECT_EQ(hit.number_or("mii", -2.0), miss.number_or("mii", -1.0));
}

TEST(ServiceTest, IsomorphicRepeatIsMemoHitWithValidMapping) {
  // Same structural graph under two different node labelings: the second
  // request must hit the memo AND return a mapping valid for ITS labeling.
  const Dfg original = dfg_from_text(dfg_to_text(benchmark_by_name("fft").dfg));
  std::vector<Edge> edges;
  const int n = original.num_nodes();
  for (EdgeId e = 0; e < original.num_edges(); ++e) {
    const Edge& edge = original.graph().edge(e);
    edges.push_back(
        Edge{static_cast<NodeId>(n - 1 - edge.src),
             static_cast<NodeId>(n - 1 - edge.dst), edge.attr});
  }
  const Dfg relabeled = Dfg::from_edges("fft_rev", n, edges);

  MappingService service;
  auto dfg_request = [](const Dfg& dfg) {
    return "{\"verb\":\"map\",\"id\":\"t\",\"dfg\":\"" +
           json::escape(dfg_to_text(dfg)) +
           "\",\"grid\":4,\"deadline_s\":30,\"memo\":true,\"mapping\":true}";
  };
  const json::Value first =
      parse_response(service.handle_line(dfg_request(original)));
  const json::Value second =
      parse_response(service.handle_line(dfg_request(relabeled)));
  ASSERT_TRUE(first.bool_or("ok", false));
  ASSERT_TRUE(second.bool_or("ok", false));
  EXPECT_TRUE(second.bool_or("memo_hit", false));
  EXPECT_EQ(first.number_or("ii", -1.0), second.number_or("ii", -2.0));

  const std::string text = second.string_or("mapping", "");
  ASSERT_FALSE(text.empty());
  const Mapping mapping = mapping_from_text(text, relabeled.num_nodes());
  const CgraArch arch(4, 4, Topology::kMesh);
  EXPECT_TRUE(validate_mapping(relabeled, arch, mapping,
                               MrrgModel::kRegisterPersistence)
                  .empty());
}

TEST(ServiceTest, MemoOptOutNeverHits) {
  MappingService service;
  (void)service.handle_line(map_request("fft", true));
  const json::Value repeat =
      parse_response(service.handle_line(map_request("fft", false)));
  ASSERT_TRUE(repeat.bool_or("ok", false));
  EXPECT_FALSE(repeat.bool_or("memo_hit", true));
  EXPECT_GT(repeat.number_or("schedules_tried", 0.0), 0.0);
}

TEST(KnowledgeStoreTest, DifferentOptionsNeverShareMemoSlots) {
  const Dfg dfg = benchmark_by_name("fft").dfg;
  const CgraArch arch(4, 4, Topology::kMesh);
  const DfgFingerprint fp = fingerprint_dfg(dfg);
  const std::uint64_t arch_fp = fingerprint_arch(arch);

  DecoupledMapperOptions options;
  const MapResult result = DecoupledMapper(options).map(dfg, arch);
  ASSERT_TRUE(result.success);

  KnowledgeStore store;
  store.store(dfg, fp, arch_fp, options, result);
  EXPECT_TRUE(store.lookup(dfg, arch, fp, arch_fp, options).has_value());
  // A different answer-shaping option misses.
  DecoupledMapperOptions other = options;
  other.anytime = true;
  EXPECT_FALSE(store.lookup(dfg, arch, fp, arch_fp, other).has_value());
  // A different architecture misses.
  const CgraArch bigger(5, 5, Topology::kMesh);
  EXPECT_FALSE(store
                   .lookup(dfg, bigger, fp, fingerprint_arch(bigger), options)
                   .has_value());
  // Soundness gate: only completed feasible results are ever stored.
  MapResult degraded = result;
  degraded.outcome = MapOutcome::kDegraded;
  KnowledgeStore fresh;
  fresh.store(dfg, fp, arch_fp, options, degraded);
  EXPECT_FALSE(fresh.lookup(dfg, arch, fp, arch_fp, options).has_value());
}

TEST(KnowledgeStoreTest, ConcurrentStoresAndLookupsStayConsistent) {
  // Four threads look up and store overlapping keys: four DFGs times 1,000
  // answer-shaping option variants, about 1.6 MB of entries offered to a
  // 1 MB byte budget and a 2,816-entry cap (176 per stripe), so stripes
  // evict while other threads read them. Every hit must validate and carry
  // its key's answer, and the counters must add up.
  const CgraArch arch(4, 4, Topology::kMesh);
  const std::uint64_t arch_fp = fingerprint_arch(arch);
  struct Case {
    Dfg dfg;
    DfgFingerprint fp;
    MapResult result;
  };
  std::vector<Case> cases;
  for (const char* name : {"fft", "gsm", "heartwall", "particlefilter"}) {
    const Dfg& dfg = benchmark_by_name(name).dfg;
    MapResult result = DecoupledMapper(DecoupledMapperOptions{}).map(dfg, arch);
    ASSERT_TRUE(result.success) << name;
    cases.push_back(Case{dfg, fingerprint_dfg(dfg), std::move(result)});
  }
  constexpr int kVariants = 1000;
  const auto options_of = [](int variant) {
    DecoupledMapperOptions options;
    options.max_schedules = 1000 + variant;
    return options;
  };
  const int keys = static_cast<int>(cases.size()) * kVariants;

  KnowledgeStore::Options sizing;
  sizing.memory_budget_mb = 1;
  sizing.max_memo_entries = 2816;
  KnowledgeStore store(sizing);
  constexpr int kThreads = 4;
  std::atomic<std::uint64_t> lookups{0};
  std::atomic<std::uint64_t> hits{0};
  std::vector<std::vector<std::string>> failures(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // 7 is coprime with the key count: each thread visits every key
      // twice, a few keys apart from the others, so most keys are stored by
      // one thread and looked up by the rest soon after.
      for (int i = 0; i < 2 * keys; ++i) {
        const int k = (i * 7 + t * 3) % keys;
        const Case& c = cases[static_cast<std::size_t>(k) % cases.size()];
        const DecoupledMapperOptions options =
            options_of(k / static_cast<int>(cases.size()));
        ++lookups;
        const std::optional<MapResult> hit =
            store.lookup(c.dfg, arch, c.fp, arch_fp, options);
        if (!hit.has_value()) {
          store.store(c.dfg, c.fp, arch_fp, options, c.result);
          continue;
        }
        ++hits;
        if (hit->ii != c.result.ii ||
            hit->mii.mii() != c.result.mii.mii() ||
            !validate_mapping(c.dfg, arch, hit->mapping,
                              MrrgModel::kRegisterPersistence)
                 .empty()) {
          failures[static_cast<std::size_t>(t)].push_back(
              "key " + std::to_string(k));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(failures[static_cast<std::size_t>(t)].empty())
        << failures[static_cast<std::size_t>(t)].size()
        << " bad hits, first: " << failures[static_cast<std::size_t>(t)][0];
  }
  const KnowledgeStore::StatsSnapshot s = store.stats();
  EXPECT_EQ(s.memo_hits, hits.load());
  EXPECT_EQ(s.memo_hits + s.memo_misses, lookups.load());
  EXPECT_EQ(s.memo_invalid, 0u);
  EXPECT_GT(s.memo_hits, 0u);
  EXPECT_GT(s.memo_evictions, 0u);
  // The byte budget bound: a charge was refused within one entry (under
  // 1 KiB here) of it.
  EXPECT_LE(s.bytes_peak, std::size_t{1} << 20);
  EXPECT_GT(s.bytes_peak, (std::size_t{1} << 20) - 1024);
  // Quiescent: exactly the stored and not evicted entries answer.
  std::uint64_t resident = 0;
  for (int k = 0; k < keys; ++k) {
    const Case& c = cases[static_cast<std::size_t>(k) % cases.size()];
    resident += store
                    .lookup(c.dfg, arch, c.fp, arch_fp,
                            options_of(k / static_cast<int>(cases.size())))
                    .has_value()
                    ? 1
                    : 0;
  }
  EXPECT_EQ(resident, s.memo_stores - s.memo_evictions);
  EXPECT_LT(resident, static_cast<std::uint64_t>(keys));
}

// ---- memo miss -----------------------------------------------------------

TEST(ServiceTest, MemoMissMatchesMap) {
  // A memo miss is a plain map() of the DFG the service parsed: the answer
  // and the effort behind it equal a direct call with the service's mapper
  // options, under either MRRG model.
  const CgraArch arch(4, 4, Topology::kMesh);
  const auto expect_miss_is_map = [&arch](MappingService& service,
                                          const char* name) {
    const std::string text = dfg_to_text(benchmark_by_name(name).dfg);
    const json::Value r = parse_response(service.handle_line(
        "{\"verb\":\"map\",\"id\":\"t\",\"grid\":4,\"deadline_s\":30,"
        "\"dfg\":\"" + json::escape(text) + "\"}"));
    ASSERT_TRUE(r.bool_or("ok", false)) << name;
    EXPECT_FALSE(r.bool_or("memo_hit", true)) << name;
    const MapResult m =
        DecoupledMapper(service.options().mapper).map(dfg_from_text(text), arch);
    ASSERT_TRUE(m.success) << name << ": " << m.failure_reason;
    EXPECT_EQ(r.number_or("ii", -1.0), m.ii) << name;
    EXPECT_EQ(r.number_or("ii_lo", -1.0), m.ii_lo) << name;
    EXPECT_EQ(r.number_or("ii_hi", -1.0), m.ii_hi) << name;
    EXPECT_EQ(r.number_or("schedules_tried", -1.0), m.schedules_tried)
        << name;
  };
  MappingService service;
  for (const char* name : {"fft", "gsm", "nw", "susan"}) {
    expect_miss_is_map(service, name);
  }
  MappingService::Options restricted;
  restricted.mapper.space.model = MrrgModel::kConsecutiveOnly;
  MappingService restricted_service(restricted);
  expect_miss_is_map(restricted_service, "hotspot3D");
}

// ---- fabric cache --------------------------------------------------------

TEST(ServiceTest, FabricCacheHoldsUnderConcurrentHitsAndMisses) {
  // Four clients send memo hits and misses on six fabrics (grids 4, 5 and
  // 8, mesh and torus), more than the cache keeps, so fabrics are evicted
  // while other jobs may still map on them. Every mapping must validate on
  // a fabric built fresh from its own request: a cache key without the
  // topology would hand a mesh request a torus fabric, whose wrap-around
  // links the mesh does not have.
  MappingService::Options options;
  options.threads = 2;
  options.queue_limit = 0;
  MappingService service(options);
  const std::vector<std::string> benches = {"fft", "gsm", "susan", "sha1"};
  const std::vector<int> grids = {4, 5, 8};
  const std::vector<Topology> topologies = {Topology::kMesh, Topology::kTorus};
  const std::size_t combos = benches.size() * grids.size() * topologies.size();
  constexpr int kClients = 4;
  std::vector<std::vector<std::string>> failures(kClients);
  std::atomic<int> hits{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      // 5 is coprime with the 24 combinations: each client sends every one
      // of them once, each from its own starting point.
      for (std::size_t i = 0; i < combos; ++i) {
        const std::size_t k =
            (i * 5 + static_cast<std::size_t>(c) * 7) % combos;
        const std::string& bench = benches[k % benches.size()];
        const int grid = grids[k / benches.size() % grids.size()];
        const Topology topology =
            topologies[k / (benches.size() * grids.size())];
        const std::string line =
            "{\"verb\":\"map\",\"id\":\"t\",\"bench\":\"" + bench +
            "\",\"grid\":" + std::to_string(grid) + ",\"topology\":\"" +
            topology_name(topology) + "\",\"memo\":" +
            (i % 3 == 2 ? "false" : "true") + ",\"mapping\":true}";
        const std::string where = line + " -> ";
        const std::optional<json::Value> r =
            json::parse(service.handle_line(line));
        if (!r.has_value() || !r->bool_or("ok", false)) {
          failures[c].push_back(where + "no mapping");
          continue;
        }
        hits += r->bool_or("memo_hit", false) ? 1 : 0;
        const Dfg& dfg = benchmark_by_name(bench).dfg;
        try {
          const Mapping mapping =
              mapping_from_text(r->string_or("mapping", ""), dfg.num_nodes());
          if (!validate_mapping(dfg, CgraArch(grid, grid, topology), mapping,
                                MrrgModel::kRegisterPersistence)
                   .empty()) {
            failures[c].push_back(where + "invalid on its own fabric");
          }
        } catch (const InputError& e) {
          failures[c].push_back(where + e.what());
        }
        if (service.stats().fabrics_cached >
            MappingService::kFabricCacheEntries) {
          failures[c].push_back(where + "fabric cache over its bound");
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_TRUE(failures[c].empty())
        << failures[c].size() << " failures, first: " << failures[c].front();
  }
  EXPECT_GT(hits.load(), 0);
  EXPECT_EQ(service.stats().fabrics_cached,
            MappingService::kFabricCacheEntries);
}

// ---- admission control ---------------------------------------------------

TEST(ServiceTest, AdmissionBoundRejectsWithDeadlineOutcome) {
  MappingService::Options options;
  options.threads = 1;
  options.queue_limit = 1;
  MappingService service(options);

  std::atomic<int> rejected{0};
  std::atomic<int> served{0};
  std::thread occupant([&] {
    // cfd at 4x4 runs ~1s: long enough that the probes below overlap it.
    const json::Value r =
        parse_response(service.handle_line(map_request("cfd", false)));
    if (r.bool_or("ok", false)) served.fetch_add(1);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  const json::Value probe =
      parse_response(service.handle_line(map_request("fft", false)));
  if (probe.bool_or("ok", false)) {
    served.fetch_add(1);
  } else {
    EXPECT_EQ(probe.string_or("outcome", ""), "deadline");
    EXPECT_EQ(probe.number_or("exit_code", 0.0), 5.0);
    rejected.fetch_add(1);
  }
  occupant.join();
  EXPECT_EQ(served.load() + rejected.load(), 2);
  EXPECT_EQ(service.stats().rejected,
            static_cast<std::uint64_t>(rejected.load()));
  // The service keeps serving after shedding load.
  const json::Value after =
      parse_response(service.handle_line(map_request("fft", false)));
  EXPECT_TRUE(after.bool_or("ok", false));
}

TEST(ServiceTest, MemoHitIsAnsweredWhileACompileRuns) {
  // A hit is answered on the caller's thread: it neither waits behind the
  // compile that holds the only worker nor counts against the admission
  // bound, which a queue limit of 1 leaves no room in.
  for (const int queue_limit : {0, 1}) {
    MappingService::Options options;
    options.threads = 1;
    options.queue_limit = queue_limit;
    MappingService service(options);
    ASSERT_TRUE(parse_response(service.handle_line(map_request("fft", true)))
                    .bool_or("ok", false));
    std::atomic<bool> compiled{false};
    std::thread occupant([&] {
      // cfd at 4x4 runs ~1s, on the worker from shortly after it arrives;
      // the deadline only caps it in the slower sanitizer builds.
      (void)service.handle_line(
          "{\"verb\":\"map\",\"id\":\"t\",\"bench\":\"cfd\",\"grid\":4,"
          "\"deadline_s\":2,\"memo\":false}");
      compiled = true;
    });
    while (service.stats().requests < 2) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const json::Value hit =
        parse_response(service.handle_line(map_request("fft", true)));
    EXPECT_FALSE(compiled.load()) << "queue_limit " << queue_limit;
    EXPECT_TRUE(hit.bool_or("ok", false)) << "queue_limit " << queue_limit;
    EXPECT_TRUE(hit.bool_or("memo_hit", false))
        << "queue_limit " << queue_limit;
    occupant.join();
    EXPECT_EQ(service.stats().rejected, 0u) << "queue_limit " << queue_limit;
  }
}

// ---- fault containment ---------------------------------------------------

TEST(ServiceTest, ServeRequestFaultSiteIsClassifiedAndContained) {
  const auto plan = fault::parse_fault_spec("serve.request=throw@2:1");
  ASSERT_TRUE(plan.has_value());
  fault::install_faults(*plan);
  MappingService service;
  int faults = 0;
  int feasible = 0;
  for (int i = 0; i < 4; ++i) {
    const json::Value r =
        parse_response(service.handle_line(map_request("fft", false)));
    const std::string outcome = r.string_or("outcome", "");
    if (outcome == "fault") {
      EXPECT_FALSE(r.bool_or("ok", true));
      EXPECT_EQ(r.number_or("exit_code", 0.0), 7.0);
      ++faults;
    } else if (outcome == "feasible") {
      ++feasible;
    }
  }
  fault::clear_faults();
  // period 2: half the requests fault, the server survives all of them.
  EXPECT_EQ(faults, 2);
  EXPECT_EQ(feasible, 2);
  EXPECT_EQ(service.stats().faults, 2u);
  const json::Value after =
      parse_response(service.handle_line(map_request("fft", false)));
  EXPECT_TRUE(after.bool_or("ok", false));
}

TEST(ServiceTest, CompileAnswersUnderPermanentPoolWorkerFaults) {
  // Every pickup of the compile job faults: the pool requeues it up to its
  // cap and then runs it, so the miss is answered rather than lost.
  const auto plan = fault::parse_fault_spec("pool.worker=throw@1");
  ASSERT_TRUE(plan.has_value());
  fault::install_faults(*plan);
  MappingService service;
  const json::Value r =
      parse_response(service.handle_line(map_request("fft", false)));
  fault::clear_faults();
  EXPECT_EQ(r.string_or("outcome", ""), "feasible");
  EXPECT_TRUE(r.bool_or("ok", false));
}

// ---- mutation run of the front end ----------------------------------------

/// One seeded mutation of DFG text: a few byte flips, a deleted or a
/// duplicated line, a number replaced by a huge or negative value, or a
/// truncation.
std::string mutate(std::string text, std::mt19937_64& rng) {
  if (text.empty()) return text;
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  std::vector<std::string> lines;
  for (std::size_t at = 0; at < text.size();) {
    const std::size_t nl = std::min(text.find('\n', at), text.size() - 1);
    lines.push_back(text.substr(at, nl + 1 - at));
    at = nl + 1;
  }
  const auto join = [&lines] {
    std::string out;
    for (const std::string& l : lines) out += l;
    return out;
  };
  switch (rng() % 5) {
    case 0:
      for (std::size_t flips = 1 + pick(4); flips > 0; --flips) {
        text[pick(text.size())] ^= static_cast<char>(1 << pick(8));
      }
      return text;
    case 1:
      lines.erase(lines.begin() +
                  static_cast<std::ptrdiff_t>(pick(lines.size())));
      return join();
    case 2: {
      const std::size_t i = pick(lines.size());
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(i), lines[i]);
      return join();
    }
    case 3: {
      static const char* const kValues[] = {
          "2147483647", "2147483648", "-1", "-2147483648", "4096", "4097",
          "9223372036854775807", "99999999999999999999", "0"};
      std::vector<std::pair<std::size_t, std::size_t>> numbers;
      for (std::size_t i = 0; i < text.size();) {
        if (std::isdigit(static_cast<unsigned char>(text[i])) == 0) {
          ++i;
          continue;
        }
        const std::size_t begin = i;
        while (i < text.size() &&
               std::isdigit(static_cast<unsigned char>(text[i])) != 0) {
          ++i;
        }
        numbers.emplace_back(begin, i - begin);
      }
      if (numbers.empty()) return text;
      const auto [at, len] = numbers[pick(numbers.size())];
      return text.replace(at, len, kValues[pick(std::size(kValues))]);
    }
    default:
      return text.substr(0, pick(text.size()));
  }
}

TEST(ServiceTest, MutatedRequestsAlwaysGetOneResponse) {
  // About 2,000 mutants of map lines carrying suite DFG text, most mutated
  // in the DFG text and some in the line itself, each with a small deadline
  // and schedule budget. Every call answers one JSON object with an id and
  // ok, nothing escapes, and a returned mapping validates on the DFG and
  // fabric the mutated line names.
  constexpr int kMutants = 2000;
  constexpr std::uint64_t kSeed = 0xf022;
  std::vector<std::string> texts;
  for (const Benchmark& b : benchmark_suite()) {
    if (b.name != "cfd" && b.name != "hotspot3D") {
      texts.push_back(dfg_to_text(b.dfg));
    }
  }
  MappingService service;
  std::mt19937_64 rng(kSeed);
  std::vector<std::string> failures;
  int mapped = 0;
  for (int i = 0; i < kMutants; ++i) {
    std::string text = texts[rng() % texts.size()];
    for (std::uint64_t m = 1 + rng() % 3; m > 0; --m) text = mutate(text, rng);
    std::string line = "{\"verb\":\"map\",\"id\":\"m" + std::to_string(i) +
                       "\",\"grid\":" + std::to_string(3 + rng() % 3) +
                       ",\"deadline_s\":0.05,\"max_schedules\":2,"
                       "\"mapping\":true,\"dfg\":\"" +
                       json::escape(text) + "\"}";
    if (rng() % 8 == 0) line = mutate(line, rng);
    const std::string where = "mutant " + std::to_string(i) + ": ";
    std::string body;
    ASSERT_NO_THROW(body = service.handle_line(line)) << where << line;
    const std::optional<json::Value> r = json::parse(body);
    if (!r.has_value() || !r->is_object() || r->find("id") == nullptr ||
        !r->find("id")->is_string() || r->find("ok") == nullptr ||
        !r->find("ok")->is_bool()) {
      failures.push_back(where + "malformed response " + body);
      continue;
    }
    if (!r->bool_or("ok", false)) continue;
    const ParsedRequest sent = parse_request(line);
    if (!sent.request.want_mapping) continue;  // a mutant that dropped it
    try {
      const Dfg dfg = dfg_from_text(sent.request.dfg_text);
      const Mapping mapping =
          mapping_from_text(r->string_or("mapping", ""), dfg.num_nodes());
      const CgraArch arch(sent.request.rows, sent.request.cols,
                          sent.request.topology);
      if (!validate_mapping(dfg, arch, mapping,
                            MrrgModel::kRegisterPersistence)
               .empty()) {
        failures.push_back(where + "mapping fails validate_mapping");
      }
      ++mapped;
    } catch (const InputError& e) {
      failures.push_back(where + e.what());
    }
  }
  EXPECT_TRUE(failures.empty())
      << failures.size() << " failures, first: " << failures.front();
  // The run exercises both sides: mutants the mapper answered, and mutants
  // refused as bad requests.
  EXPECT_GT(mapped, kMutants / 20);
  EXPECT_GT(service.stats().errors, static_cast<std::uint64_t>(kMutants / 20));
  const json::Value clean =
      parse_response(service.handle_line(map_request("fft", true)));
  EXPECT_TRUE(clean.bool_or("ok", false));
}

// ---- stats + shutdown ----------------------------------------------------

TEST(ServiceTest, StatsVerbReportsCountersAndLatency) {
  MappingService service;
  (void)service.handle_line(map_request("fft", true));
  (void)service.handle_line(map_request("fft", true));
  const json::Value stats = parse_response(
      service.handle_line("{\"verb\":\"stats\",\"id\":\"s\"}"));
  EXPECT_TRUE(stats.bool_or("ok", false));
  EXPECT_EQ(stats.number_or("requests", 0.0), 2.0);
  EXPECT_EQ(stats.number_or("memo_hits", 0.0), 1.0);
  EXPECT_EQ(stats.number_or("memo_stores", 0.0), 1.0);
  EXPECT_GT(stats.number_or("p50_ms", 0.0), 0.0);
  EXPECT_GE(stats.number_or("p99_ms", 0.0),
            stats.number_or("p50_ms", 0.0));
  EXPECT_GT(stats.number_or("mem_bytes", 0.0), 0.0);
}

TEST(ServiceTest, ShutdownVerbFlagsTheFrontEnd) {
  MappingService service;
  EXPECT_FALSE(service.shutdown_requested());
  const json::Value r = parse_response(
      service.handle_line("{\"verb\":\"shutdown\",\"id\":\"x\"}"));
  EXPECT_TRUE(r.bool_or("ok", false));
  EXPECT_TRUE(service.shutdown_requested());
}

}  // namespace
}  // namespace monomap
