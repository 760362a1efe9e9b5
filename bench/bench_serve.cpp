// bench_serve — load generator for the mapping service.
//
// Drives the newline-delimited JSON protocol either against an in-process
// MappingService (default; no sockets, deterministic single-box numbers)
// or against a live monomap_serve daemon (--unix PATH). Two sections,
// emitted as rows keyed (suite, grid, engine) for tools/bench_diff.py:
//
//   cold — per-request memo disabled: the raw mapper path, the
//          denominator every reuse claim is measured against; each row is
//          the median of --repeats requests.
//   memo — one request populates the fingerprint memo, then kMemoSamples
//          back-to-back repeats must come back memo_hit with zero
//          schedules tried; each row is their median, enough samples to
//          resolve a 2x change in a hit's cost.
//
// Output: one JSON document (BENCH_serve.json schema) with per-row outcome
// fields and an aggregate outcome_counts histogram.
#include <array>
#include <cstring>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "bench_common.hpp"
#include "service/service.hpp"
#include "support/argparse.hpp"
#include "support/json.hpp"
#include "support/outcome.hpp"
#include "support/stopwatch.hpp"
#include "workloads/suite.hpp"

namespace {

using namespace monomap;

/// Memo hits per memo row: a hit costs tens of µs, and host noise moves
/// single samples by 2x or more, so each row is the median of this many
/// back-to-back hits.
constexpr int kMemoSamples = 25;

[[noreturn]] void usage() {
  std::cerr <<
      "usage: bench_serve [--grid N] [--repeats N] [--deadline S]\n"
      "  [--suites a,b,c]  suites to send (default: full suite)\n"
      "  [--unix PATH]     drive a live monomap_serve instead of in-process\n"
      "  [--shutdown]      send a shutdown verb when done (--unix mode)\n"
      "--repeats N samples each cold row; each memo row is the median of\n"
      << kMemoSamples << " hits. Prints one BENCH_serve.json document to "
      "stdout\n";
  std::exit(2);
}

/// Where request lines go: an in-process service or a connected daemon.
class Transport {
 public:
  virtual ~Transport() = default;
  virtual std::string round_trip(const std::string& line) = 0;
};

class InProcessTransport : public Transport {
 public:
  explicit InProcessTransport(MappingService::Options options)
      : service_(std::move(options)) {}
  std::string round_trip(const std::string& line) override {
    return service_.handle_line(line);
  }

 private:
  MappingService service_;
};

class UnixTransport : public Transport {
 public:
  explicit UnixTransport(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (fd_ < 0 || path.size() >= sizeof(addr.sun_path)) {
      std::cerr << "bench_serve: cannot create socket for " << path << '\n';
      std::exit(1);
    }
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      std::cerr << "bench_serve: cannot connect to " << path << ": "
                << std::strerror(errno) << '\n';
      std::exit(1);
    }
  }
  ~UnixTransport() override {
    if (fd_ >= 0) ::close(fd_);
  }
  std::string round_trip(const std::string& line) override {
    std::string out = line;
    out.push_back('\n');
    std::size_t off = 0;
    while (off < out.size()) {
      const ssize_t w = ::write(fd_, out.data() + off, out.size() - off);
      if (w <= 0) {
        std::cerr << "bench_serve: connection lost mid-write\n";
        std::exit(1);
      }
      off += static_cast<std::size_t>(w);
    }
    for (;;) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string response = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return response;
      }
      char chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n <= 0) {
        std::cerr << "bench_serve: connection lost mid-read\n";
        std::exit(1);
      }
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

struct Row {
  std::string suite;
  std::string engine;  // cold | memo
  bool success = false;
  std::string outcome;
  int ii = 0;
  double seconds = 0.0;
  std::int64_t schedules_tried = 0;
  bool memo_hit = false;
};

struct Harness {
  Transport* transport = nullptr;
  int grid = 4;
  double deadline_s = 30.0;
  std::vector<std::string> outcome_seen;  // one outcome string per request

  std::string request_line(const std::string& suite, bool memo) {
    json::Writer w;
    return w.begin_object()
        .field("verb", "map")
        .field("id", "bench")
        .field("bench", suite)
        .field("grid", grid)
        .field("deadline_s", deadline_s)
        .field("memo", memo)
        .end_object()
        .take();
  }

  /// One round trip, parsed into a Row (seconds is the client-side wall
  /// time — the number a caller of the service actually experiences).
  Row send(const std::string& suite, const std::string& engine, bool memo) {
    const std::string line = request_line(suite, memo);
    Stopwatch watch;
    const std::string response = transport->round_trip(line);
    const double wall = watch.elapsed_s();
    const std::optional<json::Value> doc = json::parse(response);
    if (!doc.has_value() || !doc->is_object()) {
      std::cerr << "bench_serve: unparsable response: " << response << '\n';
      std::exit(1);
    }
    Row row;
    row.suite = suite;
    row.engine = engine;
    row.success = doc->bool_or("ok", false);
    row.outcome = doc->string_or("outcome", "error");
    row.ii = static_cast<int>(doc->number_or("ii", 0.0));
    row.seconds = wall;
    row.schedules_tried =
        static_cast<std::int64_t>(doc->number_or("schedules_tried", 0.0));
    row.memo_hit = doc->bool_or("memo_hit", false);
    outcome_seen.push_back(row.outcome);
    return row;
  }
};

void write_row(json::Writer& w, const Row& row) {
  w.begin_object();
  w.field("suite", row.suite);
  w.field("engine", row.engine);
  w.field("success", row.success);
  w.field("outcome", row.outcome);
  w.field("ii", row.ii);
  w.field("seconds", row.seconds);
  w.field("schedules_tried", row.schedules_tried);
  w.field("memo_hit", row.memo_hit);
  w.end_object();
}

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  int grid = 4;
  int repeats = 3;
  double deadline_s = 30.0;
  std::vector<std::string> suites;
  std::string unix_path;
  bool send_shutdown = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (arg == "--grid") {
      if (!argparse::parse_int(value(), &grid) || grid < 1) usage();
    } else if (arg == "--repeats") {
      if (!argparse::parse_int(value(), &repeats) || repeats < 1) usage();
    } else if (arg == "--deadline") {
      if (!argparse::parse_double(value(), &deadline_s) || deadline_s <= 0.0) {
        usage();
      }
    } else if (arg == "--suites") {
      suites = split_csv(value());
    } else if (arg == "--unix") {
      unix_path = value();
    } else if (arg == "--shutdown") {
      send_shutdown = true;
    } else {
      usage();
    }
  }
  if (suites.empty()) {
    for (const Benchmark& b : benchmark_suite()) suites.push_back(b.name);
  }

  std::unique_ptr<Transport> transport;
  if (unix_path.empty()) {
    MappingService::Options options;
    options.threads = 1;
    options.default_deadline_s = deadline_s;
    transport = std::make_unique<InProcessTransport>(options);
  } else {
    transport = std::make_unique<UnixTransport>(unix_path);
  }
  Harness harness{transport.get(), grid, deadline_s, {}};

  // --- cold: raw mapper path, reuse off -----------------------------------
  std::vector<Row> rows;
  for (const std::string& suite : suites) {
    std::vector<Row> samples;
    std::vector<double> times;
    for (int r = 0; r < repeats; ++r) {
      samples.push_back(harness.send(suite, "cold", false));
      times.push_back(samples.back().seconds);
    }
    Row row = samples.front();
    row.seconds = bench::median(times);
    rows.push_back(row);
  }

  // --- memo: duplicate requests must be O(1) cache hits -------------------
  std::uint64_t memo_hits = 0;
  for (const std::string& suite : suites) {
    (void)harness.send(suite, "memo_populate", true);  // not recorded
    std::vector<double> times;
    Row row;
    bool every_hit = true;
    for (int r = 0; r < kMemoSamples; ++r) {
      row = harness.send(suite, "memo", true);
      times.push_back(row.seconds);
      every_hit = every_hit && row.memo_hit;
    }
    row.seconds = bench::median(times);
    row.memo_hit = every_hit;
    if (row.memo_hit) ++memo_hits;
    rows.push_back(row);
  }

  // The rows whose comparison IS the acceptance claim: memo >= 10x faster
  // than cold. A memo hit has a floor (fingerprint + JSON + transport, tens
  // of µs), so the ratio is only a statement about the cache on requests
  // whose cold mapping does nontrivial work — the headline median takes
  // cold >= 1 ms rows; memo_speedup_median_all keeps the unfiltered number
  // alongside.
  constexpr double kNontrivialColdSeconds = 1e-3;
  std::vector<double> memo_speedups;
  std::vector<double> memo_speedups_all;
  for (const Row& row : rows) {
    if (row.engine != "cold") continue;
    for (const Row& other : rows) {
      if (other.suite != row.suite || other.engine != "memo" ||
          other.seconds <= 0.0) {
        continue;
      }
      memo_speedups_all.push_back(row.seconds / other.seconds);
      if (row.seconds >= kNontrivialColdSeconds) {
        memo_speedups.push_back(row.seconds / other.seconds);
      }
    }
  }

  std::array<std::uint64_t, static_cast<std::size_t>(kMapOutcomeCount)>
      counts{};
  for (const std::string& outcome : harness.outcome_seen) {
    for (int o = 0; o < kMapOutcomeCount; ++o) {
      if (outcome == to_string(static_cast<MapOutcome>(o))) {
        ++counts[static_cast<std::size_t>(o)];
      }
    }
  }

  json::Writer w;
  w.begin_object();
  w.field("bench", "bench_serve");
  w.field("grid", grid);
  w.field("topology", "mesh");
  w.field("repeats", repeats);
  w.field("memo_samples", kMemoSamples);
  w.field("transport", unix_path.empty() ? "in-process" : "unix");
  w.key("serve");
  w.begin_array();
  for (const Row& row : rows) write_row(w, row);
  w.end_array();
  // The per-batch outcome histogram over every request this run issued.
  w.key("outcome_counts");
  w.begin_object();
  for (int o = 0; o < kMapOutcomeCount; ++o) {
    w.field(to_string(static_cast<MapOutcome>(o)),
            counts[static_cast<std::size_t>(o)]);
  }
  w.end_object();
  w.key("summary");
  w.begin_object();
  w.field("memo_hit_sections", memo_hits);
  w.field("memo_speedup_median", bench::median(memo_speedups));
  w.field("memo_speedup_median_all", bench::median(memo_speedups_all));
  w.field("memo_nontrivial_sections",
          static_cast<std::uint64_t>(memo_speedups.size()));
  w.end_object();
  w.end_object();
  std::cout << w.str() << '\n';

  if (send_shutdown) {
    (void)transport->round_trip("{\"verb\":\"shutdown\",\"id\":\"bench\"}");
  }
  return 0;
}
