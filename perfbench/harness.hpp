// Shared pieces of the perfbench harness: run configuration, sample
// statistics, the metric sink that becomes the result line, and the span
// recorder of the traced run.
#ifndef PERFBENCH_HARNESS_HPP
#define PERFBENCH_HARNESS_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory inside the build tree for cross-run state: the determinism
  /// reference, the last untraced headline and the span dump.
  std::string state_dir;
};

/// What a workload hands back to main(): the result line's counts plus
/// every metric of the mode it ran in.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  /// name -> (value, unit), in insertion order of `names`.
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::vector<std::string> names;
  /// The untraced run's headline metric, which the traced run of the same
  /// workload compares itself against to report tracing overhead.
  std::string headline;

  void set(const std::string& name, double value, const std::string& unit);
};

double median(std::vector<double> values);
/// Nearest-rank quantile, q in (0, 1].
double quantile(std::vector<double> values, double q);
double geomean(const std::vector<double>& values);

/// Seconds since an arbitrary fixed origin (steady clock).
double now_s();

/// Spans recorded from the harness's own code around calls into the
/// library. Off unless the run is traced; written out at the end. The
/// harness makes no nested calls, so every span is a root span.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Record a finished span (a no-op when disabled).
  void record(std::string name, double start_s, double end_s);

  /// Write one JSON object per span to `path`.
  void dump(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Peak resident set size of this process in MiB, since the start or the
/// last reset_peak_rss().
double peak_rss_mb();
/// Return freed heap memory to the system and restart the peak there.
void reset_peak_rss();

/// Compare this run's per-operation effort records (key, value) with those
/// the first run of the same workload stored in the state directory,
/// storing them when there are none, and print every record that drifted.
void compare_with_reference(
    const RunConfig& config,
    const std::vector<std::pair<std::string, std::string>>& records);

/// Last untraced headline value stored for `workload`, or 0 when none.
double load_headline(const RunConfig& config);
void store_headline(const RunConfig& config, double value);

/// The Table III compiles of `grids`, leaving out the suite DFGs named in
/// `skip`.
Outcome run_table3(const RunConfig& config, const std::vector<int>& grids,
                   const std::vector<std::string>& skip);
Outcome run_serve_mixed(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_HPP
