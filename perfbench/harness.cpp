#include "harness.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "support/json.hpp"

namespace perfbench {

void Outcome::set(const std::string& name, double value,
                  const std::string& unit) {
  if (metrics.count(name) == 0) names.push_back(name);
  metrics[name] = {value, unit};
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Tracer::record(std::string name, double start_s, double end_s) {
  if (enabled_) spans_.push_back(Span{std::move(name), start_s, end_s});
}

void Tracer::dump(const std::string& path) const {
  std::ofstream out(path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << monomap::json::escape(s.name)
        << "\",\"start_s\":" << s.start_s << ",\"end_s\":" << s.end_s
        << "}\n";
  }
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void reset_peak_rss() {
  malloc_trim(0);
  // Linux resets the peak resident set to the current one on "5"; where
  // that is unsupported the peak stays the process's.
  std::ofstream("/proc/self/clear_refs") << "5";
}

namespace {
std::string headline_path(const RunConfig& config) {
  return config.state_dir + "/headline-" + config.workload + ".txt";
}
}  // namespace

void compare_with_reference(
    const RunConfig& config,
    const std::vector<std::pair<std::string, std::string>>& records) {
  const std::string path = config.state_dir + "/effort-" + config.workload + ".txt";
  std::map<std::string, std::string> reference;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t tab = line.find('\t');
    if (tab != std::string::npos) {
      reference[line.substr(0, tab)] = line.substr(tab + 1);
    }
  }
  if (reference.empty()) {
    std::ofstream out(path);
    for (const auto& [key, value] : records) out << key << '\t' << value << '\n';
    return;
  }
  for (const auto& [key, value] : records) {
    const auto it = reference.find(key);
    const std::string was = it == reference.end() ? "(none)" : it->second;
    if (was != value) {
      std::printf("drift %s reference {%s} now {%s}\n", key.c_str(),
                  was.c_str(), value.c_str());
    }
  }
}

double load_headline(const RunConfig& config) {
  std::ifstream in(headline_path(config));
  double value = 0.0;
  if (!(in >> value)) return 0.0;
  return value;
}

void store_headline(const RunConfig& config, double value) {
  std::ofstream out(headline_path(config));
  out.precision(17);
  out << value << '\n';
}

}  // namespace perfbench
