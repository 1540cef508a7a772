#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

int host_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

std::vector<double> time_repeated(double seconds, int min_reps, int max_reps,
                                  const std::function<void()>& fn) {
  std::vector<double> cpu;
  const Stopwatch total;
  while (static_cast<int>(cpu.size()) < max_reps &&
         (static_cast<int>(cpu.size()) < min_reps || total.seconds() < seconds)) {
    const Stopwatch one(CLOCK_PROCESS_CPUTIME_ID);
    fn();
    cpu.push_back(one.seconds());
  }
  return cpu;
}

Digest& Digest::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffU;
    h_ *= 1099511628211ULL;
  }
  return *this;
}

Digest& Digest::str(const std::string& s) {
  u64(s.size());
  for (const char c : s) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 1099511628211ULL;
  }
  return *this;
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

void Result::metric(const std::string& name, double value, const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Result::check(bool ok, const std::string& what) {
  checks_.push_back(std::string(ok ? "PASS  " : "FAIL  ") + what);
  failed_ += ok ? 0 : 1;
}

void Result::digest(const std::string& label, const std::string& hex) {
  digests_.emplace_back(label, hex);
}

void Result::note(const std::string& line) { notes_.push_back(line); }

void Result::print(const Options& options) const {
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  for (const std::string& n : notes_) {
    std::printf("  %s\n", n.c_str());
  }
  for (const std::string& c : checks_) {
    std::printf("check %s\n", c.c_str());
  }
  for (const auto& [label, hex] : digests_) {
    std::printf("digest %s %s\n", label.c_str(), hex.c_str());
  }
  for (const auto& [name, vu] : metrics_) {
    std::printf("metric %-28s %18.9g %s\n", name.c_str(), vu.first, vu.second.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  char num[64];
  for (const auto& [name, vu] : metrics_) {
    // %.17g keeps every digit of the double; non-finite values are not JSON
    // numbers, so they are emitted as null (and fail the self-test).
    if (std::isfinite(vu.first)) {
      std::snprintf(num, sizeof num, "%.17g", vu.first);
    } else {
      std::snprintf(num, sizeof num, "null");
    }
    json += std::string(first ? "" : ", ") + "\"" + name + "\": {\"value\": " + num +
            ", \"unit\": \"" + vu.second + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
