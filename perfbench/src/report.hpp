#pragma once

/// \file report.hpp
/// Measurement plumbing shared by the benchmark workloads: wall and CPU
/// timing, order statistics, a bit-identity digest, and the run result that
/// is printed as one JSON line at the end of every run.

#include <cstdint>
#include <cstring>
#include <ctime>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;               ///< tiny sizes for the self-test
  bool break_conservation = false;  ///< self-test: corrupt the flow-conservation input
  std::string workdir = ".";        ///< scratch files (design tables) go here
};

/// Seconds elapsed on one clock: wall time (CLOCK_MONOTONIC, the default),
/// the CPU time of every thread of the process (CLOCK_PROCESS_CPUTIME_ID) or
/// that of the calling thread (CLOCK_THREAD_CPUTIME_ID). CPU time leaves out
/// the time a virtual CPU is stolen by its host, which on a shared machine
/// moves wall times by tens of percent from one minute to the next.
class Stopwatch {
 public:
  explicit Stopwatch(clockid_t clock = CLOCK_MONOTONIC) : clock_(clock), start_(now()) {}
  double seconds() const { return now() - start_; }

 private:
  double now() const {
    timespec ts{};
    clock_gettime(clock_, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
  }

  clockid_t clock_;
  double start_;
};

double median(std::vector<double> values);
/// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample.
double percentile(std::vector<double> values, double q);
/// Peak resident set size of this process in MB.
double peak_rss_mb();
int host_threads();

/// Calls \p fn until \p seconds of wall time are spent (at least \p min_reps
/// and at most \p max_reps calls) and returns the process CPU time of each
/// call.
std::vector<double> time_repeated(double seconds, int min_reps, int max_reps,
                                  const std::function<void()>& fn);

/// FNV-1a over the exact bit patterns of the values fed in.
class Digest {
 public:
  Digest& u64(std::uint64_t v);
  Digest& i64(std::int64_t v) { return u64(static_cast<std::uint64_t>(v)); }
  Digest& f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    return u64(bits);
  }
  Digest& str(const std::string& s);
  std::string hex() const;

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

/// Outcome of one benchmark run: metrics with units, operation accounting,
/// output checks and bit-identity digests.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Counts \p n attempted operations.
  void operations(std::int64_t n) { attempted_ += n; }
  /// Records an output check; a failing check counts as one failed
  /// operation and makes the run incorrect.
  void check(bool ok, const std::string& what);
  void digest(const std::string& label, const std::string& hex);
  /// Human-readable side note (figures that are not gated, sample counts).
  void note(const std::string& line);

  bool correct() const { return failed_ == 0; }
  /// Prints notes, checks, digests and a metric table, then the JSON line.
  void print(const Options& options) const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::vector<std::string> notes_;
  std::vector<std::string> checks_;
  std::vector<std::pair<std::string, std::string>> digests_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

}  // namespace perfbench
