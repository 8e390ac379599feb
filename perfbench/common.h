// Shared pieces of the benchmark program: arguments, the result record and
// its JSON line, the output checks every workload applies, and the
// deterministic generator the workload seed feeds.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "engine/job.h"
#include "timing/sizing_network.h"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string source_id = "unknown";
  std::string tmp_dir;  ///< scratch directory inside the checkout
};

/// One run's outcome: the correctness verdict, the op counts, and the
/// metrics of the requested kind (end-to-end untraced, per-layer traced).
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Records a failed output check; the run is then not correct.
  void fail(const std::string& why);
  void attempt(std::int64_t n = 1) { attempted_ += n; }
  void op_failed(std::int64_t n = 1) { failed_ += n; }
  bool correct() const { return correct_; }
  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }
  /// Share of attempted ops that succeeded and passed their checks.
  double ok_frac() const;
  /// The final stdout line.
  std::string json() const;

 private:
  struct Metric {
    std::string name, unit;
    double value = 0.0;
  };
  std::vector<Metric> metrics_;
  bool correct_ = true;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

/// splitmix64 stream: portable, so a seed means the same inputs on every
/// standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  double uniform();                    ///< [0, 1)
  double exponential(double mean);     ///< Poisson inter-arrival gap
  int below(int n);                    ///< [0, n)

 private:
  std::uint64_t state_;
};

/// FNV-1a over the IEEE-754 bits of a solution, the same digest the
/// daemon reports as "sizes_hash": equal iff bit-identical.
std::uint64_t sizes_hash(const std::vector<double>& sizes);

/// Output check of one engine job: it succeeded, its sizes re-timed from
/// scratch with run_sta meet the target, and its area is no larger than
/// the TILOS seed it started from. Returns "" or the failure.
std::string check_job(const mft::SizingNetwork& net, const mft::JobResult& r);

/// Peak resident set of this process, MB.
double peak_rss_mb();

/// Seconds on a steady clock since the first call.
double now_s();

/// Set-up timing spread over the run. The host's speed drifts from one
/// second to the next, so set-up repeated in one block would time one
/// moment of it; instead each workload times a slice of set-up
/// repetitions at several points of its run, and setup_s is the median
/// repetition over every slice.
class SetupTimer {
 public:
  /// Runs `once` and times it, repeating until `min_reps` ran and
  /// `min_seconds` passed.
  void slice(const std::function<void()>& once, double min_seconds,
             int min_reps = 1);
  double median() const;
  /// The repetitions so far, for the log.
  const std::vector<double>& reps() const { return reps_; }

 private:
  std::vector<double> reps_;
};

/// Keeps every CPU from idling while it lives: one spinning thread per
/// CPU under SCHED_IDLE, which runs only when nothing else wants that CPU
/// and gives it up at once when a benchmark or library thread wakes. A
/// virtual CPU that was idle runs its next work slower by an amount that
/// depends on the host's load; the spinners keep that out of the timings.
/// Where SCHED_IDLE is refused, no spinner runs.
class KeepWarm {
 public:
  KeepWarm();
  ~KeepWarm();
  KeepWarm(const KeepWarm&) = delete;
  KeepWarm& operator=(const KeepWarm&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// The end-to-end metrics, the same set on every workload: set-up time,
/// the median latency of one request of the workload, the MINFLOTRANSIT /
/// TILOS area ratio of its answers, and (from `rep`) ok_frac and the peak
/// resident set.
void report_end_to_end(Report& rep, double setup_s, double latency_p50_s,
                       double area_ratio);

/// Counts of the serving layers: ResizeSession answers by mode, warm
/// attempts that fell back cold, and the daemon journal's fsyncs and bytes.
/// Only eco_serve drives these layers; the other workloads report the
/// zeros they do there, so every workload prints the same per-layer set.
struct ServiceCounts {
  std::int64_t warm = 0, cold = 0, fixpoint = 0, fallbacks = 0;
  std::int64_t fsyncs = 0, bytes = 0;
  void report(Report& rep) const;
};

/// Prints the build and input fingerprint line.
void print_fingerprint(const Args& a);

/// Formats a tail for the log: "p95.7 of 230 samples".
std::string describe_tail(double percentile, std::size_t samples);

void run_cold_tiled(const Args& a, Report& rep);
void run_iscas_sweep(const Args& a, Report& rep);
void run_eco_serve(const Args& a, Report& rep);

}  // namespace perfbench
