// Benchmark entry point:
//   mft_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--source-id ID] [--tmp-dir DIR]
// Prints progress and the fingerprint, then one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end metrics; with --trace 1
// they are the per-layer metrics. Every workload prints the same two sets
// (see README.md).
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <thread>

#include "common.h"
#include "stats.h"
#include "timing/sta.h"
#include "util/str.h"

namespace perfbench {

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back(Metric{name, unit, value});
}

void Report::fail(const std::string& why) {
  std::printf("CHECK FAILED: %s\n", why.c_str());
  std::fflush(stdout);
  correct_ = false;
}

double Report::ok_frac() const {
  return attempted_ > 0 ? static_cast<double>(attempted_ - failed_) /
                              static_cast<double>(attempted_)
                        : 0.0;
}

std::string Report::json() const {
  std::string m;
  bool finite = true;
  for (const Metric& x : metrics_) {
    if (!m.empty()) m += ", ";
    // Non-finite values are not JSON; only a broken run produces one, and
    // it is then reported as incorrect.
    finite = finite && std::isfinite(x.value);
    m += mft::strf("\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                   x.name.c_str(), std::isfinite(x.value) ? x.value : 0.0,
                   x.unit.c_str());
  }
  return mft::strf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}",
      correct_ && finite && failed_ == 0 ? "true" : "false",
      static_cast<long long>(attempted_), static_cast<long long>(failed_),
      m.c_str());
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::exponential(double mean) {
  return -mean * std::log(1.0 - uniform());
}

int Rng::below(int n) {
  return static_cast<int>(uniform() * static_cast<double>(n));
}

std::uint64_t sizes_hash(const std::vector<double>& sizes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const double d : sizes) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

std::string check_job(const mft::SizingNetwork& net, const mft::JobResult& r) {
  if (!r.ok) return mft::strf("job %s failed: %s", r.label.c_str(),
                              r.error.c_str());
  if (!r.result.met_target)
    return mft::strf("job %s missed its target", r.label.c_str());
  const double delay = mft::run_sta(net, r.result.sizes).critical_path;
  if (!(delay <= r.target * (1.0 + 1e-9)))
    return mft::strf("job %s: re-timed delay %.17g exceeds target %.17g",
                     r.label.c_str(), delay, r.target);
  const double area = net.area(r.result.sizes);
  if (!(area <= r.result.initial.area * (1.0 + 1e-12)))
    return mft::strf("job %s: area %.17g exceeds its TILOS area %.17g",
                     r.label.c_str(), area, r.result.initial.area);
  return "";
}

double peak_rss_mb() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof ru);
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

double now_s() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

KeepWarm::KeepWarm() {
  const unsigned n = std::max(1u, std::thread::hardware_concurrency());
  for (unsigned i = 0; i < n; ++i)
    threads_.emplace_back([this] {
      // A spinner that cannot drop to idle priority would compete with
      // the threads it is meant to serve; it stops instead.
      sched_param sp{};
      if (sched_setscheduler(0, SCHED_IDLE, &sp) != 0) return;
      while (!stop_.load(std::memory_order_relaxed)) {
      }
    });
}

KeepWarm::~KeepWarm() {
  stop_ = true;
  for (std::thread& t : threads_) t.join();
}

void SetupTimer::slice(const std::function<void()>& once, double min_seconds,
                       int min_reps) {
  const double start = now_s();
  for (int n = 0; n < min_reps || now_s() - start < min_seconds; ++n) {
    const double t0 = now_s();
    once();
    reps_.push_back(now_s() - t0);
  }
}

double SetupTimer::median() const { return perfbench::median(reps_); }

void report_end_to_end(Report& rep, double setup_s, double latency_p50_s,
                       double area_ratio) {
  rep.metric("setup_s", setup_s, "s");
  rep.metric("latency_p50_s", latency_p50_s, "s");
  rep.metric("area_ratio", area_ratio, "ratio");
  rep.metric("ok_frac", rep.ok_frac(), "ratio");
  rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

void ServiceCounts::report(Report& rep) const {
  rep.metric("resize.warm", static_cast<double>(warm), "count");
  rep.metric("resize.cold", static_cast<double>(cold), "count");
  rep.metric("resize.fixpoint", static_cast<double>(fixpoint), "count");
  rep.metric("resize.fallbacks", static_cast<double>(fallbacks), "count");
  rep.metric("journal.fsyncs", static_cast<double>(fsyncs), "count");
  rep.metric("journal.bytes", static_cast<double>(bytes), "bytes");
}

void print_fingerprint(const Args& a) {
  std::printf(
      "fingerprint: nproc=%u compiler=\"%s\" build=%s source=%s "
      "workload=%s seed=%llu seconds=%g trace=%d\n",
      std::thread::hardware_concurrency(), PERFBENCH_COMPILER,
      PERFBENCH_BUILD_TYPE, a.source_id.c_str(), a.workload.c_str(),
      static_cast<unsigned long long>(a.seed), a.seconds, a.trace ? 1 : 0);
  std::fflush(stdout);
}

std::string describe_tail(double percentile, std::size_t samples) {
  return mft::strf("p%.1f of %zu samples", percentile, samples);
}

}  // namespace perfbench

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: mft_perfbench --workload "
               "cold_tiled|iscas_sweep|eco_serve --seed N --seconds S "
               "--trace 0|1 [--source-id ID] [--tmp-dir DIR]\n",
               why);
  std::exit(2);
}

std::uint64_t parse_u64(const char* s, const char* flag) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') usage(flag);
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) usage("flag without a value");
    const char* v = argv[++i];
    if (std::strcmp(flag, "--workload") == 0) {
      a.workload = v;
      have_workload = true;
    } else if (std::strcmp(flag, "--seed") == 0) {
      a.seed = parse_u64(v, "bad --seed");
    } else if (std::strcmp(flag, "--seconds") == 0) {
      char* end = nullptr;
      a.seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(a.seconds > 0.0))
        usage("bad --seconds");
    } else if (std::strcmp(flag, "--trace") == 0) {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
        usage("bad --trace");
      a.trace = v[0] == '1';
    } else if (std::strcmp(flag, "--source-id") == 0) {
      a.source_id = v;
    } else if (std::strcmp(flag, "--tmp-dir") == 0) {
      a.tmp_dir = v;
    } else {
      usage("unknown flag");
    }
  }
  if (!have_workload) usage("--workload is required");
  if (std::getenv("MFT_FAULTS") != nullptr) {
    std::fprintf(stderr, "error: refusing to run with MFT_FAULTS set\n");
    return 2;
  }
  now_s();  // start the run clock
  Report rep;
  try {
    if (a.workload == "cold_tiled") {
      run_cold_tiled(a, rep);
    } else if (a.workload == "iscas_sweep") {
      run_iscas_sweep(a, rep);
    } else if (a.workload == "eco_serve") {
      run_eco_serve(a, rep);
    } else {
      usage("unknown workload");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  print_fingerprint(a);
  std::printf("%s\n", rep.json().c_str());
  return 0;
}
