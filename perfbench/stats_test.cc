// Self-test of the benchmark's own statistics (stats.h): the tail rule and
// the open-loop generator's due-time accounting. Exits non-zero on any
// failed check. Build and run from the repository root:
//   cmake -S perfbench -B .bench_build/perfbench
//   cmake --build .bench_build/perfbench --target stats_test
//   ctest --test-dir .bench_build/perfbench
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.h"

using namespace perfbench;

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void tail_rule() {
  // 1..n shuffled: the tail is sample n-10 in ascending order, with
  // exactly 10 samples strictly beyond it.
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  const Tail t = tail(v);
  check(t.valid, "tail of 100 samples exists");
  check(near(t.value, 90.0), "tail of 1..100 is 90");
  check(near(t.percentile, 90.0), "tail of 100 samples is p90");
  check(t.samples == 100, "tail reports its sample count");
  int beyond = 0;
  for (const double x : v) beyond += x > t.value;
  check(beyond == 10, "exactly 10 samples beyond the tail");

  std::vector<double> w;
  for (int i = 1; i <= 230; ++i) w.push_back(i * 0.5);
  const Tail t2 = tail(w);
  check(near(t2.value, 110.0), "tail of 230 samples is sample 220");
  check(near(t2.percentile, 100.0 * 220 / 230), "tail percentile of 230");

  // With 11 samples the tail is the smallest; with 10 there is none.
  std::vector<double> eleven(11);
  for (int i = 0; i < 11; ++i) eleven[i] = 11 - i;
  check(tail(eleven).valid && near(tail(eleven).value, 1.0),
        "11 samples: tail is the minimum");
  eleven.pop_back();
  check(!tail(eleven).valid, "10 samples: no tail");
  check(!tail({}).valid, "no samples: no tail");

  check(near(median({3, 1, 2}), 2.0), "odd median");
  check(near(median({4, 1, 3, 2}), 2.5), "even median");
  check(near(geomean({2, 8}), 4.0), "geomean");
}

void due_time_accounting() {
  // A fake clock that only the ops advance: op 0 takes 100 ms, so op 1
  // (due at 10 ms) and op 2 (due at 50 ms) are sent late; op 3 (due at
  // 500 ms) is on time.
  double clock = 0.0;
  const std::vector<double> due = {0.0, 0.010, 0.050, 0.500};
  const std::vector<double> service = {0.100, 0.001, 0.002, 0.001};
  std::vector<double> done(due.size());
  OpenLoop loop([&] { return clock; }, [&](double t) { clock = t; });
  loop.run(due, [&](std::size_t i) {
    clock += service[i];
    done[i] = clock;
  });
  const std::vector<double> lag = loop.lags(due);
  check(near(loop.issued()[1], 0.100), "op 1 sent when op 0 finished");
  check(near(lag[1], 0.090), "op 1 lag is 90 ms");
  check(near(lag[2], 0.051), "op 2 lag is 51 ms");
  check(near(lag[3], 0.0), "op 3 on time");
  // Latency is charged from the due time: op 1's 1 ms of service costs it
  // 91 ms, the stall included.
  check(near(latency_from_due(due[1], done[1]), 0.091),
        "stalled op charged from its due time");
  check(near(latency_from_due(due[3], done[3]), 0.001),
        "on-time op charged its service time");
  // The generator's lag is reported as a distribution like any timing.
  check(near(*std::max_element(lag.begin(), lag.end()), 0.090),
        "largest generator lag");

  // A saturated generator gives up once an op would be sent more than the
  // allowed lag late: every op takes 30 ms but one is due every 10 ms, so
  // op k is sent 20k ms late and op 6 (120 ms) is the first past 105 ms.
  clock = 0.0;
  std::vector<double> tight;
  for (int k = 0; k < 20; ++k) tight.push_back(0.010 * k);
  OpenLoop saturated([&] { return clock; }, [&](double t) { clock = t; });
  const std::size_t sent =
      saturated.run(tight, [&](std::size_t) { clock += 0.030; }, 0.105);
  check(sent == 6, "saturated generator stops at the lag bound");
  check(saturated.lags(tight).size() == 6, "lags cover the ops sent");
}

}  // namespace

int main() {
  tail_rule();
  due_time_accounting();
  if (failures == 0) std::printf("stats_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
