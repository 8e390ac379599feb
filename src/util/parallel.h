// Reusable inner-loop parallelism substrate: a ThreadArena owns a small
// fixed set of worker threads and runs statically-partitioned parallel-for
// regions over [0, n).
//
// Built for the level-parallel W-phase sweeps, whose regions are many
// and tiny (one per levelization level), so the design goals are
//
//  - determinism: the partition of [0, n) into contiguous chunks is a pure
//    function of (n, threads, grain) — never of scheduling. Callers that
//    need bit-reproducible results additionally keep per-chunk state
//    per *thread index* and merge with an order-fixed rule.
//  - near-zero dispatch cost: workers spin briefly, then yield, then sleep
//    on a condition variable; the dispatching thread participates (chunk 0)
//    and spin-waits for completion. On an idle multi-core host a dispatch
//    is a few hundred nanoseconds; on an oversubscribed single core the
//    yields keep forward progress.
//  - zero cost when unused: with threads() == 1, or when n is below the
//    grain, the body runs inline on the caller — the exact sequential code
//    path, no atomics touched.
//
// One arena belongs to one owning thread at a time; regions must not nest
// and the body must not re-enter the arena. The engine layer gives each of
// its batch workers its own arena (engine/runner.cc).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/check.h"

namespace mft {

class ThreadArena {
 public:
  /// Spawns `threads - 1` workers (the owning thread is the remaining one).
  explicit ThreadArena(int threads = 1) : threads_(threads < 1 ? 1 : threads) {
    if (threads_ > 1) slots_.reset(new Slot[static_cast<std::size_t>(threads_ - 1)]);
    workers_.reserve(static_cast<std::size_t>(threads_ - 1));
    for (int w = 1; w < threads_; ++w)
      workers_.emplace_back([this, w] { worker_main(w); });
  }

  ~ThreadArena() {
    if (!workers_.empty()) {
      stop_.store(true, std::memory_order_seq_cst);
      for (int w = 1; w < threads_; ++w)
        slots_[static_cast<std::size_t>(w - 1)].go.store(
            kStopEpoch, std::memory_order_seq_cst);
      {
        std::lock_guard<std::mutex> lock(mu_);
        cv_.notify_all();
      }
      for (std::thread& t : workers_) t.join();
    }
  }

  ThreadArena(const ThreadArena&) = delete;
  ThreadArena& operator=(const ThreadArena&) = delete;

  int threads() const { return threads_; }

  /// Runs body(thread, begin, end) over a static partition of [0, n) into
  /// contiguous chunks and blocks until all chunks are done. `grain` is the
  /// minimum chunk size: fewer than 2*grain elements (or threads() == 1)
  /// run inline on the caller as body(0, 0, n). Thread indices are dense in
  /// [0, chunks) with the caller always executing chunk 0.
  template <typename Body>
  void parallel_for(int n, int grain, Body&& body) {
    if (n <= 0) return;
    const int chunks = plan_chunks(n, grain);
    if (chunks <= 1) {
      body(0, 0, n);
      return;
    }
    using Plain = std::remove_reference_t<Body>;
    job_.ctx = const_cast<void*>(static_cast<const void*>(&body));
    job_.invoke = [](void* ctx, int thread, int begin, int end) {
      (*static_cast<Plain*>(ctx))(thread, begin, end);
    };
    job_.n = n;
    job_.chunks = chunks;
    dispatch();
  }

 private:
  struct Job {
    void* ctx = nullptr;
    void (*invoke)(void*, int, int, int) = nullptr;
    int n = 0;
    int chunks = 0;
  };

  /// One cache line per worker: the per-worker epoch it should pick up.
  /// Publishing work only to the assigned workers (instead of one shared
  /// epoch) is what makes reading `job_` race-free — an unassigned worker's
  /// slot never advances, so it never looks at a job being rewritten.
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> go{0};
  };

  static constexpr std::uint64_t kStopEpoch = ~std::uint64_t{0};
  static constexpr int kSpinIters = 2048;
  static constexpr int kYieldIters = 64;

  static int chunk_bound(int n, int chunks, int i) {
    return static_cast<int>(static_cast<std::int64_t>(n) * i / chunks);
  }

  int plan_chunks(int n, int grain) const {
    if (threads_ <= 1) return 1;
    const int by_grain = grain > 0 ? n / grain : threads_;
    return by_grain < 1 ? 1 : (by_grain < threads_ ? by_grain : threads_);
  }

  void dispatch() {
    const std::uint64_t e = ++epoch_;  // only the owning thread writes this
    pending_.store(job_.chunks - 1, std::memory_order_relaxed);
    for (int w = 1; w < job_.chunks; ++w)
      slots_[static_cast<std::size_t>(w - 1)].go.store(
          e, std::memory_order_seq_cst);
    if (sleepers_.load(std::memory_order_seq_cst) > 0) {
      std::lock_guard<std::mutex> lock(mu_);
      cv_.notify_all();
    }
    job_.invoke(job_.ctx, 0, 0, chunk_bound(job_.n, job_.chunks, 1));
    // Completion spin: regions are short, and any still-running worker is
    // actively executing its chunk, so yielding is enough to let it finish
    // even on an oversubscribed host.
    int spins = 0;
    while (pending_.load(std::memory_order_acquire) != 0)
      if (++spins > kSpinIters) std::this_thread::yield();
  }

  void worker_main(int w) {
    std::atomic<std::uint64_t>& go = slots_[static_cast<std::size_t>(w - 1)].go;
    std::uint64_t seen = 0;
    while (true) {
      const std::uint64_t e = wait_for_work(go, seen);
      if (stop_.load(std::memory_order_acquire)) return;
      seen = e;
      // Safe: our slot advanced, so the owner published this job for us and
      // cannot rewrite it until we decrement pending_.
      const Job job = job_;
      job.invoke(job.ctx, w, chunk_bound(job.n, job.chunks, w),
                 chunk_bound(job.n, job.chunks, w + 1));
      pending_.fetch_sub(1, std::memory_order_release);
    }
  }

  std::uint64_t wait_for_work(std::atomic<std::uint64_t>& go,
                              std::uint64_t seen) {
    for (int i = 0; i < kSpinIters; ++i) {
      const std::uint64_t e = go.load(std::memory_order_acquire);
      if (e != seen) return e;
      cpu_relax();
    }
    for (int i = 0; i < kYieldIters; ++i) {
      const std::uint64_t e = go.load(std::memory_order_acquire);
      if (e != seen) return e;
      std::this_thread::yield();
    }
    std::unique_lock<std::mutex> lock(mu_);
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    // The predicate loads must be seq_cst: they form a Dekker pair with
    // dispatch()'s [go.store; sleepers_.load] — the single total order
    // guarantees either the dispatcher sees our sleepers_ increment (and
    // notifies under the mutex) or we see its go store (and never sleep).
    // Acquire alone would permit both sides to miss each other on weakly
    // ordered hardware, sleeping through the only wakeup.
    cv_.wait(lock, [&] {
      return go.load(std::memory_order_seq_cst) != seen ||
             stop_.load(std::memory_order_seq_cst);
    });
    sleepers_.fetch_sub(1, std::memory_order_seq_cst);
    return go.load(std::memory_order_acquire);
  }

  static void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield" ::: "memory");
#endif
  }

  int threads_ = 1;
  Job job_;
  std::uint64_t epoch_ = 0;
  std::atomic<int> pending_{0};
  std::atomic<bool> stop_{false};
  std::atomic<int> sleepers_{0};
  std::unique_ptr<Slot[]> slots_;
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
};

}  // namespace mft
