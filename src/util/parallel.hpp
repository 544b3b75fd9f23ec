#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace speedbal {

/// Default parallelism for experiment sweeps: the hardware concurrency,
/// overridable with SPEEDBAL_JOBS (useful under CI/sanitizers). At least 1.
int default_jobs();

/// Parse a --jobs=N style value: clamps to [1, 256]; 0 means default_jobs().
int resolve_jobs(int requested);

/// Seed for replica `rep` of a sweep run with base seed `base`. Every
/// execution path (sequential or parallel, any --jobs) derives replica
/// seeds through this one function so results are byte-identical across
/// execution modes.
inline std::uint64_t replica_seed(std::uint64_t base, int rep) {
  return base * 1000003ULL + static_cast<std::uint64_t>(rep) * 7919ULL + 1;
}

/// True on a ThreadPool worker thread (e.g. inside a parallel_for body).
/// Code that could fan out itself runs inline there instead of nesting
/// pools.
bool in_pool_worker();

/// Bounded thread pool: a fixed set of workers draining a task queue.
/// Tasks must not throw (wrap and capture; see parallel_for).
class ThreadPool {
 public:
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  void submit(std::function<void()> task);
  /// Queue a task that only worker `worker` (in [0, size())) may run, so a
  /// caller can pin the same data to the same thread across rounds.
  void submit_to(int worker, std::function<void()> task);
  /// Block until every queue is empty and every worker is idle.
  void wait_idle();
  int size() const { return static_cast<int>(workers_.size()); }

 private:
  void worker_loop(std::size_t self);

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  /// Per-worker queues for submit_to; a worker drains its own first.
  std::vector<std::deque<std::function<void()>>> own_;
  std::size_t queued_ = 0;  ///< Tasks waiting in queue_ and every own_.
  std::mutex mu_;
  std::condition_variable work_cv_;   ///< Signals workers: work or stop.
  std::condition_variable idle_cv_;   ///< Signals wait_idle: drained.
  int active_ = 0;
  bool stop_ = false;
};

/// Run body(i) for every i in [0, n). `jobs <= 1` runs the plain
/// sequential loop on the calling thread (bit-for-bit today's behavior);
/// otherwise at most `jobs` pool workers execute iterations concurrently.
/// Iterations must be independent; any order may be observed. The first
/// exception thrown by an iteration is rethrown on the calling thread
/// after all iterations finish.
void parallel_for(int jobs, std::size_t n,
                  const std::function<void(std::size_t)>& body);

/// Sweep-replica driver: run body(rep, replica_seed(base_seed, rep)) for
/// every rep in [0, repeats) under `jobs`-way parallelism. Callers index
/// output slots by `rep`, so results land in deterministic seed order no
/// matter which worker ran which replica.
void parallel_for_seeds(int jobs, int repeats, std::uint64_t base_seed,
                        const std::function<void(int, std::uint64_t)>& body);

/// Replica driver of the run-once tiers (serve, cluster). Replica `rep`
/// runs `run(local)` on a copy of `config` with the replica's salted seed,
/// the recorder on replica 0 only and `export_result` off (a per-replica
/// export would record replica 0's totals alone). The results merge into
/// replica 0's in replica order through `merge(out, replica)`, which also
/// sums `goodput_rps`; the driver turns that sum into the mean and exports
/// the merged result once through `export_fn(out, recorder)`.
/// The outcome is byte-identical for any `jobs`. repeats <= 1 is exactly
/// `run(config)`.
template <typename Config, typename Run, typename Merge, typename Export>
auto run_replicas(const Config& config, int repeats, int jobs, const Run& run,
                  const Merge& merge, const Export& export_fn) {
  if (repeats <= 1) return run(config);
  std::vector<decltype(run(config))> runs(static_cast<std::size_t>(repeats));
  parallel_for_seeds(jobs, repeats, config.seed,
                     [&](int rep, std::uint64_t seed) {
                       Config local = config;
                       local.seed = seed;
                       if (rep != 0) local.recorder = nullptr;
                       local.export_result = false;
                       runs[static_cast<std::size_t>(rep)] = run(local);
                     });
  auto out = std::move(runs[0]);
  for (std::size_t r = 1; r < runs.size(); ++r) merge(out, runs[r]);
  out.goodput_rps /= static_cast<double>(repeats);
  if (config.recorder != nullptr && config.export_result)
    export_fn(out, *config.recorder);
  return out;
}

}  // namespace speedbal
