#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <utility>

namespace speedbal {

int default_jobs() {
  if (const char* env = std::getenv("SPEEDBAL_JOBS")) {
    const int n = std::atoi(env);
    if (n > 0) return std::min(n, 256);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

int resolve_jobs(int requested) {
  if (requested <= 0) return default_jobs();
  return std::min(requested, 256);
}

namespace {
thread_local bool t_pool_worker = false;
}  // namespace

bool in_pool_worker() { return t_pool_worker; }

ThreadPool::ThreadPool(int threads) {
  const auto n = static_cast<std::size_t>(std::max(threads, 1));
  own_.resize(n);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
    ++queued_;
  }
  work_cv_.notify_one();
}

void ThreadPool::submit_to(int worker, std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    own_.at(static_cast<std::size_t>(worker)).push_back(std::move(task));
    ++queued_;
  }
  // The workers share one condition variable; wake them all so the named
  // one is among them.
  work_cv_.notify_all();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queued_ == 0 && active_ == 0; });
}

void ThreadPool::worker_loop(std::size_t self) {
  t_pool_worker = true;
  auto& own = own_[self];
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_cv_.wait(lock,
                  [&] { return stop_ || !own.empty() || !queue_.empty(); });
    auto& from = !own.empty() ? own : queue_;
    if (from.empty()) return;  // stop_ set and nothing left to drain.
    std::function<void()> task = std::move(from.front());
    from.pop_front();
    --queued_;
    ++active_;
    lock.unlock();
    task();
    lock.lock();
    --active_;
    if (queued_ == 0 && active_ == 0) idle_cv_.notify_all();
  }
}

void parallel_for(int jobs, std::size_t n,
                  const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  if (jobs <= 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  const int width = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(resolve_jobs(jobs)), n));
  std::atomic<std::size_t> next{0};
  std::mutex err_mu;
  std::exception_ptr first_error;
  ThreadPool pool(width);
  for (int w = 0; w < width; ++w) {
    pool.submit([&] {
      // Workers pull indices from a shared counter so uneven replica
      // runtimes still keep every worker busy.
      for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        try {
          body(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(err_mu);
          if (!first_error) first_error = std::current_exception();
        }
      }
    });
  }
  pool.wait_idle();
  if (first_error) std::rethrow_exception(first_error);
}

void parallel_for_seeds(int jobs, int repeats, std::uint64_t base_seed,
                        const std::function<void(int, std::uint64_t)>& body) {
  if (repeats <= 0) return;
  parallel_for(jobs, static_cast<std::size_t>(repeats), [&](std::size_t rep) {
    const int r = static_cast<int>(rep);
    body(r, replica_seed(base_seed, r));
  });
}

}  // namespace speedbal
