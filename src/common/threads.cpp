#include "common/threads.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

namespace hhpim {

unsigned resolve_threads(unsigned requested) {
  if (requested != 0) return requested;
#if defined(__linux__)
  // A fixed-size set covers 1024 CPUs; on larger hosts the call fails with
  // EINVAL and the fallback below answers.
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
#endif
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

unsigned resolve_workers(unsigned requested, std::size_t items) {
  return std::min<unsigned>(resolve_threads(requested),
                            static_cast<unsigned>(std::max<std::size_t>(items, 1)));
}

void claim_each(std::size_t n, unsigned workers,
                const std::function<void(unsigned worker, std::size_t i)>& body) {
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr lowest_error;  // of the lowest failing index so far
  std::size_t lowest_index = n;
  const auto work = [&](unsigned worker) {
    for (std::size_t i; (i = next.fetch_add(1, std::memory_order_relaxed)) < n;) {
      try {
        body(worker, i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock{error_mutex};
        if (i < lowest_index) {
          lowest_index = i;
          lowest_error = std::current_exception();
        }
      }
    }
  };
  if (workers <= 1) {
    work(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) threads.emplace_back(work, w);
    for (std::thread& t : threads) t.join();
  }
  if (lowest_error) std::rethrow_exception(lowest_error);
}

}  // namespace hhpim
