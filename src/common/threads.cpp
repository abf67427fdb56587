#include "common/threads.hpp"

#include <thread>

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

}  // namespace hhpim
