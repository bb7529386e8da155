// Address-space cap for tests of allocation failure. A test lowers
// RLIMIT_AS inside an EXPECT_EXIT child, so an allocation too large for the
// cap fails with std::bad_alloc in that child alone and never reaches the
// machine's memory. ASan and TSan reserve terabytes of shadow address space
// at start-up, far above any cap, so such tests skip under them.

#ifndef DEEPDIRECT_TESTS_ADDRESS_SPACE_LIMIT_H_
#define DEEPDIRECT_TESTS_ADDRESS_SPACE_LIMIT_H_

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>

namespace deepdirect::testing {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
inline constexpr bool kSanitizerReservesAddressSpace = true;
#else
inline constexpr bool kSanitizerReservesAddressSpace = false;
#endif

/// Lowers this process's RLIMIT_AS soft limit to the address space it
/// maps now plus 1 GiB (or to the hard limit, when lower). Returns false
/// when the limit could not be set. Call it only in a child process: the
/// limit is never restored.
inline bool CapAddressSpace() {
  constexpr rlim_t kHeadroom = rlim_t{1} << 30;
  std::ifstream statm("/proc/self/statm");
  rlim_t mapped_pages = 0;
  rlimit limit{};
  if (!(statm >> mapped_pages) || ::getrlimit(RLIMIT_AS, &limit) != 0) {
    return false;
  }
  const auto page = static_cast<rlim_t>(::sysconf(_SC_PAGESIZE));
  limit.rlim_cur = std::min(mapped_pages * page + kHeadroom, limit.rlim_max);
  return ::setrlimit(RLIMIT_AS, &limit) == 0;
}

}  // namespace deepdirect::testing

#endif  // DEEPDIRECT_TESTS_ADDRESS_SPACE_LIMIT_H_
