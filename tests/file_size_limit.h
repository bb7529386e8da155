// Scoped file-size limit for tests of failed writes: lowers this process's
// RLIMIT_FSIZE soft limit and ignores SIGXFSZ, so a write past the limit
// comes back short and then fails with EFBIG instead of killing the
// process. The destructor restores the limit first, then the signal
// disposition. Keep the scope to the one write under test: every file the
// process writes meanwhile is capped too.

#ifndef DEEPDIRECT_TESTS_FILE_SIZE_LIMIT_H_
#define DEEPDIRECT_TESTS_FILE_SIZE_LIMIT_H_

#include <signal.h>
#include <sys/resource.h>

namespace deepdirect::testing {

class FileSizeLimit {
 public:
  explicit FileSizeLimit(rlim_t bytes) {
    ::getrlimit(RLIMIT_FSIZE, &saved_limit_);
    struct sigaction ignore{};
    ignore.sa_handler = SIG_IGN;
    ::sigaction(SIGXFSZ, &ignore, &saved_action_);
    rlimit lowered = saved_limit_;
    lowered.rlim_cur = bytes;
    active_ = ::setrlimit(RLIMIT_FSIZE, &lowered) == 0;
  }

  ~FileSizeLimit() {
    ::setrlimit(RLIMIT_FSIZE, &saved_limit_);
    ::sigaction(SIGXFSZ, &saved_action_, nullptr);
  }

  FileSizeLimit(const FileSizeLimit&) = delete;
  FileSizeLimit& operator=(const FileSizeLimit&) = delete;

  /// False when the limit could not be lowered (e.g. above the hard limit).
  bool active() const { return active_; }

 private:
  rlimit saved_limit_{};
  struct sigaction saved_action_{};
  bool active_ = false;
};

}  // namespace deepdirect::testing

#endif  // DEEPDIRECT_TESTS_FILE_SIZE_LIMIT_H_
