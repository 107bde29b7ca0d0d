// Error handling for the simulator.
//
// Configuration or usage errors (bad machine parameters, malformed programs)
// throw SimError; internal invariant violations use SEMPE_CHECK, which also
// throws so that tests can observe them deterministically. A failed check
// names its source file without the directory (__FILE_NAME__, GCC >= 12
// and Clang), so the text is the same in every checkout.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace sempe {

/// Thrown on invalid configuration, malformed input programs, or violated
/// simulator invariants.
class SimError : public std::runtime_error {
 public:
  explicit SimError(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {
[[noreturn]] inline void check_failed(const char* expr, const char* file,
                                      int line, const std::string& msg) {
  std::ostringstream os;
  os << "SEMPE_CHECK failed: " << expr << " at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw SimError(os.str());
}
}  // namespace detail

}  // namespace sempe

#define SEMPE_CHECK(expr)                                               \
  do {                                                                  \
    if (!(expr))                                                        \
      ::sempe::detail::check_failed(#expr, __FILE_NAME__, __LINE__,     \
                                    "");                                \
  } while (0)

#define SEMPE_CHECK_MSG(expr, msg)                                      \
  do {                                                                  \
    if (!(expr)) {                                                      \
      std::ostringstream sempe_check_os_;                               \
      sempe_check_os_ << msg;                                           \
      ::sempe::detail::check_failed(#expr, __FILE_NAME__, __LINE__,     \
                                    sempe_check_os_.str());             \
    }                                                                   \
  } while (0)
