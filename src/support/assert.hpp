// Always-on assertion machinery.
//
// Mapping code is full of invariants whose violation indicates a logic bug
// (not bad user input), so checks stay enabled in every build type. Failures
// throw AssertionError rather than aborting, which lets tests exercise the
// failure paths. Bad user input is refused with an InputError instead: its
// message is meant for the user, without source locations.
#ifndef MONOMAP_SUPPORT_ASSERT_HPP
#define MONOMAP_SUPPORT_ASSERT_HPP

#include <sstream>
#include <stdexcept>
#include <string>

namespace monomap {

/// Thrown when an internal invariant is violated.
class AssertionError : public std::logic_error {
 public:
  explicit AssertionError(const std::string& what) : std::logic_error(what) {}
};

/// Thrown when user input (DFG or mapping text, a benchmark name) is
/// refused; what() is the message alone.
class InputError : public std::runtime_error {
 public:
  explicit InputError(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {

[[noreturn]] inline void assertion_failure(const char* expr, const char* file,
                                           int line, const std::string& msg) {
  std::ostringstream os;
  os << file << ':' << line << ": assertion failed: " << expr;
  if (!msg.empty()) {
    os << " — " << msg;
  }
  throw AssertionError(os.str());
}

}  // namespace detail
}  // namespace monomap

/// Assert an internal invariant; throws monomap::AssertionError on failure.
#define MONOMAP_ASSERT(expr)                                              \
  do {                                                                    \
    if (!(expr)) {                                                        \
      ::monomap::detail::assertion_failure(#expr, __FILE__, __LINE__, ""); \
    }                                                                     \
  } while (false)

/// Assert with a streamed message: MONOMAP_ASSERT_MSG(x > 0, "x=" << x).
#define MONOMAP_ASSERT_MSG(expr, stream_expr)                       \
  do {                                                              \
    if (!(expr)) {                                                  \
      std::ostringstream monomap_assert_os;                         \
      monomap_assert_os << stream_expr;                             \
      ::monomap::detail::assertion_failure(#expr, __FILE__, __LINE__, \
                                           monomap_assert_os.str()); \
    }                                                               \
  } while (false)

/// Refuse user input: throws monomap::InputError carrying the streamed
/// message alone unless `expr` holds.
#define MONOMAP_CHECK_INPUT(expr, stream_expr)                \
  do {                                                        \
    if (!(expr)) {                                            \
      std::ostringstream monomap_input_os;                    \
      monomap_input_os << stream_expr;                        \
      throw ::monomap::InputError(monomap_input_os.str());    \
    }                                                         \
  } while (false)

#endif  // MONOMAP_SUPPORT_ASSERT_HPP
