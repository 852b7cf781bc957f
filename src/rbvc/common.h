// Common definitions shared by every rbvc subsystem: numeric tolerances,
// assertion macro, and small utility helpers.
#pragma once

#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>

namespace rbvc {

/// Default absolute tolerance for geometric predicates (membership,
/// feasibility, distances). Callers may override per call.
inline constexpr double kTol = 1e-9;

/// Looser tolerance for callers comparing numerical results whose accuracy
/// is limited by an iteration budget or a solver's own tolerance.
inline constexpr double kLooseTol = 1e-6;

/// Value representing the L-infinity norm when a norm order parameter `p`
/// is expected. Any p >= kInfNorm is treated as infinity.
inline constexpr double kInfNorm = std::numeric_limits<double>::infinity();

/// Thrown on dimension mismatches and contract violations in public APIs.
class invalid_argument : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Thrown when a numerical routine fails to converge or a solver detects
/// an internally inconsistent state.
class numerical_error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

namespace detail {
[[noreturn]] inline void require_failed(const char* cond, const char* file,
                                        int line, const std::string& msg) {
  throw invalid_argument(std::string(file) + ":" + std::to_string(line) +
                         ": requirement `" + cond + "` failed: " + msg);
}
}  // namespace detail

/// Precondition check used in public API entry points. Always active:
/// geometry bugs silently corrupt consensus results, so we fail loudly.
#define RBVC_REQUIRE(cond, msg)                                       \
  do {                                                                \
    if (!(cond)) {                                                    \
      ::rbvc::detail::require_failed(#cond, __FILE__, __LINE__, msg); \
    }                                                                 \
  } while (0)

}  // namespace rbvc
