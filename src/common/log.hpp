// Minimal logger for warnings.
//
// The federation runner and the transports log faults (a lost peer, a
// malformed frame, an unusable environment value) as one warning line each
// on stderr. Every line prints: there is no threshold to set. A free function
// API keeps call sites terse and avoids a singleton object graph.
#pragma once

#include <sstream>
#include <string>
#include <utility>

namespace gendpr::common {

/// Writes one warning line to stderr. Thread-safe (line-at-a-time).
void log_line(const std::string& component, const std::string& message);

namespace detail {
template <typename... Args>
std::string concat(Args&&... args) {
  std::ostringstream oss;
  (oss << ... << args);
  return oss.str();
}
}  // namespace detail

template <typename... Args>
void log_warn(const std::string& component, Args&&... args) {
  log_line(component, detail::concat(std::forward<Args>(args)...));
}

}  // namespace gendpr::common
