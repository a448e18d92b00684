#include "common/log.hpp"

#include <chrono>
#include <cstdio>
#include <mutex>

namespace gendpr::common {

namespace {

std::mutex g_write_mutex;

}  // namespace

void log_line(const std::string& component, const std::string& message) {
  const auto now = std::chrono::system_clock::now();
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      now.time_since_epoch())
                      .count();
  std::lock_guard<std::mutex> lock(g_write_mutex);
  std::fprintf(stderr, "[%lld.%03lld] WARN  [%s] %s\n",
               static_cast<long long>(ms / 1000),
               static_cast<long long>(ms % 1000), component.c_str(),
               message.c_str());
}

}  // namespace gendpr::common
