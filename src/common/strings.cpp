#include "common/strings.hpp"

#include <cstdio>
#include <cstring>

namespace cstf {

std::string strprintf(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args2;
  va_copy(args2, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<std::size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args2);
  }
  va_end(args2);
  return out;
}

std::vector<std::string> splitFields(const std::string& s,
                                     const char* delims) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < s.size()) {
    const std::size_t j = s.find_first_of(delims, i);
    const std::size_t end = (j == std::string::npos) ? s.size() : j;
    if (end > i) out.emplace_back(s.substr(i, end - i));
    i = end + 1;
  }
  return out;
}

std::string humanBytes(double bytes) {
  static const char* kUnits[] = {"B", "KB", "MB", "GB", "TB"};
  int u = 0;
  while (bytes >= 1024.0 && u < 4) {
    bytes /= 1024.0;
    ++u;
  }
  return strprintf("%.2f %s", bytes, kUnits[u]);
}

std::string humanSeconds(double sec) {
  if (sec >= 1.0) return strprintf("%.3f s", sec);
  if (sec >= 1e-3) return strprintf("%.1f ms", sec * 1e3);
  return strprintf("%.1f us", sec * 1e6);
}

}  // namespace cstf
