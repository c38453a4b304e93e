// Small string helpers (GCC 12 has no std::format yet).
#pragma once

#include <cstdarg>
#include <string>
#include <vector>

namespace cstf {

/// printf-style formatting into a std::string.
std::string strprintf(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Split `s` on any character in `delims`, dropping empty fields.
std::vector<std::string> splitFields(const std::string& s, const char* delims);

/// Human-readable byte count, e.g. "20.8 GB".
std::string humanBytes(double bytes);

/// Human-readable duration from seconds, e.g. "1.25 s" / "310 ms".
std::string humanSeconds(double sec);

}  // namespace cstf
