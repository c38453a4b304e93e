// Strict numeric parsing for CLI flags and env knobs.
//
// std::atoi-style parsing silently turns "banana" into 0 and "1e9banana"
// into a prefix parse; every flag that configures an experiment deserves a
// hard failure instead. parseInt64/parseUint64/parseDouble accept exactly
// one complete, in-range numeric token (no leading whitespace, no trailing
// junk, no inf/nan) and return nullopt otherwise. The parseFlag overloads
// layer the CLI convention on top: on any failure they print
//   invalid value 'V' for --flag (expected ...)
// to stderr and return false, so argument loops can `return false` into
// their usage/exit-code path with the offending flag and value named.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <string_view>
#include <system_error>

namespace cstf {

namespace parse_detail {

template <typename T>
std::optional<T> fromChars(std::string_view s) {
  if (s.empty()) return std::nullopt;
  T value{};
  const auto* first = s.data();
  const auto* last = s.data() + s.size();
  const std::from_chars_result r = std::from_chars(first, last, value);
  if (r.ec != std::errc() || r.ptr != last) return std::nullopt;
  return value;
}

}  // namespace parse_detail

/// Whole-string signed integer, nullopt on junk/overflow.
inline std::optional<std::int64_t> parseInt64(std::string_view s) {
  return parse_detail::fromChars<std::int64_t>(s);
}

/// Whole-string unsigned integer, nullopt on junk/overflow/sign.
inline std::optional<std::uint64_t> parseUint64(std::string_view s) {
  if (!s.empty() && (s.front() == '-' || s.front() == '+')) {
    return std::nullopt;
  }
  return parse_detail::fromChars<std::uint64_t>(s);
}

/// The N of a file name "<prefix>N<suffix>" (e.g. "ckpt-000012.bin");
/// nullopt for any other name, including one whose N overflows uint64.
inline std::optional<std::uint64_t> parseNumberedName(
    std::string_view name, std::string_view prefix, std::string_view suffix) {
  if (name.size() < prefix.size() + suffix.size() ||
      !name.starts_with(prefix) || !name.ends_with(suffix)) {
    return std::nullopt;
  }
  name.remove_prefix(prefix.size());
  name.remove_suffix(suffix.size());
  return parseUint64(name);
}

/// Whole-string finite double, nullopt on junk/overflow/inf/nan.
inline std::optional<double> parseDouble(std::string_view s) {
  const std::optional<double> v = parse_detail::fromChars<double>(s);
  if (v && !std::isfinite(*v)) return std::nullopt;
  return v;
}

namespace parse_detail {

inline bool fail(const char* flag, const char* value, const char* expected) {
  std::fprintf(stderr, "invalid value '%s' for %s (expected %s)\n",
               value ? value : "", flag, expected);
  return false;
}

}  // namespace parse_detail

/// Checked int flag in [lo, hi]; prints the flag + value and returns false
/// on any failure.
inline bool parseFlag(const char* flag, const char* value, int& out,
                      int lo = std::numeric_limits<int>::min(),
                      int hi = std::numeric_limits<int>::max()) {
  const std::optional<std::int64_t> v =
      value ? parseInt64(value) : std::nullopt;
  if (!v || *v < lo || *v > hi) {
    char expected[96];
    std::snprintf(expected, sizeof(expected), "an integer in [%d, %d]", lo,
                  hi);
    return parse_detail::fail(flag, value, expected);
  }
  out = static_cast<int>(*v);
  return true;
}

/// Checked unsigned 64-bit flag in [lo, hi] (covers std::size_t counts and
/// full-range seeds alike; with default bounds the message drops the range).
inline bool parseFlag(const char* flag, const char* value, std::uint64_t& out,
                      std::uint64_t lo = 0,
                      std::uint64_t hi =
                          std::numeric_limits<std::uint64_t>::max()) {
  const std::optional<std::uint64_t> v =
      value ? parseUint64(value) : std::nullopt;
  if (!v || *v < lo || *v > hi) {
    char expected[96];
    if (lo == 0 && hi == std::numeric_limits<std::uint64_t>::max()) {
      std::snprintf(expected, sizeof(expected), "an unsigned integer");
    } else {
      std::snprintf(expected, sizeof(expected),
                    "an unsigned integer in [%llu, %llu]",
                    static_cast<unsigned long long>(lo),
                    static_cast<unsigned long long>(hi));
    }
    return parse_detail::fail(flag, value, expected);
  }
  out = *v;
  return true;
}

/// Checked finite double flag in [lo, hi].
inline bool parseFlag(const char* flag, const char* value, double& out,
                      double lo = -std::numeric_limits<double>::max(),
                      double hi = std::numeric_limits<double>::max()) {
  const std::optional<double> v = value ? parseDouble(value) : std::nullopt;
  if (!v || *v < lo || *v > hi) {
    char expected[96];
    std::snprintf(expected, sizeof(expected), "a number in [%g, %g]", lo, hi);
    return parse_detail::fail(flag, value, expected);
  }
  out = *v;
  return true;
}

}  // namespace cstf
