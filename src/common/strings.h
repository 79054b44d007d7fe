// Small string helpers for workload parsing (word count, log scan) and the
// bench harness's tabular output.
#pragma once

#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace cwc {

/// Splits on a single delimiter; empty fields are preserved.
std::vector<std::string> split(std::string_view text, char delim);

/// Exactly the C-locale isspace set: ' ', '\t', '\n', '\v', '\f', '\r'.
constexpr bool is_ascii_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// Calls `fn(word)` for each maximal run of non-whitespace bytes in `text`,
/// left to right, without allocating. This is the one definition of a word
/// that the task kernels and split_whitespace share. If `fn` returns bool,
/// returning false ends the scan.
template <typename Fn>
void for_each_word(std::string_view text, Fn&& fn) {
  const char* p = text.data();
  const char* const end = p + text.size();
  while (true) {
    while (p != end && is_ascii_space(*p)) ++p;
    if (p == end) return;
    const char* const start = p;
    while (p != end && !is_ascii_space(*p)) ++p;
    const std::string_view word(start, static_cast<std::size_t>(p - start));
    if constexpr (std::is_same_v<std::invoke_result_t<Fn&, std::string_view>, bool>) {
      if (!fn(word)) return;
    } else {
      fn(word);
    }
  }
}

/// Splits on runs of ASCII whitespace; empty tokens are dropped.
std::vector<std::string> split_whitespace(std::string_view text);

/// Trims ASCII whitespace from both ends.
std::string_view trim(std::string_view text);

/// ASCII lower-casing (workloads are ASCII by construction).
std::string to_lower(std::string_view text);

bool starts_with(std::string_view text, std::string_view prefix);

/// printf-style formatting into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Joins items with a separator.
std::string join(const std::vector<std::string>& items, std::string_view sep);

/// Shortest decimal representation that parses back to exactly `v` (for
/// JSON emitters whose output must round-trip doubles bit-exactly).
std::string shortest_double(double v);

}  // namespace cwc
