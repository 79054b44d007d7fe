// The straightforward task kernels, kept as a test oracle for the tuned
// ones in src/tasks/. Each function is the original per-record body of a
// built-in program: whitespace splitting into a vector of strings, a
// lower-cased copy per token, a 12-base __int128 Miller-Rabin and a blur
// that bounds-checks every tap. `reference_result` runs one of them over a
// whole input exactly as the original `LineTask::step` did (byte-at-a-time
// line scan), so its bytes must equal `run_to_completion` of the program.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "tasks/blur.h"
#include "tasks/logscan.h"
#include "tasks/sales.h"
#include "tasks/task.h"

namespace cwc::tasks::reference {

/// Splits on runs of std::isspace bytes; empty tokens are dropped.
std::vector<std::string> split_whitespace(std::string_view text);

/// Miller-Rabin over the 12 prime bases up to 37 with __int128 products.
bool is_prime_u64(std::uint64_t n);

void count_primes(std::string_view line, std::uint64_t& count);
/// `target` is already lower-cased, as the program stores it.
void count_word(std::string_view line, const std::string& target, std::uint64_t& count);
void scan_log(std::string_view line, const std::string& pattern, LogScanResult& result);
void aggregate_sales(std::string_view line, SalesResult& result);

/// 3x3 box blur with clamped edges, every tap bounds-checked.
Image box_blur(const Image& input);

/// The encoded partial result of a registry program over `input`.
/// Programs: "prime-count", "word-count:<word>", "log-scan:<pattern>",
/// "sales-aggregate", "photo-blur".
Bytes reference_result(const std::string& program, ByteView input);

}  // namespace cwc::tasks::reference
