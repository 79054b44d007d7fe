#include "reference_kernels.h"

#include <array>
#include <cctype>
#include <charconv>
#include <stdexcept>

#include "common/buffer.h"
#include "common/strings.h"

namespace cwc::tasks::reference {

namespace {

std::uint64_t mul_mod(std::uint64_t a, std::uint64_t b, std::uint64_t m) {
  return static_cast<std::uint64_t>(static_cast<unsigned __int128>(a) * b % m);
}

std::uint64_t pow_mod(std::uint64_t base, std::uint64_t exp, std::uint64_t m) {
  std::uint64_t result = 1;
  base %= m;
  while (exp > 0) {
    if (exp & 1) result = mul_mod(result, base, m);
    base = mul_mod(base, base, m);
    exp >>= 1;
  }
  return result;
}

bool miller_rabin_witness(std::uint64_t n, std::uint64_t a, std::uint64_t d, int r) {
  std::uint64_t x = pow_mod(a, d, n);
  if (x == 1 || x == n - 1) return false;
  for (int i = 1; i < r; ++i) {
    x = mul_mod(x, x, n);
    if (x == n - 1) return false;
  }
  return true;
}

std::string to_lower(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string_view trim(std::string_view text) {
  while (!text.empty() && std::isspace(static_cast<unsigned char>(text.front()))) {
    text.remove_prefix(1);
  }
  while (!text.empty() && std::isspace(static_cast<unsigned char>(text.back()))) {
    text.remove_suffix(1);
  }
  return text;
}

constexpr std::array<std::string_view, static_cast<std::size_t>(Severity::kCount)> kSeverityNames = {
    "DEBUG", "INFO", "WARN", "ERROR", "FATAL"};

void blur_row(const Image& src, std::uint32_t y, std::uint8_t* out) {
  const std::int64_t w = src.width;
  const std::int64_t h = src.height;
  for (std::int64_t x = 0; x < w; ++x) {
    std::uint32_t sum = 0;
    std::uint32_t n = 0;
    for (std::int64_t dy = -1; dy <= 1; ++dy) {
      for (std::int64_t dx = -1; dx <= 1; ++dx) {
        const std::int64_t nx = x + dx;
        const std::int64_t ny = static_cast<std::int64_t>(y) + dy;
        if (nx >= 0 && nx < w && ny >= 0 && ny < h) {
          sum += src.pixels[static_cast<std::size_t>(ny * w + nx)];
          ++n;
        }
      }
    }
    out[x] = static_cast<std::uint8_t>(sum / n);
  }
}

/// Calls `fn(line)` per newline-terminated record, as the original
/// `LineTask::step` cut them (a final record may lack its newline).
template <typename Fn>
void for_each_line(ByteView input, Fn&& fn) {
  std::size_t pos = 0;
  while (pos < input.size()) {
    std::size_t eol = pos;
    while (eol < input.size() && input[eol] != '\n') ++eol;
    fn(std::string_view(reinterpret_cast<const char*>(input.data()) + pos, eol - pos));
    pos = eol < input.size() ? eol + 1 : eol;
  }
}

}  // namespace

std::vector<std::string> split_whitespace(std::string_view text) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) ++i;
    std::size_t start = i;
    while (i < text.size() && !std::isspace(static_cast<unsigned char>(text[i]))) ++i;
    if (i > start) out.emplace_back(text.substr(start, i - start));
  }
  return out;
}

bool is_prime_u64(std::uint64_t n) {
  if (n < 2) return false;
  for (std::uint64_t p : {2ULL, 3ULL, 5ULL, 7ULL, 11ULL, 13ULL, 17ULL, 19ULL, 23ULL, 29ULL, 31ULL, 37ULL}) {
    if (n == p) return true;
    if (n % p == 0) return false;
  }
  std::uint64_t d = n - 1;
  int r = 0;
  while ((d & 1) == 0) {
    d >>= 1;
    ++r;
  }
  for (std::uint64_t a : {2ULL, 3ULL, 5ULL, 7ULL, 11ULL, 13ULL, 17ULL, 19ULL, 23ULL, 29ULL, 31ULL, 37ULL}) {
    if (miller_rabin_witness(n, a, d, r)) return false;
  }
  return true;
}

void count_primes(std::string_view line, std::uint64_t& count) {
  for (const auto& token : split_whitespace(line)) {
    std::uint64_t value = 0;
    const auto [ptr, ec] = std::from_chars(token.data(), token.data() + token.size(), value);
    if (ec == std::errc() && ptr == token.data() + token.size() && is_prime_u64(value)) {
      ++count;
    }
  }
}

void count_word(std::string_view line, const std::string& target, std::uint64_t& count) {
  for (const auto& token : split_whitespace(line)) {
    if (to_lower(token) == target) ++count;
  }
}

void scan_log(std::string_view line, const std::string& pattern, LogScanResult& result) {
  ++result.total_lines;
  const auto tokens = split_whitespace(line);
  if (tokens.size() >= 2) {
    for (std::size_t s = 0; s < kSeverityNames.size(); ++s) {
      if (tokens[1] == kSeverityNames[s]) {
        ++result.severity_counts[s];
        break;
      }
    }
  }
  if (!pattern.empty() && line.find(pattern) != std::string_view::npos) {
    ++result.pattern_matches;
  }
}

void aggregate_sales(std::string_view line, SalesResult& result) {
  line = trim(line);
  if (line.empty()) return;
  const auto fields = split(line, ',');
  if (fields.size() != 3) {
    ++result.malformed_records;
    return;
  }
  std::size_t category = kSalesCategories.size();
  for (std::size_t i = 0; i < kSalesCategories.size(); ++i) {
    if (fields[1] == kSalesCategories[i]) {
      category = i;
      break;
    }
  }
  double amount = 0.0;
  const auto& amount_str = fields[2];
  const auto [ptr, ec] = std::from_chars(amount_str.data(), amount_str.data() + amount_str.size(), amount);
  if (category == kSalesCategories.size() || ec != std::errc() ||
      ptr != amount_str.data() + amount_str.size() || amount < 0.0) {
    ++result.malformed_records;
    return;
  }
  result.revenue[category] += amount;
  ++result.units[category];
}

Image box_blur(const Image& input) {
  Image out;
  out.width = input.width;
  out.height = input.height;
  out.pixels.resize(input.pixels.size());
  for (std::uint32_t y = 0; y < input.height; ++y) {
    blur_row(input, y, out.pixels.data() + static_cast<std::size_t>(y) * input.width);
  }
  return out;
}

Bytes reference_result(const std::string& program, ByteView input) {
  if (program == "photo-blur") return encode_image(box_blur(decode_image(input)));
  if (starts_with(program, "log-scan:")) {
    const std::string pattern = program.substr(program.find(':') + 1);
    LogScanResult result;
    for_each_line(input, [&](std::string_view line) { scan_log(line, pattern, result); });
    return LogScanFactory::encode(result);
  }
  if (program == "sales-aggregate") {
    SalesResult result;
    for_each_line(input, [&](std::string_view line) { aggregate_sales(line, result); });
    return SalesAggregateFactory::encode(result);
  }
  std::uint64_t count = 0;
  if (program == "prime-count") {
    for_each_line(input, [&](std::string_view line) { count_primes(line, count); });
  } else if (starts_with(program, "word-count:")) {
    const std::string target = to_lower(program.substr(program.find(':') + 1));
    for_each_line(input, [&](std::string_view line) { count_word(line, target, count); });
  } else {
    throw std::invalid_argument("no reference kernel for " + program);
  }
  BufferWriter w;
  w.write_u64(count);
  return w.take();
}

}  // namespace cwc::tasks::reference
