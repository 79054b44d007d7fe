#include "tasks/primes.h"

#include <charconv>

#include "common/strings.h"

namespace cwc::tasks {

namespace {

constexpr std::uint64_t kSmallPrimes[] = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37};

/// Residues mod odd n < 2^32 in Montgomery form (R = 2^32): a product costs
/// three integer multiplies and no division.
struct Montgomery32 {
  explicit Montgomery32(std::uint64_t modulus)
      : n(modulus), n_inv(inverse(static_cast<std::uint32_t>(modulus))),
        one((std::uint64_t{1} << 32) % modulus), minus_one(modulus - one) {}

  /// n^-1 mod 2^32 by Newton's iteration; n * n == 1 mod 8 seeds 3 bits.
  static std::uint32_t inverse(std::uint32_t n) {
    std::uint32_t x = n;
    for (int i = 0; i < 4; ++i) x *= 2 - n * x;
    return x;
  }
  std::uint64_t from(std::uint64_t a) const { return (a << 32) % n; }
  /// x * y / R mod n for x, y < n. The low halves of x*y and m*n are equal,
  /// so the high halves alone give the difference, which lies in (-n, n).
  std::uint64_t mul(std::uint64_t x, std::uint64_t y) const {
    const std::uint64_t t = x * y;
    const std::uint32_t m = static_cast<std::uint32_t>(t) * n_inv;
    const std::uint64_t t_hi = t >> 32;
    const std::uint64_t mn_hi = (static_cast<std::uint64_t>(m) * n) >> 32;
    return t_hi >= mn_hi ? t_hi - mn_hi : t_hi + n - mn_hi;
  }

  std::uint64_t n;
  std::uint32_t n_inv;
  std::uint64_t one;
  std::uint64_t minus_one;
};

/// Plain residues mod any n, products through unsigned __int128.
struct Wide64 {
  explicit Wide64(std::uint64_t modulus) : n(modulus), minus_one(modulus - 1) {}

  std::uint64_t from(std::uint64_t a) const { return a % n; }
  std::uint64_t mul(std::uint64_t x, std::uint64_t y) const {
    return static_cast<std::uint64_t>(static_cast<unsigned __int128>(x) * y % n);
  }

  std::uint64_t n;
  std::uint64_t one = 1;
  std::uint64_t minus_one;
};

/// One Miller-Rabin round for odd n with n - 1 = d * 2^r, in the residue
/// arithmetic `mod`. True when `a` proves n composite.
template <typename Mod>
bool miller_rabin_witness(const Mod& mod, std::uint64_t a, std::uint64_t d, int r) {
  std::uint64_t x = mod.one;
  for (std::uint64_t base = mod.from(a), exp = d; exp > 0; exp >>= 1) {
    if (exp & 1) x = mod.mul(x, base);
    base = mod.mul(base, base);
  }
  if (x == mod.one || x == mod.minus_one) return false;  // not a witness
  for (int i = 1; i < r; ++i) {
    x = mod.mul(x, x);
    if (x == mod.minus_one) return false;
  }
  return true;  // composite witness found
}

}  // namespace

bool is_prime_u64(std::uint64_t n) {
  if (n < 2) return false;
  // Unrolled, each divisor is a constant and `%` compiles to multiplies.
#pragma GCC unroll 12
  for (std::uint64_t p : kSmallPrimes) {
    if (n == p) return true;
    if (n % p == 0) return false;
  }
  // Write n-1 = d * 2^r with d odd.
  std::uint64_t d = n - 1;
  int r = 0;
  while ((d & 1) == 0) {
    d >>= 1;
    ++r;
  }
  if (n < (std::uint64_t{1} << 32)) {
    // Bases {2, 7, 61} are deterministic below 4,759,123,141 (Jaeschke 1993).
    const Montgomery32 mod(n);
    for (std::uint64_t a : {2ULL, 7ULL, 61ULL}) {
      if (a == n) return true;  // 61 is the one base above the trial primes
      if (miller_rabin_witness(mod, a, d, r)) return false;
    }
    return true;
  }
  // This witness set is deterministic for all n < 2^64 (Sinclair 2011).
  const Wide64 mod(n);
  for (std::uint64_t a : kSmallPrimes) {
    if (miller_rabin_witness(mod, a, d, r)) return false;
  }
  return true;
}

void PrimeCountTask::process_line(std::string_view line) {
  for_each_word(line, [this](std::string_view token) {
    const char* const end = token.data() + token.size();
    std::uint64_t value = 0;
    const auto [ptr, ec] = std::from_chars(token.data(), end, value);
    if (ec == std::errc() && ptr == end && is_prime_u64(value)) ++count_;
  });
}

Bytes PrimeCountTask::partial_result() const {
  BufferWriter w;
  w.write_u64(count_);
  return w.take();
}

void PrimeCountTask::save_state(BufferWriter& w) const { w.write_u64(count_); }

void PrimeCountTask::load_state(BufferReader& r) { count_ = r.read_u64(); }

const std::string& PrimeCountFactory::name() const {
  static const std::string kName = "prime-count";
  return kName;
}

std::unique_ptr<Task> PrimeCountFactory::create() const {
  return std::make_unique<PrimeCountTask>();
}

Bytes PrimeCountFactory::aggregate(const std::vector<Bytes>& partials) const {
  std::uint64_t total = 0;
  for (const auto& partial : partials) total += decode(partial);
  BufferWriter w;
  w.write_u64(total);
  return w.take();
}

std::uint64_t PrimeCountFactory::decode(const Bytes& result) {
  BufferReader r(result);
  return r.read_u64();
}

}  // namespace cwc::tasks
