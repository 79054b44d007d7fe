// "Counting the occurrences of prime numbers in an input file" — the paper's
// first evaluation task (also the CPU-intensive load of the Fig. 10 charging
// experiment). Input: newline-separated records of whitespace-separated
// unsigned integers. Result: a u64 count of prime values. Breakable: counts
// from partitions simply add up.
#pragma once

#include <cstdint>

#include "tasks/line_task.h"

namespace cwc::tasks {

/// Deterministic Miller-Rabin primality for 64-bit values: three bases in
/// 32-bit Montgomery arithmetic below 2^32 (every generated input), twelve
/// bases with 128-bit products above.
bool is_prime_u64(std::uint64_t n);

class PrimeCountTask final : public LineTask {
 public:
  std::uint64_t count() const { return count_; }
  Bytes partial_result() const override;

 protected:
  void process_line(std::string_view line) override;
  void save_state(BufferWriter& w) const override;
  void load_state(BufferReader& r) override;

 private:
  std::uint64_t count_ = 0;
};

class PrimeCountFactory final : public TaskFactory {
 public:
  const std::string& name() const override;
  JobKind kind() const override { return JobKind::kBreakable; }
  Kilobytes executable_kb() const override { return 38.0; }  // typical dexed .jar
  /// Dalvik-era reference cost on the 806 MHz HTC G2; primality testing in
  /// interpreted Java is strongly compute-bound (tens of ms per KB).
  MsPerKb reference_ms_per_kb() const override { return 55.0; }
  std::unique_ptr<Task> create() const override;
  Bytes aggregate(const std::vector<Bytes>& partials) const override;

  /// Decodes an aggregated (or partial) result blob.
  static std::uint64_t decode(const Bytes& result);
};

}  // namespace cwc::tasks
