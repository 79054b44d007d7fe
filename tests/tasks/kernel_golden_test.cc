// Golden CRCs of every built-in program's result on generated inputs.
//
// The task kernels are performance-tuned; these values pin their output
// bytes (uninterrupted and with checkpoint/restore migrations) so a faster
// kernel can never silently change a result. The values were produced by
// the straightforward kernels kept in reference_kernels.cc.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>

#include "common/crc32.h"
#include "common/rng.h"
#include "tasks/generators.h"
#include "tasks/registry.h"
#include "tasks/task.h"

namespace cwc::tasks {
namespace {

// One CRC per case: a migrated run must equal the uninterrupted one anyway.
struct Golden {
  const char* program;
  std::uint64_t seed;
  std::uint32_t result_crc;
};

void PrintTo(const Golden& golden, std::ostream* os) {
  *os << golden.program << " seed " << golden.seed;
}

Bytes golden_input(const std::string& program, std::uint64_t seed) {
  Rng rng(seed);
  if (program == "prime-count") return make_integer_input(rng, 64.0);
  if (program == "word-count:error") return make_text_input(rng, 64.0);
  if (program == "log-scan:disk failure") return make_log_input(rng, 64.0);
  if (program == "sales-aggregate") return make_sales_input(rng, 64.0);
  if (program == "photo-blur") return make_image_input_of_size(rng, 64.0);
  throw std::logic_error("no generator for " + program);
}

class KernelGoldenTest : public ::testing::TestWithParam<Golden> {};

TEST_P(KernelGoldenTest, ResultCrcMatches) {
  const Golden& golden = GetParam();
  const TaskRegistry registry = TaskRegistry::with_builtins();
  const TaskFactory& factory = registry.require(golden.program);
  const Bytes input = golden_input(golden.program, golden.seed);

  const std::uint32_t completion = crc32(run_to_completion(factory, input));
  const std::uint32_t migrated = crc32(run_with_migrations(factory, input, 1000, 3));
  EXPECT_EQ(completion, golden.result_crc) << std::hex << "0x" << completion;
  EXPECT_EQ(migrated, golden.result_crc) << std::hex << "0x" << migrated;
}

std::string golden_name(const ::testing::TestParamInfo<Golden>& info) {
  std::string name = info.param.program;
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name + "_seed" + std::to_string(info.param.seed);
}

INSTANTIATE_TEST_SUITE_P(
    AllPrograms, KernelGoldenTest,
    ::testing::Values(Golden{"prime-count", 1, 0xf5870d1b},
                      Golden{"prime-count", 4242, 0xb7a20a66},
                      Golden{"word-count:error", 1, 0x5764963a},
                      Golden{"word-count:error", 4242, 0x00cb8375},
                      Golden{"log-scan:disk failure", 1, 0xc6673478},
                      Golden{"log-scan:disk failure", 4242, 0xa4176908},
                      Golden{"sales-aggregate", 1, 0xdfbfa61b},
                      Golden{"sales-aggregate", 4242, 0x030b6890},
                      Golden{"photo-blur", 1, 0x9a80ca2d}, Golden{"photo-blur", 4242, 0x8ab544d3}),
    golden_name);

}  // namespace
}  // namespace cwc::tasks
