// Differential tests: every tuned task kernel against the straightforward
// original kept in reference_kernels.cc.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "reference_kernels.h"
#include "tasks/blur.h"
#include "tasks/generators.h"
#include "tasks/primes.h"
#include "tasks/registry.h"
#include "tasks/sales.h"
#include "tasks/task.h"
#include "tasks/wordcount.h"

namespace cwc::tasks {
namespace {

Bytes to_bytes(std::string_view text) { return Bytes(text.begin(), text.end()); }

/// Uniform index in [0, size).
std::size_t pick(Rng& rng, std::size_t size) {
  return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(size) - 1));
}

void expect_prime_matches_oracle(std::uint64_t n) {
  ASSERT_EQ(is_prime_u64(n), reference::is_prime_u64(n)) << "n=" << n;
}

TEST(PrimeOracle, EveryValueBelowTwoMillion) {
  for (std::uint64_t n = 0; n <= 2'000'000; ++n) expect_prime_matches_oracle(n);
}

TEST(PrimeOracle, ThreeMillionEitherSideOfTwoToThe32) {
  constexpr std::uint64_t kPivot = 1ULL << 32;
  for (std::uint64_t n = kPivot - 3'000'000; n <= kPivot + 3'000'000; ++n) {
    expect_prime_matches_oracle(n);
  }
}

TEST(PrimeOracle, SeededRandom32And64BitValues) {
  Rng rng(20121210);
  for (int i = 0; i < 1'500'000; ++i) {
    expect_prime_matches_oracle(rng.next_u64() >> 32);
    expect_prime_matches_oracle(rng.next_u64());
  }
}

TEST(PrimeOracle, StrongPseudoprimesAreComposite) {
  // Each is a strong pseudoprime to a prefix of the prime bases; the last
  // two are the smallest that fool {2, 7, 61} and the first 9 primes.
  for (std::uint64_t n : {2047ULL, 1373653ULL, 25326001ULL, 3215031751ULL, 4759123141ULL,
                          3825123056546413051ULL}) {
    EXPECT_FALSE(is_prime_u64(n)) << n;
    EXPECT_FALSE(reference::is_prime_u64(n)) << n;
  }
}

/// A random string over the six C-locale whitespace bytes, letters, NUL
/// and bytes >= 0x80.
std::string random_text(Rng& rng, std::size_t length) {
  static constexpr std::string_view kAlphabet{" \t\n\v\f\rabcXYZ\0\x80\xa0\xff\x85\xe9", 18};
  std::string out;
  for (std::size_t i = 0; i < length; ++i) out.push_back(kAlphabet[pick(rng, kAlphabet.size())]);
  return out;
}

TEST(WordOracle, ForEachWordEqualsOriginalSplit) {
  Rng rng(7);
  for (int trial = 0; trial < 20'000; ++trial) {
    const std::string text = random_text(rng, static_cast<std::size_t>(rng.uniform_int(0, 40)));
    std::vector<std::string> words;
    for_each_word(text, [&words](std::string_view word) { words.emplace_back(word); });
    const std::vector<std::string> expected = reference::split_whitespace(text);
    ASSERT_EQ(words, expected) << "trial " << trial;
    ASSERT_EQ(split_whitespace(text), expected) << "trial " << trial;
  }
}

TEST(WordOracle, ReturningFalseStopsTheScan) {
  std::vector<std::string> words;
  for_each_word(" a bb  ccc ", [&words](std::string_view word) {
    words.emplace_back(word);
    return words.size() < 2;
  });
  EXPECT_EQ(words, (std::vector<std::string>{"a", "bb"}));
}

/// Runs `factory` uninterrupted and with migrations at a small budget, and
/// checks both against the reference kernel of the same program.
void expect_program_matches_oracle(const TaskFactory& factory, const Bytes& input) {
  const Bytes expected = reference::reference_result(factory.name(), input);
  ASSERT_EQ(run_to_completion(factory, input), expected) << factory.name();
  ASSERT_EQ(run_with_migrations(factory, input, 64, 2), expected) << factory.name();
}

void expect_program_matches_oracle(const std::string& program, const Bytes& input) {
  expect_program_matches_oracle(TaskRegistry::with_builtins().require(program), input);
}

/// Lines whose tokens come from `vocabulary`, joined by random whitespace
/// runs, with occasional blank lines and no final newline half the time.
Bytes random_records(Rng& rng, const std::vector<std::string>& vocabulary, int lines) {
  static constexpr std::string_view kSpace = " \t\v\f\r";
  std::string text;
  for (int line = 0; line < lines; ++line) {
    const int tokens = static_cast<int>(rng.uniform_int(0, 6));
    for (int t = 0; t < tokens; ++t) {
      const int gap = static_cast<int>(rng.uniform_int(t == 0 ? 0 : 1, 3));
      for (int g = 0; g < gap; ++g) {
        text.push_back(kSpace[pick(rng, kSpace.size())]);
      }
      text += vocabulary[pick(rng, vocabulary.size())];
    }
    if (line + 1 < lines || rng.chance(0.5)) text.push_back('\n');
  }
  return to_bytes(text);
}

TEST(ProgramOracle, PrimeCountOnNumbersAndJunk) {
  const std::vector<std::string> vocabulary = {
      "2", "3", "61", "97", "2047", "4294967291", "4294967311", "4759123141",
      "18446744073709551557", "18446744073709551616", "007", "+7", "-7", "12x", "x", "0", "1"};
  Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    expect_program_matches_oracle("prime-count", random_records(rng, vocabulary, 20));
  }
  Rng gen(4242);
  expect_program_matches_oracle("prime-count", make_integer_input(gen, 32.0));
}

TEST(ProgramOracle, WordCountFoldsAsciiCaseOnly) {
  const std::vector<std::string> vocabulary = {
      "error", "ERROR", "Error", "eRrOr", "errors", "erro", "\xc9rror", "error\x80", "err0r", "x"};
  Rng rng(12);
  for (int trial = 0; trial < 200; ++trial) {
    expect_program_matches_oracle("word-count:error", random_records(rng, vocabulary, 20));
  }
  Rng gen(4242);
  expect_program_matches_oracle("word-count:error", make_text_input(gen, 32.0));

  // Every letter folds, and the bytes either side of 'A'-'Z' do not.
  const WordCountFactory zebra("Zebra");
  const std::vector<std::string> edges = {"zebra", "ZEBRA", "zEbRa", "[ebra", "@ebra", "zebr", "Zebraz"};
  for (int trial = 0; trial < 100; ++trial) {
    expect_program_matches_oracle(zebra, random_records(rng, edges, 20));
  }
}

TEST(ProgramOracle, LogScanReadsTheSecondToken) {
  const std::vector<std::string> vocabulary = {"1349000000", "DEBUG", "INFO",  "WARN",   "ERROR",
                                               "FATAL",      "error", "disk",  "failure", "disk failure",
                                               "ERRORS",     "INF",   "FATAL\x80"};
  Rng rng(13);
  for (int trial = 0; trial < 200; ++trial) {
    expect_program_matches_oracle("log-scan:disk failure", random_records(rng, vocabulary, 20));
  }
  Rng gen(4242);
  expect_program_matches_oracle("log-scan:disk failure", make_log_input(gen, 32.0));
}

TEST(ProgramOracle, SalesRecordsWithRandomFieldsAndPadding) {
  const std::vector<std::string> fields = {"17",  "",    "tools", "paint", "Tools", " tools", "2.5",
                                           "-1",  "1e3", "nan",   "inf",   "0x10",  ".5",     "3.",
                                           " 2.5", "2.5 ", "-0"};
  static constexpr std::string_view kPad = " \t\r";
  Rng rng(14);
  for (int trial = 0; trial < 200; ++trial) {
    std::string text;
    for (int line = 0; line < 20; ++line) {
      if (rng.chance(0.3)) text.push_back(kPad[pick(rng, kPad.size())]);
      const int count = static_cast<int>(rng.uniform_int(1, 4));
      for (int f = 0; f < count; ++f) {
        if (f) text.push_back(',');
        text += fields[pick(rng, fields.size())];
      }
      if (rng.chance(0.3)) text.push_back(kPad[pick(rng, kPad.size())]);
      text.push_back('\n');
    }
    expect_program_matches_oracle("sales-aggregate", to_bytes(text));
  }
  Rng gen(4242);
  expect_program_matches_oracle("sales-aggregate", make_sales_input(gen, 32.0));
}

TEST(ProgramOracle, BlurOnEveryThinAndSmallShape) {
  Rng rng(15);
  for (std::uint32_t width = 0; width <= 6; ++width) {
    for (std::uint32_t height = 0; height <= 6; ++height) {
      const Bytes input = make_image_input(rng, width, height);
      expect_program_matches_oracle("photo-blur", input);
      ASSERT_EQ(box_blur_reference(decode_image(input)).pixels,
                reference::box_blur(decode_image(input)).pixels);
    }
  }
  expect_program_matches_oracle("photo-blur", make_image_input(rng, 257, 3));
  expect_program_matches_oracle("photo-blur", make_image_input_of_size(rng, 64.0));
}

SalesResult sales_of(std::string_view text) {
  TaskRegistry registry = TaskRegistry::with_builtins();
  const Bytes input = to_bytes(text);
  const Bytes result = run_to_completion(registry.require("sales-aggregate"), input);
  EXPECT_EQ(result, reference::reference_result("sales-aggregate", input)) << text;
  return SalesAggregateFactory::decode(result);
}

TEST(SalesEdgeCases, ExactlyThreeFieldsWithEmptyFieldsKept) {
  const SalesResult ok = sales_of("1,tools,2.5\n,tools,1.5\n");  // empty store field is fine
  EXPECT_EQ(ok.units[1], 2u);
  EXPECT_DOUBLE_EQ(ok.revenue[1], 4.0);
  EXPECT_EQ(ok.malformed_records, 0u);

  EXPECT_EQ(sales_of("1,tools\n").malformed_records, 1u);           // 2 fields
  EXPECT_EQ(sales_of("1,tools,2.5,9\n").malformed_records, 1u);     // 4 fields
  EXPECT_EQ(sales_of("1,tools,2.5,\n").malformed_records, 1u);      // trailing comma
  EXPECT_EQ(sales_of("1,,2.5\n").malformed_records, 1u);            // empty category
  EXPECT_EQ(sales_of("1,tools,\n").malformed_records, 1u);          // empty amount
  EXPECT_EQ(sales_of(",,\n").malformed_records, 1u);                // all empty
  EXPECT_EQ(sales_of("1,tools,-2\n").malformed_records, 1u);        // negative amount
  EXPECT_EQ(sales_of("no commas at all\n").malformed_records, 1u);  // 1 field
}

TEST(SalesEdgeCases, PaddingOnlyTrimmedAtTheRecordEnds) {
  const SalesResult padded = sales_of(" \t1,paint,3\r\n  \n\n");
  EXPECT_EQ(padded.units[4], 1u);
  EXPECT_EQ(padded.malformed_records, 0u);  // blank lines are skipped, not malformed

  EXPECT_EQ(sales_of("1, paint,3\n").malformed_records, 1u);  // padded category
  EXPECT_EQ(sales_of("1,paint, 3\n").malformed_records, 1u);  // padded amount
  EXPECT_EQ(sales_of("1,paint,3 \n").malformed_records, 0u);  // trailing pad is trimmed
}

}  // namespace
}  // namespace cwc::tasks
