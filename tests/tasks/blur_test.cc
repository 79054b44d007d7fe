#include "tasks/blur.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "tasks/generators.h"

namespace cwc::tasks {
namespace {

TEST(ImageCodec, RoundTrips) {
  Image img;
  img.width = 3;
  img.height = 2;
  img.pixels = {10, 20, 30, 40, 50, 60};
  const auto encoded = encode_image(img);
  EXPECT_EQ(encoded.size(), 12u + 6u);
  const Image decoded = decode_image(encoded);
  EXPECT_EQ(decoded.width, 3u);
  EXPECT_EQ(decoded.height, 2u);
  EXPECT_EQ(decoded.pixels, img.pixels);
}

TEST(ImageCodec, RejectsBadMagic) {
  Bytes junk(20, 0xFF);
  EXPECT_THROW(decode_image(junk), std::runtime_error);
}

TEST(ImageCodec, RejectsTruncatedPixels) {
  Image img;
  img.width = 4;
  img.height = 4;
  img.pixels.assign(16, 7);
  auto encoded = encode_image(img);
  encoded.pop_back();
  EXPECT_THROW(decode_image(encoded), std::runtime_error);
}

TEST(ImageCodec, RejectsMismatchedDimensions) {
  Image img;
  img.width = 5;
  img.height = 5;
  img.pixels.assign(7, 0);
  EXPECT_THROW(encode_image(img), std::invalid_argument);
}

TEST(BoxBlur, UniformImageIsFixedPoint) {
  Image img;
  img.width = 8;
  img.height = 8;
  img.pixels.assign(64, 100);
  const Image blurred = box_blur_reference(img);
  EXPECT_EQ(blurred.pixels, img.pixels);
}

TEST(BoxBlur, CenterPixelAveragesNeighbourhood) {
  Image img;
  img.width = 3;
  img.height = 3;
  img.pixels = {0, 0, 0, 0, 90, 0, 0, 0, 0};
  const Image blurred = box_blur_reference(img);
  EXPECT_EQ(blurred.at(1, 1), 10);  // 90 / 9
  EXPECT_EQ(blurred.at(0, 0), 22);  // 90 / 4
  EXPECT_EQ(blurred.at(1, 0), 15);  // 90 / 6
}

TEST(BlurTask, MatchesReferenceBlur) {
  Rng rng(42);
  const auto input = make_image_input(rng, 37, 23);
  BlurFactory factory;
  const auto result = run_to_completion(factory, input);
  const Image expected = box_blur_reference(decode_image(input));
  EXPECT_EQ(decode_image(result).pixels, expected.pixels);
}

TEST(BlurTask, SmallBudgetProcessesRowByRow) {
  Rng rng(43);
  const auto input = make_image_input(rng, 16, 10);
  BlurFactory factory;
  auto task = factory.create();
  int steps = 0;
  while (!task->done(input)) {
    task->step(input, 1);  // far below one row
    ++steps;
  }
  EXPECT_GE(steps, 10);  // at least one step per row
  const Image expected = box_blur_reference(decode_image(input));
  EXPECT_EQ(decode_image(task->partial_result()).pixels, expected.pixels);
}

TEST(BlurTask, CheckpointMigratesAcrossInstances) {
  Rng rng(44);
  const auto input = make_image_input(rng, 20, 20);
  BlurFactory factory;

  auto first = factory.create();
  first->step(input, 20 * 7);  // roughly 7 rows
  ASSERT_FALSE(first->done(input));
  const Checkpoint cp = first->checkpoint();

  auto second = factory.create();
  second->restore(cp);
  // Partial result is available immediately after restore (pre-decode).
  const Image partial = decode_image(second->partial_result());
  EXPECT_EQ(partial.width, 20u);
  EXPECT_GT(partial.height, 0u);

  while (!second->done(input)) second->step(input, 4096);
  const Image expected = box_blur_reference(decode_image(input));
  EXPECT_EQ(decode_image(second->partial_result()).pixels, expected.pixels);
}

TEST(BlurTask, ZeroWidthImageKeepsItsHeightAcrossRestore) {
  Image empty;
  empty.height = 5;  // 0x5: every row is done before any pixel is read
  const Bytes input = encode_image(empty);
  BlurFactory factory;
  auto resumed = factory.create();
  resumed->restore(factory.create()->checkpoint());
  while (!resumed->done(input)) resumed->step(input, 64);
  const Image out = decode_image(resumed->partial_result());
  EXPECT_EQ(out.width, 0u);
  EXPECT_EQ(out.height, 5u);
}

TEST(BlurTask, ConsumedReachesInputSize) {
  Rng rng(45);
  const auto input = make_image_input(rng, 9, 4);
  BlurFactory factory;
  auto task = factory.create();
  while (!task->done(input)) task->step(input, 64);
  EXPECT_EQ(task->consumed(), input.size());
}

TEST(BlurFactory, AggregateRequiresSinglePartial) {
  BlurFactory factory;
  Rng rng(46);
  const auto input = make_image_input(rng, 4, 4);
  const auto result = run_to_completion(factory, input);
  EXPECT_EQ(factory.aggregate({result}), result);
  EXPECT_THROW(factory.aggregate({result, result}), std::invalid_argument);
  EXPECT_THROW(factory.aggregate({}), std::invalid_argument);
}

TEST(Generators, ImageOfRequestedSize) {
  Rng rng(47);
  const auto input = make_image_input_of_size(rng, 64.0);
  // 64 KB requested; square image, so within ~3% of the request.
  EXPECT_NEAR(static_cast<double>(input.size()), 64.0 * 1024.0, 64.0 * 1024.0 * 0.03);
  EXPECT_NO_THROW(decode_image(input));
}

}  // namespace
}  // namespace cwc::tasks
