#include "tasks/blur.h"

#include <algorithm>
#include <stdexcept>

#include "common/buffer.h"

namespace cwc::tasks {

namespace {
constexpr std::uint32_t kMagic = 0x43574349;  // "CWCI"

/// Mean of the in-bounds taps of the 3x3 window at (x, y); edges see fewer.
std::uint8_t blur_clamped(const Image& src, std::int64_t x, std::int64_t y) {
  const std::int64_t w = src.width;
  const std::int64_t h = src.height;
  std::uint32_t sum = 0;
  std::uint32_t n = 0;
  for (std::int64_t ny = y - 1; ny <= y + 1; ++ny) {
    for (std::int64_t nx = x - 1; nx <= x + 1; ++nx) {
      if (nx >= 0 && nx < w && ny >= 0 && ny < h) {
        sum += src.pixels[static_cast<std::size_t>(ny * w + nx)];
        ++n;
      }
    }
  }
  return static_cast<std::uint8_t>(sum / n);
}

/// Blurs one output row using the source image (3x3 box, clamped edges).
/// Interior pixels read their 9 taps unchecked.
void blur_row(const Image& src, std::uint32_t y, std::uint8_t* out) {
  const std::size_t w = src.width;
  if (y == 0 || y + 1 >= src.height || w < 3) {
    for (std::size_t x = 0; x < w; ++x) out[x] = blur_clamped(src, x, y);
    return;
  }
  const std::uint8_t* above = src.pixels.data() + (y - 1) * w;
  const std::uint8_t* row = above + w;
  const std::uint8_t* below = row + w;
  out[0] = blur_clamped(src, 0, y);
  for (std::size_t x = 1; x + 1 < w; ++x) {
    const std::uint32_t sum = above[x - 1] + above[x] + above[x + 1] + row[x - 1] + row[x] +
                              row[x + 1] + below[x - 1] + below[x] + below[x + 1];
    out[x] = static_cast<std::uint8_t>(sum / 9);
  }
  out[w - 1] = blur_clamped(src, static_cast<std::int64_t>(w - 1), y);
}
}  // namespace

Bytes encode_image(const Image& image) {
  if (image.pixels.size() != static_cast<std::size_t>(image.width) * image.height) {
    throw std::invalid_argument("encode_image: pixel count does not match dimensions");
  }
  BufferWriter w;
  w.write_u32(kMagic);
  w.write_u32(image.width);
  w.write_u32(image.height);
  Bytes out = w.take();
  out.insert(out.end(), image.pixels.begin(), image.pixels.end());
  return out;
}

Image decode_image(ByteView data) {
  BufferReader r(data);
  Image image;
  try {
    if (r.read_u32() != kMagic) throw std::runtime_error("decode_image: bad magic");
    image.width = r.read_u32();
    image.height = r.read_u32();
  } catch (const BufferUnderflow&) {
    throw std::runtime_error("decode_image: truncated header");
  }
  const std::size_t expected = static_cast<std::size_t>(image.width) * image.height;
  if (r.remaining() != expected) throw std::runtime_error("decode_image: truncated pixel data");
  image.pixels.assign(data.begin() + 12, data.end());
  return image;
}

Image box_blur_reference(const Image& input) {
  Image out;
  out.width = input.width;
  out.height = input.height;
  out.pixels.resize(input.pixels.size());
  for (std::uint32_t y = 0; y < input.height; ++y) {
    blur_row(input, y, out.pixels.data() + static_cast<std::size_t>(y) * input.width);
  }
  return out;
}

void BlurTask::ensure_decoded(ByteView input) {
  if (decoded_) return;
  source_ = decode_image(input);
  decoded_ = true;
  // Restored checkpoints already carry completed rows; a fresh task starts
  // with the header consumed.
  if (consumed_ < 12) consumed_ = 12;
  rows_done_ = static_cast<std::uint32_t>(
      source_.width ? output_rows_.size() / source_.width : 0);
}

std::size_t BlurTask::step(ByteView input, std::size_t budget) {
  ensure_decoded(input);
  const std::uint64_t before = consumed_;
  if (rows_done_ >= source_.height || source_.width == 0) {
    consumed_ = input.size();
    return static_cast<std::size_t>(consumed_ - before);
  }
  // At least one row per step so progress is guaranteed.
  const std::uint32_t rows_budget =
      std::max<std::uint32_t>(1, static_cast<std::uint32_t>(budget / source_.width));
  const std::uint32_t last = std::min(source_.height, rows_done_ + rows_budget);
  output_rows_.resize(static_cast<std::size_t>(last) * source_.width);
  for (std::uint32_t y = rows_done_; y < last; ++y) {
    blur_row(source_, y, output_rows_.data() + static_cast<std::size_t>(y) * source_.width);
  }
  rows_done_ = last;
  consumed_ = rows_done_ >= source_.height
                  ? input.size()
                  : 12 + static_cast<std::uint64_t>(rows_done_) * source_.width;
  return static_cast<std::size_t>(consumed_ - before);
}

Checkpoint BlurTask::checkpoint() const {
  BufferWriter w;
  w.write_u32(source_.width);  // so partial_result works before re-decoding
  w.write_u32(rows_done_);
  w.write_bytes(output_rows_);
  return Checkpoint{consumed_, w.take()};
}

void BlurTask::restore(const Checkpoint& cp) {
  BufferReader r(cp.state);
  source_ = Image{};
  source_.width = r.read_u32();
  rows_done_ = r.read_u32();
  output_rows_ = r.read_bytes();
  consumed_ = cp.bytes_processed;
  decoded_ = false;  // re-decode the source pixels on the next step
}

Bytes BlurTask::partial_result() const {
  Image partial;
  partial.width = source_.width;
  partial.height = rows_done_;
  partial.pixels = output_rows_;
  return encode_image(partial);
}

const std::string& BlurFactory::name() const {
  static const std::string kName = "photo-blur";
  return kName;
}

std::unique_ptr<Task> BlurFactory::create() const { return std::make_unique<BlurTask>(); }

Bytes BlurFactory::aggregate(const std::vector<Bytes>& partials) const {
  if (partials.size() != 1) {
    throw std::invalid_argument("photo-blur is atomic: expected exactly one partial result");
  }
  return partials.front();
}

}  // namespace cwc::tasks
