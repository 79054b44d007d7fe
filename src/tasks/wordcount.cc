#include "tasks/wordcount.h"

#include "common/strings.h"

namespace cwc::tasks {

namespace {

/// `to_lower(token) == lower` without the copy; like C-locale tolower it
/// folds only 'A'-'Z'.
bool equals_folded(std::string_view token, std::string_view lower) {
  if (token.size() != lower.size()) return false;
  for (std::size_t i = 0; i < token.size(); ++i) {
    const char c = token[i];
    if ((c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c) != lower[i]) return false;
  }
  return true;
}

}  // namespace

WordCountTask::WordCountTask(std::string target) : target_(to_lower(target)) {}

void WordCountTask::process_line(std::string_view line) {
  for_each_word(line, [this](std::string_view token) {
    if (equals_folded(token, target_)) ++count_;
  });
}

Bytes WordCountTask::partial_result() const {
  BufferWriter w;
  w.write_u64(count_);
  return w.take();
}

void WordCountTask::save_state(BufferWriter& w) const { w.write_u64(count_); }

void WordCountTask::load_state(BufferReader& r) { count_ = r.read_u64(); }

WordCountFactory::WordCountFactory(std::string target)
    : target_(to_lower(target)), name_("word-count:" + target_) {}

std::unique_ptr<Task> WordCountFactory::create() const {
  return std::make_unique<WordCountTask>(target_);
}

Bytes WordCountFactory::aggregate(const std::vector<Bytes>& partials) const {
  std::uint64_t total = 0;
  for (const auto& partial : partials) total += decode(partial);
  BufferWriter w;
  w.write_u64(total);
  return w.take();
}

std::uint64_t WordCountFactory::decode(const Bytes& result) {
  BufferReader r(result);
  return r.read_u64();
}

}  // namespace cwc::tasks
