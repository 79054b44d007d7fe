#include "tasks/line_task.h"

#include <cstring>

namespace cwc::tasks {

std::size_t LineTask::step(ByteView input, std::size_t budget) {
  const std::size_t start = static_cast<std::size_t>(consumed_);
  if (start >= input.size()) return 0;

  const char* const text = reinterpret_cast<const char*>(input.data());
  std::size_t pos = start;
  const std::size_t soft_end = std::min(input.size(), start + budget);
  std::size_t processed_through = start;
  while (pos < input.size()) {
    const void* newline = std::memchr(text + pos, '\n', input.size() - pos);
    const std::size_t eol =
        newline ? static_cast<std::size_t>(static_cast<const char*>(newline) - text) : input.size();
    const std::size_t record_end = eol < input.size() ? eol + 1 : eol;
    if (record_end > soft_end && processed_through > start) {
      break;  // budget exhausted at a record boundary
    }
    process_line(std::string_view(text + pos, eol - pos));
    processed_through = record_end;
    pos = record_end;
    if (processed_through >= soft_end) break;
  }
  consumed_ = processed_through;
  return processed_through - start;
}

Checkpoint LineTask::checkpoint() const {
  BufferWriter w;
  save_state(w);
  return Checkpoint{consumed_, w.take()};
}

void LineTask::restore(const Checkpoint& cp) {
  consumed_ = cp.bytes_processed;
  BufferReader r(cp.state);
  load_state(r);
}

}  // namespace cwc::tasks
