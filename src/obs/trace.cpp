#include "obs/trace.hpp"

#include "obs/json.hpp"
#include "support/strings.hpp"

namespace cftcg::obs {

TraceEvent& TraceEvent::U64(std::string_view key, std::uint64_t value) {
  payload_ += StrFormat(",\"%s\":%llu", JsonEscape(key).c_str(),
                        static_cast<unsigned long long>(value));
  return *this;
}

TraceEvent& TraceEvent::I64(std::string_view key, std::int64_t value) {
  payload_ +=
      StrFormat(",\"%s\":%lld", JsonEscape(key).c_str(), static_cast<long long>(value));
  return *this;
}

TraceEvent& TraceEvent::F64(std::string_view key, double value) {
  payload_ += StrFormat(",\"%s\":%s", JsonEscape(key).c_str(), JsonNumber(value).c_str());
  return *this;
}

TraceEvent& TraceEvent::Str(std::string_view key, std::string_view value) {
  payload_ += StrFormat(",\"%s\":\"%s\"", JsonEscape(key).c_str(), JsonEscape(value).c_str());
  return *this;
}

Result<std::unique_ptr<TraceWriter>> TraceWriter::Open(const std::string& path) {
  // The trace streams into "<path>.partial" and is renamed onto the final
  // name when the writer closes, so the destination path only ever holds a
  // complete trace. A campaign killed outright (SIGKILL, power loss) leaves
  // the .partial behind for inspection instead of a torn file at `path`.
  const std::string partial = path + ".partial";
  std::FILE* file = std::fopen(partial.c_str(), "w");
  if (file == nullptr) {
    return Status::Error(StrFormat("cannot open trace file %s for writing", partial.c_str()));
  }
  auto writer = std::unique_ptr<TraceWriter>(new TraceWriter(file));
  writer->partial_path_ = partial;
  writer->final_path_ = path;
  return writer;
}

TraceWriter::~TraceWriter() {
  if (file_ != nullptr) {
    std::fflush(file_);
    std::fclose(file_);
    if (!final_path_.empty()) std::rename(partial_path_.c_str(), final_path_.c_str());
  }
}

void TraceWriter::Emit(const TraceEvent& event) {
  // Render outside the lock; one locked fwrite/append per event keeps
  // JSONL lines whole under concurrent emitters.
  const std::string line =
      StrFormat("{\"t\":%.6f,\"ev\":\"%s\"%s}\n", clock_.Elapsed(),
                JsonEscape(event.kind_).c_str(), event.payload_.c_str());
  const std::lock_guard<std::mutex> lock(mutex_);
  if (file_ != nullptr) std::fwrite(line.data(), 1, line.size(), file_);
  if (buffer_ != nullptr) buffer_->append(line);
  ++events_;
}

void TraceWriter::Forward(std::string_view lines, std::uint64_t lane) {
  std::string out;
  const double now = clock_.Elapsed();
  const std::string suffix =
      StrFormat(",\"lane\":%llu}\n", static_cast<unsigned long long>(lane));
  std::uint64_t count = 0;
  while (!lines.empty()) {
    const std::size_t eol = lines.find('\n');
    std::string_view line = lines.substr(0, eol);
    lines = eol == std::string_view::npos ? std::string_view() : lines.substr(eol + 1);
    // {"t":<stamp>,<rest>} -> {"t":<now>,<rest>,"lane":<lane>}
    const std::size_t body = line.find(',');
    if (line.substr(0, 5) != "{\"t\":" || body == std::string_view::npos || line.back() != '}') {
      continue;
    }
    out += StrFormat("{\"t\":%.6f", now);
    out.append(line.substr(body, line.size() - body - 1));
    out += suffix;
    ++count;
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  if (file_ != nullptr) std::fwrite(out.data(), 1, out.size(), file_);
  if (buffer_ != nullptr) buffer_->append(out);
  events_ += count;
}

void TraceWriter::Flush() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (file_ != nullptr) std::fflush(file_);
}

std::uint64_t TraceWriter::events_written() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return events_;
}

}  // namespace cftcg::obs
