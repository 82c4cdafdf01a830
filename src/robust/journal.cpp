#include "robust/journal.hpp"

#include <unistd.h>

#include <cctype>
#include <cstdlib>
#include <stdexcept>

namespace emc::robust {

std::string exact_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double parse_exact(const obs::Json& j) {
  if (!j.is_string()) return j.as_double();
  const std::string& s = j.as_string();
  // strtod skips leading whitespace and stops at the first character it
  // cannot use; exact_double writes neither, so only a full match is valid.
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (s.empty() || std::isspace(static_cast<unsigned char>(s[0])) ||
      end != s.c_str() + s.size())
    throw std::invalid_argument("parse_exact: not a number: \"" + s + "\"");
  return v;
}

std::string dump_line(const obs::Json& j) {
  std::string out = j.dump(0);
  std::string line;
  line.reserve(out.size());
  for (char c : out)
    if (c != '\n') line.push_back(c);
  return line;
}

JournalWriter::JournalWriter(const std::string& path) {
  // A journal killed mid-append ends in a partial line. Appending straight
  // after it would weld that fragment onto the next entry, turning a
  // droppable tail into corrupt-interior poison for the NEXT resume. The
  // fragment's corner was never acknowledged (load_journal drops it), so
  // it is dead weight: cut the file back to its last complete line before
  // appending. Every complete entry ends in '\n' (see append), so the
  // fragment is exactly the bytes past the final newline.
  if (std::FILE* probe = std::fopen(path.c_str(), "rb")) {
    std::fseek(probe, 0, SEEK_END);
    long end = std::ftell(probe);
    long keep = 0;
    for (long at = end - 1; at >= 0; --at) {
      std::fseek(probe, at, SEEK_SET);
      if (std::fgetc(probe) == '\n') {
        keep = at + 1;
        break;
      }
    }
    std::fclose(probe);
    if (keep < end) (void)truncate(path.c_str(), static_cast<off_t>(keep));
  }
  f_ = std::fopen(path.c_str(), "a");
}

JournalWriter::~JournalWriter() {
  if (f_) std::fclose(f_);
}

void JournalWriter::append(const obs::Json& entry) {
  if (!f_) return;
  const std::string line = dump_line(entry);
  std::lock_guard<std::mutex> lk(mu_);
  std::fwrite(line.data(), 1, line.size(), f_);
  std::fputc('\n', f_);
  std::fflush(f_);
}

std::vector<obs::Json> load_journal(const std::string& path) {
  std::vector<obs::Json> entries;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return entries;  // nothing to resume
  std::string text;
  char buf[4096];
  for (;;) {
    const std::size_t got = std::fread(buf, 1, sizeof buf, f);
    text.append(buf, got);
    if (got < sizeof buf) break;
  }
  std::fclose(f);

  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    const bool final_line = nl == std::string::npos;
    const std::string_view line(text.data() + pos,
                                (final_line ? text.size() : nl) - pos);
    pos = final_line ? text.size() : nl + 1;
    if (line.empty()) continue;
    try {
      entries.push_back(obs::Json::parse(line));
    } catch (const obs::JsonParseError&) {
      // A line the writer never finished: only tolerable at the tail.
      const bool tail = pos >= text.size();
      if (!tail)
        throw std::runtime_error("load_journal: corrupt interior line in " + path);
      break;
    }
  }
  return entries;
}

}  // namespace emc::robust
