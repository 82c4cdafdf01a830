#include "obs/json.hpp"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace emc::obs {

Json& Json::at(const std::string& key) {
  require(Kind::kObject, "at");
  for (auto& [k, v] : fields_)
    if (k == key) return v;
  throw std::logic_error("Json: no field " + key);
}

const Json& Json::at(const std::string& key) const {
  require(Kind::kObject, "at");
  for (const auto& [k, v] : fields_)
    if (k == key) return v;
  throw std::logic_error("Json: no field " + key);
}

Json* Json::find(const std::string& key) {
  if (kind_ != Kind::kObject) return nullptr;
  for (auto& [k, v] : fields_)
    if (k == key) return &v;
  return nullptr;
}

const Json* Json::find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : fields_)
    if (k == key) return &v;
  return nullptr;
}

const Json& Json::operator[](std::size_t i) const {
  require(Kind::kArray, "operator[]");
  return items_.at(i);
}

double Json::as_double() const {
  if (kind_ == Kind::kInteger) return static_cast<double>(int_);
  require(Kind::kNumber, "as_double");
  return num_;
}

long Json::as_integer() const {
  require(Kind::kInteger, "as_integer");
  return int_;
}

const std::string& Json::as_string() const {
  require(Kind::kString, "as_string");
  return str_;
}

bool Json::as_bool() const {
  require(Kind::kBool, "as_bool");
  return bool_;
}

Json Json::parse_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) throw std::runtime_error("obs::Json: cannot read " + path);
  std::string text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) throw std::runtime_error("obs::Json: error reading " + path);
  return parse(text);
}

bool Json::write_file(const std::string& path, int indent) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "obs::Json: cannot write %s\n", path.c_str());
    return false;
  }
  const std::string text = dump(indent);
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  const bool closed = std::fclose(f) == 0;
  if (!ok || !closed) {
    std::fprintf(stderr, "obs::Json: short write to %s\n", path.c_str());
    return false;
  }
  return true;
}

void Json::escape(std::string& out, const std::string& s) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void Json::emit(std::string& out, int indent, int depth) const {
  const std::string pad(static_cast<std::size_t>(indent) * (depth + 1), ' ');
  const std::string close_pad(static_cast<std::size_t>(indent) * depth, ' ');
  char buf[64];
  switch (kind_) {
    case Kind::kNull:
      out += "null";
      return;
    case Kind::kObject: {
      if (fields_.empty()) {
        out += "{}";
        return;
      }
      out += "{\n";
      for (std::size_t i = 0; i < fields_.size(); ++i) {
        out += pad;
        escape(out, fields_[i].first);
        out += ": ";
        fields_[i].second.emit(out, indent, depth + 1);
        if (i + 1 < fields_.size()) out.push_back(',');
        out.push_back('\n');
      }
      out += close_pad + "}";
      return;
    }
    case Kind::kArray: {
      if (items_.empty()) {
        out += "[]";
        return;
      }
      out += "[\n";
      for (std::size_t i = 0; i < items_.size(); ++i) {
        out += pad;
        items_[i].emit(out, indent, depth + 1);
        if (i + 1 < items_.size()) out.push_back(',');
        out.push_back('\n');
      }
      out += close_pad + "]";
      return;
    }
    case Kind::kString:
      escape(out, str_);
      return;
    case Kind::kNumber: {
      // %.9g matches the precision the bench emitters always used;
      // non-finite values have no JSON spelling, so emit null (the reader
      // sees "value unavailable" instead of a syntax error).
      if (num_ != num_ || num_ == std::numeric_limits<double>::infinity() ||
          num_ == -std::numeric_limits<double>::infinity()) {
        out += "null";
        return;
      }
      std::snprintf(buf, sizeof buf, "%.9g", num_);
      out += buf;
      return;
    }
    case Kind::kInteger:
      std::snprintf(buf, sizeof buf, "%ld", int_);
      out += buf;
      return;
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      return;
  }
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : s_(text) {}

  Json run() {
    Json v = value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const { throw JsonParseError(why, pos_); }

  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
                                s_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }

  void expect(char c) {
    if (pos_ >= s_.size() || s_[pos_] != c)
      fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_word(std::string_view w) {
    if (s_.substr(pos_, w.size()) != w) return false;
    pos_ += w.size();
    return true;
  }

  Json value() {
    skip_ws();
    switch (peek()) {
      case '{':
      case '[': {
        // The parser recurses once per level: bound it, or a corrupt file
        // of '[' bytes overflows the stack instead of failing to parse.
        if (++depth_ > kMaxDepth)
          fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
        Json v = peek() == '{' ? object() : array();
        --depth_;
        return v;
      }
      case '"': return Json::string(string_body());
      case 't':
        if (!consume_word("true")) fail("bad literal");
        return Json::boolean(true);
      case 'f':
        if (!consume_word("false")) fail("bad literal");
        return Json::boolean(false);
      case 'n':
        if (!consume_word("null")) fail("bad literal");
        return Json::null();
      default: return number();
    }
  }

  Json object() {
    expect('{');
    Json o = Json::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return o;
    }
    for (;;) {
      skip_ws();
      if (peek() != '"') fail("expected object key");
      std::string key = string_body();
      skip_ws();
      expect(':');
      o.set(std::move(key), value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return o;
    }
  }

  Json array() {
    expect('[');
    Json a = Json::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return a;
    }
    for (;;) {
      a.push(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return a;
    }
  }

  std::string string_body() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= s_.size()) fail("unterminated string");
      char c = s_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) fail("unterminated escape");
      char e = s_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > s_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad hex digit in \\u escape");
          }
          // Minimal UTF-8 encoding; surrogate pairs are passed through as
          // two 3-byte sequences (the dumper never emits them).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: fail("bad escape character");
      }
    }
  }

  Json number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    bool is_int = true;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_int = false;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start || (pos_ == start + 1 && s_[start] == '-')) fail("expected a value");
    const std::string tok(s_.substr(start, pos_ - start));
    errno = 0;
    char* end = nullptr;
    if (is_int) {
      const long v = std::strtol(tok.c_str(), &end, 10);
      if (errno == 0 && end == tok.c_str() + tok.size()) return Json::integer(v);
      errno = 0;  // integer overflow: fall through to double
    }
    const double d = std::strtod(tok.c_str(), &end);
    if (end != tok.c_str() + tok.size()) fail("malformed number");
    return Json::number(d);
  }

  static constexpr int kMaxDepth = 512;

  std::string_view s_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Json Json::parse(std::string_view text) { return Parser(text).run(); }

}  // namespace emc::obs
