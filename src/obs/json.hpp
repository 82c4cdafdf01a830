// Insertion-ordered JSON value tree shared by the observability layer
// (RunReport, Chrome trace export, metric snapshots) and the bench JSON
// emitters (bench/json_out.hpp re-exports it). One implementation of
// escaping and number formatting instead of one per consumer, plus a
// parser so exported documents can be read back and validated — the trace
// and report tests round-trip every file they emit.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace emc::obs {

/// Thrown by Json::parse on malformed input; what() carries the byte
/// offset of the failure.
class JsonParseError : public std::runtime_error {
 public:
  JsonParseError(const std::string& what, std::size_t offset)
      : std::runtime_error(what + " at offset " + std::to_string(offset)),
        offset_(offset) {}
  std::size_t offset() const { return offset_; }

 private:
  std::size_t offset_;
};

class Json {
 public:
  enum class Kind { kNull, kObject, kArray, kString, kNumber, kInteger, kBool };

  Json() : kind_(Kind::kNull) {}

  static Json null() { return Json(Kind::kNull); }
  static Json object() { return Json(Kind::kObject); }
  static Json array() { return Json(Kind::kArray); }
  static Json string(std::string s) {
    Json j(Kind::kString);
    j.str_ = std::move(s);
    return j;
  }
  static Json number(double v) {
    Json j(Kind::kNumber);
    j.num_ = v;
    return j;
  }
  static Json integer(long v) {
    Json j(Kind::kInteger);
    j.int_ = v;
    return j;
  }
  static Json boolean(bool v) {
    Json j(Kind::kBool);
    j.bool_ = v;
    return j;
  }

  /// Parse a JSON document (objects, arrays, strings with the escapes
  /// dump() emits plus \/, \b, \f, \r and \uXXXX, numbers, booleans,
  /// null). Numbers without '.', 'e' or 'E' that fit a long parse as
  /// kInteger, everything else as kNumber. Throws JsonParseError on
  /// malformed input, trailing garbage or nesting deeper than 512 levels.
  static Json parse(std::string_view text);

  /// Read and parse a file. Throws std::runtime_error when the file
  /// cannot be read, JsonParseError when its contents are malformed.
  static Json parse_file(const std::string& path);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  /// kNumber or kInteger — anything as_double() can read.
  bool is_number() const { return kind_ == Kind::kNumber || kind_ == Kind::kInteger; }

  /// Object field (insertion-ordered). Returns *this for chaining.
  Json& set(std::string key, Json v) {
    require(Kind::kObject, "set");
    fields_.emplace_back(std::move(key), std::move(v));
    return *this;
  }
  /// Array element. Returns *this for chaining.
  Json& push(Json v) {
    require(Kind::kArray, "push");
    items_.push_back(std::move(v));
    return *this;
  }

  /// Access to an existing object field; throws std::logic_error if
  /// absent (use find() for optional fields).
  Json& at(const std::string& key);
  const Json& at(const std::string& key) const;

  /// Pointer to an object field, nullptr when absent (or not an object).
  Json* find(const std::string& key);
  const Json* find(const std::string& key) const;

  /// Array / object element count; 0 for scalars.
  std::size_t size() const {
    return kind_ == Kind::kArray ? items_.size()
           : kind_ == Kind::kObject ? fields_.size()
                                    : 0;
  }

  /// Array element (kArray only; throws std::logic_error / out_of_range).
  const Json& operator[](std::size_t i) const;

  const std::vector<Json>& items() const {
    require(Kind::kArray, "items");
    return items_;
  }
  const std::vector<std::pair<std::string, Json>>& fields() const {
    require(Kind::kObject, "fields");
    return fields_;
  }

  /// Scalar readers; throw std::logic_error on kind mismatch. as_double
  /// accepts kInteger too (a parsed "3" may feed a double consumer).
  double as_double() const;
  long as_integer() const;
  const std::string& as_string() const;
  bool as_bool() const;

  std::string dump(int indent = 2) const {
    std::string out;
    emit(out, indent, 0);
    out.push_back('\n');
    return out;
  }

  /// Serialize to `path`; prints a warning and returns false on failure.
  bool write_file(const std::string& path, int indent = 2) const;

 private:
  explicit Json(Kind k) : kind_(k) {}

  void require(Kind k, const char* op) const {
    if (kind_ != k) throw std::logic_error(std::string("Json: bad ") + op);
  }

  static void escape(std::string& out, const std::string& s);
  void emit(std::string& out, int indent, int depth) const;

  Kind kind_;
  std::string str_;
  double num_ = 0.0;
  long int_ = 0;
  bool bool_ = false;
  std::vector<std::pair<std::string, Json>> fields_;
  std::vector<Json> items_;
};

}  // namespace emc::obs
