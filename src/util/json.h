// Minimal streaming JSON writer and strict recursive-descent parser (no
// external dependencies).
//
// The writer is used by the CLI and benches to emit machine-readable
// results. Handles nesting, comma placement and string escaping; misuse
// (value without key inside an object, unbalanced scopes, ...) throws via
// SITAM_CHECK.
//
// The parser exists for the serve request protocol, so it is strict by
// design: it rejects duplicate object keys, invalid UTF-8, trailing
// garbage, unpaired surrogates and documents nested deeper than
// kJsonMaxDepth with a JsonParseError that names the byte offset —
// malformed network input must become a structured error, never undefined
// behaviour or a silently half-parsed request.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sitam {

class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Emits a key inside an object; must be followed by a value or scope.
  JsonWriter& key(std::string_view name);

  JsonWriter& value(std::string_view text);
  JsonWriter& value(const char* text) { return value(std::string_view(text)); }
  JsonWriter& value(std::int64_t number);
  JsonWriter& value(std::uint64_t number);
  JsonWriter& value(int number) { return value(std::int64_t{number}); }
  JsonWriter& value(double number);
  JsonWriter& value(bool flag);
  JsonWriter& null();

  /// key() + value() in one call.
  template <typename T>
  JsonWriter& kv(std::string_view name, const T& v) {
    key(name);
    return value(v);
  }

  /// Finishes and returns the document; all scopes must be closed.
  [[nodiscard]] std::string str() const;

 private:
  enum class Scope : std::uint8_t { kObject, kArray };

  void before_value(bool is_key);
  void append_escaped(std::string_view text);

  std::string out_;
  std::vector<Scope> scopes_;
  bool needs_comma_ = false;
  bool expecting_value_ = false;  // a key was just written
  bool done_ = false;             // a top-level value was completed
};

/// Parse failure: `what()` carries a human-readable reason plus the byte
/// offset where parsing stopped.
class JsonParseError : public std::runtime_error {
 public:
  JsonParseError(const std::string& reason, std::size_t offset);

  [[nodiscard]] std::size_t offset() const { return offset_; }

 private:
  std::size_t offset_;
};

/// Nesting bound for parsed documents; deeper input throws JsonParseError
/// (a hostile request must not be able to exhaust the parser's stack).
inline constexpr std::size_t kJsonMaxDepth = 64;

/// One parsed JSON value. Objects preserve key order (they are small in
/// every sitam document, so lookup is a linear scan); duplicate keys were
/// already rejected by the parser, making `find` unambiguous.
class JsonValue {
 public:
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };
  using Member = std::pair<std::string, JsonValue>;

  JsonValue() = default;

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_bool() const { return kind_ == Kind::kBool; }
  [[nodiscard]] bool is_number() const { return kind_ == Kind::kNumber; }
  /// True for numbers written without fraction/exponent that fit int64.
  [[nodiscard]] bool is_integer() const {
    return kind_ == Kind::kNumber && integer_;
  }
  /// True for non-negative integers written without fraction/exponent
  /// that fit uint64 — the non-negative is_integer() values plus
  /// 2^63 .. 2^64-1.
  [[nodiscard]] bool is_uint64() const {
    return kind_ == Kind::kNumber && (integer_ ? int_ >= 0 : big_unsigned_);
  }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::kString; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors; each throws JsonParseError (offset 0) on a kind
  /// mismatch so protocol code can funnel schema errors through one path.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] std::int64_t as_int() const;
  [[nodiscard]] std::uint64_t as_uint64() const;
  [[nodiscard]] double as_double() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const std::vector<JsonValue>& as_array() const;
  [[nodiscard]] const std::vector<Member>& as_object() const;

  /// Member lookup on an object; nullptr when absent. Throws on non-objects.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;

  // Construction helpers used by the parser (and by tests that build
  // expected values directly).
  static JsonValue make_null() { return JsonValue(); }
  static JsonValue make_bool(bool flag);
  static JsonValue make_integer(std::int64_t number);
  /// An integer in int64 range becomes make_integer(number).
  static JsonValue make_uint64(std::uint64_t number);
  static JsonValue make_double(double number);
  static JsonValue make_string(std::string text);
  static JsonValue make_array(std::vector<JsonValue> items);
  static JsonValue make_object(std::vector<Member> members);

  /// Canonical re-serialization (same escaping rules as JsonWriter, object
  /// key order preserved). Mainly for tests comparing parsed envelopes.
  [[nodiscard]] std::string dump() const;

 private:
  Kind kind_ = Kind::kNull;
  bool flag_ = false;
  bool integer_ = false;
  bool big_unsigned_ = false;  // integer above INT64_MAX, held in uint_
  std::int64_t int_ = 0;
  std::uint64_t uint_ = 0;
  double number_ = 0.0;
  std::string text_;
  // unique_ptr keeps the recursive value type movable and its empty
  // footprint small; null for non-container kinds.
  std::shared_ptr<std::vector<JsonValue>> items_;
  std::shared_ptr<std::vector<Member>> members_;
};

/// Parses exactly one JSON document; trailing non-whitespace is an error.
/// Throws JsonParseError on any malformed input (syntax, duplicate object
/// key, invalid UTF-8, unpaired surrogate escape, depth > kJsonMaxDepth,
/// out-of-range number).
[[nodiscard]] JsonValue parse_json(std::string_view text);

}  // namespace sitam
