#include "util/json.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "util/check.h"

namespace sitam {

void JsonWriter::before_value(bool is_key) {
  SITAM_CHECK_MSG(!done_, "JsonWriter: document already complete");
  if (is_key) {
    SITAM_CHECK_MSG(!scopes_.empty() && scopes_.back() == Scope::kObject,
                    "JsonWriter: key outside of object");
    SITAM_CHECK_MSG(!expecting_value_, "JsonWriter: key after key");
  } else {
    if (!scopes_.empty() && scopes_.back() == Scope::kObject) {
      SITAM_CHECK_MSG(expecting_value_,
                      "JsonWriter: value without key inside object");
    }
  }
  if (needs_comma_ && !expecting_value_) out_ += ',';
}

void JsonWriter::append_escaped(std::string_view text) {
  out_ += '"';
  for (const char ch : text) {
    switch (ch) {
      case '"':
        out_ += "\\\"";
        break;
      case '\\':
        out_ += "\\\\";
        break;
      case '\n':
        out_ += "\\n";
        break;
      case '\r':
        out_ += "\\r";
        break;
      case '\t':
        out_ += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          out_ += buf;
        } else {
          out_ += ch;
        }
    }
  }
  out_ += '"';
}

JsonWriter& JsonWriter::begin_object() {
  before_value(false);
  out_ += '{';
  scopes_.push_back(Scope::kObject);
  needs_comma_ = false;
  expecting_value_ = false;
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  SITAM_CHECK_MSG(!scopes_.empty() && scopes_.back() == Scope::kObject,
                  "JsonWriter: end_object without open object");
  SITAM_CHECK_MSG(!expecting_value_, "JsonWriter: dangling key");
  out_ += '}';
  scopes_.pop_back();
  needs_comma_ = true;
  if (scopes_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  before_value(false);
  out_ += '[';
  scopes_.push_back(Scope::kArray);
  needs_comma_ = false;
  expecting_value_ = false;
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  SITAM_CHECK_MSG(!scopes_.empty() && scopes_.back() == Scope::kArray,
                  "JsonWriter: end_array without open array");
  out_ += ']';
  scopes_.pop_back();
  needs_comma_ = true;
  if (scopes_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  before_value(true);
  append_escaped(name);
  out_ += ':';
  expecting_value_ = true;
  needs_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view text) {
  before_value(false);
  append_escaped(text);
  expecting_value_ = false;
  needs_comma_ = true;
  if (scopes_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t number) {
  before_value(false);
  out_ += std::to_string(number);
  expecting_value_ = false;
  needs_comma_ = true;
  if (scopes_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t number) {
  before_value(false);
  out_ += std::to_string(number);
  expecting_value_ = false;
  needs_comma_ = true;
  if (scopes_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(double number) {
  before_value(false);
  if (std::isfinite(number)) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.10g", number);
    out_ += buf;
  } else {
    out_ += "null";  // JSON has no NaN/Inf
  }
  expecting_value_ = false;
  needs_comma_ = true;
  if (scopes_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(bool flag) {
  before_value(false);
  out_ += flag ? "true" : "false";
  expecting_value_ = false;
  needs_comma_ = true;
  if (scopes_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::null() {
  before_value(false);
  out_ += "null";
  expecting_value_ = false;
  needs_comma_ = true;
  if (scopes_.empty()) done_ = true;
  return *this;
}

std::string JsonWriter::str() const {
  SITAM_CHECK_MSG(scopes_.empty() && done_,
                  "JsonWriter: document incomplete");
  return out_;
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

JsonParseError::JsonParseError(const std::string& reason, std::size_t offset)
    : std::runtime_error("json: " + reason + " at offset " +
                         std::to_string(offset)),
      offset_(offset) {}

namespace {

[[noreturn]] void kind_error(const char* wanted) {
  throw JsonParseError(std::string("value is not ") + wanted, 0);
}

/// Strict single-pass parser over a string_view. Every throw names the
/// current byte offset; the cursor never reads past end().
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    skip_whitespace();
    JsonValue value = parse_value(0);
    skip_whitespace();
    if (pos_ != text_.size()) {
      fail("trailing characters after document");
    }
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& reason) const {
    throw JsonParseError(reason, pos_);
  }

  [[nodiscard]] bool at_end() const { return pos_ >= text_.size(); }

  [[nodiscard]] char peek() const {
    if (at_end()) fail("unexpected end of input");
    return text_[pos_];
  }

  char take() {
    const char ch = peek();
    ++pos_;
    return ch;
  }

  void expect(char ch, const char* context) {
    if (at_end() || text_[pos_] != ch) {
      fail(std::string("expected '") + ch + "' " + context);
    }
    ++pos_;
  }

  void skip_whitespace() {
    while (!at_end()) {
      const char ch = text_[pos_];
      if (ch != ' ' && ch != '\t' && ch != '\n' && ch != '\r') break;
      ++pos_;
    }
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  JsonValue parse_value(std::size_t depth) {
    if (depth > kJsonMaxDepth) fail("document nested too deeply");
    skip_whitespace();
    const char ch = peek();
    switch (ch) {
      case '{':
        return parse_object(depth);
      case '[':
        return parse_array(depth);
      case '"':
        return JsonValue::make_string(parse_string());
      case 't':
        if (consume_literal("true")) return JsonValue::make_bool(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return JsonValue::make_bool(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return JsonValue::make_null();
        fail("invalid literal");
      default:
        if (ch == '-' || (ch >= '0' && ch <= '9')) return parse_number();
        fail("unexpected character");
    }
  }

  JsonValue parse_object(std::size_t depth) {
    expect('{', "to open object");
    std::vector<JsonValue::Member> members;
    skip_whitespace();
    if (!at_end() && text_[pos_] == '}') {
      ++pos_;
      return JsonValue::make_object(std::move(members));
    }
    while (true) {
      skip_whitespace();
      if (at_end() || text_[pos_] != '"') fail("expected object key string");
      std::string key = parse_string();
      for (const JsonValue::Member& member : members) {
        if (member.first == key) fail("duplicate object key \"" + key + '"');
      }
      skip_whitespace();
      expect(':', "after object key");
      members.emplace_back(std::move(key), parse_value(depth + 1));
      skip_whitespace();
      const char next = take();
      if (next == '}') break;
      if (next != ',') {
        --pos_;
        fail("expected ',' or '}' in object");
      }
    }
    return JsonValue::make_object(std::move(members));
  }

  JsonValue parse_array(std::size_t depth) {
    expect('[', "to open array");
    std::vector<JsonValue> items;
    skip_whitespace();
    if (!at_end() && text_[pos_] == ']') {
      ++pos_;
      return JsonValue::make_array(std::move(items));
    }
    while (true) {
      items.push_back(parse_value(depth + 1));
      skip_whitespace();
      const char next = take();
      if (next == ']') break;
      if (next != ',') {
        --pos_;
        fail("expected ',' or ']' in array");
      }
    }
    return JsonValue::make_array(std::move(items));
  }

  /// Appends the UTF-8 encoding of `code_point` to `out`.
  static void append_utf8(std::string& out, std::uint32_t code_point) {
    if (code_point < 0x80) {
      out += static_cast<char>(code_point);
    } else if (code_point < 0x800) {
      out += static_cast<char>(0xC0 | (code_point >> 6));
      out += static_cast<char>(0x80 | (code_point & 0x3F));
    } else if (code_point < 0x10000) {
      out += static_cast<char>(0xE0 | (code_point >> 12));
      out += static_cast<char>(0x80 | ((code_point >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code_point & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (code_point >> 18));
      out += static_cast<char>(0x80 | ((code_point >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((code_point >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code_point & 0x3F));
    }
  }

  std::uint32_t parse_hex4() {
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      const char ch = take();
      value <<= 4;
      if (ch >= '0' && ch <= '9') {
        value |= static_cast<std::uint32_t>(ch - '0');
      } else if (ch >= 'a' && ch <= 'f') {
        value |= static_cast<std::uint32_t>(ch - 'a' + 10);
      } else if (ch >= 'A' && ch <= 'F') {
        value |= static_cast<std::uint32_t>(ch - 'A' + 10);
      } else {
        --pos_;
        fail("invalid \\u escape digit");
      }
    }
    return value;
  }

  /// Validates one UTF-8 sequence starting at pos_ (whose lead byte is
  /// >= 0x80) and appends it to `out`. Rejects overlong encodings,
  /// surrogates and code points above U+10FFFF.
  void consume_utf8_sequence(std::string& out) {
    const auto lead = static_cast<unsigned char>(text_[pos_]);
    int continuation = 0;
    std::uint32_t code_point = 0;
    std::uint32_t min_value = 0;
    if ((lead & 0xE0) == 0xC0) {
      continuation = 1;
      code_point = lead & 0x1FU;
      min_value = 0x80;
    } else if ((lead & 0xF0) == 0xE0) {
      continuation = 2;
      code_point = lead & 0x0FU;
      min_value = 0x800;
    } else if ((lead & 0xF8) == 0xF0) {
      continuation = 3;
      code_point = lead & 0x07U;
      min_value = 0x10000;
    } else {
      fail("invalid UTF-8 lead byte in string");
    }
    if (pos_ + static_cast<std::size_t>(continuation) >= text_.size()) {
      fail("truncated UTF-8 sequence in string");
    }
    for (int i = 1; i <= continuation; ++i) {
      const auto byte = static_cast<unsigned char>(text_[pos_ + static_cast<std::size_t>(i)]);
      if ((byte & 0xC0) != 0x80) fail("invalid UTF-8 continuation byte");
      code_point = (code_point << 6) | (byte & 0x3FU);
    }
    if (code_point < min_value) fail("overlong UTF-8 encoding");
    if (code_point >= 0xD800 && code_point <= 0xDFFF) {
      fail("UTF-8 encoded surrogate in string");
    }
    if (code_point > 0x10FFFF) fail("UTF-8 code point out of range");
    out.append(text_.substr(pos_, 1 + static_cast<std::size_t>(continuation)));
    pos_ += 1 + static_cast<std::size_t>(continuation);
  }

  std::string parse_string() {
    expect('"', "to open string");
    std::string out;
    while (true) {
      if (at_end()) fail("unterminated string");
      const char ch = text_[pos_];
      if (ch == '"') {
        ++pos_;
        return out;
      }
      if (ch == '\\') {
        ++pos_;
        const char escape = take();
        switch (escape) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            std::uint32_t code_point = parse_hex4();
            if (code_point >= 0xD800 && code_point <= 0xDBFF) {
              // High surrogate: a low surrogate escape must follow.
              if (at_end() || take() != '\\' || at_end() || take() != 'u') {
                fail("unpaired high surrogate");
              }
              const std::uint32_t low = parse_hex4();
              if (low < 0xDC00 || low > 0xDFFF) {
                fail("invalid low surrogate");
              }
              code_point = 0x10000 + ((code_point - 0xD800) << 10) +
                           (low - 0xDC00);
            } else if (code_point >= 0xDC00 && code_point <= 0xDFFF) {
              fail("unpaired low surrogate");
            }
            append_utf8(out, code_point);
            break;
          }
          default:
            --pos_;
            fail("invalid escape character");
        }
        continue;
      }
      const auto byte = static_cast<unsigned char>(ch);
      if (byte < 0x20) fail("unescaped control character in string");
      if (byte < 0x80) {
        out += ch;
        ++pos_;
        continue;
      }
      consume_utf8_sequence(out);
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (!at_end() && text_[pos_] == '-') ++pos_;
    if (at_end() || text_[pos_] < '0' || text_[pos_] > '9') {
      fail("invalid number");
    }
    if (text_[pos_] == '0') {
      ++pos_;
    } else {
      while (!at_end() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    }
    bool integral = true;
    if (!at_end() && text_[pos_] == '.') {
      integral = false;
      ++pos_;
      if (at_end() || text_[pos_] < '0' || text_[pos_] > '9') {
        fail("digits required after decimal point");
      }
      while (!at_end() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    }
    if (!at_end() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (!at_end() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (at_end() || text_[pos_] < '0' || text_[pos_] > '9') {
        fail("digits required in exponent");
      }
      while (!at_end() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    }
    const std::string token(text_.substr(start, pos_ - start));
    if (integral && token[0] != '-') {
      errno = 0;
      char* end = nullptr;
      const unsigned long long parsed =
          std::strtoull(token.c_str(), &end, 10);
      if (errno == ERANGE || end != token.c_str() + token.size()) {
        fail("integer out of range");
      }
      return JsonValue::make_uint64(static_cast<std::uint64_t>(parsed));
    }
    if (integral) {
      errno = 0;
      char* end = nullptr;
      const long long parsed = std::strtoll(token.c_str(), &end, 10);
      if (errno == ERANGE || end != token.c_str() + token.size()) {
        fail("integer out of range");
      }
      return JsonValue::make_integer(static_cast<std::int64_t>(parsed));
    }
    errno = 0;
    char* end = nullptr;
    const double parsed = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || !std::isfinite(parsed)) {
      fail("number out of range");
    }
    return JsonValue::make_double(parsed);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

bool JsonValue::as_bool() const {
  if (kind_ != Kind::kBool) kind_error("a bool");
  return flag_;
}

std::int64_t JsonValue::as_int() const {
  if (!is_integer()) kind_error("an integer");
  return int_;
}

std::uint64_t JsonValue::as_uint64() const {
  if (!is_uint64()) kind_error("a non-negative integer");
  return integer_ ? static_cast<std::uint64_t>(int_) : uint_;
}

double JsonValue::as_double() const {
  if (kind_ != Kind::kNumber) kind_error("a number");
  if (integer_) return static_cast<double>(int_);
  return big_unsigned_ ? static_cast<double>(uint_) : number_;
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::kString) kind_error("a string");
  return text_;
}

const std::vector<JsonValue>& JsonValue::as_array() const {
  if (kind_ != Kind::kArray) kind_error("an array");
  return *items_;
}

const std::vector<JsonValue::Member>& JsonValue::as_object() const {
  if (kind_ != Kind::kObject) kind_error("an object");
  return *members_;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  for (const Member& member : as_object()) {
    if (member.first == key) return &member.second;
  }
  return nullptr;
}

JsonValue JsonValue::make_bool(bool flag) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.flag_ = flag;
  return v;
}

JsonValue JsonValue::make_integer(std::int64_t number) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.integer_ = true;
  v.int_ = number;
  return v;
}

JsonValue JsonValue::make_uint64(std::uint64_t number) {
  if (number <= static_cast<std::uint64_t>(
                    std::numeric_limits<std::int64_t>::max())) {
    return make_integer(static_cast<std::int64_t>(number));
  }
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.big_unsigned_ = true;
  v.uint_ = number;
  return v;
}

JsonValue JsonValue::make_double(double number) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = number;
  return v;
}

JsonValue JsonValue::make_string(std::string text) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.text_ = std::move(text);
  return v;
}

JsonValue JsonValue::make_array(std::vector<JsonValue> items) {
  JsonValue v;
  v.kind_ = Kind::kArray;
  v.items_ = std::make_shared<std::vector<JsonValue>>(std::move(items));
  return v;
}

JsonValue JsonValue::make_object(std::vector<Member> members) {
  JsonValue v;
  v.kind_ = Kind::kObject;
  v.members_ = std::make_shared<std::vector<Member>>(std::move(members));
  return v;
}

namespace {

void dump_value(const JsonValue& value, JsonWriter& json) {
  switch (value.kind()) {
    case JsonValue::Kind::kNull:
      json.null();
      break;
    case JsonValue::Kind::kBool:
      json.value(value.as_bool());
      break;
    case JsonValue::Kind::kNumber:
      if (value.is_integer()) {
        json.value(value.as_int());
      } else if (value.is_uint64()) {
        json.value(value.as_uint64());
      } else {
        json.value(value.as_double());
      }
      break;
    case JsonValue::Kind::kString:
      json.value(value.as_string());
      break;
    case JsonValue::Kind::kArray:
      json.begin_array();
      for (const JsonValue& item : value.as_array()) dump_value(item, json);
      json.end_array();
      break;
    case JsonValue::Kind::kObject:
      json.begin_object();
      for (const JsonValue::Member& member : value.as_object()) {
        json.key(member.first);
        dump_value(member.second, json);
      }
      json.end_object();
      break;
  }
}

}  // namespace

std::string JsonValue::dump() const {
  JsonWriter json;
  dump_value(*this, json);
  return json.str();
}

JsonValue parse_json(std::string_view text) {
  return JsonParser(text).parse_document();
}

}  // namespace sitam
