#include "util/json.hpp"

#include <charconv>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace speedbal {

namespace {

// The writer goes straight to the stream's buffer: no sentry per token, and
// numbers are formatted by std::to_chars, so the output does not depend on
// the stream's locale. A short write sets badbit, as ostream::write would.

void put(std::ostream& os, char c) {
  std::streambuf* buf = os.rdbuf();
  if (buf == nullptr || std::streambuf::traits_type::eq_int_type(
                            buf->sputc(c), std::streambuf::traits_type::eof()))
    os.setstate(std::ios::badbit);
}

void put(std::ostream& os, std::string_view s) {
  const auto n = static_cast<std::streamsize>(s.size());
  std::streambuf* buf = os.rdbuf();
  if (buf == nullptr || buf->sputn(s.data(), n) != n)
    os.setstate(std::ios::badbit);
}

/// Stream `s` escaped for a JSON string literal without building a
/// temporary: runs of characters that need no escape go out in one write.
void write_escaped(std::ostream& os, std::string_view s) {
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20)
      continue;
    put(os, s.substr(run, i - run));
    run = i + 1;
    switch (c) {
      case '"': put(os, "\\\""); break;
      case '\\': put(os, "\\\\"); break;
      case '\n': put(os, "\\n"); break;
      case '\r': put(os, "\\r"); break;
      case '\t': put(os, "\\t"); break;
      default: {
        constexpr char kHex[] = "0123456789abcdef";
        const char esc[] = {'\\', 'u', '0', '0', kHex[(c >> 4) & 0xf],
                            kHex[c & 0xf]};
        put(os, std::string_view(esc, sizeof(esc)));
      }
    }
  }
  put(os, s.substr(run));
}

}  // namespace

std::string json_escape(std::string_view s) {
  std::ostringstream os;
  write_escaped(os, s);
  return os.str();
}

// --- JsonWriter -----------------------------------------------------------

void JsonWriter::before_value() {
  if (stack_.empty()) return;
  Frame& top = stack_.back();
  if (top.is_object) {
    if (!top.key_pending)
      throw std::logic_error("JsonWriter: value in object without key");
    top.key_pending = false;
    return;
  }
  if (!top.first) put(os_, ',');
  top.first = false;
}

JsonWriter& JsonWriter::begin_object() {
  before_value();
  put(os_, '{');
  stack_.push_back({/*is_object=*/true, /*first=*/true, /*key_pending=*/false});
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  if (stack_.empty() || !stack_.back().is_object)
    throw std::logic_error("JsonWriter: end_object outside object");
  put(os_, '}');
  stack_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  before_value();
  put(os_, '[');
  stack_.push_back({/*is_object=*/false, /*first=*/true, /*key_pending=*/false});
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  if (stack_.empty() || stack_.back().is_object)
    throw std::logic_error("JsonWriter: end_array outside array");
  put(os_, ']');
  stack_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  if (stack_.empty() || !stack_.back().is_object)
    throw std::logic_error("JsonWriter: key outside object");
  Frame& top = stack_.back();
  if (top.key_pending) throw std::logic_error("JsonWriter: duplicate key call");
  put(os_, top.first ? std::string_view("\"") : std::string_view(",\""));
  top.first = false;
  top.key_pending = true;
  write_escaped(os_, k);
  put(os_, "\":");
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  before_value();
  put(os_, '"');
  write_escaped(os_, v);
  put(os_, '"');
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  before_value();
  if (!std::isfinite(v)) {
    put(os_, "null");  // JSON has no NaN/Inf.
    return *this;
  }
  // The text printf("%.12g") gives in the C locale, whatever locale is set.
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v,
                                 std::chars_format::general, 12);
  put(os_, std::string_view(buf, static_cast<std::size_t>(res.ptr - buf)));
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  before_value();
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  put(os_, std::string_view(buf, static_cast<std::size_t>(res.ptr - buf)));
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  before_value();
  put(os_, v ? std::string_view("true") : std::string_view("false"));
  return *this;
}

JsonWriter& JsonWriter::null() {
  before_value();
  put(os_, "null");
  return *this;
}

// --- JsonValue parser -----------------------------------------------------

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("JSON parse error at offset " +
                             std::to_string(pos_) + ": " + why);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') {
      JsonValue v;
      v.type_ = JsonValue::Type::String;
      v.str_ = parse_string();
      return v;
    }
    if (consume_literal("true")) {
      JsonValue v;
      v.type_ = JsonValue::Type::Bool;
      v.bool_ = true;
      return v;
    }
    if (consume_literal("false")) {
      JsonValue v;
      v.type_ = JsonValue::Type::Bool;
      v.bool_ = false;
      return v;
    }
    if (consume_literal("null")) return JsonValue{};
    return parse_number();
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.type_ = JsonValue::Type::Object;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.members_[std::move(key)] = parse_value();
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.type_ = JsonValue::Type::Array;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.items_.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // Exporters only emit \u for control characters; decode the BMP
          // subset as UTF-8 without surrogate-pair handling.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  bool at_digit() const {
    return pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9';
  }

  void skip_digits() {
    while (at_digit()) ++pos_;
  }

  /// RFC 8259 number: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (!at_digit()) fail(pos_ == start ? "expected value" : "bad number");
    if (text_[pos_++] != '0') skip_digits();
    const std::size_t int_end = pos_;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (!at_digit()) fail("bad number: no digits after '.'");
      skip_digits();
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      if (!at_digit()) fail("bad number: no digits in exponent");
      skip_digits();
    }
    JsonValue v;
    v.type_ = JsonValue::Type::Number;
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    const auto res = std::from_chars(first, last, v.num_);
    if (res.ec != std::errc{} || res.ptr != last)
      fail("bad number '" + std::string(first, last) + "'");
    // An integer token also parses exactly, so as_int() never goes through
    // the double; out of int64 range it stays unset and as_int() throws.
    if (int_end == pos_) {
      v.integral_ = true;
      v.int_exact_ = std::from_chars(first, last, v.int_).ec == std::errc{};
    }
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

JsonValue JsonValue::parse(std::string_view text) {
  return JsonParser(text).parse_document();
}

bool JsonValue::as_bool() const {
  if (type_ != Type::Bool) throw std::runtime_error("JSON: not a bool");
  return bool_;
}

double JsonValue::as_number() const {
  if (type_ != Type::Number) throw std::runtime_error("JSON: not a number");
  return num_;
}

std::int64_t JsonValue::as_int() const {
  const double d = as_number();
  if (int_exact_) return int_;
  // A fraction or exponent token truncates toward zero when it fits.
  if (!integral_ && d >= -0x1p63 && d < 0x1p63)
    return static_cast<std::int64_t>(d);
  throw std::runtime_error("JSON: number out of int64 range");
}

const std::string& JsonValue::as_string() const {
  if (type_ != Type::String) throw std::runtime_error("JSON: not a string");
  return str_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  if (type_ != Type::Array) throw std::runtime_error("JSON: not an array");
  return items_;
}

const std::map<std::string, JsonValue>& JsonValue::members() const {
  if (type_ != Type::Object) throw std::runtime_error("JSON: not an object");
  return members_;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  const auto& m = members();
  const auto it = m.find(std::string(key));
  return it == m.end() ? nullptr : &it->second;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* v = find(key);
  if (v == nullptr)
    throw std::runtime_error("JSON: missing key '" + std::string(key) + "'");
  return *v;
}

}  // namespace speedbal
