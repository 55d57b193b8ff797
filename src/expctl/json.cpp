#include "expctl/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>

namespace drowsy::expctl {

// --- accessors ---------------------------------------------------------------

const char* Json::type_name() const {
  switch (type_) {
    case Type::Null: return "null";
    case Type::Bool: return "bool";
    case Type::Int:
    case Type::Uint: return "integer";
    case Type::Double: return "number";
    case Type::String: return "string";
    case Type::Array: return "array";
    case Type::Object: return "object";
  }
  return "?";
}

void Json::type_error(const char* want) const {
  throw JsonError(std::string("expected ") + want + ", got " + type_name());
}

bool Json::as_bool() const {
  if (type_ != Type::Bool) type_error("bool");
  return bool_;
}

std::int64_t Json::as_int() const {
  if (type_ == Type::Int) return int_;
  if (type_ == Type::Uint) {
    if (uint_ > static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max())) {
      throw JsonError("integer " + std::to_string(uint_) + " overflows int64");
    }
    return static_cast<std::int64_t>(uint_);
  }
  if (type_ == Type::Double) {
    // Accept doubles that are exactly integral (e.g. a sweep axis written
    // as 8.0); anything fractional is a caller bug worth surfacing.
    if (double_ == std::floor(double_) && std::abs(double_) < 9.007199254740992e15) {
      return static_cast<std::int64_t>(double_);
    }
    throw JsonError("number is not an exact integer");
  }
  type_error("integer");
}

std::uint64_t Json::as_uint() const {
  if (type_ == Type::Uint) return uint_;
  if (type_ == Type::Int) {
    if (int_ < 0) throw JsonError("integer " + std::to_string(int_) + " is negative");
    return static_cast<std::uint64_t>(int_);
  }
  if (type_ == Type::Double) {
    if (double_ >= 0.0 && double_ == std::floor(double_) &&
        double_ < 9.007199254740992e15) {
      return static_cast<std::uint64_t>(double_);
    }
    throw JsonError("number is not an exact non-negative integer");
  }
  type_error("integer");
}

double Json::as_double() const {
  switch (type_) {
    case Type::Int: return static_cast<double>(int_);
    case Type::Uint: return static_cast<double>(uint_);
    case Type::Double: return double_;
    default: type_error("number");
  }
}

const std::string& Json::as_string() const {
  if (type_ != Type::String) type_error("string");
  return string_;
}

std::size_t Json::size() const {
  if (type_ == Type::Array) return array_.size();
  if (type_ == Type::Object) return object_.size();
  type_error("array or object");
}

const Json& Json::at(std::size_t index) const {
  if (type_ != Type::Array) type_error("array");
  if (index >= array_.size()) {
    throw JsonError("array index " + std::to_string(index) + " out of range (size " +
                    std::to_string(array_.size()) + ")");
  }
  return array_[index];
}

void Json::push_back(Json value) {
  if (type_ == Type::Null) type_ = Type::Array;
  if (type_ != Type::Array) type_error("array");
  array_.push_back(std::move(value));
}

const std::vector<Json>& Json::elements() const {
  if (type_ != Type::Array) type_error("array");
  return array_;
}

const Json* Json::find(const std::string& key) const {
  if (type_ != Type::Object) type_error("object");
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Json& Json::at(const std::string& key) const {
  const Json* v = find(key);
  if (v == nullptr) throw JsonError("missing key \"" + key + "\"");
  return *v;
}

void Json::set(std::string key, Json value) {
  if (type_ == Type::Null) type_ = Type::Object;
  if (type_ != Type::Object) type_error("object");
  for (auto& [k, v] : object_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  object_.emplace_back(std::move(key), std::move(value));
}

const std::vector<std::pair<std::string, Json>>& Json::items() const {
  if (type_ != Type::Object) type_error("object");
  return object_;
}

bool Json::operator==(const Json& other) const {
  if (is_number() && other.is_number()) {
    // Integer-vs-integer compares exactly (uint64 seeds exceed double
    // precision); mixed integer/double falls back to numeric equality.
    if (type_ != Type::Double && other.type_ != Type::Double) {
      const bool neg_a = type_ == Type::Int && int_ < 0;
      const bool neg_b = other.type_ == Type::Int && other.int_ < 0;
      if (neg_a != neg_b) return false;
      if (neg_a) return int_ == other.int_;
      const std::uint64_t a = type_ == Type::Int ? static_cast<std::uint64_t>(int_) : uint_;
      const std::uint64_t b =
          other.type_ == Type::Int ? static_cast<std::uint64_t>(other.int_) : other.uint_;
      return a == b;
    }
    return as_double() == other.as_double();
  }
  if (type_ != other.type_) return false;
  switch (type_) {
    case Type::Null: return true;
    case Type::Bool: return bool_ == other.bool_;
    case Type::String: return string_ == other.string_;
    case Type::Array: return array_ == other.array_;
    case Type::Object: return object_ == other.object_;
    default: return true;  // numbers handled above
  }
}

// --- parsing -----------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json run() {
    Json value = parse_value(0);
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return value;
  }

 private:
  static constexpr int kMaxDepth = 200;

  std::string_view text_;
  std::size_t pos_ = 0;

  [[noreturn]] void fail(const std::string& message) const {
    std::size_t line = 1, col = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    throw JsonError(std::to_string(line) + ":" + std::to_string(col) + ": " + message);
  }

  [[nodiscard]] bool done() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[pos_]; }

  void skip_whitespace() {
    while (!done()) {
      const char c = peek();
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  void expect(char c) {
    if (done() || peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  Json parse_value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    skip_whitespace();
    if (done()) fail("unexpected end of input");
    const char c = peek();
    switch (c) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': return Json(parse_string());
      case 't':
        if (consume_literal("true")) return Json(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return Json(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return Json(nullptr);
        fail("invalid literal");
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
        fail(std::string("unexpected character '") + c + "'");
    }
  }

  Json parse_object(int depth) {
    expect('{');
    Json obj = Json::object();
    skip_whitespace();
    if (!done() && peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      skip_whitespace();
      if (done() || peek() != '"') fail("expected object key string");
      std::string key = parse_string();
      if (obj.find(key) != nullptr) fail("duplicate object key \"" + key + "\"");
      skip_whitespace();
      expect(':');
      obj.set(std::move(key), parse_value(depth + 1));
      skip_whitespace();
      if (done()) fail("unterminated object");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return obj;
    }
  }

  Json parse_array(int depth) {
    expect('[');
    Json arr = Json::array();
    skip_whitespace();
    if (!done() && peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.push_back(parse_value(depth + 1));
      skip_whitespace();
      if (done()) fail("unterminated array");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return arr;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (done()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (done()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': append_unicode_escape(out); break;
        default: fail("invalid escape sequence");
      }
    }
  }

  unsigned parse_hex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9') value |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') value |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') value |= static_cast<unsigned>(c - 'A' + 10);
      else fail("invalid hex digit in \\u escape");
    }
    return value;
  }

  void append_unicode_escape(std::string& out) {
    unsigned cp = parse_hex4();
    if (cp >= 0xD800 && cp <= 0xDBFF) {  // high surrogate: expect a low one
      if (!consume_literal("\\u")) fail("unpaired surrogate in \\u escape");
      const unsigned lo = parse_hex4();
      if (lo < 0xDC00 || lo > 0xDFFF) fail("invalid low surrogate in \\u escape");
      cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
    } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
      fail("unpaired surrogate in \\u escape");
    }
    // UTF-8 encode.
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    bool is_integer = true;
    if (!done() && peek() == '-') ++pos_;
    if (done() || peek() < '0' || peek() > '9') fail("invalid number");
    if (peek() == '0') {
      ++pos_;  // JSON forbids leading zeros
    } else {
      while (!done() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    if (!done() && peek() == '.') {
      is_integer = false;
      ++pos_;
      if (done() || peek() < '0' || peek() > '9') fail("digit required after decimal point");
      while (!done() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    if (!done() && (peek() == 'e' || peek() == 'E')) {
      is_integer = false;
      ++pos_;
      if (!done() && (peek() == '+' || peek() == '-')) ++pos_;
      if (done() || peek() < '0' || peek() > '9') fail("digit required in exponent");
      while (!done() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    const char* first = token.data();
    const char* last = token.data() + token.size();
    if (is_integer) {
      if (token[0] == '-') {
        std::int64_t value = 0;
        if (auto [p, ec] = std::from_chars(first, last, value);
            ec == std::errc{} && p == last) {
          return Json(value);
        }
      } else {
        std::uint64_t value = 0;
        if (auto [p, ec] = std::from_chars(first, last, value);
            ec == std::errc{} && p == last) {
          // Small non-negative integers render identically either way;
          // prefer Int so as_int works without a range check.
          if (value <= static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max())) {
            return Json(static_cast<std::int64_t>(value));
          }
          return Json(value);
        }
      }
      // Out of 64-bit range: fall through to double.
    }
    double value = 0.0;
    if (auto [p, ec] = std::from_chars(first, last, value); ec == std::errc{} && p == last) {
      return Json(value);
    }
    fail("invalid number");
  }
};

}  // namespace

Json Json::parse(std::string_view text) { return Parser(text).run(); }

// --- dumping -----------------------------------------------------------------

namespace {

void dump_string(std::string& out, const std::string& s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);  // UTF-8 bytes pass through verbatim
        }
    }
  }
  out.push_back('"');
}

void dump_double(std::string& out, double v) {
  if (!std::isfinite(v)) throw JsonError("NaN/infinity is not representable in JSON");
  // "-0" would parse back as the integer 0 and lose the sign.
  if (v == 0.0 && std::signbit(v)) {
    out += "-0.0";
    return;
  }
  // Shortest round-trip form: "0.02" stays "0.02", which is what makes
  // serialize -> parse -> serialize byte-stable.
  char buf[32];
  auto [p, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc{}) throw JsonError("number formatting failed");
  out.append(buf, p);
}

}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
  const auto newline_indent = [&](int level) {
    if (indent > 0) {
      out.push_back('\n');
      out.append(static_cast<std::size_t>(indent) * static_cast<std::size_t>(level), ' ');
    }
  };
  switch (type_) {
    case Type::Null: out += "null"; return;
    case Type::Bool: out += bool_ ? "true" : "false"; return;
    case Type::Int: out += std::to_string(int_); return;
    case Type::Uint: out += std::to_string(uint_); return;
    case Type::Double: dump_double(out, double_); return;
    case Type::String: dump_string(out, string_); return;
    case Type::Array: {
      if (array_.empty()) {
        out += "[]";
        return;
      }
      out.push_back('[');
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out.push_back(',');
        newline_indent(depth + 1);
        array_[i].dump_to(out, indent, depth + 1);
      }
      newline_indent(depth);
      out.push_back(']');
      return;
    }
    case Type::Object: {
      if (object_.empty()) {
        out += "{}";
        return;
      }
      out.push_back('{');
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i > 0) out.push_back(',');
        newline_indent(depth + 1);
        dump_string(out, object_[i].first);
        out += indent > 0 ? ": " : ":";
        object_[i].second.dump_to(out, indent, depth + 1);
      }
      newline_indent(depth);
      out.push_back('}');
      return;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  if (indent > 0) out.push_back('\n');
  return out;
}

}  // namespace drowsy::expctl
