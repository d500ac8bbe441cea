#include "gammaflow/common/json.hpp"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>

namespace gammaflow {

namespace {

const char* kind_name(std::size_t index) noexcept {
  switch (index) {
    case 0: return "null";
    case 1: return "bool";
    case 2: return "int";
    case 3: return "real";
    case 4: return "string";
    case 5: return "array";
    default: return "object";
  }
}

[[noreturn]] void kind_error(const char* want, std::size_t got) {
  throw WireError(std::string("expected ") + want + ", got " +
                  kind_name(got));
}

/// Recursive-descent parser over the text; positions reported on error.
/// Recursion is bounded by kMaxJsonDepth.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse() {
    Json v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing input after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw WireError(why + " at offset " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool accept(char c) {
    if (pos_ < text_.size() && peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(const char* word) {
    const std::size_t n = std::char_traits<char>::length(word);
    if (text_.compare(pos_, n, word) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  Json value() {
    const char c = peek();
    if (c == '{' || c == '[') {
      if (++depth_ > kMaxJsonDepth) {
        fail("nesting deeper than " + std::to_string(kMaxJsonDepth));
      }
      Json v = c == '{' ? object() : array();
      --depth_;
      return v;
    }
    if (c == '"') return Json(string());
    if (c == 't') {
      if (literal("true")) return Json(true);
      fail("bad literal");
    }
    if (c == 'f') {
      if (literal("false")) return Json(false);
      fail("bad literal");
    }
    if (c == 'n') {
      if (literal("null")) return Json(nullptr);
      fail("bad literal");
    }
    return number();
  }

  Json object() {
    expect('{');
    JsonObj obj;
    if (accept('}')) return Json(std::move(obj));
    while (true) {
      std::string key = string();
      expect(':');
      obj.insert_or_assign(std::move(key), value());
      if (accept('}')) return Json(std::move(obj));
      expect(',');
    }
  }

  Json array() {
    expect('[');
    JsonArr arr;
    if (accept(']')) return Json(std::move(arr));
    while (true) {
      arr.push_back(value());
      if (accept(']')) return Json(std::move(arr));
      expect(',');
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4U;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u escape");
            }
          }
          // Code points above ASCII are written out as UTF-8 (surrogate
          // pairs are not combined; nothing gammaflow writes needs them).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0U | (code >> 6U)));
            out.push_back(static_cast<char>(0x80U | (code & 0x3FU)));
          } else {
            out.push_back(static_cast<char>(0xE0U | (code >> 12U)));
            out.push_back(static_cast<char>(0x80U | ((code >> 6U) & 0x3FU)));
            out.push_back(static_cast<char>(0x80U | (code & 0x3FU)));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  Json number() {
    skip_ws();
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    bool integral = true;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '-' || c == '+') {
        integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected a value");
    const std::string tok(text_.substr(start, pos_ - start));
    errno = 0;
    char* end = nullptr;
    if (integral) {
      const long long n = std::strtoll(tok.c_str(), &end, 10);
      if (end != tok.c_str() + tok.size() || errno == ERANGE) {
        fail("bad integer '" + tok + "'");
      }
      return Json(static_cast<std::int64_t>(n));
    }
    const double d = std::strtod(tok.c_str(), &end);
    if (end != tok.c_str() + tok.size()) fail("bad number '" + tok + "'");
    return Json(d);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  // open arrays/objects around pos_
};

}  // namespace

bool Json::as_bool() const {
  if (!is_bool()) kind_error("bool", v_.index());
  return std::get<bool>(v_);
}

std::int64_t Json::as_int() const {
  if (!is_int()) kind_error("int", v_.index());
  return std::get<std::int64_t>(v_);
}

double Json::as_num() const {
  if (is_int()) return static_cast<double>(std::get<std::int64_t>(v_));
  if (is_real()) return std::get<double>(v_);
  kind_error("number", v_.index());
}

const std::string& Json::as_str() const {
  if (!is_str()) kind_error("string", v_.index());
  return std::get<std::string>(v_);
}

const JsonArr& Json::as_arr() const {
  if (!is_arr()) kind_error("array", v_.index());
  return std::get<JsonArr>(v_);
}

const JsonObj& Json::as_obj() const {
  if (!is_obj()) kind_error("object", v_.index());
  return std::get<JsonObj>(v_);
}

const Json* Json::get(const std::string& key) const noexcept {
  if (!is_obj()) return nullptr;
  const JsonObj& obj = std::get<JsonObj>(v_);
  const auto it = obj.find(key);
  return it == obj.end() ? nullptr : &it->second;
}

std::string Json::str_or(const std::string& key, std::string fallback) const {
  const Json* f = get(key);
  return f == nullptr ? std::move(fallback) : f->as_str();
}

std::int64_t Json::int_or(const std::string& key, std::int64_t fallback) const {
  const Json* f = get(key);
  return f == nullptr ? fallback : f->as_int();
}

double Json::num_or(const std::string& key, double fallback) const {
  const Json* f = get(key);
  return f == nullptr ? fallback : f->as_num();
}

bool Json::bool_or(const std::string& key, bool fallback) const {
  const Json* f = get(key);
  return f == nullptr ? fallback : f->as_bool();
}

std::string Json::to_string() const {
  std::string out;
  append_json(out, *this);
  return out;
}

Json parse_json(std::string_view text) { return Parser(text).parse(); }

std::string json_quote(std::string_view s) {
  std::string out;
  append_json_string(out, s);
  return out;
}

void append_json_string(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out.reserve(out.size() + s.size() + 2);
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        const auto byte = static_cast<unsigned char>(c);
        if (byte < 0x20) {
          const char esc[] = {'\\', 'u', '0', '0', kHex[byte >> 4U],
                              kHex[byte & 0xFU]};
          out.append(esc, sizeof(esc));
        } else {
          out.push_back(c);
        }
      }
    }
  }
  out.push_back('"');
}

void append_json_int(std::string& out, std::int64_t n) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof(buf), n);
  out.append(buf, res.ptr);
}

void append_json_real(std::string& out, double d) {
  char buf[32];
  const int n = std::snprintf(buf, sizeof(buf), "%.17g", d);
  out.append(buf, static_cast<std::size_t>(n));
}

void append_json(std::string& out, const Json& value) {
  if (value.is_null()) {
    out += "null";
  } else if (value.is_bool()) {
    out += value.as_bool() ? "true" : "false";
  } else if (value.is_int()) {
    append_json_int(out, value.as_int());
  } else if (value.is_real()) {
    append_json_real(out, value.as_num());
  } else if (value.is_str()) {
    append_json_string(out, value.as_str());
  } else if (value.is_arr()) {
    out.push_back('[');
    bool first = true;
    for (const Json& item : value.as_arr()) {
      if (!first) out.push_back(',');
      first = false;
      append_json(out, item);
    }
    out.push_back(']');
  } else {
    out.push_back('{');
    bool first = true;
    for (const auto& [key, item] : value.as_obj()) {
      if (!first) out.push_back(',');
      first = false;
      append_json_string(out, key);
      out.push_back(':');
      append_json(out, item);
    }
    out.push_back('}');
  }
}

}  // namespace gammaflow
