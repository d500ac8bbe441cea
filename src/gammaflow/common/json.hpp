// The one JSON codec: a minimal value type + parser/writer shared by the
// serve wire protocol (DESIGN §14), the run-journal reader (DESIGN §11) and
// every hand-ordered JSON writer (journals, Chrome traces, viz HTML,
// `--json` reports), which escape strings with json_quote. The writer
// appends to a std::string (append_json and its scalar pieces), so a caller
// that keeps one string can write reply after reply into it.
//
// Scope: objects, arrays, strings, bools, null, and numbers (int64 when the
// literal is integral, double otherwise). \uXXXX escapes decode to UTF-8;
// json_quote escapes '"', '\\' and every control byte, so its output is
// always valid JSON. Nesting is capped at kMaxJsonDepth so hostile input
// ends in a WireError instead of exhausting the stack.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "gammaflow/common/error.hpp"

namespace gammaflow {

/// Malformed JSON (parse errors, nesting past kMaxJsonDepth, type mismatches
/// on access). The server maps it to an {"ok":false,"error":"bad_request"}
/// reply; the journal reader to a std::runtime_error.
class WireError : public Error {
 public:
  explicit WireError(const std::string& what) : Error("WireError: " + what) {}
};

/// Deepest array/object nesting parse_json accepts; one level deeper is a
/// WireError "nesting deeper than 256 at offset N".
inline constexpr std::size_t kMaxJsonDepth = 256;

class Json;
using JsonArr = std::vector<Json>;
using JsonObj = std::map<std::string, Json>;

class Json {
 public:
  Json() noexcept : v_(nullptr) {}
  Json(std::nullptr_t) noexcept : v_(nullptr) {}          // NOLINT
  Json(bool b) noexcept : v_(b) {}                        // NOLINT
  Json(std::int64_t n) noexcept : v_(n) {}                // NOLINT
  Json(int n) noexcept : v_(std::int64_t{n}) {}           // NOLINT
  Json(std::uint64_t n) noexcept                          // NOLINT
      : v_(static_cast<std::int64_t>(n)) {}
  Json(double d) noexcept : v_(d) {}                      // NOLINT
  Json(std::string s) : v_(std::move(s)) {}               // NOLINT
  Json(const char* s) : v_(std::string(s)) {}             // NOLINT
  Json(JsonArr a) : v_(std::move(a)) {}                   // NOLINT
  Json(JsonObj o) : v_(std::move(o)) {}                   // NOLINT

  [[nodiscard]] bool is_null() const noexcept { return v_.index() == 0; }
  [[nodiscard]] bool is_bool() const noexcept { return v_.index() == 1; }
  [[nodiscard]] bool is_int() const noexcept { return v_.index() == 2; }
  [[nodiscard]] bool is_real() const noexcept { return v_.index() == 3; }
  [[nodiscard]] bool is_str() const noexcept { return v_.index() == 4; }
  [[nodiscard]] bool is_arr() const noexcept { return v_.index() == 5; }
  [[nodiscard]] bool is_obj() const noexcept { return v_.index() == 6; }

  /// Checked accessors; WireError on kind mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] std::int64_t as_int() const;
  /// Int or real, widened to double.
  [[nodiscard]] double as_num() const;
  [[nodiscard]] const std::string& as_str() const;
  [[nodiscard]] const JsonArr& as_arr() const;
  [[nodiscard]] const JsonObj& as_obj() const;

  /// Object field lookup; nullptr when absent (or this is not an object).
  [[nodiscard]] const Json* get(const std::string& key) const noexcept;
  /// Typed field lookups with defaults; WireError when the field exists but
  /// has the wrong kind (a silently ignored typo'd value is worse than an
  /// error reply).
  [[nodiscard]] std::string str_or(const std::string& key,
                                   std::string fallback) const;
  [[nodiscard]] std::int64_t int_or(const std::string& key,
                                    std::int64_t fallback) const;
  [[nodiscard]] double num_or(const std::string& key, double fallback) const;
  [[nodiscard]] bool bool_or(const std::string& key, bool fallback) const;

  [[nodiscard]] std::string to_string() const;

 private:
  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string,
               JsonArr, JsonObj>
      v_;
};

/// Parses one JSON value (the whole string; trailing garbage is an error).
/// Throws WireError on malformed input or nesting past kMaxJsonDepth.
[[nodiscard]] Json parse_json(std::string_view text);

/// Appends `value` to `out` as JSON, object keys in map order: the one
/// writer behind Json::to_string. Ints are written exactly, reals as
/// printf's "%.17g" (so NaN and the infinities come out as nan/inf, which
/// parse_json does not read back).
void append_json(std::string& out, const Json& value);
void append_json_int(std::string& out, std::int64_t n);
void append_json_real(std::string& out, double d);
/// Appends `s` quoted and escaped as json_quote does.
void append_json_string(std::string& out, std::string_view s);

/// Escapes + quotes `s` for embedding in hand-built JSON: '"', '\\', \n,
/// \r, \t by name, every other byte below 0x20 as \u00XX.
[[nodiscard]] std::string json_quote(std::string_view s);

}  // namespace gammaflow
