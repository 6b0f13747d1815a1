// Json — a minimal, dependency-free JSON value: parse + dump.
//
// Just enough JSON for the gateway's wire format and the benchmark's
// reports: null / bool / number / string / array / object, strict
// parsing (trailing garbage, unterminated strings, bad escapes and
// malformed numbers are errors — the HTTP front door must answer 400,
// never guess), and round-trip dumping (integers stay integers; doubles
// print via std::to_chars, the shortest representation that parses back
// to the same value).
//
// Objects preserve insertion order (a vector of pairs, not a map), so
// dumped output keeps the order it was built in. Lookup is linear —
// fine for the handful of keys a request body carries.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace chainnn::net {

class Json;
using JsonArray = std::vector<Json>;
using JsonObject = std::vector<std::pair<std::string, Json>>;

class Json {
 public:
  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(double d) : value_(d) {}
  Json(std::int64_t i) : value_(i) {}
  Json(int i) : value_(static_cast<std::int64_t>(i)) {}
  Json(std::uint64_t u) : value_(static_cast<double>(u)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(JsonArray a) : value_(std::move(a)) {}
  Json(JsonObject o) : value_(std::move(o)) {}

  [[nodiscard]] bool is_null() const {
    return std::holds_alternative<std::nullptr_t>(value_);
  }
  [[nodiscard]] bool is_bool() const {
    return std::holds_alternative<bool>(value_);
  }
  [[nodiscard]] bool is_number() const {
    return std::holds_alternative<double>(value_) ||
           std::holds_alternative<std::int64_t>(value_);
  }
  // An integer lexeme (no '.', no exponent) that fit std::int64_t.
  [[nodiscard]] bool is_integer() const {
    return std::holds_alternative<std::int64_t>(value_);
  }
  [[nodiscard]] bool is_string() const {
    return std::holds_alternative<std::string>(value_);
  }
  [[nodiscard]] bool is_array() const {
    return std::holds_alternative<JsonArray>(value_);
  }
  [[nodiscard]] bool is_object() const {
    return std::holds_alternative<JsonObject>(value_);
  }

  // Accessors assert the type via std::get (std::bad_variant_access on
  // misuse — gateway code always type-checks first).
  [[nodiscard]] bool as_bool() const { return std::get<bool>(value_); }
  [[nodiscard]] double as_double() const {
    if (const auto* i = std::get_if<std::int64_t>(&value_))
      return static_cast<double>(*i);
    return std::get<double>(value_);
  }
  [[nodiscard]] std::int64_t as_int() const {
    if (const auto* d = std::get_if<double>(&value_))
      return static_cast<std::int64_t>(*d);
    return std::get<std::int64_t>(value_);
  }
  [[nodiscard]] const std::string& as_string() const {
    return std::get<std::string>(value_);
  }
  [[nodiscard]] const JsonArray& as_array() const {
    return std::get<JsonArray>(value_);
  }
  [[nodiscard]] JsonArray& as_array() { return std::get<JsonArray>(value_); }
  [[nodiscard]] const JsonObject& as_object() const {
    return std::get<JsonObject>(value_);
  }
  [[nodiscard]] JsonObject& as_object() {
    return std::get<JsonObject>(value_);
  }

  // Object member by key; nullptr when absent (or not an object).
  [[nodiscard]] const Json* find(std::string_view key) const;

  // Strict parse of a complete JSON document. Returns nullopt and fills
  // `error` (position + reason) on any syntax violation, including
  // trailing non-whitespace.
  [[nodiscard]] static std::optional<Json> parse(std::string_view text,
                                                 std::string* error = nullptr);

  // Compact serialization (no whitespace). Numbers round-trip: int64
  // lexemes stay integral, doubles use the shortest form that parses
  // back identically.
  [[nodiscard]] std::string dump() const;

 private:
  void dump_to(std::string& out) const;

  std::variant<std::nullptr_t, bool, double, std::int64_t, std::string,
               JsonArray, JsonObject>
      value_;
};

// Serialize one double the way Json::dump does (shortest round-trip) —
// shared with the bench emitters that stream JSON by hand.
[[nodiscard]] std::string json_number(double value);
// Escape + quote a string for JSON embedding.
[[nodiscard]] std::string json_quote(std::string_view s);

}  // namespace chainnn::net
