#include "net/json.hpp"

#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace chainnn::net {

const Json* Json::find(std::string_view key) const {
  const auto* obj = std::get_if<JsonObject>(&value_);
  if (!obj) return nullptr;
  for (const auto& [k, v] : *obj)
    if (k == key) return &v;
  return nullptr;
}

namespace {

// Recursive-descent parser over a string_view with an explicit cursor.
// Depth is capped so a hostile deeply-nested body cannot overflow the
// stack of a gateway worker.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<Json> parse(std::string* error) {
    std::optional<Json> value = parse_value(0);
    if (!value) {
      if (error) *error = error_;
      return std::nullopt;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      if (error)
        *error = "trailing characters at offset " + std::to_string(pos_);
      return std::nullopt;
    }
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  std::optional<Json> fail(const std::string& why) {
    error_ = why + " at offset " + std::to_string(pos_);
    return std::nullopt;
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  std::optional<Json> parse_value(int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return parse_object(depth);
      case '[':
        return parse_array(depth);
      case '"': {
        std::string s;
        if (!parse_string(&s)) return std::nullopt;
        return Json(std::move(s));
      }
      case 't':
        if (literal("true")) return Json(true);
        return fail("invalid literal");
      case 'f':
        if (literal("false")) return Json(false);
        return fail("invalid literal");
      case 'n':
        if (literal("null")) return Json(nullptr);
        return fail("invalid literal");
      default:
        return parse_number();
    }
  }

  std::optional<Json> parse_object(int depth) {
    ++pos_;  // '{'
    JsonObject obj;
    skip_ws();
    if (consume('}')) return Json(std::move(obj));
    for (;;) {
      skip_ws();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"')
        return fail("expected object key");
      if (!parse_string(&key)) return std::nullopt;
      skip_ws();
      if (!consume(':')) return fail("expected ':'");
      std::optional<Json> value = parse_value(depth + 1);
      if (!value) return std::nullopt;
      obj.emplace_back(std::move(key), std::move(*value));
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) return Json(std::move(obj));
      return fail("expected ',' or '}'");
    }
  }

  std::optional<Json> parse_array(int depth) {
    ++pos_;  // '['
    JsonArray arr;
    skip_ws();
    if (consume(']')) return Json(std::move(arr));
    for (;;) {
      std::optional<Json> value = parse_value(depth + 1);
      if (!value) return std::nullopt;
      arr.push_back(std::move(*value));
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) return Json(std::move(arr));
      return fail("expected ',' or ']'");
    }
  }

  bool parse_string(std::string* out) {
    ++pos_;  // opening quote
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
        return false;
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            fail("truncated \\u escape");
            return false;
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else {
              fail("invalid \\u escape");
              return false;
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs are passed
          // through as two 3-byte sequences — the gateway never needs
          // astral-plane fidelity, only lossless-enough round-trips).
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          fail("invalid escape");
          return false;
      }
    }
    fail("unterminated string");
    return false;
  }

  std::optional<Json> parse_number() {
    const std::size_t start = pos_;
    if (consume('-')) {
    }
    if (pos_ >= text_.size() ||
        !(text_[pos_] >= '0' && text_[pos_] <= '9'))
      return fail("invalid number");
    // Leading zero must not be followed by more digits (strict JSON).
    if (text_[pos_] == '0' && pos_ + 1 < text_.size() &&
        text_[pos_ + 1] >= '0' && text_[pos_ + 1] <= '9')
      return fail("leading zero in number");
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9')
      ++pos_;
    bool integral = true;
    if (consume('.')) {
      integral = false;
      if (pos_ >= text_.size() ||
          !(text_[pos_] >= '0' && text_[pos_] <= '9'))
        return fail("digits required after '.'");
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9')
        ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      if (pos_ >= text_.size() ||
          !(text_[pos_] >= '0' && text_[pos_] <= '9'))
        return fail("digits required in exponent");
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9')
        ++pos_;
    }
    const std::string_view lexeme = text_.substr(start, pos_ - start);
    if (integral) {
      std::int64_t i = 0;
      const auto [ptr, ec] =
          std::from_chars(lexeme.data(), lexeme.data() + lexeme.size(), i);
      if (ec == std::errc() && ptr == lexeme.data() + lexeme.size())
        return Json(i);
      // Out-of-range integer lexeme: keep it as a double.
    }
    double d = 0.0;
    const auto [ptr, ec] =
        std::from_chars(lexeme.data(), lexeme.data() + lexeme.size(), d);
    if (ec != std::errc() || ptr != lexeme.data() + lexeme.size())
      return fail("invalid number");
    return Json(d);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

std::optional<Json> Json::parse(std::string_view text, std::string* error) {
  return Parser(text).parse(error);
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";  // JSON has no Inf/NaN
  std::array<char, 64> buf;
  const auto [ptr, ec] =
      std::to_chars(buf.data(), buf.data() + buf.size(), value);
  if (ec != std::errc()) return "0";
  return std::string(buf.data(), ptr);
}

std::string json_quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
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
          char esc[8];
          std::snprintf(esc, sizeof(esc), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += esc;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

void Json::dump_to(std::string& out) const {
  if (const auto* b = std::get_if<bool>(&value_)) {
    out += *b ? "true" : "false";
  } else if (std::holds_alternative<std::nullptr_t>(value_)) {
    out += "null";
  } else if (const auto* i = std::get_if<std::int64_t>(&value_)) {
    out += std::to_string(*i);
  } else if (const auto* d = std::get_if<double>(&value_)) {
    out += json_number(*d);
  } else if (const auto* s = std::get_if<std::string>(&value_)) {
    out += json_quote(*s);
  } else if (const auto* a = std::get_if<JsonArray>(&value_)) {
    out.push_back('[');
    for (std::size_t i = 0; i < a->size(); ++i) {
      if (i > 0) out += ", ";
      (*a)[i].dump_to(out);
    }
    out.push_back(']');
  } else {
    const auto& obj = std::get<JsonObject>(value_);
    out.push_back('{');
    for (std::size_t i = 0; i < obj.size(); ++i) {
      if (i > 0) out += ", ";
      out += json_quote(obj[i].first);
      out += ": ";
      obj[i].second.dump_to(out);
    }
    out.push_back('}');
  }
}

std::string Json::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

}  // namespace chainnn::net
