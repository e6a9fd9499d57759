#pragma once
// Minimal JSON parser for the tool's own machine-readable formats: the
// minpower.flow.v1 / minpower.verify.v1 reports, the Chrome trace-event
// files the span tracer exports, and the profile/compare documents built on
// top of them. Supports the full JSON value grammar: objects, arrays,
// strings with escapes (\uXXXX decoded to UTF-8, surrogate pairs paired),
// numbers in negative and exponent form, booleans, null. Practical depth
// limits apply, and it is strict about everything it accepts: bad escapes,
// unpaired surrogates, malformed numbers, and trailing garbage are errors.

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace minpower {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> items;                             // arrays
  std::vector<std::pair<std::string, JsonValue>> members;   // objects, ordered

  const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : members)
      if (k == key) return &v;
    return nullptr;
  }

  const char* kind_name() const {
    switch (kind) {
      case Kind::kNull: return "null";
      case Kind::kBool: return "bool";
      case Kind::kNumber: return "number";
      case Kind::kString: return "string";
      case Kind::kArray: return "array";
      case Kind::kObject: return "object";
    }
    return "?";
  }
};

namespace json_detail {

class Parser {
 public:
  Parser(std::string_view text, std::string* error)
      : text_(text), error_(error) {}

  std::optional<JsonValue> run() {
    JsonValue v;
    if (!parse_value(v, 0)) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) {
      set_error("trailing content after the JSON value");
      return std::nullopt;
    }
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  bool set_error(const std::string& message) {
    if (error_ && error_->empty())
      *error_ = message + " at offset " + std::to_string(pos_);
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  bool consume(char ch, const char* what) {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != ch)
      return set_error(std::string("expected ") + what);
    ++pos_;
    return true;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word)
      return set_error("invalid literal");
    pos_ += word.size();
    return true;
  }

  bool parse_string(std::string& out) {
    if (!consume('"', "'\"'")) return false;
    out.clear();
    while (pos_ < text_.size()) {
      const char ch = text_[pos_++];
      if (ch == '"') return true;
      if (ch == '\\') {
        if (pos_ >= text_.size()) break;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            unsigned cp = 0;
            if (!parse_hex4(cp)) return false;
            if (cp >= 0xDC00 && cp <= 0xDFFF)
              return set_error("unpaired low surrogate in \\u escape");
            if (cp >= 0xD800 && cp <= 0xDBFF) {
              // High surrogate: a \uDC00–\uDFFF low half must follow.
              if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
                  text_[pos_ + 1] != 'u')
                return set_error("unpaired high surrogate in \\u escape");
              pos_ += 2;
              unsigned lo = 0;
              if (!parse_hex4(lo)) return false;
              if (lo < 0xDC00 || lo > 0xDFFF)
                return set_error("unpaired high surrogate in \\u escape");
              cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            }
            append_utf8(out, cp);
            break;
          }
          default:
            return set_error("invalid escape character");
        }
      } else {
        out += ch;
      }
    }
    return set_error("unterminated string");
  }

  bool parse_hex4(unsigned& out) {
    if (pos_ + 4 > text_.size()) return set_error("truncated \\u escape");
    out = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + static_cast<std::size_t>(i)];
      unsigned digit;
      if (c >= '0' && c <= '9') digit = static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') digit = static_cast<unsigned>(c - 'a') + 10;
      else if (c >= 'A' && c <= 'F') digit = static_cast<unsigned>(c - 'A') + 10;
      else return set_error("invalid hex digit in \\u escape");
      out = (out << 4) | digit;
    }
    pos_ += 4;
    return true;
  }

  static void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  bool parse_value(JsonValue& out, int depth) {
    if (depth > kMaxDepth) return set_error("nesting too deep");
    skip_ws();
    if (pos_ >= text_.size()) return set_error("unexpected end of input");
    const char ch = text_[pos_];
    if (ch == '{') return parse_object(out, depth);
    if (ch == '[') return parse_array(out, depth);
    if (ch == '"') {
      out.kind = JsonValue::Kind::kString;
      return parse_string(out.string);
    }
    if (ch == 't') {
      out.kind = JsonValue::Kind::kBool;
      out.boolean = true;
      return literal("true");
    }
    if (ch == 'f') {
      out.kind = JsonValue::Kind::kBool;
      out.boolean = false;
      return literal("false");
    }
    if (ch == 'n') {
      out.kind = JsonValue::Kind::kNull;
      return literal("null");
    }
    return parse_number(out);
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    // JSON requires a digit after the optional sign ("+5", ".5", "-" alone
    // and bare words are all invalid); strtod below is laxer, so gate here.
    if (pos_ >= text_.size() ||
        !std::isdigit(static_cast<unsigned char>(text_[pos_])))
      return set_error("invalid value");
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    out.number = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size())
      return set_error("malformed number");
    out.kind = JsonValue::Kind::kNumber;
    return true;
  }

  bool parse_array(JsonValue& out, int depth) {
    out.kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      JsonValue item;
      if (!parse_value(item, depth + 1)) return false;
      out.items.push_back(std::move(item));
      skip_ws();
      if (pos_ >= text_.size()) return set_error("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return set_error("expected ',' or ']'");
    }
  }

  bool parse_object(JsonValue& out, int depth) {
    out.kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      std::string key;
      if (!parse_string(key)) return false;
      if (!consume(':', "':'")) return false;
      JsonValue value;
      if (!parse_value(value, depth + 1)) return false;
      out.members.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (pos_ >= text_.size()) return set_error("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        skip_ws();
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return set_error("expected ',' or '}'");
    }
  }

  std::string_view text_;
  std::string* error_;
  std::size_t pos_ = 0;
};

}  // namespace json_detail

/// Parse a complete JSON document. Returns std::nullopt and fills `error`
/// (when non-null) on malformed input.
inline std::optional<JsonValue> parse_json(std::string_view text,
                                           std::string* error = nullptr) {
  return json_detail::Parser(text, error).run();
}

// Strict typed field access over a parsed object, shared by every reader of
// the tool's own records (flow.v1 method cells and reports, shard journal
// lines). Each helper fails with a message naming the field: a missing key,
// a wrong JSON type, or — for the integer helpers — a value that is not a
// finite, integral, non-negative number in the target's range. Sizes are
// capped at 2^53, the largest range a double holds exactly.

/// Sets `error` (when non-null) and returns false: `return json_fail(…);`.
inline bool json_fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

/// Member `key` of `obj` when present with kind `kind`; else nullptr.
inline const JsonValue* json_member(const JsonValue& obj, const char* key,
                                    JsonValue::Kind kind, std::string* error) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || v->kind != kind) {
    json_fail(error, std::string("missing or mistyped field '") + key + "'");
    return nullptr;
  }
  return v;
}

inline bool json_string(const JsonValue& obj, const char* key,
                        std::string* out, std::string* error) {
  const JsonValue* v = json_member(obj, key, JsonValue::Kind::kString, error);
  if (v == nullptr) return false;
  *out = v->string;
  return true;
}

inline bool json_number(const JsonValue& obj, const char* key, double* out,
                        std::string* error) {
  const JsonValue* v = json_member(obj, key, JsonValue::Kind::kNumber, error);
  if (v == nullptr) return false;
  *out = v->number;
  return true;
}

inline bool json_bool(const JsonValue& obj, const char* key, bool* out,
                      std::string* error) {
  const JsonValue* v = json_member(obj, key, JsonValue::Kind::kBool, error);
  if (v == nullptr) return false;
  *out = v->boolean;
  return true;
}

namespace json_detail {

/// A number field holding an integer in [0, max], returned as a double.
inline bool integral(const JsonValue& obj, const char* key, double max,
                     double* out, std::string* error) {
  if (!json_number(obj, key, out, error)) return false;
  if (*out >= 0.0 && *out <= max && *out == std::floor(*out)) return true;
  char buf[96];
  std::snprintf(buf, sizeof buf, "' is not an integer in [0, %.17g]: %.17g",
                max, *out);
  return json_fail(error, std::string("field '") + key + buf);
}

}  // namespace json_detail

inline bool json_int(const JsonValue& obj, const char* key, int* out,
                     std::string* error) {
  double d = 0.0;
  if (!json_detail::integral(obj, key, std::numeric_limits<int>::max(), &d,
                             error))
    return false;
  *out = static_cast<int>(d);
  return true;
}

inline bool json_size(const JsonValue& obj, const char* key, std::size_t* out,
                      std::string* error) {
  double d = 0.0;
  if (!json_detail::integral(obj, key, 9007199254740992.0, &d, error))
    return false;
  *out = static_cast<std::size_t>(d);
  return true;
}

}  // namespace minpower
