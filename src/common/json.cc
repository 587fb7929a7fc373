#include "common/json.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>

namespace uclust::common {

void JsonWriter::Escape(const std::string& s) {
  for (char c : s) {
    const unsigned char u = static_cast<unsigned char>(c);
    switch (c) {
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
        if (u < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", u);
          out_ += buf;
        } else {
          out_ += c;
        }
    }
  }
}

namespace {

constexpr int kMaxDepth = 64;

// Local Status-propagation shim usable from functions returning either
// Status or Result<T> (Status converts into an error Result).
#define UCLUST_JSON_TRY(expr)             \
  do {                                    \
    Status _st = (expr);                  \
    if (!_st.ok()) return _st;            \
  } while (false)

// Recursive-descent parser over a string_view with a byte cursor. Every
// error includes the offset, so a malformed REST body is diagnosable from
// the 400 response alone.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<JsonValue> Parse() {
    JsonValue v;
    UCLUST_JSON_TRY(ParseValue(&v, 0));
    SkipWhitespace();
    if (pos_ != text_.size()) return Error("trailing characters");
    return v;
  }

 private:

  Status Error(const std::string& msg) const {
    return Status::InvalidArgument("json: " + msg + " at byte " +
                                   std::to_string(pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"': {
        std::string s;
        UCLUST_JSON_TRY(ParseString(&s));
        *out = JsonValue::String(std::move(s));
        return Status::Ok();
      }
      case 't':
        return ParseLiteral("true", JsonValue::Bool(true), out);
      case 'f':
        return ParseLiteral("false", JsonValue::Bool(false), out);
      case 'n':
        return ParseLiteral("null", JsonValue::Null(), out);
      default:
        return ParseNumber(out);
    }
  }

  Status ParseLiteral(std::string_view word, JsonValue value, JsonValue* out) {
    if (text_.substr(pos_, word.size()) != word) {
      return Error("invalid literal");
    }
    pos_ += word.size();
    *out = std::move(value);
    return Status::Ok();
  }

  Status ParseNumber(JsonValue* out) {
    const std::size_t start = pos_;
    Consume('-');
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Error("expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    // JSON forbids leading zeros ("01"); strtod would accept them.
    const std::size_t first = token[0] == '-' ? 1 : 0;
    if (token.size() > first + 1 && token[first] == '0' &&
        token[first + 1] != '.' && token[first + 1] != 'e' &&
        token[first + 1] != 'E') {
      pos_ = start;
      return Error("malformed number");
    }
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      pos_ = start;
      return Error("malformed number");
    }
    // An integer token keeps its exact int64 value when it has one: a
    // double holds integers exactly only up to 2^53.
    if (token.find_first_of(".eE") == std::string::npos) {
      errno = 0;
      const long long i = std::strtoll(token.c_str(), &end, 10);
      if (errno != ERANGE && end == token.c_str() + token.size()) {
        *out = JsonValue::Integer(static_cast<int64_t>(i));
        return Status::Ok();
      }
    }
    *out = JsonValue::Number(v);
    return Status::Ok();
  }

  Status ParseString(std::string* out) {
    if (!Consume('"')) return Error("expected '\"'");
    out->clear();
    while (true) {
      if (pos_ >= text_.size()) return Error("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return Status::Ok();
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("raw control character in string");
      }
      if (c != '\\') {
        *out += c;
        continue;
      }
      if (pos_ >= text_.size()) return Error("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          *out += '"';
          break;
        case '\\':
          *out += '\\';
          break;
        case '/':
          *out += '/';
          break;
        case 'b':
          *out += '\b';
          break;
        case 'f':
          *out += '\f';
          break;
        case 'n':
          *out += '\n';
          break;
        case 'r':
          *out += '\r';
          break;
        case 't':
          *out += '\t';
          break;
        case 'u': {
          unsigned code = 0;
          UCLUST_JSON_TRY(ParseHex4(&code));
          // Combine a surrogate pair when a high surrogate is followed by
          // \uDC00-\uDFFF; a lone surrogate is replaced by U+FFFD.
          if (code >= 0xD800 && code <= 0xDBFF &&
              text_.substr(pos_, 2) == "\\u") {
            pos_ += 2;
            unsigned low = 0;
            UCLUST_JSON_TRY(ParseHex4(&low));
            if (low >= 0xDC00 && low <= 0xDFFF) {
              code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            } else {
              code = 0xFFFD;
            }
          } else if (code >= 0xD800 && code <= 0xDFFF) {
            code = 0xFFFD;
          }
          AppendUtf8(code, out);
          break;
        }
        default:
          return Error("invalid escape");
      }
    }
  }

  Status ParseHex4(unsigned* out) {
    if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + i];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        return Error("invalid \\u escape");
      }
    }
    pos_ += 4;
    *out = v;
    return Status::Ok();
  }

  static void AppendUtf8(unsigned code, std::string* out) {
    if (code < 0x80) {
      *out += static_cast<char>(code);
    } else if (code < 0x800) {
      *out += static_cast<char>(0xC0 | (code >> 6));
      *out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      *out += static_cast<char>(0xE0 | (code >> 12));
      *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      *out += static_cast<char>(0xF0 | (code >> 18));
      *out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  Status ParseArray(JsonValue* out, int depth) {
    Consume('[');
    std::vector<JsonValue> items;
    SkipWhitespace();
    if (Consume(']')) {
      *out = JsonValue::Array(std::move(items));
      return Status::Ok();
    }
    while (true) {
      JsonValue item;
      UCLUST_JSON_TRY(ParseValue(&item, depth + 1));
      items.push_back(std::move(item));
      SkipWhitespace();
      if (Consume(']')) break;
      if (!Consume(',')) return Error("expected ',' or ']'");
    }
    *out = JsonValue::Array(std::move(items));
    return Status::Ok();
  }

  Status ParseObject(JsonValue* out, int depth) {
    Consume('{');
    std::vector<std::pair<std::string, JsonValue>> members;
    SkipWhitespace();
    if (Consume('}')) {
      *out = JsonValue::Object(std::move(members));
      return Status::Ok();
    }
    while (true) {
      SkipWhitespace();
      std::string key;
      UCLUST_JSON_TRY(ParseString(&key));
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':'");
      JsonValue value;
      UCLUST_JSON_TRY(ParseValue(&value, depth + 1));
      members.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume('}')) break;
      if (!Consume(',')) return Error("expected ',' or '}'");
    }
    *out = JsonValue::Object(std::move(members));
    return Status::Ok();
  }

#undef UCLUST_JSON_TRY

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Result<JsonValue> ParseJson(std::string_view text) {
  return Parser(text).Parse();
}

}  // namespace uclust::common
