#include "support/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace monomap::json {
namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<Value> run() {
    skip_ws();
    std::optional<Value> v = value(0);
    if (!v.has_value()) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) return std::nullopt;  // trailing garbage
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  bool eat(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  std::optional<Value> value(int depth) {
    if (depth > kMaxDepth || pos_ >= text_.size()) return std::nullopt;
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return object(depth);
      case '[':
        return array(depth);
      case '"': {
        std::optional<std::string> s = string();
        if (!s.has_value()) return std::nullopt;
        return Value(std::move(*s));
      }
      case 't':
        return literal("true") ? std::optional<Value>(Value(true))
                               : std::nullopt;
      case 'f':
        return literal("false") ? std::optional<Value>(Value(false))
                                : std::nullopt;
      case 'n':
        return literal("null") ? std::optional<Value>(Value())
                               : std::nullopt;
      default:
        return number();
    }
  }

  std::optional<Value> number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) return std::nullopt;
    double out = 0.0;
    const auto [ptr, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, out);
    if (ec != std::errc{} || ptr != text_.data() + pos_) return std::nullopt;
    return Value(out);
  }

  std::optional<std::string> string() {
    if (!eat('"')) return std::nullopt;
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) return std::nullopt;
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
          case 'u': {
            if (pos_ + 4 > text_.size()) return std::nullopt;
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                return std::nullopt;
              }
            }
            // UTF-8 encode the BMP code point (surrogate pairs in DFG
            // names are not a case the protocol needs; reject them).
            if (code >= 0xD800 && code <= 0xDFFF) return std::nullopt;
            if (code < 0x80) {
              out.push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out.push_back(static_cast<char>(0xC0 | (code >> 6)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out.push_back(static_cast<char>(0xE0 | (code >> 12)));
              out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default:
            return std::nullopt;
        }
      } else {
        out.push_back(c);
      }
    }
    return std::nullopt;  // unterminated
  }

  std::optional<Value> array(int depth) {
    if (!eat('[')) return std::nullopt;
    Array out;
    skip_ws();
    if (eat(']')) return Value(std::move(out));
    for (;;) {
      skip_ws();
      std::optional<Value> v = value(depth + 1);
      if (!v.has_value()) return std::nullopt;
      out.push_back(std::move(*v));
      skip_ws();
      if (eat(']')) return Value(std::move(out));
      if (!eat(',')) return std::nullopt;
    }
  }

  std::optional<Value> object(int depth) {
    if (!eat('{')) return std::nullopt;
    Object out;
    skip_ws();
    if (eat('}')) return Value(std::move(out));
    for (;;) {
      skip_ws();
      std::optional<std::string> key = string();
      if (!key.has_value()) return std::nullopt;
      skip_ws();
      if (!eat(':')) return std::nullopt;
      skip_ws();
      std::optional<Value> v = value(depth + 1);
      if (!v.has_value()) return std::nullopt;
      out.insert_or_assign(std::move(*key), std::move(*v));
      skip_ws();
      if (eat('}')) return Value(std::move(out));
      if (!eat(',')) return std::nullopt;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::optional<Value> parse(std::string_view text) {
  return Parser(text).run();
}

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

Writer& Writer::value(double v) {
  if (!std::isfinite(v)) return raw("null");
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return raw(buf);
}

std::string Writer::take() {
  std::string doc = std::move(out_);
  doc.shrink_to_fit();
  out_.clear();
  first_done_.clear();
  after_key_ = false;
  return doc;
}

Writer& Writer::raw(std::string_view text) {
  if (after_key_) {
    after_key_ = false;
  } else if (!first_done_.empty()) {
    if (first_done_.back()) out_.push_back(',');
    first_done_.back() = true;
  }
  out_ += text;
  return *this;
}

}  // namespace monomap::json
