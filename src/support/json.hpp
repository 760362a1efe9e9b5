// The project's one JSON reader and one JSON writer.
//
// parse() is a recursive-descent parser into a variant tree: the daemon's
// wire format is newline-delimited JSON objects, small and flat, so there
// is no external dependency and no streaming. Numbers are held as double
// (the protocol's integers are all well inside the 2^53 exact range).
// Parse errors return std::nullopt rather than throwing: a malformed
// request line is an expected input, not an exceptional state.
//
// Writer builds a document into a string: every service response, every
// bench row and the CLI's `result:` line go through it, and every string
// it writes goes through escape().
#ifndef MONOMAP_SUPPORT_JSON_HPP
#define MONOMAP_SUPPORT_JSON_HPP

#include <charconv>
#include <concepts>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace monomap::json {

class Value;
using Array = std::vector<Value>;
using Object = std::map<std::string, Value>;

class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() = default;
  explicit Value(bool b) : kind_(Kind::kBool), bool_(b) {}
  explicit Value(double d) : kind_(Kind::kNumber), num_(d) {}
  explicit Value(std::string s) : kind_(Kind::kString), str_(std::move(s)) {}
  explicit Value(Array a)
      : kind_(Kind::kArray), arr_(std::make_shared<Array>(std::move(a))) {}
  explicit Value(Object o)
      : kind_(Kind::kObject), obj_(std::make_shared<Object>(std::move(o))) {}

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_bool() const { return kind_ == Kind::kBool; }
  [[nodiscard]] bool is_number() const { return kind_ == Kind::kNumber; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::kString; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }

  [[nodiscard]] bool as_bool() const { return bool_; }
  [[nodiscard]] double as_number() const { return num_; }
  [[nodiscard]] const std::string& as_string() const { return str_; }
  [[nodiscard]] const Array& as_array() const { return *arr_; }
  [[nodiscard]] const Object& as_object() const { return *obj_; }

  /// Object member lookup; nullptr when not an object or key absent.
  [[nodiscard]] const Value* find(const std::string& key) const {
    if (!is_object()) return nullptr;
    auto it = obj_->find(key);
    return it == obj_->end() ? nullptr : &it->second;
  }

  // Typed member accessors with defaults — the request-decoding idiom.
  [[nodiscard]] double number_or(const std::string& key, double dflt) const {
    const Value* v = find(key);
    return v != nullptr && v->is_number() ? v->num_ : dflt;
  }
  [[nodiscard]] bool bool_or(const std::string& key, bool dflt) const {
    const Value* v = find(key);
    return v != nullptr && v->is_bool() ? v->bool_ : dflt;
  }
  [[nodiscard]] std::string string_or(const std::string& key,
                                      std::string dflt) const {
    const Value* v = find(key);
    return v != nullptr && v->is_string() ? v->str_ : std::move(dflt);
  }

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::shared_ptr<Array> arr_;
  std::shared_ptr<Object> obj_;
};

/// Parse one JSON document; std::nullopt on any syntax error or trailing
/// garbage (surrounding whitespace is fine).
std::optional<Value> parse(std::string_view text);

/// Escape `s` for embedding inside a JSON string literal (quotes not
/// included).
std::string escape(std::string_view s);

/// Streaming writer: objects, arrays, keys and scalars, with the commas
/// placed by a nesting stack. Doubles are written with 9 significant
/// digits, and as null when not finite (JSON has no inf or nan).
class Writer {
 public:
  Writer& begin_object() { return open("{"); }
  Writer& end_object() { return close('}'); }
  Writer& begin_array() { return open("["); }
  Writer& end_array() { return close(']'); }

  /// A member name; the next value is its value.
  Writer& key(std::string_view name) {
    value(name);
    out_.push_back(':');
    after_key_ = true;
    return *this;
  }

  Writer& value(std::string_view v) {
    raw("\"");
    out_ += escape(v);
    out_.push_back('"');
    return *this;
  }
  Writer& value(const char* v) { return value(std::string_view(v)); }
  Writer& value(bool v) { return raw(v ? "true" : "false"); }
  Writer& value(double v);
  template <std::integral T>
  Writer& value(T v) {
    char buf[24];
    const char* end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
    return raw(std::string_view(buf, static_cast<std::size_t>(end - buf)));
  }

  /// key(name) then value(v).
  template <typename T>
  Writer& field(std::string_view name, T v) {
    key(name);
    return value(v);
  }

  [[nodiscard]] const std::string& str() const { return out_; }
  /// The document at its exact size; the writer starts over empty.
  std::string take();

 private:
  /// Append one element, after a comma when it is not its level's first.
  Writer& raw(std::string_view text);
  Writer& open(std::string_view bracket) {
    raw(bracket);
    first_done_.push_back(false);
    return *this;
  }
  Writer& close(char bracket) {
    first_done_.pop_back();
    out_.push_back(bracket);
    return *this;
  }

  std::string out_;
  std::vector<bool> first_done_;  // per open level: an element was written
  bool after_key_ = false;        // the next element is a member's value
};

}  // namespace monomap::json

#endif  // MONOMAP_SUPPORT_JSON_HPP
