// Minimal JSON parser + serializer — enough to validate and inspect the
// trace-event files the telemetry subsystem writes (tests parse the Chrome
// trace back and assert on its events) and to round-trip the scheduler's
// machine-readable amenability tables. Not a general-purpose JSON library:
// no streaming, no \u escapes beyond ASCII, numbers as double.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace pcap::util {

class JsonValue;
using JsonArray = std::vector<JsonValue>;
using JsonObject = std::map<std::string, JsonValue>;

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;
  explicit JsonValue(bool b) : type_(Type::kBool), bool_(b) {}
  explicit JsonValue(double n) : type_(Type::kNumber), number_(n) {}
  explicit JsonValue(std::string s)
      : type_(Type::kString), string_(std::move(s)) {}
  explicit JsonValue(JsonArray a)
      : type_(Type::kArray), array_(std::make_shared<JsonArray>(std::move(a))) {}
  explicit JsonValue(JsonObject o)
      : type_(Type::kObject),
        object_(std::make_shared<JsonObject>(std::move(o))) {}

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool as_bool() const { return bool_; }
  double as_number() const { return number_; }
  const std::string& as_string() const { return string_; }
  const JsonArray& as_array() const {
    static const JsonArray empty;
    return array_ ? *array_ : empty;
  }
  const JsonObject& as_object() const {
    static const JsonObject empty;
    return object_ ? *object_ : empty;
  }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(const std::string& key) const {
    if (!is_object()) return nullptr;
    const auto it = as_object().find(key);
    return it != as_object().end() ? &it->second : nullptr;
  }

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::shared_ptr<JsonArray> array_;
  std::shared_ptr<JsonObject> object_;
};

/// Parses a complete JSON document (trailing whitespace allowed). Returns
/// nullopt on any syntax error, trailing garbage or nesting deeper than 256
/// arrays/objects.
std::optional<JsonValue> parse_json(const std::string& text);

/// Serializes a value back to JSON text. `indent` > 0 pretty-prints with
/// that many spaces per level; the default emits one compact line. Numbers
/// round-trip through parse_json (shortest representation that preserves
/// the double). Object members serialize in key order (JsonObject is a
/// std::map), so output is deterministic.
std::string json_to_string(const JsonValue& value, int indent = 0);

/// Writes `value` to `path` (creating parent directories), pretty-printed.
/// Throws std::runtime_error if the file cannot be opened.
void write_json_file(const std::string& path, const JsonValue& value);

/// Reads and parses a JSON file; nullopt if unreadable or malformed.
std::optional<JsonValue> read_json_file(const std::string& path);

}  // namespace pcap::util
