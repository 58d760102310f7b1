#include "util/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace pcap::util {

namespace {

// Nesting bound: the parser recurses per array/object level, so untrusted
// input must not be able to pick the stack depth.
constexpr int kMaxDepth = 256;

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  std::optional<JsonValue> parse() {
    auto value = parse_value();
    if (!value) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) return std::nullopt;  // trailing garbage
    return value;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(const char* word) {
    const std::size_t len = std::char_traits<char>::length(word);
    if (text_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  std::optional<JsonValue> parse_value() {
    skip_ws();
    if (pos_ >= text_.size()) return std::nullopt;
    switch (text_[pos_]) {
      case 'n': return literal("null") ? std::optional<JsonValue>(JsonValue{})
                                       : std::nullopt;
      case 't': return literal("true")
                           ? std::optional<JsonValue>(JsonValue{true})
                           : std::nullopt;
      case 'f': return literal("false")
                           ? std::optional<JsonValue>(JsonValue{false})
                           : std::nullopt;
      case '"': return parse_string();
      case '[':
      case '{': {
        if (depth_ == kMaxDepth) return std::nullopt;
        ++depth_;
        auto value = text_[pos_] == '[' ? parse_array() : parse_object();
        --depth_;
        return value;
      }
      default: return parse_number();
    }
  }

  std::optional<JsonValue> parse_string() {
    std::string out;
    if (!consume('"')) return std::nullopt;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return JsonValue{std::move(out)};
      if (c == '\\') {
        if (pos_ >= text_.size()) return std::nullopt;
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
            if (pos_ + 4 > text_.size()) return std::nullopt;
            const std::string hex = text_.substr(pos_, 4);
            char* end = nullptr;
            const long code = std::strtol(hex.c_str(), &end, 16);
            if (end != hex.c_str() + 4) return std::nullopt;
            // ASCII only; anything wider is preserved as '?' (the trace
            // writer never emits non-ASCII).
            out += code < 0x80 ? static_cast<char>(code) : '?';
            pos_ += 4;
            break;
          }
          default: return std::nullopt;
        }
      } else {
        out += c;
      }
    }
    return std::nullopt;  // unterminated
  }

  std::optional<JsonValue> parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return std::nullopt;
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return std::nullopt;
    if (!std::isfinite(value)) return std::nullopt;  // JSON has no infinity
    return JsonValue{value};
  }

  std::optional<JsonValue> parse_array() {
    if (!consume('[')) return std::nullopt;
    JsonArray items;
    skip_ws();
    if (consume(']')) return JsonValue{std::move(items)};
    for (;;) {
      auto item = parse_value();
      if (!item) return std::nullopt;
      items.push_back(std::move(*item));
      if (consume(']')) return JsonValue{std::move(items)};
      if (!consume(',')) return std::nullopt;
    }
  }

  std::optional<JsonValue> parse_object() {
    if (!consume('{')) return std::nullopt;
    JsonObject members;
    skip_ws();
    if (consume('}')) return JsonValue{std::move(members)};
    for (;;) {
      skip_ws();
      auto key = parse_string();
      if (!key) return std::nullopt;
      if (!consume(':')) return std::nullopt;
      auto value = parse_value();
      if (!value) return std::nullopt;
      members[key->as_string()] = std::move(*value);
      if (consume('}')) return JsonValue{std::move(members)};
      if (!consume(',')) return std::nullopt;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

std::optional<JsonValue> parse_json(const std::string& text) {
  return Parser(text).parse();
}

namespace {

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
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
          out += c;
        }
    }
  }
  out += '"';
}

void append_number(std::string& out, double n) {
  // Shortest decimal form that round-trips the double; integral values
  // within 2^53 print without an exponent or trailing ".0".
  char buf[32];
  if (std::abs(n) < 9.0e15 && n == static_cast<std::int64_t>(n)) {
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(static_cast<std::int64_t>(n)));
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", n);
    double reparsed = std::strtod(buf, nullptr);
    for (int prec = 15; prec <= 16; ++prec) {
      char shorter[32];
      std::snprintf(shorter, sizeof(shorter), "%.*g", prec, n);
      if (std::strtod(shorter, nullptr) == n) {
        std::snprintf(buf, sizeof(buf), "%.*g", prec, n);
        break;
      }
    }
    (void)reparsed;
  }
  out += buf;
}

void serialize(std::string& out, const JsonValue& v, int indent, int depth) {
  const bool pretty = indent > 0;
  auto newline = [&](int d) {
    if (!pretty) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  switch (v.type()) {
    case JsonValue::Type::kNull: out += "null"; break;
    case JsonValue::Type::kBool: out += v.as_bool() ? "true" : "false"; break;
    case JsonValue::Type::kNumber: append_number(out, v.as_number()); break;
    case JsonValue::Type::kString: append_escaped(out, v.as_string()); break;
    case JsonValue::Type::kArray: {
      const JsonArray& items = v.as_array();
      if (items.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      for (std::size_t i = 0; i < items.size(); ++i) {
        if (i > 0) out += ',';
        newline(depth + 1);
        serialize(out, items[i], indent, depth + 1);
      }
      newline(depth);
      out += ']';
      break;
    }
    case JsonValue::Type::kObject: {
      const JsonObject& members = v.as_object();
      if (members.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      bool first = true;
      for (const auto& [key, value] : members) {
        if (!first) out += ',';
        first = false;
        newline(depth + 1);
        append_escaped(out, key);
        out += pretty ? ": " : ":";
        serialize(out, value, indent, depth + 1);
      }
      newline(depth);
      out += '}';
      break;
    }
  }
}

}  // namespace

std::string json_to_string(const JsonValue& value, int indent) {
  std::string out;
  serialize(out, value, indent, 0);
  return out;
}

void write_json_file(const std::string& path, const JsonValue& value) {
  const auto slash = path.find_last_of('/');
  if (slash != std::string::npos) {
    std::filesystem::create_directories(path.substr(0, slash));
  }
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open " + path);
  out << json_to_string(value, 2) << '\n';
}

std::optional<JsonValue> read_json_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_json(buffer.str());
}

}  // namespace pcap::util
