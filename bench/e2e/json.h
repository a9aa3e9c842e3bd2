#ifndef OXML_BENCH_E2E_JSON_H_
#define OXML_BENCH_E2E_JSON_H_

// A small JSON reader for bench_e2e_compare: objects, arrays, strings
// (with the common escapes; \u escapes are kept verbatim), numbers,
// booleans and null. Enough to read BENCHMARK.json and bench_e2e's result
// lines; it is not a general-purpose parser.

#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace oxml {
namespace bench_e2e {

struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<Json> array;
  std::map<std::string, Json> object;

  /// The member `key` of an object, or null when absent.
  const Json& operator[](const std::string& key) const {
    static const Json kNull;
    auto it = object.find(key);
    return it == object.end() ? kNull : it->second;
  }
};

class JsonParser {
 public:
  /// Parses `text`; false (with `error` set) on malformed input.
  static bool Parse(std::string_view text, Json* out, std::string* error) {
    JsonParser p(text);
    if (!p.Value(out, 0)) {
      *error = p.error_;
      return false;
    }
    p.Space();
    if (p.pos_ != text.size()) {
      *error = "trailing characters at offset " + std::to_string(p.pos_);
      return false;
    }
    return true;
  }

 private:
  explicit JsonParser(std::string_view text) : s_(text) {}

  bool Fail(const std::string& what) {
    error_ = what + " at offset " + std::to_string(pos_);
    return false;
  }

  void Space() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                                s_[pos_] == '\r' || s_[pos_] == '\t')) {
      ++pos_;
    }
  }

  bool Literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return Fail("bad literal");
    pos_ += word.size();
    return true;
  }

  bool String(std::string* out) {
    ++pos_;  // opening quote
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) break;
      char e = s_[pos_++];
      switch (e) {
        case 'n': out->push_back('\n'); break;
        case 't': out->push_back('\t'); break;
        case 'r': out->push_back('\r'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'u': out->append("\\u"); break;
        default: out->push_back(e); break;
      }
    }
    if (pos_ >= s_.size()) return Fail("unterminated string");
    ++pos_;  // closing quote
    return true;
  }

  bool Value(Json* out, int depth) {
    if (depth > 64) return Fail("nesting too deep");
    Space();
    if (pos_ >= s_.size()) return Fail("unexpected end");
    char c = s_[pos_];
    if (c == '{') {
      out->type = Json::Type::kObject;
      ++pos_;
      Space();
      if (pos_ < s_.size() && s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      while (true) {
        Space();
        if (pos_ >= s_.size() || s_[pos_] != '"') return Fail("expected key");
        std::string key;
        if (!String(&key)) return false;
        Space();
        if (pos_ >= s_.size() || s_[pos_] != ':') return Fail("expected ':'");
        ++pos_;
        if (!Value(&out->object[key], depth + 1)) return false;
        Space();
        if (pos_ < s_.size() && s_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (pos_ < s_.size() && s_[pos_] == '}') {
          ++pos_;
          return true;
        }
        return Fail("expected ',' or '}'");
      }
    }
    if (c == '[') {
      out->type = Json::Type::kArray;
      ++pos_;
      Space();
      if (pos_ < s_.size() && s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      while (true) {
        out->array.emplace_back();
        if (!Value(&out->array.back(), depth + 1)) return false;
        Space();
        if (pos_ < s_.size() && s_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (pos_ < s_.size() && s_[pos_] == ']') {
          ++pos_;
          return true;
        }
        return Fail("expected ',' or ']'");
      }
    }
    if (c == '"') {
      out->type = Json::Type::kString;
      return String(&out->string);
    }
    if (c == 't' || c == 'f') {
      out->type = Json::Type::kBool;
      out->boolean = c == 't';
      return Literal(c == 't' ? "true" : "false");
    }
    if (c == 'n') return Literal("null");
    std::string number;
    while (pos_ < s_.size() &&
           std::string_view("+-0123456789.eE").find(s_[pos_]) !=
               std::string_view::npos) {
      number.push_back(s_[pos_++]);
    }
    char* end = nullptr;
    out->type = Json::Type::kNumber;
    out->number = std::strtod(number.c_str(), &end);
    if (number.empty() || end != number.c_str() + number.size()) {
      return Fail("bad number");
    }
    return true;
  }

  std::string_view s_;
  size_t pos_ = 0;
  std::string error_;
};

}  // namespace bench_e2e
}  // namespace oxml

#endif  // OXML_BENCH_E2E_JSON_H_
