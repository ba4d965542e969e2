//===- obs/Json.h - Minimal JSON writer and reader --------------*- C++ -*-===//
///
/// \file
/// The observability layer's JSON support: a streaming writer used by the
/// metrics and trace-event exporters, and a small recursive-descent
/// reader used by `hetsim_stats` and the schema-checking tests. Both are
/// dependency-free by design — the toolchain image carries no JSON
/// library, and the subset emitted here (objects, arrays, strings,
/// finite numbers, booleans, null) round-trips exactly.
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_OBS_JSON_H
#define HETSIM_OBS_JSON_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace hetsim {

/// Appends \p Text to \p Out with JSON string escaping (quotes included).
void jsonAppendEscaped(std::string &Out, const std::string &Text);

/// A streaming JSON writer: push objects/arrays, emit keyed or bare
/// values, pop. Comma placement is handled automatically; the result is
/// a compact single-line document retrieved with take().
class JsonWriter {
public:
  void beginObject();
  void beginObject(const std::string &Key);
  void endObject();
  void beginArray(const std::string &Key);
  void endArray();

  void value(const std::string &Key, const std::string &Text);
  void value(const std::string &Key, const char *Text);
  void value(const std::string &Key, double Number);
  void value(const std::string &Key, uint64_t Number);
  void value(const std::string &Key, int Number);
  void value(const std::string &Key, bool Flag);

  /// A bare string inside an array.
  void value(const std::string &Text);

  /// Returns the finished document; the writer must be back at nesting
  /// depth zero.
  std::string take();

private:
  void separator();
  void key(const std::string &Name);
  void number(double Value);

  std::string Out;
  std::vector<bool> NeedComma; // One flag per open scope.
};

/// One parsed JSON value (a small DOM).
struct JsonValue {
  enum class Kind : uint8_t { Null, Bool, Number, String, Array, Object };

  Kind Type = Kind::Null;
  bool BoolValue = false;
  double NumberValue = 0;
  std::string StringValue;
  std::vector<JsonValue> Elements;                 // Array.
  std::vector<std::pair<std::string, JsonValue>> Members; // Object, ordered.

  bool isObject() const { return Type == Kind::Object; }
  bool isArray() const { return Type == Kind::Array; }
  bool isNumber() const { return Type == Kind::Number; }
  bool isString() const { return Type == Kind::String; }

  /// Object member lookup; returns nullptr when absent or not an object.
  const JsonValue *find(const std::string &Key) const;
};

/// Parses \p Text into \p Out. Returns false (and sets \p Error to a
/// message with a byte offset) on malformed input or trailing garbage.
bool parseJson(const std::string &Text, JsonValue &Out, std::string &Error);

/// Writes \p Contents to \p Path (truncating). Returns false on failure.
bool writeTextFile(const std::string &Path, const std::string &Contents);

/// Reads all of \p Path into \p Out. Returns false on failure.
bool readTextFile(const std::string &Path, std::string &Out);

} // namespace hetsim

#endif // HETSIM_OBS_JSON_H
