//===- obs/Json.cpp -------------------------------------------------------===//

#include "obs/Json.h"

#include <cassert>

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

using namespace hetsim;

void hetsim::jsonAppendEscaped(std::string &Out, const std::string &Text) {
  Out += '"';
  for (char C : Text) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buffer[8];
        std::snprintf(Buffer, sizeof(Buffer), "\\u%04x", C);
        Out += Buffer;
      } else {
        Out += C;
      }
    }
  }
  Out += '"';
}

void JsonWriter::separator() {
  if (!NeedComma.empty()) {
    if (NeedComma.back())
      Out += ',';
    NeedComma.back() = true;
  }
}

void JsonWriter::key(const std::string &Name) {
  separator();
  jsonAppendEscaped(Out, Name);
  Out += ':';
}

void JsonWriter::number(double Value) {
  if (!std::isfinite(Value)) {
    // JSON has no inf/nan; clamp to null so documents stay parseable.
    Out += "null";
    return;
  }
  if (Value == uint64_t(Value) && std::fabs(Value) < 9.0e15) {
    char Buffer[32];
    std::snprintf(Buffer, sizeof(Buffer), "%llu",
                  static_cast<unsigned long long>(Value));
    Out += Buffer;
    return;
  }
  char Buffer[40];
  std::snprintf(Buffer, sizeof(Buffer), "%.17g", Value);
  Out += Buffer;
}

void JsonWriter::beginObject() {
  separator();
  Out += '{';
  NeedComma.push_back(false);
}

void JsonWriter::beginObject(const std::string &Key) {
  key(Key);
  Out += '{';
  NeedComma.push_back(false);
}

void JsonWriter::endObject() {
  assert(!NeedComma.empty() && "endObject with no open scope");
  Out += '}';
  NeedComma.pop_back();
}

void JsonWriter::beginArray(const std::string &Key) {
  key(Key);
  Out += '[';
  NeedComma.push_back(false);
}

void JsonWriter::endArray() {
  assert(!NeedComma.empty() && "endArray with no open scope");
  Out += ']';
  NeedComma.pop_back();
}

void JsonWriter::value(const std::string &Key, const std::string &Text) {
  key(Key);
  jsonAppendEscaped(Out, Text);
}

void JsonWriter::value(const std::string &Key, const char *Text) {
  value(Key, std::string(Text));
}

void JsonWriter::value(const std::string &Key, double Number) {
  key(Key);
  number(Number);
}

void JsonWriter::value(const std::string &Key, uint64_t Number) {
  key(Key);
  char Buffer[32];
  std::snprintf(Buffer, sizeof(Buffer), "%llu",
                static_cast<unsigned long long>(Number));
  Out += Buffer;
}

void JsonWriter::value(const std::string &Key, int Number) {
  value(Key, double(Number));
}

void JsonWriter::value(const std::string &Key, bool Flag) {
  key(Key);
  Out += Flag ? "true" : "false";
}

void JsonWriter::value(const std::string &Text) {
  separator();
  jsonAppendEscaped(Out, Text);
}

std::string JsonWriter::take() {
  assert(NeedComma.empty() && "take() with unclosed JSON scopes");
  std::string Result;
  Result.swap(Out);
  return Result;
}

//===----------------------------------------------------------------------===//
// Reader.
//===----------------------------------------------------------------------===//

const JsonValue *JsonValue::find(const std::string &Key) const {
  if (Type != Kind::Object)
    return nullptr;
  for (const auto &KV : Members)
    if (KV.first == Key)
      return &KV.second;
  return nullptr;
}

namespace {

class Parser {
public:
  Parser(const std::string &Source, std::string &ErrorOut)
      : Text(Source), Error(ErrorOut) {}

  bool parse(JsonValue &Out) {
    skipSpace();
    if (!parseValue(Out, /*Depth=*/0))
      return false;
    skipSpace();
    if (Pos != Text.size())
      return fail("trailing characters after document");
    return true;
  }

private:
  static constexpr unsigned MaxDepth = 64;

  bool fail(const char *Message) {
    char Buffer[128];
    std::snprintf(Buffer, sizeof(Buffer), "%s (at byte %zu)", Message, Pos);
    Error = Buffer;
    return false;
  }

  void skipSpace() {
    while (Pos < Text.size() &&
           std::isspace(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
  }

  bool literal(const char *Word) {
    size_t Len = std::char_traits<char>::length(Word);
    if (Text.compare(Pos, Len, Word) != 0)
      return fail("invalid literal");
    Pos += Len;
    return true;
  }

  bool parseString(std::string &Out) {
    if (Pos >= Text.size() || Text[Pos] != '"')
      return fail("expected string");
    ++Pos;
    Out.clear();
    while (Pos < Text.size()) {
      char C = Text[Pos++];
      if (C == '"')
        return true;
      if (C != '\\') {
        Out += C;
        continue;
      }
      if (Pos >= Text.size())
        return fail("unterminated escape");
      char E = Text[Pos++];
      switch (E) {
      case '"':
      case '\\':
      case '/':
        Out += E;
        break;
      case 'n':
        Out += '\n';
        break;
      case 't':
        Out += '\t';
        break;
      case 'r':
        Out += '\r';
        break;
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'u': {
        if (Pos + 4 > Text.size())
          return fail("truncated \\u escape");
        unsigned Code = 0;
        for (unsigned I = 0; I != 4; ++I) {
          char H = Text[Pos++];
          Code <<= 4;
          if (H >= '0' && H <= '9')
            Code |= unsigned(H - '0');
          else if (H >= 'a' && H <= 'f')
            Code |= unsigned(H - 'a' + 10);
          else if (H >= 'A' && H <= 'F')
            Code |= unsigned(H - 'A' + 10);
          else
            return fail("invalid \\u escape");
        }
        // The writer only emits \u for control characters; decode the
        // BMP code point as UTF-8.
        if (Code < 0x80) {
          Out += char(Code);
        } else if (Code < 0x800) {
          Out += char(0xC0 | (Code >> 6));
          Out += char(0x80 | (Code & 0x3F));
        } else {
          Out += char(0xE0 | (Code >> 12));
          Out += char(0x80 | ((Code >> 6) & 0x3F));
          Out += char(0x80 | (Code & 0x3F));
        }
        break;
      }
      default:
        return fail("invalid escape");
      }
    }
    return fail("unterminated string");
  }

  bool parseNumber(JsonValue &Out) {
    size_t Start = Pos;
    if (Pos < Text.size() && Text[Pos] == '-')
      ++Pos;
    auto Digits = [&] {
      size_t Before = Pos;
      while (Pos < Text.size() &&
             std::isdigit(static_cast<unsigned char>(Text[Pos])))
        ++Pos;
      return Pos != Before;
    };
    if (!Digits())
      return fail("expected digits");
    if (Pos < Text.size() && Text[Pos] == '.') {
      ++Pos;
      if (!Digits())
        return fail("expected fraction digits");
    }
    if (Pos < Text.size() && (Text[Pos] == 'e' || Text[Pos] == 'E')) {
      ++Pos;
      if (Pos < Text.size() && (Text[Pos] == '+' || Text[Pos] == '-'))
        ++Pos;
      if (!Digits())
        return fail("expected exponent digits");
    }
    Out.Type = JsonValue::Kind::Number;
    Out.NumberValue = std::strtod(Text.c_str() + Start, nullptr);
    return true;
  }

  bool parseValue(JsonValue &Out, unsigned Depth) {
    if (Depth > MaxDepth)
      return fail("nesting too deep");
    skipSpace();
    if (Pos >= Text.size())
      return fail("unexpected end of input");
    char C = Text[Pos];
    if (C == '{') {
      ++Pos;
      Out.Type = JsonValue::Kind::Object;
      skipSpace();
      if (Pos < Text.size() && Text[Pos] == '}') {
        ++Pos;
        return true;
      }
      while (true) {
        skipSpace();
        std::string Key;
        if (!parseString(Key))
          return false;
        skipSpace();
        if (Pos >= Text.size() || Text[Pos] != ':')
          return fail("expected ':'");
        ++Pos;
        JsonValue Member;
        if (!parseValue(Member, Depth + 1))
          return false;
        Out.Members.emplace_back(std::move(Key), std::move(Member));
        skipSpace();
        if (Pos < Text.size() && Text[Pos] == ',') {
          ++Pos;
          continue;
        }
        if (Pos < Text.size() && Text[Pos] == '}') {
          ++Pos;
          return true;
        }
        return fail("expected ',' or '}'");
      }
    }
    if (C == '[') {
      ++Pos;
      Out.Type = JsonValue::Kind::Array;
      skipSpace();
      if (Pos < Text.size() && Text[Pos] == ']') {
        ++Pos;
        return true;
      }
      while (true) {
        JsonValue Element;
        if (!parseValue(Element, Depth + 1))
          return false;
        Out.Elements.push_back(std::move(Element));
        skipSpace();
        if (Pos < Text.size() && Text[Pos] == ',') {
          ++Pos;
          continue;
        }
        if (Pos < Text.size() && Text[Pos] == ']') {
          ++Pos;
          return true;
        }
        return fail("expected ',' or ']'");
      }
    }
    if (C == '"') {
      Out.Type = JsonValue::Kind::String;
      return parseString(Out.StringValue);
    }
    if (C == 't') {
      Out.Type = JsonValue::Kind::Bool;
      Out.BoolValue = true;
      return literal("true");
    }
    if (C == 'f') {
      Out.Type = JsonValue::Kind::Bool;
      Out.BoolValue = false;
      return literal("false");
    }
    if (C == 'n') {
      Out.Type = JsonValue::Kind::Null;
      return literal("null");
    }
    return parseNumber(Out);
  }

  const std::string &Text;
  std::string &Error;
  size_t Pos = 0;
};

} // namespace

bool hetsim::parseJson(const std::string &Text, JsonValue &Out,
                       std::string &Error) {
  Out = JsonValue();
  return Parser(Text, Error).parse(Out);
}

bool hetsim::writeTextFile(const std::string &Path,
                           const std::string &Contents) {
  std::ofstream Out(Path, std::ios::trunc | std::ios::binary);
  if (!Out)
    return false;
  Out.write(Contents.data(), std::streamsize(Contents.size()));
  return bool(Out);
}

bool hetsim::readTextFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  Out.assign(std::istreambuf_iterator<char>(In),
             std::istreambuf_iterator<char>());
  return true;
}
