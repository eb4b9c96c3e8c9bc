//===- obs/Json.h - Shared JSON emission helpers ----------------*- C++ -*-===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The string-escape and number-formatting helpers shared by the metrics
/// exporters (obs/Export.cpp) and the trace exporter (obs/Trace.cpp), so
/// a metric label or span arg containing quotes, backslashes or control
/// characters can never desynchronize one exporter from the other; and
/// JsonWriter, which builds the `twpp --format=json` reports on top of
/// them.
///
//===----------------------------------------------------------------------===//

#ifndef TWPP_OBS_JSON_H
#define TWPP_OBS_JSON_H

#include <cstdio>
#include <string>
#include <string_view>
#include <type_traits>

namespace twpp::obs {

/// \returns \p Raw as a quoted JSON string literal with `"`, `\` and
/// control characters escaped, so exporters emit valid JSON for any
/// label.
inline std::string jsonStringLiteral(std::string_view Raw) {
  std::string Out = "\"";
  for (char C : Raw) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buffer[8];
      std::snprintf(Buffer, sizeof(Buffer), "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(C)));
      Out += Buffer;
    } else {
      Out += C;
    }
  }
  Out += '"';
  return Out;
}

/// JSON numbers must not be NaN/Inf; a defensive zero keeps the output
/// parseable no matter what the stats produce.
inline std::string jsonNumber(double Value) {
  if (Value != Value || Value > 1e300 || Value < -1e300)
    return "0";
  char Buffer[64];
  std::snprintf(Buffer, sizeof(Buffer), "%.6g", Value);
  return Buffer;
}

/// Builds one JSON document on a single line. The writer owns the
/// punctuation: it puts the commas between members and elements and
/// escapes every string, so a caller only says what goes where:
///
///   W.beginObject().field("path", P).beginArray("ids");
///   for (uint32_t Id : Ids) W.value(Id);
///   W.end().end();
///
/// Values are strings, booleans, integers (signed or unsigned) and
/// doubles (jsonNumber: NaN and infinities are written as 0).
class JsonWriter {
public:
  /// Opens an object or an array: the member \p Name when one is given,
  /// else the next value.
  JsonWriter &beginObject(std::string_view Name = "") {
    return open(Name, "{", '}');
  }
  JsonWriter &beginArray(std::string_view Name = "") {
    return open(Name, "[", ']');
  }

  /// Closes the innermost open object or array.
  JsonWriter &end() {
    Out += Closers.back();
    Closers.pop_back();
    return *this;
  }

  /// The member name the next value is written under.
  JsonWriter &key(std::string_view Name) {
    return raw(jsonStringLiteral(Name) + ": ");
  }

  template <typename T> JsonWriter &value(const T &V) {
    if constexpr (std::is_same_v<T, bool>)
      return raw(V ? "true" : "false");
    else if constexpr (std::is_floating_point_v<T>)
      return raw(jsonNumber(V));
    else if constexpr (std::is_integral_v<T>)
      return raw(std::to_string(V));
    else
      return raw(jsonStringLiteral(V));
  }

  template <typename T> JsonWriter &field(std::string_view Name, const T &V) {
    return key(Name).value(V);
  }

  /// Writes \p Json, already rendered, as the next member or element: a
  /// comma first unless it opens its scope or follows its key (written
  /// text ends in '{', '[' or the space of ": " exactly then).
  JsonWriter &raw(std::string_view Json) {
    char Last = Out.empty() ? '{' : Out.back();
    if (Last != '{' && Last != '[' && Last != ' ')
      Out += ", ";
    Out += Json;
    return *this;
  }

  /// Closes whatever is still open and \returns the document.
  std::string finish() {
    while (!Closers.empty())
      end();
    return Out;
  }

private:
  JsonWriter &open(std::string_view Name, std::string_view Open, char Close) {
    if (!Name.empty())
      key(Name);
    Closers += Close;
    return raw(Open);
  }

  std::string Out;
  std::string Closers; ///< The closing bracket of each open scope.
};

} // namespace twpp::obs

#endif // TWPP_OBS_JSON_H
