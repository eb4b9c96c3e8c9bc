//===- tools/MetricsDiffVerb.cpp - Metrics baseline comparator ------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
// Compares two telemetry exports and fails when a named counter or gauge
// regressed beyond a threshold, turning a committed metrics file (the
// repo's BENCH_metrics.json) into an enforceable baseline instead of a
// dead artifact:
//
//   twpp metrics-diff BENCH_metrics.json fresh.jsonl
//       --metric twpp.bytes_out --metric archive.bytes --threshold-pct 5
//
// Both export shapes are accepted on either side: the single-object
// `exportMetricsJson` document (twpp --metrics-out) and the JSON-lines
// `exportMetricsJsonLines` form the bench binaries write (one labelled
// record per metric per checkpoint). Entries are matched on (label,
// name); the single-object form carries an empty label. --list-metrics
// works on its own to inspect what a committed baseline actually gates.
//
//===----------------------------------------------------------------------===//

#include "Verbs.h"

#include "support/FileIO.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

using namespace twpp;
using namespace twpp::tool;

namespace {

struct MetricsDiffOptions {
  std::vector<std::string> Metrics;
  bool ListMetrics = false;
  double ThresholdPct = 5.0;
} Opts;

//===----------------------------------------------------------------------===//
// A minimal JSON reader: just enough to walk the two exporter shapes.
//===----------------------------------------------------------------------===//

struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object } K = Kind::Null;
  double Number = 0;
  std::string String;
  std::vector<JsonValue> Array;
  std::vector<std::pair<std::string, JsonValue>> Object;

  const JsonValue *field(const std::string &Name) const {
    for (const auto &[Key, Value] : Object)
      if (Key == Name)
        return &Value;
    return nullptr;
  }
};

class JsonParser {
public:
  explicit JsonParser(const std::string &Text) : Text(Text) {}

  bool parse(JsonValue &Out) {
    if (!value(Out))
      return false;
    skipSpace();
    return Pos == Text.size();
  }

private:
  bool value(JsonValue &Out) {
    skipSpace();
    switch (peek()) {
    case '{':
    case '[':
      return container(Out);
    case '"':
      Out.K = JsonValue::Kind::String;
      return string(Out.String);
    case 't':
    case 'f':
      Out.K = JsonValue::Kind::Bool;
      return literal(peek() == 't' ? "true" : "false");
    case 'n':
      return literal("null");
    default:
      Out.K = JsonValue::Kind::Number;
      return number(Out.Number);
    }
  }

  /// An object or an array: comma-separated members up to the closer.
  bool container(JsonValue &Out) {
    bool IsObject = Text[Pos++] == '{';
    Out.K = IsObject ? JsonValue::Kind::Object : JsonValue::Kind::Array;
    char Close = IsObject ? '}' : ']';
    skipSpace();
    if (peek() == Close) {
      ++Pos;
      return true;
    }
    while (true) {
      std::string Key;
      if (IsObject) {
        skipSpace();
        if (!string(Key))
          return false;
        skipSpace();
        if (peek() != ':')
          return false;
        ++Pos;
      }
      JsonValue Member;
      if (!value(Member))
        return false;
      if (IsObject)
        Out.Object.emplace_back(std::move(Key), std::move(Member));
      else
        Out.Array.push_back(std::move(Member));
      skipSpace();
      char Next = peek();
      ++Pos;
      if (Next == Close)
        return true;
      if (Next != ',')
        return false;
    }
  }

  bool string(std::string &Out) {
    if (peek() != '"')
      return false;
    ++Pos;
    Out.clear();
    while (Pos < Text.size() && Text[Pos] != '"') {
      char C = Text[Pos++];
      if (C != '\\') {
        Out += C;
        continue;
      }
      char E = peek();
      ++Pos;
      const char *Simple = "\"\\/ntr";
      const char *Hit = E != '\0' ? std::strchr(Simple, E) : nullptr;
      if (Hit) {
        Out += "\"\\/\n\t\r"[Hit - Simple];
        continue;
      }
      std::string Hex = Text.substr(Pos, 4);
      if (E != 'u' || Hex.size() != 4 ||
          Hex.find_first_not_of("0123456789abcdefABCDEF") != std::string::npos)
        return false;
      // Exports only escape control bytes, so a one-byte append is
      // enough for round-tripping our own files.
      Out += static_cast<char>(std::strtoul(Hex.c_str(), nullptr, 16) & 0xFF);
      Pos += 4;
    }
    if (Pos >= Text.size())
      return false;
    ++Pos; // closing quote
    return true;
  }

  bool number(double &Out) {
    size_t Start = Pos;
    while (Pos < Text.size() &&
           (std::isdigit(static_cast<unsigned char>(Text[Pos])) ||
            std::strchr("+-.eE", Text[Pos])))
      ++Pos;
    if (Pos == Start)
      return false;
    Out = std::strtod(Text.substr(Start, Pos - Start).c_str(), nullptr);
    return true;
  }

  bool literal(const char *Word) {
    size_t Len = std::strlen(Word);
    if (Text.compare(Pos, Len, Word) != 0)
      return false;
    Pos += Len;
    return true;
  }

  char peek() const { return Pos < Text.size() ? Text[Pos] : '\0'; }
  void skipSpace() {
    while (Pos < Text.size() &&
           std::isspace(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
  }

  const std::string &Text;
  size_t Pos = 0;
};

//===----------------------------------------------------------------------===//
// Export loading: (label, name) -> value for counters and gauges.
//===----------------------------------------------------------------------===//

struct MetricKey {
  std::string Label;
  std::string Name;
  bool operator<(const MetricKey &Other) const {
    return Label != Other.Label ? Label < Other.Label : Name < Other.Name;
  }
};

using MetricTable = std::map<MetricKey, double>;

bool loadSingleObject(const JsonValue &Doc, MetricTable &Out) {
  for (const char *Section : {"counters", "gauges"}) {
    const JsonValue *Map = Doc.field(Section);
    if (!Map || Map->K != JsonValue::Kind::Object)
      return false;
    for (const auto &[Name, Value] : Map->Object) {
      if (Value.K != JsonValue::Kind::Number)
        return false;
      Out[{"", Name}] = Value.Number;
    }
  }
  return true;
}

bool loadJsonLines(const std::string &Text, MetricTable &Out) {
  std::istringstream Stream(Text);
  std::string Line;
  bool Any = false;
  while (std::getline(Stream, Line)) {
    if (Line.find_first_not_of(" \t\r") == std::string::npos)
      continue;
    JsonValue Record;
    if (!JsonParser(Line).parse(Record) ||
        Record.K != JsonValue::Kind::Object)
      return false;
    const JsonValue *Kind = Record.field("kind");
    const JsonValue *Name = Record.field("name");
    const JsonValue *Value = Record.field("value");
    const JsonValue *Label = Record.field("label");
    if (!Kind || !Name)
      return false;
    Any = true;
    if (Kind->String != "counter" && Kind->String != "gauge")
      continue; // spans carry timing noise, not baselines
    if (!Value || Value->K != JsonValue::Kind::Number)
      return false;
    Out[{Label ? Label->String : "", Name->String}] = Value->Number;
  }
  return Any;
}

bool loadMetricsFile(const std::string &Path, MetricTable &Out) {
  std::vector<uint8_t> Bytes;
  if (!readFileBytes(Path, Bytes)) {
    std::fprintf(stderr, "twpp metrics-diff: cannot read %s\n", Path.c_str());
    return false;
  }
  std::string Text(Bytes.begin(), Bytes.end());

  // The single-object export is one multi-line document; everything else
  // is treated as JSON-lines.
  JsonValue Doc;
  if (JsonParser(Text).parse(Doc) && Doc.K == JsonValue::Kind::Object &&
      Doc.field("counters"))
    return loadSingleObject(Doc, Out);
  if (loadJsonLines(Text, Out))
    return true;
  std::fprintf(stderr, "twpp metrics-diff: %s is not a recognized metrics "
                       "export\n",
               Path.c_str());
  return false;
}

std::string keyLabel(const MetricKey &Key) {
  return Key.Label.empty() ? Key.Name : Key.Label + " " + Key.Name;
}

} // namespace

cli::FlagTable tool::metricsDiffFlags() {
  return {
      cli::listFlag("metric", "NAME", "enforce NAME (repeatable)",
                    Opts.Metrics),
      cli::decimalFlag("threshold-pct", "P",
                       "allowed increase in percent (default 5)",
                       Opts.ThresholdPct),
      cli::switchFlag("list-metrics", "list the baseline's keys",
                      Opts.ListMetrics),
  };
}

int tool::runMetricsDiff(const Invocation &Inv) {
  const std::string &BaselinePath = Inv.Args[0];
  const std::string &CurrentPath = Inv.Args[1];
  std::set<std::string> EnforceNames(Opts.Metrics.begin(), Opts.Metrics.end());
  if (EnforceNames.empty() && !Opts.ListMetrics)
    return Inv.usage("nothing to do: pass --metric or --list-metrics");

  MetricTable Baseline, Current;
  if (!loadMetricsFile(BaselinePath, Baseline) ||
      !loadMetricsFile(CurrentPath, Current))
    return cli::ExitUsage;

  // Enumerate what the baseline actually gates before the enforcement
  // pass; keys the current file no longer produces are the interesting
  // ones (a renamed metric silently stops being compared).
  if (Opts.ListMetrics) {
    std::printf("%zu baseline key(s) in %s:\n", Baseline.size(),
                BaselinePath.c_str());
    for (const auto &[Key, BaseValue] : Baseline) {
      auto It = Current.find(Key);
      if (It != Current.end())
        std::printf("  %-50s %.0f -> %.0f\n", keyLabel(Key).c_str(),
                    BaseValue, It->second);
      else
        std::printf("  %-50s %.0f -> (missing in current)\n",
                    keyLabel(Key).c_str(), BaseValue);
    }
  }

  // Every enforced name must exist in both files under at least one
  // label, otherwise a typo would silently pass forever.
  std::set<std::string> SeenEnforced;
  int Regressions = 0;
  size_t Matched = 0;
  for (const auto &[Key, BaseValue] : Baseline) {
    auto It = Current.find(Key);
    if (It == Current.end())
      continue;
    ++Matched;
    double CurValue = It->second;
    bool Enforced = EnforceNames.count(Key.Name) != 0;
    if (Enforced)
      SeenEnforced.insert(Key.Name);
    double Allowed = BaseValue * (1.0 + Opts.ThresholdPct / 100.0);
    bool Regressed = Enforced && CurValue > Allowed &&
                     CurValue > BaseValue; // zero-baseline: any growth fails
    if (Regressed) {
      ++Regressions;
      std::printf("REGRESSION  %-40s %.0f -> %.0f (limit %.0f, +%.1f%%)\n",
                  keyLabel(Key).c_str(), BaseValue, CurValue, Allowed,
                  BaseValue != 0
                      ? (CurValue - BaseValue) / BaseValue * 100.0
                      : 100.0);
    } else if (Enforced) {
      std::printf("ok          %-40s %.0f -> %.0f\n", keyLabel(Key).c_str(),
                  BaseValue, CurValue);
    }
  }

  if (Matched == 0) {
    std::fprintf(stderr, "twpp metrics-diff: no common (label, name) entries "
                         "between the two files\n");
    return cli::ExitUsage;
  }
  for (const std::string &Name : EnforceNames)
    if (!SeenEnforced.count(Name)) {
      std::fprintf(stderr, "twpp metrics-diff: metric %s not present in both "
                           "files\n",
                   Name.c_str());
      return cli::ExitUsage;
    }

  if (Regressions) {
    std::fprintf(stderr, "twpp metrics-diff: %d metric(s) regressed beyond "
                         "%.1f%%\n",
                 Regressions, Opts.ThresholdPct);
    return cli::ExitFindings;
  }
  return cli::ExitSuccess;
}
