// craft::json — the one JSON layer every craft verb shares.
//
// Emission: `Escape`/`Quote` plus a byte-exact `Writer`. The repo's report
// documents (craft-lint-v1, craft-chaos-v1, craft-cover-v1, ...) are golden-
// tested byte for byte and diffed across runs/shards, so the Writer does NOT
// impose a layout of its own: callers keep full control of whitespace via
// Raw(), while all string quoting/escaping funnels through one escaper.
//
// Parsing: a small recursive-descent parser for the subset the repo emits
// (objects, arrays, strings with the escapes Escape produces, integers,
// doubles, bools, null) preserving object field order. Used by craft-cover's
// merge round-trip and craft-farm's manifest aggregation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace craft::json {

/// Escapes `s` for inclusion inside a JSON string literal: `"` `\` `\n` `\t`
/// `\r` get two-character escapes, every other control byte < 0x20 becomes
/// \u00xx, and everything else (including UTF-8 multibyte sequences) passes
/// through untouched.
std::string Escape(const std::string& s);

/// `"` + Escape(s) + `"` — the quoted form every emitter wants.
std::string Quote(const std::string& s);

/// Byte-exact document builder. Layout (newlines, indentation, separators)
/// stays with the caller via Raw(); the Writer owns correctness-critical
/// pieces: string escaping, number/bool formatting, and the "comma before
/// every element but the first" idiom via Sep().
class Writer {
 public:
  Writer() = default;

  Writer& Raw(std::string_view text) {
    out_.append(text);
    return *this;
  }
  /// Appends the quoted, escaped string literal.
  Writer& String(const std::string& s);
  /// Appends `"key": ` (quoted key, colon, one space).
  Writer& Key(const std::string& key);
  Writer& U64(std::uint64_t v);
  Writer& I64(std::int64_t v);
  Writer& Bool(bool v) { return Raw(v ? "true" : "false"); }
  Writer& Null() { return Raw("null"); }
  /// Shortest round-trip double formatting ("%.17g" trimmed via %g).
  Writer& Double(double v);

  /// The repo-wide separator idiom: emits `if_first` on the first call
  /// (clearing *first), `otherwise` after. Replaces the hand-rolled
  /// `os << (first ? "\n" : ",\n")` scattered across the emitters.
  Writer& Sep(bool* first, std::string_view if_first,
              std::string_view otherwise) {
    Raw(*first ? if_first : otherwise);
    *first = false;
    return *this;
  }

  const std::string& str() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

/// A parsed JSON value. Objects preserve field order (`fields`), numbers
/// keep their source text (`text`) so integer counters round-trip exactly.
struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  std::string text;  ///< number source text or decoded string contents
  std::vector<Value> items;
  std::vector<std::pair<std::string, Value>> fields;

  /// Object member lookup; nullptr when absent or not an object.
  const Value* Find(const std::string& key) const;

  bool IsString() const { return kind == Kind::kString; }
  bool IsNumber() const { return kind == Kind::kNumber; }

  /// Number → u64; 0 for non-numbers, negatives and fractional forms.
  std::uint64_t AsU64() const;
};

/// Deepest array/object nesting Parse accepts. The parser recurses once
/// per level, so without a cap a file of nested brackets overflows the
/// stack; every document the tools write nests fewer than ten levels.
inline constexpr std::size_t kMaxDepth = 256;

/// Parses `text` into `*out`. Returns "" on success, else a one-line error
/// with a byte offset (also for nesting deeper than kMaxDepth).
std::string Parse(const std::string& text, Value* out);

}  // namespace craft::json
