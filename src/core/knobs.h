#ifndef WHITENREC_CORE_KNOBS_H_
#define WHITENREC_CORE_KNOBS_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/status.h"

// The one place a configuration value is parsed (DESIGN.md §11.1). The
// WHITENREC_* registry, core/knobs.def, compiles into one typed accessor per
// knob, and every accessor goes through ParseUnsigned or ParseReal below —
// so the table tools/analyze checks is the parser. Command-line flags and
// data-file tokens reuse the same parsers.
//
// Accessor contract: unset or empty means not set (std::nullopt; the caller
// owns the default). A set value that is malformed or outside its row's
// range aborts with a message naming the knob. Accessors re-read the
// environment on every call; a caller that wants one value per process
// caches it.

namespace whitenrec {
namespace core {

// Strict unsigned decimal: one or more ASCII digits and nothing else (no
// sign, whitespace or suffix), and the value fits in 64 bits.
Result<std::uint64_t> ParseUnsigned(std::string_view text);

// Strict real: unsigned decimal digits with an optional fraction and
// exponent ("0.25", "1e-3", ".5"). No sign, whitespace, suffix, hex, inf or
// nan, and the value must be finite.
Result<double> ParseReal(std::string_view text);

// The data-file real grammar (data/io): any complete C-library float token,
// signed, hex and non-finite spellings included. Only a partial parse or
// overflow fails.
Result<double> ParseFloatToken(std::string_view text);

namespace knobs {

// Value types of knobs.def's `type` column. The k-prefixed spelling lets the
// X-macro paste the column's word (`double`, `enum` are keywords).
enum class KnobType { ksize, ku64, kdouble, kenum, kstring };

inline constexpr double kUnbounded = std::numeric_limits<double>::infinity();

// One knobs.def row as data (the owner column is documentation only).
struct KnobSpec {
  const char* name;
  KnobType type;
  double lo;  // numeric: inclusive range; enum: choices per value
  double hi;
  const char* choices;  // enum only
};

// One alternative matched by an enum value.
struct Choice {
  std::string_view word;  // the alternative, without any ":<n>"
  std::uint64_t n = 0;    // the argument of a `word:<n>` alternative
};

// Matches `value` against an enum row: between spec.lo and spec.hi
// comma-separated tokens, each one of the '|'-separated spec.choices. A
// `word:<n>` alternative matches "word:" followed by a ParseUnsigned n >= 1.
Result<std::vector<Choice>> MatchChoices(const KnobSpec& spec,
                                         std::string_view value);

template <KnobType T>
struct Value {
  using type = std::string;  // kenum (the validated spelling), kstring
};
template <>
struct Value<KnobType::ksize> {
  using type = std::size_t;
};
template <>
struct Value<KnobType::ku64> {
  using type = std::uint64_t;
};
template <>
struct Value<KnobType::kdouble> {
  using type = double;
};

// Per row: the spec constant k<Accessor> and std::optional<T> <Accessor>().
#define WR_KNOB(NAME, Accessor, kind, lo, hi, choices, owner)          \
  inline constexpr KnobSpec k##Accessor{#NAME, KnobType::k##kind, lo, \
                                        hi, choices};                 \
  std::optional<Value<KnobType::k##kind>::type> Accessor();
#define WR_BUILD_OPTION(NAME)
#include "core/knobs.def"
#undef WR_KNOB
#undef WR_BUILD_OPTION

}  // namespace knobs
}  // namespace core
}  // namespace whitenrec

#endif  // WHITENREC_CORE_KNOBS_H_
