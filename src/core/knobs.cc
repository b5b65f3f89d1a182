#include "core/knobs.h"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace whitenrec {
namespace core {
namespace {

bool StartsWithDigit(std::string_view text, bool allow_dot) {
  return !text.empty() && ((text[0] >= '0' && text[0] <= '9') ||
                           (allow_dot && text[0] == '.'));
}

std::string ExpectedRange(const knobs::KnobSpec& spec) {
  char buf[96];
  if (std::isinf(spec.hi)) {
    std::snprintf(buf, sizeof(buf), "expected a value >= %g", spec.lo);
  } else {
    std::snprintf(buf, sizeof(buf), "expected a value in [%g, %g]", spec.lo,
                  spec.hi);
  }
  return buf;
}

// `"token": why`, built by appending: GCC 12 reports a spurious -Wrestrict
// on the inlined `"literal" + std::string` insert path.
Status BadToken(std::string_view token, std::string_view why) {
  std::string message(1, '"');
  message.append(token).append("\": ").append(why);
  return Status::InvalidArgument(message);
}

[[noreturn]] void Reject(const knobs::KnobSpec& spec, const char* value,
                         const std::string& why) {
  std::fprintf(stderr, "invalid %s value '%s': %s\n", spec.name, value,
               why.c_str());
  std::abort();
}

template <typename V>
V InRange(const knobs::KnobSpec& spec, const char* value,
          const Result<V>& parsed) {
  if (!parsed.ok()) Reject(spec, value, parsed.status().message());
  const double v = static_cast<double>(parsed.value());
  if (v < spec.lo || v > spec.hi) {
    Reject(spec, value, ExpectedRange(spec));
  }
  return parsed.value();
}

template <knobs::KnobType T>
std::optional<typename knobs::Value<T>::type> Read(
    const knobs::KnobSpec& spec) {
  const char* s = std::getenv(spec.name);
  if (s == nullptr || *s == '\0') return std::nullopt;
  if constexpr (T == knobs::KnobType::kenum) {
    const Status matched = knobs::MatchChoices(spec, s).status();
    if (!matched.ok()) Reject(spec, s, matched.message());
  }
  if constexpr (T == knobs::KnobType::kenum ||
                T == knobs::KnobType::kstring) {
    return std::string(s);
  } else if constexpr (T == knobs::KnobType::kdouble) {
    return InRange(spec, s, ParseReal(s));
  } else {
    return InRange(spec, s, ParseUnsigned(s));
  }
}

// One '|' alternative of `choices` matching `token`.
Result<knobs::Choice> MatchChoice(std::string_view choices,
                                  std::string_view token) {
  constexpr std::string_view kArg = ":<n>";
  std::size_t pos = 0;
  while (pos <= choices.size()) {
    std::size_t bar = choices.find('|', pos);
    if (bar == std::string_view::npos) bar = choices.size();
    std::string_view alt = choices.substr(pos, bar - pos);
    pos = bar + 1;
    const bool takes_arg = alt.size() > kArg.size() &&
                           alt.substr(alt.size() - kArg.size()) == kArg;
    if (!takes_arg) {
      if (token == alt) return knobs::Choice{alt, 0};
      continue;
    }
    alt.remove_suffix(kArg.size());
    if (token.size() <= alt.size() || token.substr(0, alt.size()) != alt ||
        token[alt.size()] != ':') {
      continue;
    }
    const Result<std::uint64_t> n =
        ParseUnsigned(token.substr(alt.size() + 1));
    if (!n.ok() || n.value() == 0) {
      return BadToken(token, std::string(alt) + " needs an unsigned <n> >= 1");
    }
    return knobs::Choice{alt, n.value()};
  }
  return BadToken(token, std::string("expected one of ").append(choices));
}

}  // namespace

Result<std::uint64_t> ParseUnsigned(std::string_view text) {
  std::uint64_t v = 0;
  const char* last = text.data() + text.size();
  const std::from_chars_result r = std::from_chars(text.data(), last, v);
  if (r.ec == std::errc::result_out_of_range) {
    return Status::InvalidArgument("does not fit in 64 bits");
  }
  if (!StartsWithDigit(text, false) || r.ec != std::errc() || r.ptr != last) {
    return Status::InvalidArgument("expected an unsigned decimal integer");
  }
  return v;
}

Result<double> ParseReal(std::string_view text) {
  double v = 0.0;
  const char* last = text.data() + text.size();
  const std::from_chars_result r = std::from_chars(text.data(), last, v);
  if (!StartsWithDigit(text, true) || r.ec != std::errc() || r.ptr != last ||
      !std::isfinite(v)) {
    return Status::InvalidArgument("expected a finite unsigned decimal real");
  }
  return v;
}

Result<double> ParseFloatToken(std::string_view text) {
  const std::string token(text);
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(token.c_str(), &end);
  if (token.empty() || errno != 0 || end != token.c_str() + token.size()) {
    return Status::InvalidArgument("expected a real number");
  }
  return v;
}

namespace knobs {

Result<std::vector<Choice>> MatchChoices(const KnobSpec& spec,
                                         std::string_view value) {
  std::vector<Choice> out;
  std::size_t pos = 0;
  while (pos <= value.size()) {
    std::size_t comma = value.find(',', pos);
    if (comma == std::string_view::npos) comma = value.size();
    Result<Choice> choice =
        MatchChoice(spec.choices, value.substr(pos, comma - pos));
    if (!choice.ok()) return choice.status();
    out.push_back(choice.value());
    pos = comma + 1;
  }
  const double count = static_cast<double>(out.size());
  if (count < spec.lo || count > spec.hi) {
    return BadToken(value, ExpectedRange(spec) +
                               " (the number of comma-separated choices)");
  }
  return out;
}

#define WR_KNOB(NAME, Accessor, kind, lo, hi, choices, owner)  \
  std::optional<Value<KnobType::k##kind>::type> Accessor() {  \
    return Read<KnobType::k##kind>(k##Accessor);              \
  }
#define WR_BUILD_OPTION(NAME)
#include "core/knobs.def"
#undef WR_KNOB
#undef WR_BUILD_OPTION

}  // namespace knobs
}  // namespace core
}  // namespace whitenrec
