// The strict-parse contract of core/knobs. The death-test cases come from
// the registry rows themselves (core/knobs.def, included below with its own
// row macro), so a new numeric or enum knob is covered the moment its row
// lands: a set malformed value must abort with a message naming the knob.

#include "core/knobs.h"

#include <stdlib.h>

#include <cstdio>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace whitenrec {
namespace core {
namespace {

using knobs::KnobSpec;
using knobs::KnobType;

struct RegistryRow {
  const KnobSpec* spec;
  std::function<bool()> read;  // calls the generated accessor
};

// Names the row in test output (gtest would otherwise print its bytes).
void PrintTo(const RegistryRow& row, std::ostream* os) {
  *os << row.spec->name;
}

std::vector<RegistryRow> Rows() {
  return {
#define WR_KNOB(NAME, Accessor, kind, lo, hi, choices, owner) \
  {&knobs::k##Accessor, [] { return knobs::Accessor().has_value(); }},
#define WR_BUILD_OPTION(NAME)
#include "core/knobs.def"
#undef WR_KNOB
#undef WR_BUILD_OPTION
  };
}

std::vector<RegistryRow> ParsedRows() {
  std::vector<RegistryRow> rows;
  for (const RegistryRow& row : Rows()) {
    if (row.spec->type != KnobType::kstring) rows.push_back(row);
  }
  return rows;
}

std::string Format(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// The first alternative of an enum row, spelled as a valid token.
std::string FirstChoice(const KnobSpec& spec) {
  std::string first(spec.choices);
  first = first.substr(0, first.find('|'));
  const std::size_t arg = first.find(":<n>");
  return arg == std::string::npos ? first : first.substr(0, arg) + ":1";
}

std::vector<std::string> MalformedValues(const KnobSpec& spec) {
  std::vector<std::string> bad = {"abc", "-1", " 1", "+1", "1x",
                                  "99999999999999999999999"};
  switch (spec.type) {
    case KnobType::kdouble:
      bad.insert(bad.end(), {"nan", "inf", "0x1p-2", "1e999", "0.5 "});
      if (spec.hi < knobs::kUnbounded) bad.push_back(Format(spec.hi * 2 + 1));
      break;
    case KnobType::ksize:
    case KnobType::ku64:
      bad.insert(bad.end(), {"1.0", "0x10", "1e3"});
      if (spec.lo >= 1) bad.push_back(Format(spec.lo - 1));
      break;
    case KnobType::kenum:
      bad.insert(bad.end(), {"no-such-choice", FirstChoice(spec) + ","});
      if (spec.hi == 1) {
        bad.push_back(FirstChoice(spec) + "," + FirstChoice(spec));
      }
      break;
    case KnobType::kstring:
      break;
  }
  return bad;
}

// A value inside the row's contract.
std::string ValidValue(const KnobSpec& spec) {
  switch (spec.type) {
    case KnobType::kenum:
      return FirstChoice(spec);
    case KnobType::kstring:
      return "anything at all";
    default:
      return Format(spec.lo);
  }
}

std::string RowName(const testing::TestParamInfo<RegistryRow>& info) {
  return info.param.spec->name;
}

class KnobContract : public testing::TestWithParam<RegistryRow> {};

TEST_P(KnobContract, UnsetOrEmptyMeansDefaultAndValidValueParses) {
  const RegistryRow& row = GetParam();
  ::unsetenv(row.spec->name);
  EXPECT_FALSE(row.read());
  ::setenv(row.spec->name, "", 1);
  EXPECT_FALSE(row.read());
  ::setenv(row.spec->name, ValidValue(*row.spec).c_str(), 1);
  EXPECT_TRUE(row.read()) << ValidValue(*row.spec);
  ::unsetenv(row.spec->name);
}

INSTANTIATE_TEST_SUITE_P(Registry, KnobContract, testing::ValuesIn(Rows()),
                         RowName);

using KnobContractDeathTest = KnobContract;

TEST_P(KnobContractDeathTest, MalformedValueAbortsNamingTheKnob) {
  const RegistryRow& row = GetParam();
  const std::string message =
      std::string("invalid ") + row.spec->name + " value";
  for (const std::string& bad : MalformedValues(*row.spec)) {
    EXPECT_DEATH(
        {
          ::setenv(row.spec->name, bad.c_str(), 1);
          row.read();
        },
        message)
        << "value '" << bad << "'";
  }
}

INSTANTIATE_TEST_SUITE_P(Registry, KnobContractDeathTest,
                         testing::ValuesIn(ParsedRows()), RowName);

TEST(ParseUnsigned, AcceptsDigitsOnlyUpTo64Bits) {
  EXPECT_EQ(ParseUnsigned("0").value(), 0u);
  EXPECT_EQ(ParseUnsigned("007").value(), 7u);
  EXPECT_EQ(ParseUnsigned("18446744073709551615").value(),
            18446744073709551615ull);
  for (const char* bad : {"", "-0", "+1", " 1", "1 ", "1x", "0x1", "1.0",
                          "18446744073709551616"}) {
    EXPECT_FALSE(ParseUnsigned(bad).ok()) << "'" << bad << "'";
  }
}

TEST(ParseReal, AcceptsFiniteUnsignedDecimalsOnly) {
  EXPECT_EQ(ParseReal("0.25").value(), 0.25);
  EXPECT_EQ(ParseReal(".5").value(), 0.5);
  EXPECT_EQ(ParseReal("1e-3").value(), 1e-3);
  EXPECT_EQ(ParseReal("3").value(), 3.0);
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "1x", "nan", "inf",
                          "0x1p3", "1e999", ".", "e1"}) {
    EXPECT_FALSE(ParseReal(bad).ok()) << "'" << bad << "'";
  }
}

TEST(ParseFloatToken, KeepsTheDataFileGrammar) {
  // Data files carry signed features, and a NaN there is the data's
  // problem, not a parse error (data/io keeps its file contract).
  EXPECT_EQ(ParseFloatToken("-0.5").value(), -0.5);
  EXPECT_EQ(ParseFloatToken("+2").value(), 2.0);
  EXPECT_TRUE(ParseFloatToken("nan").ok());
  for (const char* bad : {"", "1x", "1e999", "--1"}) {
    EXPECT_FALSE(ParseFloatToken(bad).ok()) << "'" << bad << "'";
  }
}

TEST(MatchChoices, ParsesWordsAndArguments) {
  const auto rungs =
      knobs::MatchChoices(knobs::kDegradeLadder, "exact,ivf:12,popularity")
          .value();
  ASSERT_EQ(rungs.size(), 3u);
  EXPECT_EQ(rungs[0].word, "exact");
  EXPECT_EQ(rungs[1].word, "ivf");
  EXPECT_EQ(rungs[1].n, 12u);
  EXPECT_EQ(rungs[2].word, "popularity");
  EXPECT_EQ(knobs::MatchChoices(knobs::kGemm, "naive").value()[0].word,
            "naive");
  EXPECT_FALSE(knobs::MatchChoices(knobs::kGemm, "naive,blocked").ok());
  EXPECT_FALSE(knobs::MatchChoices(knobs::kGemm, "ivf:1").ok());
}

}  // namespace
}  // namespace core
}  // namespace whitenrec
