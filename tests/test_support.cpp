// Unit tests for the support module: contracts, table printer, CLI parser,
// JSON writer.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "support/cli.h"
#include "support/contracts.h"
#include "support/json.h"
#include "support/table.h"
#include "support/timer.h"

namespace rumor {
namespace {

TEST(Contracts, RequireThrowsInvalidArgument) {
  EXPECT_THROW(DG_REQUIRE(false, "boom"), std::invalid_argument);
  EXPECT_NO_THROW(DG_REQUIRE(true, "fine"));
}

TEST(Contracts, AssertThrowsLogicError) {
  EXPECT_THROW(DG_ASSERT(false, "boom"), std::logic_error);
  EXPECT_NO_THROW(DG_ASSERT(true, "fine"));
}

TEST(Contracts, MessagesCarryContext) {
  try {
    DG_REQUIRE(1 == 2, "math broke");
    FAIL() << "should have thrown";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("1 == 2"), std::string::npos);
    EXPECT_NE(msg.find("math broke"), std::string::npos);
  }
}

TEST(Table, AlignsColumnsAndCountsRows) {
  Table t({"name", "value"});
  t.add_row({"alpha", Table::cell(1.5)});
  t.add_row({"b", Table::cell(static_cast<std::int64_t>(42))});
  EXPECT_EQ(t.row_count(), 2u);
  EXPECT_EQ(t.column_count(), 2u);

  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("42"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(Table, RowWidthMismatchRejected) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, CellFormatsSpecials) {
  EXPECT_EQ(Table::cell(std::nan("")), "n/a");
  EXPECT_EQ(Table::cell(std::numeric_limits<double>::infinity()), "inf");
  EXPECT_EQ(Table::cell(1234.5678, 6), "1234.57");
}

TEST(Cli, ParsesEqualsAndSpaceForms) {
  const char* argv[] = {"prog", "--n=128", "--rho", "0.5", "--verbose"};
  Cli cli(5, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_int("n", 0), 128);
  EXPECT_DOUBLE_EQ(cli.get_double("rho", 0.0), 0.5);
  EXPECT_TRUE(cli.get_bool("verbose", false));
  EXPECT_EQ(cli.get_int("missing", 7), 7);
  EXPECT_TRUE(cli.has("n"));
  EXPECT_FALSE(cli.has("absent"));
}

TEST(Cli, RejectsPositionalArguments) {
  const char* argv[] = {"prog", "oops"};
  try {
    Cli(2, const_cast<char**>(argv));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("'oops'"), std::string::npos) << message;
    EXPECT_EQ(message.find("cli.cpp"), std::string::npos) << message;  // no source location
  }
}

// Malformed numbers fail by name rather than parsing a prefix ("3x" as 3).
TEST(Cli, RejectsMalformedNumbersByName) {
  const auto expect_rejected = [](const std::string& value, bool integer) {
    const std::string arg = "--trials=" + value;
    const char* argv[] = {"prog", arg.c_str()};
    const Cli cli(2, const_cast<char**>(argv));
    try {
      if (integer) {
        cli.get_int("trials", 0);
      } else {
        cli.get_double("trials", 0.0);
      }
      ADD_FAILURE() << "accepted " << arg;
    } catch (const std::invalid_argument& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find("--trials"), std::string::npos) << message;
      EXPECT_NE(message.find("'" + value + "'"), std::string::npos) << message;
    }
  };
  for (const char* value : {"3x", "", "abc", "2.5e-3", "99999999999999999999"}) {
    expect_rejected(value, /*integer=*/true);
  }
  for (const char* value : {"1e5x", "", "abc", "1e999"}) {
    expect_rejected(value, /*integer=*/false);
  }
  const char* argv[] = {"prog", "--n=-4", "--rate=2.5e-3"};
  const Cli cli(3, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_int("n", 0), -4);
  EXPECT_DOUBLE_EQ(cli.get_double("rate", 0.0), 2.5e-3);
}

// A misspelt boolean fails by name instead of silently reading as false.
TEST(Cli, BoolAcceptsSpelledValuesAndRejectsTheRest) {
  const char* argv[] = {"prog", "--a=true", "--b=1", "--c=yes", "--d=false", "--e=0", "--f=no",
                        "--g"};
  const Cli cli(8, const_cast<char**>(argv));
  for (const char* name : {"a", "b", "c", "g"}) EXPECT_TRUE(cli.get_bool(name, false)) << name;
  for (const char* name : {"d", "e", "f"}) EXPECT_FALSE(cli.get_bool(name, true)) << name;
  EXPECT_TRUE(cli.get_bool("absent", true));

  for (const char* value : {"ture", "", "TRUE", "2", "off"}) {
    const std::string arg = std::string("--json=") + value;
    const char* bad_argv[] = {"prog", arg.c_str()};
    const Cli bad(2, const_cast<char**>(bad_argv));
    try {
      bad.get_bool("json", false);
      ADD_FAILURE() << "accepted " << arg;
    } catch (const std::invalid_argument& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find("--json"), std::string::npos) << message;
      EXPECT_NE(message.find("'" + std::string(value) + "'"), std::string::npos) << message;
      EXPECT_EQ(message.find("cli.cpp"), std::string::npos) << message;
    }
  }
}

TEST(Json, NumberRoundTripsAndHandlesSpecials) {
  EXPECT_EQ(json_number(0.0), "0");
  EXPECT_EQ(json_number(1e9), "1e+09");
  EXPECT_EQ(std::strtod(json_number(0.1).c_str(), nullptr), 0.1);
  const double awkward = 5.468394823904823;
  EXPECT_EQ(std::strtod(json_number(awkward).c_str(), nullptr), awkward);
  EXPECT_EQ(json_number(std::nan("")), "null");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
}

TEST(Json, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(Json, WriterProducesWellFormedNestedValue) {
  std::ostringstream os;
  JsonWriter json(os);
  json.begin_object()
      .field("name", "x")
      .field("count", static_cast<std::int64_t>(3))
      .field("ok", true);
  json.key("values").begin_array().value(1.5).value(static_cast<std::int64_t>(2)).null().end_array();
  json.key("nested").begin_object().field("d", 0.25).end_object();
  json.end_object();
  EXPECT_EQ(os.str(),
            "{\"name\":\"x\",\"count\":3,\"ok\":true,"
            "\"values\":[1.5,2,null],\"nested\":{\"d\":0.25}}");
}

TEST(Json, WriterRejectsMisuse) {
  std::ostringstream os;
  JsonWriter json(os);
  json.begin_object();
  EXPECT_THROW(json.value(1.0), std::invalid_argument);  // member without key
  EXPECT_THROW(json.end_array(), std::invalid_argument);
  JsonWriter arr(os);
  arr.begin_array();
  EXPECT_THROW(arr.key("k"), std::invalid_argument);  // key inside array
}

TEST(Cli, ExposesAllEntries) {
  const char* argv[] = {"prog", "--n=128", "--flag"};
  Cli cli(3, const_cast<char**>(argv));
  ASSERT_EQ(cli.entries().size(), 2u);
  EXPECT_EQ(cli.entries().at("n"), "128");
  EXPECT_EQ(cli.entries().at("flag"), "true");
}

TEST(Timer, MeasuresNonNegativeTime) {
  Timer timer;
  EXPECT_GE(timer.seconds(), 0.0);
  timer.reset();
  EXPECT_GE(timer.seconds(), 0.0);
  EXPECT_LT(timer.seconds(), 5.0);
}

}  // namespace
}  // namespace rumor
