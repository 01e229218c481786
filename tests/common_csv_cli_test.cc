#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/cli.h"
#include "common/csv.h"

namespace privshape {
namespace {

class CsvTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  // One file per test: ctest runs each case as its own process, in
  // parallel under -j, so a shared name lets one case read another's.
  std::string path_ =
      ::testing::TempDir() + "/privshape_csv_test_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".csv";
};

TEST_F(CsvTest, WriteAndReadBack) {
  {
    CsvWriter writer(path_);
    ASSERT_TRUE(writer.ok());
    writer.WriteRow(std::vector<double>{1.5, 2.25, -3.0});
    writer.WriteRow(std::vector<double>{4.0, 5.0, 6.0});
  }
  auto rows = ReadCsvDoubles(path_);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_DOUBLE_EQ((*rows)[0][0], 1.5);
  EXPECT_DOUBLE_EQ((*rows)[0][2], -3.0);
  EXPECT_DOUBLE_EQ((*rows)[1][1], 5.0);
}

TEST_F(CsvTest, HeaderThenRows) {
  {
    CsvWriter writer(path_);
    writer.WriteHeader({"epsilon", "ari"});
    writer.WriteRow(std::vector<std::string>{"4", "0.68"});
  }
  std::ifstream in(path_);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "epsilon,ari");
  std::getline(in, line);
  EXPECT_EQ(line, "4,0.68");
}

TEST_F(CsvTest, ReadMissingFileFails) {
  auto rows = ReadCsvDoubles("/nonexistent/path.csv");
  EXPECT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kNotFound);
}

TEST_F(CsvTest, ReadNonNumericFails) {
  {
    std::ofstream out(path_);
    out << "1,abc,3\n";
  }
  auto rows = ReadCsvDoubles(path_);
  EXPECT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kInvalidArgument);
}

// --- Real-world CSV hardening (BOM / CRLF / ragged / quoting) -----------

TEST_F(CsvTest, Utf8BomIsStripped) {
  {
    std::ofstream out(path_, std::ios::binary);
    out << "\xEF\xBB\xBF" << "1,2\n3,4\n";
  }
  auto rows = ReadCsvDoubles(path_);
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_DOUBLE_EQ((*rows)[0][0], 1.0);  // BOM must not poison cell [0][0]
  EXPECT_DOUBLE_EQ((*rows)[1][1], 4.0);
}

TEST_F(CsvTest, CrlfLineEndingsAreTrimmed) {
  {
    std::ofstream out(path_, std::ios::binary);
    // Includes a blank CRLF line: pre-fix, the stray "\r" became a cell
    // and the whole file was rejected as non-numeric.
    out << "1,2\r\n3,4\r\n\r\n";
  }
  auto rows = ReadCsvDoubles(path_);
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_DOUBLE_EQ((*rows)[0][1], 2.0);  // no stray \r glued to "2"
  EXPECT_DOUBLE_EQ((*rows)[1][1], 4.0);
}

TEST_F(CsvTest, RaggedRowsAreRejected) {
  {
    std::ofstream out(path_);
    out << "1,2,3\n4,5\n";
  }
  auto rows = ReadCsvDoubles(path_);
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rows.status().message().find("ragged"), std::string::npos);
}

TEST_F(CsvTest, TrailingJunkInCellIsRejected) {
  {
    std::ofstream out(path_);
    out << "1,2suffix\n";  // std::stod would silently read 2
  }
  auto rows = ReadCsvDoubles(path_);
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kInvalidArgument);
}

TEST(EscapeCsvCellTest, QuotesOnlyWhenNeeded) {
  EXPECT_EQ(EscapeCsvCell("plain"), "plain");
  EXPECT_EQ(EscapeCsvCell("3.14"), "3.14");
  EXPECT_EQ(EscapeCsvCell("a,b"), "\"a,b\"");
  EXPECT_EQ(EscapeCsvCell("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(EscapeCsvCell("two\nlines"), "\"two\nlines\"");
}

// Found by fuzz_csv: a doubled BOM strips once at parse, leaving the
// second BOM as cell content. If the writer then emits that cell
// unquoted at the start of a file, a reparse strips it again and the
// cell no longer round-trips. EscapeCsvCell must quote BOM-leading
// cells so the file-level strip cannot fire on cell content.
TEST(EscapeCsvCellTest, QuotesCellStartingWithBom) {
  const std::string bom = "\xEF\xBB\xBF";
  EXPECT_EQ(EscapeCsvCell(bom + "h1"), "\"" + bom + "h1\"");

  auto first = ParseCsvString(bom + bom + "h1,h2\n");
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_EQ(first->size(), 1u);
  EXPECT_EQ((*first)[0], (std::vector<std::string>{bom + "h1", "h2"}));

  std::string rewritten =
      EscapeCsvCell((*first)[0][0]) + "," + EscapeCsvCell((*first)[0][1]) +
      "\n";
  auto second = ParseCsvString(rewritten);
  ASSERT_TRUE(second.ok()) << second.status();
  ASSERT_EQ(second->size(), 1u);
  EXPECT_EQ((*second)[0], (*first)[0]);
}

TEST(ParseCsvStringTest, HandlesQuotedCells) {
  auto rows = ParseCsvString("a,\"b,c\",\"say \"\"hi\"\"\"\n\"x\ny\",z\n");
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0],
            (std::vector<std::string>{"a", "b,c", "say \"hi\""}));
  EXPECT_EQ((*rows)[1], (std::vector<std::string>{"x\ny", "z"}));
}

TEST(ParseCsvStringTest, RejectsMalformedQuoting) {
  EXPECT_FALSE(ParseCsvString("\"unterminated\n").ok());
  EXPECT_FALSE(ParseCsvString("\"closed\"junk\n").ok());
  EXPECT_FALSE(ParseCsvString("mid\"quote\n").ok());
}

TEST_F(CsvTest, QuotedCellsRoundTripThroughWriter) {
  std::vector<std::string> nasty = {"a,b", "say \"hi\"", "multi\nline",
                                    "plain"};
  {
    CsvWriter writer(path_);
    ASSERT_TRUE(writer.ok());
    writer.WriteRow(nasty);
    writer.WriteRow(std::vector<std::string>{"1", "2", "3", "4"});
  }
  std::ifstream in(path_, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  auto rows = ParseCsvString(buffer.str());
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0], nasty);  // commas/quotes/newlines survived
  EXPECT_EQ((*rows)[1],
            (std::vector<std::string>{"1", "2", "3", "4"}));
}

TEST(FormatDoubleTest, Renders) {
  EXPECT_EQ(FormatDouble(1.5), "1.5");
  EXPECT_EQ(FormatDouble(std::nan("")), "nan");
}

TEST(CliTest, ParsesEqualsForm) {
  const char* argv[] = {"prog", "--users=500", "--epsilon=2.5",
                        "--name=trace"};
  CliArgs args(4, const_cast<char**>(argv));
  EXPECT_EQ(args.GetInt("users", 0), 500);
  EXPECT_DOUBLE_EQ(args.GetDouble("epsilon", 0.0), 2.5);
  EXPECT_EQ(args.GetString("name", ""), "trace");
}

TEST(CliTest, ParsesSpaceForm) {
  const char* argv[] = {"prog", "--users", "123"};
  CliArgs args(3, const_cast<char**>(argv));
  EXPECT_EQ(args.GetInt("users", 0), 123);
}

TEST(CliTest, DefaultsWhenMissing) {
  const char* argv[] = {"prog"};
  CliArgs args(1, const_cast<char**>(argv));
  EXPECT_EQ(args.GetInt("users", 77), 77);
  EXPECT_FALSE(args.Has("users"));
}

TEST(CliTest, BareFlagActsAsBoolean) {
  const char* argv[] = {"prog", "--verbose"};
  CliArgs args(2, const_cast<char**>(argv));
  EXPECT_TRUE(args.Has("verbose"));
  EXPECT_EQ(args.GetInt("verbose", 0), 1);
}

TEST(CliTest, GetBoolRefusesAnyValueButBare) {
  // A bare flag before another flag is true; one before a stray argument
  // swallowed it as its value, and GetBool names the flag.
  const char* argv[] = {"prog", "--check", "--users", "5", "--verify",
                        "stray"};
  CliArgs args(6, const_cast<char**>(argv));
  auto check = args.GetBool("check");
  ASSERT_TRUE(check.ok());
  EXPECT_TRUE(*check);
  auto absent = args.GetBool("quiet");
  ASSERT_TRUE(absent.ok());
  EXPECT_FALSE(*absent);
  auto stray = args.GetBool("verify");
  EXPECT_EQ(stray.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(stray.status().message(),
            "--verify takes no value, got \"stray\"");
}

TEST(CliTest, EnvFallback) {
  setenv("PRIVSHAPE_FALLBACK_TEST_KEY", "99", 1);
  const char* argv[] = {"prog"};
  CliArgs args(1, const_cast<char**>(argv));
  EXPECT_EQ(args.GetInt("fallback_test_key", 0), 99);
  unsetenv("PRIVSHAPE_FALLBACK_TEST_KEY");
}

TEST(CliTest, FlagBeatsEnv) {
  setenv("PRIVSHAPE_PRIORITY_KEY", "1", 1);
  const char* argv[] = {"prog", "--priority_key=2"};
  CliArgs args(2, const_cast<char**>(argv));
  EXPECT_EQ(args.GetInt("priority_key", 0), 2);
  unsetenv("PRIVSHAPE_PRIORITY_KEY");
}

TEST(CliTest, DashAndUnderscoreSpellOneFlag) {
  // `-` and `_` are one character in flag names: either spelling answers
  // the other, and the later one wins when both are given.
  const char* argv[] = {"prog", "--num_classes=3", "--batch-size", "8",
                        "--batch_size=16"};
  CliArgs args(5, const_cast<char**>(argv));
  EXPECT_EQ(args.GetInt("num-classes", 0), 3);
  EXPECT_TRUE(args.Has("num_classes"));
  EXPECT_EQ(args.GetInt("batch-size", 0), 16);
  EXPECT_EQ(args.GetInt("batch_size", 0), 16);

  // A dashed flag falls back to PRIVSHAPE_<NAME> spelled with `_`, the
  // only spelling a POSIX shell can export.
  setenv("PRIVSHAPE_MIN_CLIENTS", "7", 1);
  EXPECT_EQ(args.GetInt("min-clients", 1), 7);
  unsetenv("PRIVSHAPE_MIN_CLIENTS");
}

TEST(CliTest, GetCountIsStrictAndNonNegative) {
  const char* argv[] = {"prog", "--users=12", "--port=-1", "--drainers=2x"};
  CliArgs args(4, const_cast<char**>(argv));
  auto users = args.GetCount("users", 5);
  ASSERT_TRUE(users.ok());
  EXPECT_EQ(*users, 12u);
  auto missing = args.GetCount("connections", 5);
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(*missing, 5u);
  auto negative = args.GetCount("port", 0);
  EXPECT_EQ(negative.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(negative.status().message().find("--port"), std::string::npos);
  EXPECT_EQ(args.GetCount("drainers", 1).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(CliTest, CheckAllReadNamesTheFirstUnreadFlag) {
  // A misspelt flag parses like any other; only the check sees that no
  // lookup asked for it. Flags are named as spelt, in command-line order.
  const char* argv[] = {"prog", "--users", "5", "--user=300", "--help",
                        "--min-clients", "2"};
  CliArgs args(7, const_cast<char**>(argv));
  EXPECT_EQ(args.GetInt("users", 0), 5);
  Status unread = args.CheckAllRead();
  EXPECT_EQ(unread.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(unread.message(), "unknown flag --user");
  EXPECT_FALSE(args.Has("user-count"));  // a miss does not read --user
  EXPECT_EQ(args.CheckAllRead().message(), "unknown flag --user");

  EXPECT_EQ(args.GetString("user", ""), "300");
  EXPECT_EQ(args.CheckAllRead().message(), "unknown flag --help");
  EXPECT_TRUE(args.Has("help"));
  // Every lookup form counts, in either spelling of `-` and `_`.
  EXPECT_EQ(args.CheckAllRead().message(), "unknown flag --min-clients");
  ASSERT_TRUE(args.GetCount("min_clients", 1).ok());
  EXPECT_TRUE(args.CheckAllRead().ok());
}

TEST(CliTest, CheckAllReadRefusesStrayPositionalArguments) {
  // "--check" before another flag stays a bare boolean; "extra" after a
  // flag's value belongs to no flag.
  const char* argv[] = {"prog", "--check", "--users", "5", "extra"};
  CliArgs args(5, const_cast<char**>(argv));
  EXPECT_TRUE(args.Has("check"));
  EXPECT_EQ(args.GetInt("users", 0), 5);
  Status stray = args.CheckAllRead();
  EXPECT_EQ(stray.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(stray.message(), "unexpected argument \"extra\"");
}

TEST(CliTest, CheckAllReadIgnoresEnvFallbacks) {
  setenv("PRIVSHAPE_UNREAD_ENV_KEY", "1", 1);
  const char* argv[] = {"prog"};
  CliArgs args(1, const_cast<char**>(argv));
  EXPECT_TRUE(args.CheckAllRead().ok());
  unsetenv("PRIVSHAPE_UNREAD_ENV_KEY");
}

TEST(CliTest, MalformedNumberFallsBack) {
  const char* argv[] = {"prog", "--users=abc"};
  CliArgs args(2, const_cast<char**>(argv));
  EXPECT_EQ(args.GetInt("users", 42), 42);
}

TEST(CliTest, ThreadsFlagParsed) {
  const char* argv[] = {"prog", "--threads=6"};
  CliArgs args(2, const_cast<char**>(argv));
  EXPECT_EQ(ThreadsFromArgs(args), 6u);
}

TEST(CliTest, ThreadsDefaultsToHardware) {
  // Shield against a PRIVSHAPE_THREADS inherited from the invoking shell.
  unsetenv("PRIVSHAPE_THREADS");
  const char* argv[] = {"prog"};
  CliArgs args(1, const_cast<char**>(argv));
  // 0 = "hardware concurrency" by ThreadPool convention.
  EXPECT_EQ(ThreadsFromArgs(args), 0u);
  EXPECT_EQ(ThreadsFromArgs(args, 4), 4u);
}

TEST(CliTest, ThreadsEnvFallback) {
  setenv("PRIVSHAPE_THREADS", "3", 1);
  const char* argv[] = {"prog"};
  CliArgs args(1, const_cast<char**>(argv));
  EXPECT_EQ(ThreadsFromArgs(args), 3u);
  unsetenv("PRIVSHAPE_THREADS");
}

TEST(CliTest, NegativeThreadsFallsBack) {
  const char* argv[] = {"prog", "--threads=-2"};
  CliArgs args(2, const_cast<char**>(argv));
  EXPECT_EQ(ThreadsFromArgs(args, 1), 1u);
}

// --- Strict numeric flag parsing ----------------------------------------

TEST(CliTest, TrailingJunkIsMalformedNotTruncated) {
  // Pre-fix, std::stoi("12abc") silently yielded 12.
  const char* argv[] = {"prog", "--users=12abc"};
  CliArgs args(2, const_cast<char**>(argv));
  EXPECT_EQ(args.GetInt("users", 42), 42);
  auto strict = args.GetIntStatus("users", 42);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kInvalidArgument);
}

TEST(CliTest, MalformedThreadsEnvFallsBackInsteadOfAborting) {
  setenv("PRIVSHAPE_THREADS", "abc", 1);
  const char* argv[] = {"prog"};
  CliArgs args(1, const_cast<char**>(argv));
  // Must not throw/abort; malformed env means "use the default".
  EXPECT_EQ(ThreadsFromArgs(args, 4), 4u);
  setenv("PRIVSHAPE_THREADS", "7xyz", 1);
  EXPECT_EQ(ThreadsFromArgs(args, 4), 4u);
  setenv("PRIVSHAPE_THREADS", "-3", 1);
  EXPECT_EQ(ThreadsFromArgs(args, 4), 4u);
  unsetenv("PRIVSHAPE_THREADS");
}

TEST(CliTest, OutOfRangeIntFallsBack) {
  setenv("PRIVSHAPE_THREADS", "99999999999999999999", 1);
  const char* argv[] = {"prog"};
  CliArgs args(1, const_cast<char**>(argv));
  EXPECT_EQ(ThreadsFromArgs(args, 2), 2u);
  EXPECT_EQ(args.GetInt("threads", -1), -1);
  unsetenv("PRIVSHAPE_THREADS");
}

TEST(ParseIntFlagTest, StrictParse) {
  EXPECT_EQ(*ParseIntFlag("n", "123"), 123);
  EXPECT_EQ(*ParseIntFlag("n", "-7"), -7);
  EXPECT_EQ(*ParseIntFlag("n", "  42  "), 42);  // surrounding whitespace ok
  EXPECT_FALSE(ParseIntFlag("n", "").ok());
  EXPECT_FALSE(ParseIntFlag("n", "  ").ok());
  EXPECT_FALSE(ParseIntFlag("n", "abc").ok());
  EXPECT_FALSE(ParseIntFlag("n", "12abc").ok());
  EXPECT_FALSE(ParseIntFlag("n", "1.5").ok());
  EXPECT_FALSE(ParseIntFlag("n", "99999999999999999999").ok());
  auto err = ParseIntFlag("users", "junk");
  ASSERT_FALSE(err.ok());
  // The error names the flag so CLI users see what to fix.
  EXPECT_NE(err.status().message().find("--users"), std::string::npos);
}

TEST(ParseDoubleFlagTest, StrictParse) {
  EXPECT_DOUBLE_EQ(*ParseDoubleFlag("x", "2.5"), 2.5);
  EXPECT_DOUBLE_EQ(*ParseDoubleFlag("x", "1e3"), 1000.0);
  EXPECT_DOUBLE_EQ(*ParseDoubleFlag("x", "-0.25"), -0.25);
  EXPECT_FALSE(ParseDoubleFlag("x", "").ok());
  EXPECT_FALSE(ParseDoubleFlag("x", "2.5x").ok());
  EXPECT_FALSE(ParseDoubleFlag("x", "nope").ok());
  EXPECT_FALSE(ParseDoubleFlag("x", "1e999999").ok());
  for (const char* spelling :
       {"nan", "NaN", "-nan", "nan(0x1)", "inf", "-inf", "Infinity"}) {
    EXPECT_FALSE(ParseDoubleFlag("x", spelling).ok()) << spelling;
  }
}

TEST(CliTest, GetDoubleStatusReportsMalformed) {
  const char* argv[] = {"prog", "--epsilon=4.0.1"};
  CliArgs args(2, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(args.GetDouble("epsilon", 1.0), 1.0);
  EXPECT_FALSE(args.GetDoubleStatus("epsilon", 1.0).ok());
  // Missing flag still yields the default, not an error.
  auto missing = args.GetDoubleStatus("absent", 2.0);
  ASSERT_TRUE(missing.ok());
  EXPECT_DOUBLE_EQ(*missing, 2.0);
}

}  // namespace
}  // namespace privshape
