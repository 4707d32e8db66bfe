#include "util/table.h"

#include "gtest/gtest.h"

namespace kvec {
namespace {

TEST(TableTest, TextRenderingAligns) {
  Table table({"name", "value"});
  table.AddRow({"alpha", "1"});
  table.AddRow({"b", "22222"});
  std::string text = table.ToText();
  EXPECT_NE(text.find("| name  | value |"), std::string::npos);
  EXPECT_NE(text.find("| alpha | 1     |"), std::string::npos);
}

TEST(TableTest, TextRenderingPadsByCodePoints) {
  // "§" and "µ" are two bytes each in UTF-8; the columns must still line up
  // as if every character were one column wide.
  Table table({"section", "unit"});
  table.AddRow({"§IV-C", "µs"});
  table.AddRow({"Table I", "ns"});
  EXPECT_EQ(table.ToText(),
            "| section | unit |\n"
            "|---------|------|\n"
            "| §IV-C   | µs   |\n"
            "| Table I | ns   |\n");
}

TEST(TableTest, CsvRoundTrip) {
  Table table({"a", "b"});
  table.AddRow({"1", "plain"});
  table.AddRow({"2", "with,comma"});
  table.AddRow({"3", "with\"quote"});
  std::string csv = table.ToCsv();

  Table parsed({"x"});
  ASSERT_TRUE(Table::FromCsv(csv, &parsed));
  ASSERT_EQ(parsed.columns().size(), 2u);
  ASSERT_EQ(parsed.rows().size(), 3u);
  EXPECT_EQ(parsed.rows()[1][1], "with,comma");
  EXPECT_EQ(parsed.rows()[2][1], "with\"quote");
}

TEST(TableTest, FromCsvRejectsRaggedRows) {
  Table parsed({"x"});
  EXPECT_FALSE(Table::FromCsv("a,b\n1\n", &parsed));
}

TEST(TableTest, FromCsvRejectsEmpty) {
  Table parsed({"x"});
  EXPECT_FALSE(Table::FromCsv("", &parsed));
}

TEST(TableTest, FormatDouble) {
  EXPECT_EQ(Table::FormatDouble(1.23456, 3), "1.235");
  EXPECT_EQ(Table::FormatDouble(-0.5, 1), "-0.5");
}

TEST(TableDeathTest, AddRowChecksWidth) {
  Table table({"a", "b"});
  EXPECT_DEATH(table.AddRow({"only one"}), "row width");
}

}  // namespace
}  // namespace kvec
