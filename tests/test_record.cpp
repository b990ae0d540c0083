// The line-record codec (common/record.hpp) that cache entries, daemon
// messages and the canonical field text all go through: framing, field
// maps, and the one strict rendering per value type.
#include <gtest/gtest.h>

#include <limits>

#include "common/record.hpp"

namespace erel::record {
namespace {

enum class Color { kRed, kGreen, kBlue };

TEST(RecordLines, SplitsOnNewlinesAndKeepsAnUnterminatedTail) {
  Lines lines("a 1\n\nb 2");
  std::string_view line;
  ASSERT_TRUE(lines.next(line));
  EXPECT_EQ(line, "a 1");
  EXPECT_EQ(lines.rest(), "\nb 2");
  ASSERT_TRUE(lines.next(line));
  EXPECT_EQ(line, "");
  ASSERT_TRUE(lines.next(line));
  EXPECT_EQ(line, "b 2");
  EXPECT_FALSE(lines.next(line));
}

TEST(RecordBody, IsTheTextBetweenHeaderAndEnd) {
  EXPECT_EQ(body("hdr v1\na 1\nb 2\nend\n", "hdr v1"), "a 1\nb 2\n");
  EXPECT_EQ(body("hdr v1\nend\n", "hdr v1"), "");
  EXPECT_EQ(body("hdr v1\na 1\nend", "hdr v1"), "a 1\n");
  EXPECT_FALSE(body("hdr v2\na 1\nend\n", "hdr v1"));     // other header
  EXPECT_FALSE(body("hdr v1\na 1\n", "hdr v1"));          // truncated
  EXPECT_FALSE(body("hdr v1\na 1\nend\nb 2\n", "hdr v1"));  // text after end
  EXPECT_FALSE(body("", "hdr v1"));
}

TEST(RecordSplit, CutsAtTheFirstSeparatorOnly) {
  const auto field = split("key.variant a=1 b", ' ');
  ASSERT_TRUE(field);
  EXPECT_EQ(field->name, "key.variant");
  EXPECT_EQ(field->value, "a=1 b");
  EXPECT_EQ(split("name=", '=')->value, "");
  EXPECT_FALSE(split("no_separator", '='));
}

TEST(RecordFieldMap, RefusesARepeatedName) {
  FieldMap fields;
  EXPECT_TRUE(add(fields, {"a", "1"}));
  EXPECT_FALSE(add(fields, {"a", "1"}));
  EXPECT_EQ(fields.size(), 1u);
}

TEST(RecordParse, AcceptsOnlyWholeValuesOfTheType) {
  std::uint64_t u64 = 0;
  EXPECT_TRUE(parse("18446744073709551615", u64));
  EXPECT_EQ(u64, std::numeric_limits<std::uint64_t>::max());
  for (const char* bad :
       {"", "-1", "+1", " 1", "1 ", "1x", "18446744073709551616"})
    EXPECT_FALSE(parse(bad, u64)) << bad;

  unsigned u32 = 0;
  EXPECT_TRUE(parse("4294967295", u32));
  EXPECT_FALSE(parse("4294967296", u32));

  bool flag = false;
  EXPECT_TRUE(parse("1", flag));
  EXPECT_TRUE(flag);
  EXPECT_TRUE(parse("0", flag));
  EXPECT_FALSE(flag);
  for (const char* bad : {"01", "00", "2", "", "true", " 1"})
    EXPECT_FALSE(parse(bad, flag)) << bad;

  double d = 0.0;
  EXPECT_TRUE(parse("0.10000000000000001", d));
  EXPECT_EQ(d, 0.1);
  EXPECT_TRUE(parse("0x1.47ae147ae147bp-6", hexfloat(d)));
  EXPECT_EQ(d, 0.02);
  EXPECT_FALSE(parse(" 1", d));
  EXPECT_FALSE(parse("1.5x", d));

  Color c = Color::kRed;
  EXPECT_TRUE(parse("2", c, Color::kBlue));
  EXPECT_EQ(c, Color::kBlue);
  EXPECT_FALSE(parse("3", c, Color::kBlue));
}

TEST(RecordWriter, RendersEachTypeOneWay) {
  std::string out;
  const Writer write(out, '=');
  write("u64", std::uint64_t{7});
  write("u32", 8u);
  write("flag", true);
  write("g17", 0.1);
  write("hex", hexfloat(0.02));
  write("text", "a b");  // a literal stays text, never a bool
  write("enum", Color::kGreen, Color::kBlue);
  EXPECT_EQ(out,
            "u64=7\nu32=8\nflag=1\ng17=0.10000000000000001\n"
            "hex=0x1.47ae147ae147bp-6\ntext=a b\nenum=1\n");
}

TEST(RecordReader, CompleteMeansEveryFieldExactlyOnceAndNothingElse) {
  const FieldMap good = {{"n", "5"}, {"flag", "1"}, {"c", "1"}};
  const auto read_all = [](const FieldMap& fields) {
    std::uint64_t n = 0;
    bool flag = false;
    Color c = Color::kRed;
    Reader read(fields);
    read("n", n);
    read("flag", flag);
    read("c", c, Color::kBlue);
    EXPECT_TRUE(!read.complete() || (n == 5 && flag && c == Color::kGreen));
    return read.complete();
  };
  EXPECT_TRUE(read_all(good));
  FieldMap missing = good;
  missing.erase("flag");
  EXPECT_FALSE(read_all(missing));
  FieldMap extra = good;
  extra.emplace("unread", "1");
  EXPECT_FALSE(read_all(extra));
  FieldMap malformed = good;
  malformed["flag"] = "01";
  EXPECT_FALSE(read_all(malformed));
  FieldMap out_of_range = good;
  out_of_range["c"] = "3";
  EXPECT_FALSE(read_all(out_of_range));
}

TEST(RecordReadLine, ReadsNamedLinesInOrder) {
  Lines lines("id 4\ncached 1\nrest of it");
  std::uint64_t id = 0;
  bool cached = false;
  ASSERT_TRUE(read_line(lines, "id", id));
  ASSERT_TRUE(read_line(lines, "cached", cached));
  EXPECT_EQ(id, 4u);
  EXPECT_TRUE(cached);
  EXPECT_EQ(lines.rest(), "rest of it");

  Lines swapped("cached 1\nid 4\n");
  EXPECT_FALSE(read_line(swapped, "id", id));
  Lines empty("");
  EXPECT_FALSE(read_line(empty, "id", id));
}

}  // namespace
}  // namespace erel::record
