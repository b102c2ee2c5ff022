#include "src/core/profile.h"

#include <gtest/gtest.h>

#include <sstream>

namespace osprof {
namespace {

TEST(Profile, RecordsOperationsUnderName) {
  Profile p("read", 1);
  p.Add(100);
  p.Add(200);
  EXPECT_EQ(p.op_name(), "read");
  EXPECT_EQ(p.total_operations(), 2u);
  EXPECT_EQ(p.total_latency(), 300u);
}

TEST(ProfileSet, CreatesProfilesOnDemand) {
  ProfileSet set(1);
  set.Add("read", 100);
  set.Add("write", 5000);
  set.Add("read", 120);
  EXPECT_EQ(set.size(), 2u);
  EXPECT_EQ(set.Find("read")->total_operations(), 2u);
  EXPECT_EQ(set.Find("write")->total_operations(), 1u);
  EXPECT_EQ(set.Find("unknown"), nullptr);
}

TEST(ProfileSet, ByTotalLatencyOrdersDescending) {
  ProfileSet set(1);
  set.Add("cheap", 10);
  set.Add("expensive", 1'000'000);
  set.Add("middle", 1'000);
  const auto order = set.ByTotalLatency();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "expensive");
  EXPECT_EQ(order[1], "middle");
  EXPECT_EQ(order[2], "cheap");
}

TEST(ProfileSet, TotalsAggregateAcrossOperations) {
  ProfileSet set(1);
  set.Add("a", 100);
  set.Add("b", 200);
  EXPECT_EQ(set.TotalLatency(), 300u);
  EXPECT_EQ(set.TotalOperations(), 2u);
}

TEST(ProfileSet, SerializeParseRoundTrip) {
  ProfileSet set(1);
  for (int i = 0; i < 1000; ++i) {
    set.Add("read", static_cast<Cycles>(100 + i));
    set.Add("llseek", static_cast<Cycles>(400));
  }
  set.Add("weird/name.op", 12345);

  const std::string text = set.ToString();
  const ProfileSet parsed = ProfileSet::ParseString(text);

  EXPECT_EQ(parsed.size(), set.size());
  for (const auto& [name, profile] : set) {
    const Profile* q = parsed.Find(name);
    ASSERT_NE(q, nullptr) << name;
    EXPECT_EQ(q->total_operations(), profile.total_operations());
    EXPECT_EQ(q->total_latency(), profile.total_latency());
    for (int b = 0; b < profile.histogram().num_buckets(); ++b) {
      EXPECT_EQ(q->histogram().bucket(b), profile.histogram().bucket(b));
    }
  }
  EXPECT_TRUE(parsed.CheckConsistency());
}

TEST(ProfileSet, RoundTripPreservesResolution) {
  ProfileSet set(2);
  set.Add("op", 1000);
  const ProfileSet parsed = ProfileSet::ParseString(set.ToString());
  EXPECT_EQ(parsed.resolution(), 2);
  EXPECT_EQ(parsed.Find("op")->histogram().resolution(), 2);
}

TEST(ProfileSet, ParseRejectsMalformedInput) {
  EXPECT_THROW(ProfileSet::ParseString("bogus directive\n"), std::runtime_error);
  EXPECT_THROW(ProfileSet::ParseString("bucket 1 2\n"), std::runtime_error);
  EXPECT_THROW(
      ProfileSet::ParseString("profile x\nbucket notanumber 3\nend\n"),
      std::runtime_error);
  EXPECT_THROW(ProfileSet::ParseString("profile x recorded=1\n"),
               std::runtime_error);  // Unterminated block.
  EXPECT_THROW(ProfileSet::ParseString("profile x\nbucket 9999 1\nend\n"),
               std::runtime_error);  // Bucket out of range.
  // Counts must be plain unsigned decimals: a sign would wrap, and
  // trailing characters would silently truncate.
  EXPECT_THROW(ProfileSet::ParseString("profile x recorded=-1\nend\n"),
               std::runtime_error);
  EXPECT_THROW(
      ProfileSet::ParseString("profile x total_latency=12abc\nend\n"),
      std::runtime_error);
  EXPECT_THROW(ProfileSet::ParseString("profile x recorded=\nend\n"),
               std::runtime_error);
  EXPECT_THROW(ProfileSet::ParseString("profile x\nbucket 1 -1\nend\n"),
               std::runtime_error);
  EXPECT_THROW(ProfileSet::ParseString("profile x\nbucket 1 3x\nend\n"),
               std::runtime_error);
  // 2^63 + 2^63 wraps a 64-bit bucket sum to 0.
  EXPECT_THROW(ProfileSet::ParseString("profile x recorded=0\n"
                                       "bucket 1 9223372036854775808\n"
                                       "bucket 2 9223372036854775808\nend\n"),
               std::runtime_error);
  // A recorded= that disagrees with the buckets is the lost-update
  // checksum: it parses, and CheckConsistency reports it.
  EXPECT_FALSE(
      ProfileSet::ParseString("profile x recorded=5\nbucket 1 3\nend\n")
          .CheckConsistency());
}

TEST(ProfileSet, ParseIgnoresCommentsAndBlankLines) {
  const ProfileSet parsed = ProfileSet::ParseString(
      "# comment\n\nresolution 1\nprofile read recorded=2 total_latency=300\n"
      "  bucket 6 2\nend\n");
  ASSERT_NE(parsed.Find("read"), nullptr);
  EXPECT_EQ(parsed.Find("read")->total_operations(), 2u);
  EXPECT_EQ(parsed.Find("read")->total_latency(), 300u);
}

TEST(ProfileSet, EmptySetSerializes) {
  ProfileSet set(1);
  const ProfileSet parsed = ProfileSet::ParseString(set.ToString());
  EXPECT_TRUE(parsed.empty());
}

}  // namespace
}  // namespace osprof
