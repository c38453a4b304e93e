#include "common/parse.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>

namespace cstf {
namespace {

TEST(Parse, Int64AcceptsWholeTokensOnly) {
  EXPECT_EQ(parseInt64("42"), 42);
  EXPECT_EQ(parseInt64("-17"), -17);
  EXPECT_EQ(parseInt64("0"), 0);
  EXPECT_FALSE(parseInt64(""));
  EXPECT_FALSE(parseInt64("banana"));
  EXPECT_FALSE(parseInt64("12banana"));
  EXPECT_FALSE(parseInt64("12 "));
  EXPECT_FALSE(parseInt64(" 12"));
  EXPECT_FALSE(parseInt64("1e3"));
  EXPECT_FALSE(parseInt64("99999999999999999999999"));  // overflow
}

TEST(Parse, Uint64RejectsSigns) {
  EXPECT_EQ(parseUint64("42"), 42u);
  EXPECT_EQ(parseUint64("18446744073709551615"), UINT64_MAX);
  EXPECT_FALSE(parseUint64("-1"));
  EXPECT_FALSE(parseUint64("+1"));
  EXPECT_FALSE(parseUint64("18446744073709551616"));  // overflow
  EXPECT_FALSE(parseUint64("0x10"));
}

TEST(Parse, NumberedNameTakesWholeUint64sOnly) {
  EXPECT_EQ(parseNumberedName("ckpt-000012.bin", "ckpt-", ".bin"), 12u);
  EXPECT_EQ(parseNumberedName("delta-18446744073709551615.bin", "delta-",
                              ".bin"),
            UINT64_MAX);
  // One past uint64 is not a smaller number.
  EXPECT_EQ(parseNumberedName("delta-18446744073709551616.bin", "delta-",
                              ".bin"),
            std::nullopt);
  EXPECT_EQ(parseNumberedName("ckpt-.bin", "ckpt-", ".bin"), std::nullopt);
  EXPECT_EQ(parseNumberedName("ckpt-12.tmp", "ckpt-", ".bin"), std::nullopt);
  EXPECT_EQ(parseNumberedName("ckpt-+12.bin", "ckpt-", ".bin"), std::nullopt);
  EXPECT_EQ(parseNumberedName("ckpt-1a.bin", "ckpt-", ".bin"), std::nullopt);
  EXPECT_EQ(parseNumberedName("delta-1.bin", "ckpt-", ".bin"), std::nullopt);
}

TEST(Parse, DoubleRequiresFiniteWholeTokens) {
  EXPECT_DOUBLE_EQ(*parseDouble("0.25"), 0.25);
  EXPECT_DOUBLE_EQ(*parseDouble("-3e2"), -300.0);
  EXPECT_FALSE(parseDouble(""));
  EXPECT_FALSE(parseDouble("1.5x"));
  EXPECT_FALSE(parseDouble("inf"));
  EXPECT_FALSE(parseDouble("nan"));
  EXPECT_FALSE(parseDouble("1e999"));  // overflows to inf
}

TEST(Parse, FlagHelpersEnforceRangesAndPreserveOutOnFailure) {
  int i = 5;
  EXPECT_TRUE(parseFlag("--iters", "12", i, 1));
  EXPECT_EQ(i, 12);
  EXPECT_FALSE(parseFlag("--iters", "0", i, 1));
  EXPECT_FALSE(parseFlag("--iters", "banana", i, 1));
  EXPECT_FALSE(parseFlag("--iters", nullptr, i, 1));
  EXPECT_EQ(i, 12) << "failed parses must not clobber the destination";

  std::uint64_t u = 0;
  EXPECT_TRUE(parseFlag("--seed", "18446744073709551615", u));
  EXPECT_EQ(u, UINT64_MAX);
  EXPECT_FALSE(parseFlag("--rank", "0", u, 1));
  EXPECT_FALSE(parseFlag("--rank", "-3", u, 1));

  double d = 0.0;
  EXPECT_TRUE(parseFlag("--tol", "1e-6", d, 0.0));
  EXPECT_DOUBLE_EQ(d, 1e-6);
  EXPECT_FALSE(parseFlag("--rate", "1.5", d, 0.0, 1.0));
  EXPECT_FALSE(parseFlag("--rate", "nan", d, 0.0, 1.0));
}

}  // namespace
}  // namespace cstf
