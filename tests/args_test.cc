/**
 * @file
 * The shared command-line flag parser (base/args.h): flag matching and
 * strict count parsing.
 */

#include <gtest/gtest.h>

#include <string>

#include "base/args.h"

using namespace beethoven;

TEST(Args, ParseCountAcceptsDecimalDigitsOnly)
{
    EXPECT_EQ(parseCount("0"), 0u);
    EXPECT_EQ(parseCount("42"), 42u);
    EXPECT_EQ(parseCount("007"), 7u);
    EXPECT_EQ(parseCount("18446744073709551615"), ~u64{0});

    EXPECT_FALSE(parseCount(""));                     // empty
    EXPECT_FALSE(parseCount("12x"));                  // trailing garbage
    EXPECT_FALSE(parseCount("abc"));
    EXPECT_FALSE(parseCount("-1"));                   // negative
    EXPECT_FALSE(parseCount("+1"));
    EXPECT_FALSE(parseCount(" 1"));
    EXPECT_FALSE(parseCount("18446744073709551616")); // u64 overflow
    EXPECT_FALSE(parseCount("99999999999999999999"));
}

TEST(Args, MatchesFlagsAndValuesByExactName)
{
    std::string v;
    EXPECT_TRUE(Arg("--quick").flag("quick"));
    EXPECT_FALSE(Arg("--quick").flag("quic"));
    EXPECT_FALSE(Arg("--quick=1").flag("quick"));
    EXPECT_FALSE(Arg("-quick").flag("quick"));

    EXPECT_TRUE(Arg("--trace=t.json").value("trace", v));
    EXPECT_EQ(v, "t.json");
    EXPECT_THROW(Arg("--trace=").value("trace", v), UsageError);
    EXPECT_EQ(v, "t.json");
    EXPECT_FALSE(Arg("--trace").value("trace", v));
    EXPECT_FALSE(Arg("--tracex=1").value("trace", v));
    EXPECT_FALSE(Arg("--tra=1").value("trace", v));

    EXPECT_TRUE(Arg("file.json").positional());
    EXPECT_FALSE(Arg("--file").positional());
}

TEST(Args, CountRejectsMalformedValues)
{
    u64 n = 5;
    EXPECT_TRUE(Arg("--seed=77").count("seed", n));
    EXPECT_EQ(n, 77u);
    EXPECT_FALSE(Arg("--iterations=3").count("seed", n));
    EXPECT_EQ(n, 77u);

    for (const char *bad : {"--seed=", "--seed=-1", "--seed=abc",
                            "--seed=7x", "--seed=18446744073709551616"}) {
        EXPECT_THROW(Arg(bad).count("seed", n), UsageError) << bad;
        EXPECT_EQ(n, 77u) << bad;
    }
    EXPECT_THROW(Arg("--bogus").reject(), UsageError);
}
