/**
 * @file
 * Unit tests of the benchmark's measurement layer: the
 * percentile-with-sample-count rule, self-time arithmetic and metric
 * name validation.
 */

#include <gtest/gtest.h>

#include <thread>

#include "ledger.hh"

namespace perfbench
{
namespace
{

Span
span(const char *name, double start, double end, int64_t parent,
     uint64_t id = 0)
{
    Span s;
    s.name = name;
    s.start = start;
    s.end = end;
    s.parent = parent;
    s.id = id;
    return s;
}

TEST(Percentile, SamplesBeyondUsesCeilingRank)
{
    EXPECT_EQ(samplesBeyond(20, 50), 10u);
    EXPECT_EQ(samplesBeyond(19, 50), 9u);  // rank ceil(9.5) = 10
    EXPECT_EQ(samplesBeyond(100, 90), 10u);
    EXPECT_EQ(samplesBeyond(200, 95), 10u);
    EXPECT_EQ(samplesBeyond(199, 95), 9u); // rank ceil(189.05) = 190
    EXPECT_EQ(samplesBeyond(1000, 99), 10u);
    EXPECT_EQ(samplesBeyond(10000, 99.9), 10u);
    EXPECT_EQ(samplesBeyond(5, 99.9), 0u);
    EXPECT_EQ(samplesBeyond(0, 50), 0u);
}

TEST(Percentile, TailIsHighestWithTenBeyond)
{
    EXPECT_FALSE(tailPercentile(0).has_value());
    EXPECT_FALSE(tailPercentile(19).has_value());
    EXPECT_EQ(tailPercentile(20), 50.0);
    EXPECT_EQ(tailPercentile(99), 50.0);
    EXPECT_EQ(tailPercentile(100), 90.0);
    EXPECT_EQ(tailPercentile(199), 90.0);
    EXPECT_EQ(tailPercentile(200), 95.0);
    EXPECT_EQ(tailPercentile(999), 95.0);
    EXPECT_EQ(tailPercentile(1000), 99.0);
    EXPECT_EQ(tailPercentile(10000), 99.9);
    EXPECT_EQ(tailPercentile(40, 20), 50.0);
    EXPECT_FALSE(tailPercentile(39, 20).has_value());
}

TEST(Percentile, QuantileInterpolatesBetweenRanks)
{
    std::vector<double> v = {4, 1, 3, 2};
    EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(quantile(v, 1.0), 4.0);
    EXPECT_DOUBLE_EQ(quantile(v, 0.5), 2.5);
    EXPECT_DOUBLE_EQ(median({7}), 7.0);
    EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
    std::vector<double> big;
    for (int i = 1; i <= 101; ++i)
        big.push_back(i);
    EXPECT_NEAR(quantile(big, 0.95), 96.0, 1e-9);
    EXPECT_THROW(quantile({}, 0.5), std::invalid_argument);
}

TEST(SelfTime, LeafKeepsItsWholeDuration)
{
    auto self = selfTimes({span("a", 1.0, 3.5, -1)});
    ASSERT_EQ(self.size(), 1u);
    EXPECT_DOUBLE_EQ(self[0], 2.5);
}

TEST(SelfTime, DisjointChildrenAreSubtracted)
{
    auto self = selfTimes({span("pass", 0, 10, -1),
                           span("a", 1, 3, 0), span("b", 5, 9, 0)});
    EXPECT_DOUBLE_EQ(self[0], 4.0);
    EXPECT_DOUBLE_EQ(self[1], 2.0);
    EXPECT_DOUBLE_EQ(self[2], 4.0);
}

TEST(SelfTime, OverlappingChildrenCountOnce)
{
    // Parallel children covering [1, 6] together.
    auto self = selfTimes({span("pass", 0, 10, -1), span("a", 1, 5, 0),
                           span("b", 2, 6, 0), span("c", 3, 4, 0)});
    EXPECT_DOUBLE_EQ(self[0], 5.0);
}

TEST(SelfTime, OnlyDirectChildrenCount)
{
    // The grandchild lies inside its parent: it must not be
    // subtracted from the root a second time.
    auto self = selfTimes({span("pass", 0, 10, -1), span("a", 2, 8, 0),
                           span("g", 3, 5, 1)});
    EXPECT_DOUBLE_EQ(self[0], 4.0);
    EXPECT_DOUBLE_EQ(self[1], 4.0);
    EXPECT_DOUBLE_EQ(self[2], 2.0);
}

TEST(SelfTime, ChildTimeOutsideParentIsClipped)
{
    auto self = selfTimes({span("pass", 2, 6, -1), span("a", 0, 3, 0),
                           span("b", 5, 9, 0)});
    EXPECT_DOUBLE_EQ(self[0], 2.0);
}

TEST(SelfTime, TouchingChildrenMerge)
{
    auto self = selfTimes({span("pass", 0, 4, -1), span("a", 0, 2, 0),
                           span("b", 2, 4, 0)});
    EXPECT_DOUBLE_EQ(self[0], 0.0);
}

TEST(Tracer, DisabledRecordsNothing)
{
    Tracer t(false);
    {
        Tracer::Scope s(t, "x", 1);
        EXPECT_EQ(s.index(), -1);
    }
    EXPECT_TRUE(t.spans().empty());
}

TEST(Tracer, NestingAndExplicitParents)
{
    Tracer t(true);
    int64_t rootIdx = -1;
    {
        Tracer::Scope root(t, "pass", 7);
        rootIdx = root.index();
        {
            Tracer::Scope child(t, "layer", 7);
        }
        std::thread other([&] {
            // A pool thread has no open span: the parent is explicit.
            Tracer::Scope task(t, "task", 7, rootIdx);
            Tracer::Scope inner(t, "inner", 7);
        });
        other.join();
    }
    auto spans = t.spans();
    ASSERT_EQ(spans.size(), 4u);
    EXPECT_EQ(spans[0].parent, -1);
    EXPECT_EQ(spans[1].parent, rootIdx);
    EXPECT_EQ(spans[2].name, "task");
    EXPECT_EQ(spans[2].parent, rootIdx);
    EXPECT_EQ(spans[3].parent, 2);
    for (const auto &s : spans) {
        EXPECT_EQ(s.id, 7u);
        EXPECT_LE(s.start, s.end);
    }
    auto byName = durationsByName(spans, 7);
    EXPECT_EQ(byName.size(), 4u);
    EXPECT_TRUE(durationsByName(spans, 8).empty());
}

TEST(MetricName, AcceptsTheCatalogAlphabet)
{
    EXPECT_TRUE(validMetricName("pass_s"));
    EXPECT_TRUE(validMetricName("timing.replay_s.C0-base"));
    EXPECT_TRUE(validMetricName("0x"));
    EXPECT_TRUE(validMetricName(std::string(64, 'a')));
}

TEST(MetricName, RejectsOtherCharactersAndShapes)
{
    EXPECT_FALSE(validMetricName(""));
    EXPECT_FALSE(validMetricName(std::string(65, 'a')));
    EXPECT_FALSE(validMetricName("_lead"));
    EXPECT_FALSE(validMetricName(".lead"));
    EXPECT_FALSE(validMetricName("-lead"));
    EXPECT_FALSE(validMetricName("has space"));
    EXPECT_FALSE(validMetricName("slash/no"));
    EXPECT_FALSE(validMetricName("pct%"));
    EXPECT_FALSE(validMetricName("quote\""));
    EXPECT_FALSE(validMetricName("t\xc3\xa9"));
}

TEST(MetricName, UnitsAllowSlashAndPercent)
{
    EXPECT_TRUE(validUnit("s"));
    EXPECT_TRUE(validUnit("1/s"));
    EXPECT_TRUE(validUnit("winstr/s"));
    EXPECT_TRUE(validUnit("%"));
    EXPECT_FALSE(validUnit(""));
    EXPECT_FALSE(validUnit("way-too-long-unit"));
    EXPECT_FALSE(validUnit("m s"));
}

TEST(Json, NumbersRoundTripAndStringsEscape)
{
    EXPECT_EQ(jsonNumber(0.1), "0.1");
    EXPECT_EQ(jsonNumber(1e300 * 1e300), "null");
    EXPECT_EQ(jsonString("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    EXPECT_EQ(jsonString(std::string("\x01", 1)), "\"\\u0001\"");
}

} // anonymous namespace
} // namespace perfbench
