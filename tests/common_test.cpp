/**
 * @file
 * Unit tests for src/common: RNG, stats, lane masks, circular queue,
 * coroutine generator, table rendering, and address helpers.
 */

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <vector>

#include "common/bitvec.hpp"
#include "common/circular_queue.hpp"
#include "common/generator.hpp"
#include "common/json.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/types.hpp"

namespace tmu {
namespace {

TEST(Types, LineAddr)
{
    EXPECT_EQ(lineAddr(0), 0u);
    EXPECT_EQ(lineAddr(63), 0u);
    EXPECT_EQ(lineAddr(64), 64u);
    EXPECT_EQ(lineAddr(130), 128u);
}

TEST(Types, LinesTouched)
{
    EXPECT_EQ(linesTouched(0, 0), 0u);
    EXPECT_EQ(linesTouched(0, 1), 1u);
    EXPECT_EQ(linesTouched(0, 64), 1u);
    EXPECT_EQ(linesTouched(0, 65), 2u);
    EXPECT_EQ(linesTouched(60, 8), 2u);
    EXPECT_EQ(linesTouched(63, 2), 2u);
    EXPECT_EQ(linesTouched(64, 64), 1u);
    EXPECT_EQ(linesTouched(1, 128), 3u);
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 2);
}

TEST(Rng, BoundedInRange)
{
    Rng rng(7);
    for (std::uint64_t bound : {1ULL, 2ULL, 10ULL, 1000ULL}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.nextBounded(bound), bound);
    }
}

TEST(Rng, BoundedCoversAllResidues)
{
    Rng rng(11);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 500; ++i)
        seen.insert(rng.nextBounded(7));
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(3);
    for (int i = 0; i < 1000; ++i) {
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, DoubleMeanNearHalf)
{
    Rng rng(5);
    RunningStat s;
    for (int i = 0; i < 20000; ++i)
        s.add(rng.nextDouble());
    EXPECT_NEAR(s.mean(), 0.5, 0.02);
}

TEST(Rng, ZipfSkewedTowardZero)
{
    Rng rng(9);
    std::uint64_t low = 0, high = 0;
    const Index n = 1000;
    for (int i = 0; i < 20000; ++i) {
        const Index k = rng.nextZipf(n, 1.5);
        ASSERT_GE(k, 0);
        ASSERT_LT(k, n);
        if (k < n / 10)
            ++low;
        if (k >= 9 * n / 10)
            ++high;
    }
    EXPECT_GT(low, high * 10);
}

TEST(Stats, RunningStatBasics)
{
    RunningStat s;
    for (double x : {1.0, 2.0, 3.0, 4.0})
        s.add(x);
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
    EXPECT_DOUBLE_EQ(s.sum(), 10.0);
    EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
}

TEST(Stats, GeomeanOfPowers)
{
    EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-12);
    EXPECT_NEAR(geomean({1.0, 1.0, 1.0}), 1.0, 1e-12);
}

TEST(Stats, HistogramBucketsAndQuantile)
{
    Histogram h(0.0, 10.0, 10);
    for (int i = 0; i < 10; ++i)
        h.add(i + 0.5);
    EXPECT_EQ(h.total(), 10u);
    for (std::size_t i = 0; i < 10; ++i)
        EXPECT_EQ(h.bucket(i), 1u);
    EXPECT_NEAR(h.quantile(0.5), 5.5, 1.01);
    // Out-of-range values clamp to the edge buckets.
    h.add(-5.0);
    h.add(50.0);
    EXPECT_EQ(h.bucket(0), 2u);
    EXPECT_EQ(h.bucket(9), 2u);
}

TEST(LaneMask, Basics)
{
    LaneMask m;
    EXPECT_TRUE(m.empty());
    m.set(0);
    m.set(5);
    EXPECT_EQ(m.count(), 2);
    EXPECT_TRUE(m.test(0));
    EXPECT_TRUE(m.test(5));
    EXPECT_FALSE(m.test(1));
    EXPECT_EQ(m.lowest(), 0u);
    m.clear(0);
    EXPECT_EQ(m.lowest(), 5u);
}

TEST(LaneMask, FirstN)
{
    EXPECT_EQ(LaneMask::firstN(0).bits(), 0ULL);
    EXPECT_EQ(LaneMask::firstN(1).bits(), 1ULL);
    EXPECT_EQ(LaneMask::firstN(8).bits(), 0xffULL);
    EXPECT_EQ(LaneMask::firstN(64).bits(), ~0ULL);
}

TEST(LaneMask, Operators)
{
    const LaneMask a(0b0110), b(0b0011);
    EXPECT_EQ((a & b).bits(), 0b0010ULL);
    EXPECT_EQ((a | b).bits(), 0b0111ULL);
    EXPECT_EQ((~a & LaneMask::firstN(4)).bits(), 0b1001ULL);
}

TEST(CircularQueue, PushPopOrder)
{
    CircularQueue<int> q(4);
    for (int i = 0; i < 4; ++i)
        q.push(i);
    EXPECT_TRUE(q.full());
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(q.pop(), i);
    EXPECT_TRUE(q.empty());
}

TEST(CircularQueue, WrapAround)
{
    CircularQueue<int> q(3);
    q.push(1);
    q.push(2);
    EXPECT_EQ(q.pop(), 1);
    q.push(3);
    q.push(4);
    EXPECT_TRUE(q.full());
    EXPECT_EQ(q.peek(0), 2);
    EXPECT_EQ(q.peek(1), 3);
    EXPECT_EQ(q.peek(2), 4);
    EXPECT_EQ(q.pop(), 2);
    EXPECT_EQ(q.pop(), 3);
    EXPECT_EQ(q.pop(), 4);
}

TEST(CircularQueue, SpaceTracksSize)
{
    CircularQueue<int> q(5);
    EXPECT_EQ(q.space(), 5u);
    q.push(1);
    q.push(2);
    EXPECT_EQ(q.space(), 3u);
    q.pop();
    EXPECT_EQ(q.space(), 4u);
    q.clear();
    EXPECT_EQ(q.space(), 5u);
}

TEST(CircularQueue, PeekEveryOffsetAcrossWraps)
{
    // 224 is the ROB capacity: not a power of two, so the wrap must
    // be exact at every offset, not just at the head.
    for (const std::size_t cap : {std::size_t{3}, std::size_t{224}}) {
        CircularQueue<std::uint64_t> q(cap);
        std::uint64_t next = 0, head = 0;
        for (std::size_t round = 0; round < 4 * cap + 7; ++round) {
            while (!q.full())
                q.push(next++);
            for (std::size_t i = 0; i < q.size(); ++i)
                ASSERT_EQ(q.peek(i), head + i) << "cap " << cap;
            // Drain a varying amount so the head visits every index.
            const std::size_t n = 1 + round % cap;
            for (std::size_t i = 0; i < n; ++i)
                ASSERT_EQ(q.pop(), head++) << "cap " << cap;
            for (std::size_t i = 0; i < q.size(); ++i)
                ASSERT_EQ(q.peek(i), head + i) << "cap " << cap;
        }
    }
}

TEST(CircularQueue, SlotApiReusesStorageInFifoOrder)
{
    CircularQueue<std::vector<int>> q(3);
    for (int lap = 0; lap < 4; ++lap) {
        for (int i = 0; i < 3; ++i) {
            std::vector<int> &slot = q.pushSlot();
            // A slot comes back holding its last element (nothing on
            // the first lap), so callers overwrite it in place.
            EXPECT_EQ(slot.size(), lap == 0 ? 0u : 8u);
            slot.assign(8, lap * 10 + i);
        }
        EXPECT_TRUE(q.full());
        for (int i = 0; i < 3; ++i) {
            EXPECT_EQ(q.peek(0).front(), lap * 10 + i);
            q.drop();
        }
        EXPECT_TRUE(q.empty());
    }
    // Mixed push/pushSlot/drop wrap in order.
    q.push({1});
    q.pushSlot().assign(1, 2);
    q.drop();
    q.push({3});
    q.pushSlot().assign(1, 4);
    EXPECT_EQ(q.pop().front(), 2);
    EXPECT_EQ(q.peek(0).front(), 3);
    EXPECT_EQ(q.peek(1).front(), 4);
}

Generator<int>
iota(int n)
{
    for (int i = 0; i < n; ++i)
        co_yield i;
}

TEST(Generator, YieldsSequence)
{
    auto g = iota(5);
    std::vector<int> got;
    while (g.next())
        got.push_back(g.value());
    EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4}));
    EXPECT_TRUE(g.done());
    EXPECT_FALSE(g.next());
}

TEST(Generator, EmptySequence)
{
    auto g = iota(0);
    EXPECT_FALSE(g.next());
    EXPECT_TRUE(g.done());
}

Generator<int>
throwing()
{
    co_yield 1;
    throw std::runtime_error("boom");
}

TEST(Generator, PropagatesException)
{
    auto g = throwing();
    EXPECT_TRUE(g.next());
    EXPECT_EQ(g.value(), 1);
    EXPECT_THROW(g.next(), std::runtime_error);
}

TEST(Generator, MoveTransfersOwnership)
{
    auto g = iota(3);
    EXPECT_TRUE(g.next());
    Generator<int> h = std::move(g);
    EXPECT_EQ(h.value(), 0);
    EXPECT_TRUE(h.next());
    EXPECT_EQ(h.value(), 1);
}

TEST(TextTable, RendersAligned)
{
    TextTable t("demo");
    t.header({"name", "value"});
    t.row({"aa", "1.00"});
    t.row({"b", "22.50"});
    const std::string out = t.render();
    EXPECT_NE(out.find("== demo =="), std::string::npos);
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("22.50"), std::string::npos);
}

TEST(TextTable, NumFormatting)
{
    EXPECT_EQ(TextTable::num(1.234, 2), "1.23");
    EXPECT_EQ(TextTable::num(2.0, 0), "2");
}

TEST(Log, FormatBasics)
{
    EXPECT_EQ(detail::format("x=%d s=%s", 3, "hi"), "x=3 s=hi");
    EXPECT_EQ(detail::format("plain"), "plain");
}

TEST(Json, ParsesObjectsAndKeepsMemberOrder)
{
    const auto v = json::parse(
        R"({"b":1,"a":{"nested":true},"list":[1,2,3],"s":"hi"})");
    ASSERT_TRUE(v.ok()) << v.error().str();
    ASSERT_TRUE(v->isObject());
    ASSERT_EQ(v->members.size(), 4u);
    EXPECT_EQ(v->members[0].first, "b");
    EXPECT_EQ(v->members[1].first, "a");
    ASSERT_NE(v->find("a"), nullptr);
    EXPECT_TRUE(v->find("a")->find("nested")->asBool());
    EXPECT_EQ(v->find("missing"), nullptr);
    ASSERT_TRUE(v->find("list")->isArray());
    EXPECT_EQ(v->find("list")->items.size(), 3u);
    EXPECT_EQ(v->find("s")->asString(), "hi");
}

TEST(Json, StringEscapes)
{
    const auto v = json::parse(
        R"("quote \" slash \\ nl \n tab \t unicode A")");
    ASSERT_TRUE(v.ok()) << v.error().str();
    EXPECT_EQ(v->asString(), "quote \" slash \\ nl \n tab \t unicode A");
}

TEST(Json, NumbersRoundTrip)
{
    const auto u = json::parse("18446744073709551615");
    ASSERT_TRUE(u.ok());
    ASSERT_TRUE(u->asU64().ok());
    EXPECT_EQ(u->asU64().value(), 18'446'744'073'709'551'615ull);

    // Raw number text is preserved alongside the parsed value.
    EXPECT_EQ(u->text, "18446744073709551615");

    const auto d = json::parse("-1.25e2");
    ASSERT_TRUE(d.ok());
    ASSERT_TRUE(d->asDouble().ok());
    EXPECT_EQ(d->asDouble().value(), -125.0);
    // Signed/fractional numbers are not valid u64s.
    EXPECT_FALSE(d->asU64().ok());
}

TEST(Json, LiteralsAndWhitespace)
{
    EXPECT_TRUE(json::parse("  null ")->isNull());
    EXPECT_TRUE(json::parse("true")->asBool());
    EXPECT_FALSE(json::parse("false")->asBool());
    EXPECT_TRUE(json::parse(" [ ] ")->isArray());
    EXPECT_TRUE(json::parse("{}")->isObject());
}

TEST(Json, RejectsMalformedDocuments)
{
    // The torn-journal-line shapes replay must drop.
    EXPECT_FALSE(json::parse("").ok());
    EXPECT_FALSE(json::parse(R"({"index":1,"task":"SpA)").ok());
    EXPECT_FALSE(json::parse("{\"a\":}").ok());
    EXPECT_FALSE(json::parse("[1,2,").ok());
    EXPECT_FALSE(json::parse("treu").ok());
    // Trailing non-whitespace after a complete document is an error.
    EXPECT_FALSE(json::parse("{} {}").ok());
    EXPECT_FALSE(json::parse("1 2").ok());
}

} // namespace
} // namespace tmu
