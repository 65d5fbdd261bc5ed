/** @file Unit tests for the simulation harness. */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sim/context.hpp"
#include "sim/cpu_model.hpp"

namespace {

using namespace sisa::sim;

TEST(BlockRange, CoversWithoutOverlap)
{
    const std::uint64_t total = 103;
    const std::uint32_t threads = 8;
    std::uint64_t covered = 0;
    std::uint64_t prev_end = 0;
    for (ThreadId t = 0; t < threads; ++t) {
        const Range r = blockRange(total, threads, t);
        EXPECT_EQ(r.begin, prev_end);
        prev_end = r.end;
        covered += r.size();
    }
    EXPECT_EQ(prev_end, total);
    EXPECT_EQ(covered, total);
}

TEST(BlockRange, BalancedWithinOne)
{
    for (std::uint32_t threads : {1u, 3u, 7u, 32u}) {
        std::uint64_t min_size = ~0ull, max_size = 0;
        for (ThreadId t = 0; t < threads; ++t) {
            const Range r = blockRange(100, threads, t);
            min_size = std::min(min_size, r.size());
            max_size = std::max(max_size, r.size());
        }
        EXPECT_LE(max_size - min_size, 1u);
    }
}

TEST(Context, MakespanIsSlowestThread)
{
    SimContext ctx(4);
    ctx.chargeBusy(0, 100);
    ctx.chargeBusy(1, 250);
    ctx.chargeStall(1, 50);
    ctx.chargeBusy(2, 10);
    EXPECT_EQ(ctx.makespan(), 300u);
    EXPECT_EQ(ctx.threadCycles(1), 300u);
    EXPECT_EQ(ctx.threadBusy(1), 250u);
    EXPECT_EQ(ctx.threadStall(1), 50u);
}

TEST(Context, StalledFractionIncludesIdle)
{
    SimContext ctx(2);
    ctx.chargeBusy(0, 100);     // Thread 0: all busy.
    ctx.chargeBusy(1, 40);
    ctx.chargeStall(1, 10);     // Thread 1: finishes at 50.
    // Makespan 100: thread 1 idles 50 and stalled 10 -> 0.6.
    EXPECT_DOUBLE_EQ(ctx.stalledFraction(1), 0.6);
    EXPECT_DOUBLE_EQ(ctx.stalledFraction(0), 0.0);
}

TEST(Context, PatternCutoffStopsThread)
{
    SimContext ctx(1);
    ctx.setPatternCutoff(3);
    EXPECT_TRUE(ctx.countPattern(0));
    EXPECT_TRUE(ctx.countPattern(0));
    EXPECT_FALSE(ctx.countPattern(0)); // Third hit reaches the cutoff.
    EXPECT_TRUE(ctx.cutoffReached(0));
    EXPECT_EQ(ctx.patterns(0), 3u);
}

TEST(Context, NoCutoffByDefault)
{
    SimContext ctx(1);
    for (int i = 0; i < 100; ++i)
        EXPECT_TRUE(ctx.countPattern(0));
    EXPECT_FALSE(ctx.cutoffReached(0));
}

TEST(Context, CutoffIsPerThread)
{
    SimContext ctx(2);
    ctx.setPatternCutoff(1);
    ctx.countPattern(0);
    EXPECT_TRUE(ctx.cutoffReached(0));
    EXPECT_FALSE(ctx.cutoffReached(1));
    EXPECT_EQ(ctx.totalPatterns(), 1u);
}

TEST(Context, CountPatternsEqualsCountPatternLoop)
{
    for (const std::uint64_t cutoff : {0u, 1u, 5u}) {
        // Start below, at and past the cutoff (countPattern keeps
        // counting past it).
        for (const std::uint64_t start :
             {std::uint64_t{0}, cutoff / 2, cutoff, cutoff + 2}) {
            for (const std::uint64_t k : {0u, 1u, 3u, 10u}) {
                SCOPED_TRACE(::testing::Message()
                             << "cutoff=" << cutoff << " start=" << start
                             << " k=" << k);
                SimContext loop(1);
                SimContext bulk(1);
                for (SimContext *ctx : {&loop, &bulk}) {
                    ctx->setPatternCutoff(cutoff);
                    for (std::uint64_t i = 0; i < start; ++i)
                        ctx->countPattern(0);
                }
                bool within = !loop.cutoffReached(0);
                for (std::uint64_t t = 0; t < k; ++t) {
                    within = loop.countPattern(0);
                    if (!within)
                        break;
                }
                EXPECT_EQ(bulk.countPatterns(0, k), within);
                EXPECT_EQ(bulk.patterns(0), loop.patterns(0));
                EXPECT_EQ(bulk.cutoffReached(0), loop.cutoffReached(0));
            }
        }
    }
}

TEST(Context, SetSizeTrace)
{
    SimContext ctx(2);
    ctx.enableSetSizeTrace(5);
    ctx.recordSetSize(0, 3);
    ctx.recordSetSize(0, 4);
    ctx.recordSetSize(1, 50);
    EXPECT_EQ(ctx.setSizeTrace(0).totalWeight(), 2u);
    EXPECT_EQ(ctx.setSizeTrace(1).totalWeight(), 1u);
    EXPECT_DOUBLE_EQ(ctx.setSizeTrace(0).frequency(2), 1.0);
}

TEST(Context, Counters)
{
    SimContext ctx(1);
    ctx.bumpCounter(internCounter("x"));
    ctx.bumpCounter(internCounter("x"), 4);
    EXPECT_EQ(ctx.counter("x"), 5u);
    EXPECT_EQ(ctx.counter("missing"), 0u);
}

// --- Counter registry ------------------------------------------------------

using Counters = std::map<std::string, std::uint64_t>;

TEST(CounterRegistry, NameReportsIffBumpedEvenByZero)
{
    SimContext ctx(1);
    ctx.bumpCounter(internCounter("reg.zero"), 0);
    ctx.bumpCounter(internCounter("reg.one"));
    internCounter("reg.interned_only"); // Registered, never bumped.
    EXPECT_EQ(ctx.counters(),
              (Counters{{"reg.one", 1}, {"reg.zero", 0}}));
    EXPECT_EQ(ctx.counter("reg.one"), 1u);
    // Registration is process-wide; presence is per context.
    EXPECT_TRUE(SimContext(1).counters().empty());
}

TEST(CounterRegistry, ReadingAnUnknownNameDoesNotRegisterIt)
{
    SimContext ctx(1);
    EXPECT_FALSE(findCounter("reg.never-bumped").has_value());
    EXPECT_EQ(ctx.counter("reg.never-bumped"), 0u);
    EXPECT_FALSE(findCounter("reg.never-bumped").has_value());
    EXPECT_TRUE(ctx.counters().empty());
}

TEST(CounterRegistry, AbsorbAndQuerySlicesEqualSummedBumps)
{
    SimContext a(1);
    a.bindQuery(7);
    a.bumpCounter(internCounter("reg.x"), 3);
    a.chargeBusy(0, 10);
    a.bindQuery(no_query);
    a.bumpCounter(internCounter("reg.x"), 5); // Untagged: thread totals only.
    a.bindQuery(9);
    a.bumpCounter(internCounter("reg.y"), 2);
    a.chargeStall(0, 4);

    SimContext b(2);
    b.bindQuery(7);
    b.bumpCounter(internCounter("reg.x"), 11);
    b.bumpCounter(internCounter("reg.y"), 0);
    b.chargeBusy(1, 6);

    // absorbCounters merges counters (thread and per-query), never
    // cycles.
    a.absorbCounters(b);
    EXPECT_EQ(a.counters(), (Counters{{"reg.x", 19}, {"reg.y", 2}}));
    EXPECT_EQ(a.queryAccount(7).counters,
              (Counters{{"reg.x", 14}, {"reg.y", 0}}));
    EXPECT_EQ(a.queryAccount(7).busy, 10u);
    EXPECT_EQ(a.queryAccount(9).counters, (Counters{{"reg.y", 2}}));
    EXPECT_EQ(a.queryAccount(9).stall, 4u);
    EXPECT_EQ(a.queryAccounts().size(), 2u);
    EXPECT_TRUE(a.queryAccount(8).counters.empty());

    // absorbQueryAccounting merges whole accounts, cycles included,
    // and leaves the thread-level counters alone.
    SimContext agg(1);
    agg.absorbQueryAccounting(a);
    agg.absorbQueryAccounting(b);
    EXPECT_EQ(agg.queryAccount(7).busy, 16u);
    EXPECT_EQ(agg.queryAccount(7).counters,
              (Counters{{"reg.x", 25}, {"reg.y", 0}}));
    EXPECT_EQ(agg.queryAccount(9).cycles(), 4u);
    EXPECT_TRUE(agg.counters().empty());

    // reset() returns to the constructed state.
    agg.reset(3);
    EXPECT_EQ(agg.numThreads(), 3u);
    EXPECT_TRUE(agg.queryAccounts().empty());
    EXPECT_TRUE(agg.counters().empty());
}

TEST(CounterRegistry, BoundQuerySurvivesCopyAndMove)
{
    SimContext ctx(1);
    ctx.bindQuery(3);
    ctx.bumpCounter(internCounter("reg.c"));
    SimContext copy = ctx;
    copy.bumpCounter(internCounter("reg.c"), 2);
    copy.chargeBusy(0, 5);
    EXPECT_EQ(ctx.queryAccount(3).counters.at("reg.c"), 1u);
    EXPECT_EQ(ctx.queryAccount(3).busy, 0u);
    EXPECT_EQ(copy.queryAccount(3).counters.at("reg.c"), 3u);
    SimContext moved = std::move(copy);
    moved.bumpCounter(internCounter("reg.c"));
    EXPECT_EQ(moved.queryAccount(3).counters.at("reg.c"), 4u);
    EXPECT_EQ(moved.queryAccount(3).busy, 5u);
}

TEST(CounterRegistry, ConcurrentInterningGivesOneIdPerName)
{
    constexpr std::size_t threads = 4;
    constexpr std::size_t names = 64;
    std::vector<std::vector<CounterId>> ids(
        threads, std::vector<CounterId>(names));
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < threads; ++t) {
        pool.emplace_back([&ids, t] {
            // Each thread walks the names in a different order.
            for (std::size_t i = 0; i < names; ++i) {
                const std::size_t k = (i + t * 17) % names;
                ids[t][k] = internCounter("reg.concurrent." +
                                          std::to_string(k));
            }
        });
    }
    for (std::thread &thread : pool)
        thread.join();
    for (std::size_t t = 1; t < threads; ++t)
        EXPECT_EQ(ids[t], ids[0]);
    EXPECT_EQ(std::set<CounterId>(ids[0].begin(), ids[0].end()).size(),
              names);
    for (std::size_t k = 0; k < names; ++k)
        EXPECT_EQ(counterName(ids[0][k]),
                  "reg.concurrent." + std::to_string(k));
}

// --- CPU model -------------------------------------------------------------

TEST(CpuModel, ComputeUsesIpc)
{
    SimContext ctx(1);
    CpuModel cpu(CpuParams{}, 1);
    cpu.compute(ctx, 0, 10);
    EXPECT_EQ(ctx.threadBusy(0), 5u); // 10 ops at kIpc = 2.
}

TEST(CpuModel, DependentMissCostsMoreThanStreamMiss)
{
    CpuParams params;
    SimContext ctx(1);
    CpuModel cpu(params, 1);
    const auto dependent =
        cpu.load(ctx, 0, 0x100000, AccessKind::Dependent);
    const auto sequential =
        cpu.load(ctx, 0, 0x200000, AccessKind::Sequential);
    EXPECT_GT(dependent, sequential); // MLP hides streamed latency.
}

TEST(CpuModel, L1HitIsBusyNotStall)
{
    CpuParams params;
    SimContext ctx(1);
    CpuModel cpu(params, 1);
    cpu.load(ctx, 0, 0x3000, AccessKind::Dependent); // Cold.
    const Cycles stall_after_cold = ctx.threadStall(0);
    cpu.load(ctx, 0, 0x3000, AccessKind::Dependent); // Warm L1 hit.
    EXPECT_EQ(ctx.threadStall(0), stall_after_cold); // No new stalls.
}

TEST(CpuModel, StreamTouchesEachLineOnce)
{
    CpuParams params;
    SimContext ctx(1);
    CpuModel cpu(params, 1);
    // 64 elements x 4B = 256B = 4 lines; 4 misses max.
    cpu.stream(ctx, 0, 0x40000, 64, 4);
    EXPECT_LE(cpu.dramAccesses(0), 4u);
}

TEST(CpuModel, FixedBandwidthContentionGrowsWithThreads)
{
    CpuParams params;
    params.scalableBandwidth = false;
    SimContext ctx1(1);
    CpuModel cpu1(params, 1);
    const auto lat1 = cpu1.load(ctx1, 0, 0x50000,
                                AccessKind::Dependent);
    SimContext ctx32(32);
    CpuModel cpu32(params, 32);
    const auto lat32 = cpu32.load(ctx32, 0, 0x50000,
                                  AccessKind::Dependent);
    EXPECT_GT(lat32, lat1); // The Figure 1 effect.
}

TEST(CpuModel, ScalableBandwidthHasNoContention)
{
    CpuParams params;
    params.scalableBandwidth = true;
    SimContext ctx1(1);
    CpuModel cpu1(params, 1);
    const auto lat1 = cpu1.load(ctx1, 0, 0x50000,
                                AccessKind::Dependent);
    SimContext ctx32(32);
    CpuModel cpu32(params, 32);
    const auto lat32 = cpu32.load(ctx32, 0, 0x50000,
                                  AccessKind::Dependent);
    EXPECT_EQ(lat32, lat1);
}

TEST(CpuModel, PerThreadPrivateCaches)
{
    CpuParams params;
    SimContext ctx(2);
    CpuModel cpu(params, 2);
    cpu.load(ctx, 0, 0x60000, AccessKind::Dependent); // Warm t0 only.
    const auto t0 = cpu.load(ctx, 0, 0x60000, AccessKind::Dependent);
    const auto t1 = cpu.load(ctx, 1, 0x60000, AccessKind::Dependent);
    EXPECT_LT(t0, t1); // Thread 1's L1/L2 are cold (L3 shared).
}

} // namespace
