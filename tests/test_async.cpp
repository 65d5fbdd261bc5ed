/**
 * @file
 * Async-dispatch suites (the `async` CTest label): bit-identity of
 * the in-flight batch window against the per-batch barrier across
 * {primary, balanced} routing x {hash, locality} placement (values,
 * result ids, payloads, golden instruction traces, and every counter
 * outside the scu.async_* family) plus absolute cycle and counter
 * pins per configuration, a seeded random-batch oracle against
 * std::set across routing x depth, a strictly-lower-makespan pin for
 * Bron-Kerbosch on RMAT, window mechanics (depth-bounded retirement,
 * drain-on-rebind, serial-op synchronization stalls, depth 0 as the
 * barrier, a dead operand aborting the dispatch), the batched
 * lastBackend retention rule, and the scratch high-watermark release
 * on empty dispatches.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "algorithms/bron_kerbosch.hpp"
#include "algorithms/common.hpp"
#include "algorithms/triangle_count.hpp"
#include "core/set_graph.hpp"
#include "core/sisa_engine.hpp"
#include "graph/generators.hpp"
#include "sisa/batch.hpp"
#include "sisa/placement.hpp"
#include "sisa/scu.hpp"
#include "sisa/set_store.hpp"
#include "sisa/trace.hpp"
#include "reference.hpp"

namespace {

using namespace sisa;
using namespace sisa::isa;
using sisa::sets::Element;
using sisa::sets::SetRepr;
using sisa::sim::SimContext;

/** Identical random set pools in twin stores (incl. empty sets). */
std::vector<SetId>
makePool(SetStore &store, std::uint32_t count, Element universe,
         std::uint64_t seed)
{
    std::vector<SetId> ids;
    std::uint64_t state = seed;
    const auto next = [&state] {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return state >> 33;
    };
    for (std::uint32_t s = 0; s < count; ++s) {
        std::vector<Element> elems;
        const std::uint64_t size = next() % 60;
        for (std::uint64_t e = 0; e < size; ++e)
            elems.push_back(static_cast<Element>(next() % universe));
        std::sort(elems.begin(), elems.end());
        elems.erase(std::unique(elems.begin(), elems.end()),
                    elems.end());
        ids.push_back(store.createFromSorted(
            elems, next() % 3 == 0 ? SetRepr::DenseBitvector
                                   : SetRepr::SparseArray));
    }
    return ids;
}

/** A pseudo-random batch over @p pool (mixed op kinds). */
BatchRequest
makeRequest(const std::vector<SetId> &pool, std::uint32_t count,
            std::uint64_t seed)
{
    BatchRequest req;
    std::uint64_t state = seed;
    const auto next = [&state] {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return state >> 33;
    };
    for (std::uint32_t i = 0; i < count; ++i) {
        const SetId a = pool[next() % pool.size()];
        const SetId b = pool[next() % pool.size()];
        switch (next() % 5) {
          case 0: req.intersect(a, b); break;
          case 1: req.setUnion(a, b); break;
          case 2: req.difference(a, b); break;
          case 3: req.intersectCard(a, b); break;
          default: req.unionCard(a, b); break;
        }
    }
    return req;
}

/** Everything observable about a sequence of dispatches. */
struct CampaignRun
{
    std::vector<std::uint64_t> values;
    std::vector<SetId> ids;
    std::vector<std::vector<Element>> payloads;
    std::map<std::string, std::uint64_t> counters;
    std::vector<std::uint32_t> trace;
    mem::Cycles makespan = 0;
    mem::Cycles busy = 0;  ///< Thread 0 busy cycles.
    mem::Cycles stall = 0; ///< Thread 0 stall cycles.
};

/** Drop the scu.async_* family: window diagnostics, never work. */
std::map<std::string, std::uint64_t>
nonAsyncCounters(const std::map<std::string, std::uint64_t> &counters)
{
    std::map<std::string, std::uint64_t> out;
    for (const auto &[name, value] : counters) {
        if (name.rfind("scu.async_", 0) != 0)
            out.emplace(name, value);
    }
    return out;
}

/**
 * Run @p batches pseudo-random dispatches on a fresh store/SCU pair,
 * barriered (asyncDepth 0 forces dispatchAsync to degrade to
 * dispatchBatch) or windowed, recording every functional observable,
 * the golden instruction trace, and the counter totals. Twin calls
 * differing only in asyncDepth must agree on everything but cycles
 * and scu.async_* diagnostics.
 */
CampaignRun
runCampaign(const ScuConfig &config, bool locality,
            std::uint32_t batches, std::uint32_t ops_per_batch,
            std::uint64_t seed)
{
    SetStore store(4096);
    Scu scu(store, config, 1);
    const std::vector<SetId> pool = makePool(store, 40, 2048, 7);
    if (locality) {
        std::vector<TrafficArc> arcs;
        for (std::uint32_t b = 0; b < batches; ++b) {
            for (const BatchOp &op :
                 makeRequest(pool, ops_per_batch, seed + b).ops)
                arcs.push_back({op.a, op.b, 1});
        }
        scu.setPlacement(greedyLocalityPlacement(
            scu.config().pim.vaults, arcs));
    }
    InstructionTrace trace;
    scu.setTrace(&trace);
    SimContext ctx(1);
    CampaignRun run;
    std::vector<BatchHandle> handles;
    for (std::uint32_t b = 0; b < batches; ++b) {
        const BatchRequest req =
            makeRequest(pool, ops_per_batch, seed + b);
        handles.push_back(scu.dispatchAsync(ctx, 0, req));
    }
    scu.drainWindow(ctx, 0);
    for (const BatchHandle &handle : handles) {
        const BatchResult res = scu.collectBatch(ctx, 0, handle);
        for (const BatchEntry &entry : res.entries) {
            run.values.push_back(entry.value);
            run.ids.push_back(entry.set);
            run.payloads.push_back(entry.set == invalid_set
                                       ? std::vector<Element>{}
                                       : store.elementsOf(entry.set));
        }
    }
    run.counters = ctx.counters();
    run.trace = trace.words();
    run.makespan = ctx.makespan();
    run.busy = ctx.threadBusy(0);
    run.stall = ctx.threadStall(0);
    return run;
}

/** FNV-1a over every (name, value) pair, in name order. */
std::uint64_t
counterHash(const std::map<std::string, std::uint64_t> &counters)
{
    std::uint64_t h = 14695981039346656037ull;
    const auto mix = [&h](std::uint64_t byte) {
        h = (h ^ byte) * 1099511628211ull;
    };
    for (const auto &[name, value] : counters) {
        for (const char c : name)
            mix(static_cast<unsigned char>(c));
        mix(0);
        for (int shift = 0; shift < 64; shift += 8)
            mix((value >> shift) & 0xff);
    }
    return h;
}

// --- Bit-identity differential ---------------------------------------------

/** Absolute modeled numbers of one differential configuration. */
struct CampaignPin
{
    mem::Cycles barrieredMakespan;
    mem::Cycles windowedMakespan;
    mem::Cycles barrieredBusy;
    mem::Cycles barrieredStall;
    mem::Cycles windowedBusy;
    mem::Cycles windowedStall;
    std::uint64_t counterHash; ///< counterHash(nonAsyncCounters(...)).
};

/**
 * Pins for WindowedMatchesBarrieredAcrossConfigs, in its loop order
 * (routing, then locality). They must never change: a new value
 * means modeled time or a counter moved.
 */
constexpr CampaignPin campaign_pins[] = {
    {20463u, 14092u, 20463u, 0u, 2652u, 11440u, 0x656dae2f884b0832ull},
    {25341u, 19634u, 25341u, 0u, 2652u, 16982u, 0x99d16ecbe6aad002ull},
    {17185u, 10213u, 17185u, 0u, 2652u, 7561u, 0x2782bd9088868ed4ull},
    {22174u, 18049u, 22174u, 0u, 2652u, 15397u, 0xe7759444e92781c1ull},
};

TEST(AsyncDifferential, WindowedMatchesBarrieredAcrossConfigs)
{
    // The full configuration grid: the windowed run must reproduce
    // the barriered run's entry values, result ids, payloads, golden
    // instruction trace, and every counter outside the scu.async_*
    // family, with any routing and placement. Only modeled time may
    // move, and never upward.
    //
    // Both sides run the same dispatch pipeline, so a drift moving
    // both of them at once would pass the comparison above: the
    // absolute pins below catch it.
    std::size_t config = 0;
    for (const Routing routing :
         {Routing::Primary, Routing::Balanced}) {
        for (const bool locality : {false, true}) {
            ScuConfig barriered;
            barriered.pim.vaults = 8;
            barriered.routing = routing;
            ScuConfig windowed = barriered;
            windowed.asyncDepth = 4;

            const CampaignRun base =
                runCampaign(barriered, locality, 6, 24, 113);
            const CampaignRun async =
                runCampaign(windowed, locality, 6, 24, 113);
            const std::string what =
                "routing " + std::to_string(static_cast<int>(routing)) +
                ", locality " + std::to_string(locality);
            EXPECT_EQ(base.values, async.values) << what;
            EXPECT_EQ(base.ids, async.ids) << what;
            EXPECT_EQ(base.payloads, async.payloads) << what;
            EXPECT_EQ(base.trace, async.trace) << what;
            EXPECT_EQ(nonAsyncCounters(base.counters),
                      nonAsyncCounters(async.counters))
                << what;
            EXPECT_LE(async.makespan, base.makespan) << what;

            const CampaignPin &pin = campaign_pins[config++];
            EXPECT_EQ(base.makespan, pin.barrieredMakespan) << what;
            EXPECT_EQ(async.makespan, pin.windowedMakespan) << what;
            EXPECT_EQ(base.busy, pin.barrieredBusy) << what;
            EXPECT_EQ(base.stall, pin.barrieredStall) << what;
            EXPECT_EQ(async.busy, pin.windowedBusy) << what;
            EXPECT_EQ(async.stall, pin.windowedStall) << what;
            EXPECT_EQ(counterHash(nonAsyncCounters(base.counters)),
                      pin.counterHash)
                << what;
        }
    }
    EXPECT_EQ(config, std::size(campaign_pins));
}

/** Run maximalCliques on a fixed RMAT graph at @p depth. */
struct AlgoRun
{
    std::uint64_t cliques = 0;
    std::map<std::string, std::uint64_t> counters;
    std::vector<std::uint32_t> trace;
    mem::Cycles makespan = 0;
};

AlgoRun
runBronKerbosch(std::uint32_t async_depth)
{
    graph::RmatParams params;
    params.scale = 7;
    params.edgeFactor = 8;
    const graph::Graph g = graph::rmat(params, 42);
    ScuConfig config;
    config.routing = Routing::Balanced;
    config.asyncDepth = async_depth;
    core::SisaEngine eng(g.numVertices(), config, 4);
    InstructionTrace trace;
    eng.scu().setTrace(&trace);
    SimContext ctx(4);
    ctx.setPatternCutoff(0);
    core::SetGraph sg(g, eng);
    AlgoRun run;
    run.cliques = algorithms::maximalCliques(sg, ctx).cliqueCount;
    run.counters = ctx.counters();
    run.trace = trace.words();
    run.makespan = ctx.makespan();
    return run;
}

TEST(AsyncDifferential, BronKerboschGoldenTraceAndLowerMakespan)
{
    // The acceptance pin: Bron-Kerbosch on RMAT must emit the exact
    // barriered instruction stream and work counters with the window
    // open -- and the modeled makespan must STRICTLY drop (if the
    // window never overlaps anything, the tentpole is dead code).
    const AlgoRun barriered = runBronKerbosch(0);
    const AlgoRun windowed = runBronKerbosch(8);
    EXPECT_EQ(barriered.cliques, windowed.cliques);
    EXPECT_EQ(barriered.trace, windowed.trace);
    EXPECT_EQ(nonAsyncCounters(barriered.counters),
              nonAsyncCounters(windowed.counters));
    EXPECT_GT(windowed.counters.at("scu.async_dispatches"), 0u);
    EXPECT_LT(windowed.makespan, barriered.makespan);
}

// --- Seeded random-batch oracle -------------------------------------------

/**
 * One seeded campaign of random batches checked against std::set
 * after every dispatch. Batches hold 0-48 ops of every kind and
 * variant over empty, sorted-array and bitvector operands, with
 * repeated operands (a op a, and whole ops issued twice), and later
 * batches read earlier results -- under a window those are still
 * pending defs.
 */
void
checkOracleCampaign(const ScuConfig &config, std::uint64_t seed,
                    const std::string &what)
{
    std::uint64_t state = seed;
    const auto next = [&state] {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return state >> 33;
    };
    constexpr Element universe = 1024;
    SetStore store(universe);
    Scu scu(store, config, 1);
    SimContext ctx(1);
    std::vector<SetId> ids;
    std::vector<std::set<Element>> mirror;
    for (int s = 0; s < 24; ++s) {
        // Every fourth set is empty; the rest span sparse to dense.
        const std::uint64_t size = s % 4 == 0 ? 0 : next() % 300;
        std::set<Element> elems;
        for (std::uint64_t e = 0; e < size; ++e)
            elems.insert(static_cast<Element>(next() % universe));
        ids.push_back(store.createFromSorted(
            {elems.begin(), elems.end()},
            next() % 2 ? SetRepr::DenseBitvector : SetRepr::SparseArray));
        mirror.push_back(std::move(elems));
    }

    constexpr SisaOp intersect_variants[] = {
        SisaOp::IntersectAuto, SisaOp::IntersectMerge,
        SisaOp::IntersectGallop};
    constexpr SisaOp union_variants[] = {
        SisaOp::UnionAuto, SisaOp::UnionMerge, SisaOp::UnionGallop};
    constexpr SisaOp difference_variants[] = {
        SisaOp::DifferenceAuto, SisaOp::DifferenceMerge,
        SisaOp::DifferenceGallop};
    for (int b = 0; b < 8; ++b) {
        BatchRequest req;
        std::vector<std::pair<std::size_t, std::size_t>> operands;
        const std::uint64_t count = next() % 49;
        for (std::uint64_t i = 0; i < count; ++i) {
            if (i > 0 && next() % 8 == 0) { // Issue an op twice.
                req.ops.push_back(req.ops.back());
                operands.push_back(operands.back());
                continue;
            }
            const std::size_t x = next() % ids.size();
            const std::size_t y =
                next() % 6 == 0 ? x : next() % ids.size();
            const SetId a = ids[x];
            const SetId c = ids[y];
            const std::uint64_t variant = next() % 3;
            switch (next() % 5) {
              case 0: req.intersect(a, c, intersect_variants[variant]); break;
              case 1: req.setUnion(a, c, union_variants[variant]); break;
              case 2: req.difference(a, c, difference_variants[variant]); break;
              case 3: req.intersectCard(a, c, intersect_variants[variant]); break;
              default: req.unionCard(a, c); break;
            }
            operands.emplace_back(x, y);
        }
        const BatchResult res =
            scu.collectBatch(ctx, 0, scu.dispatchAsync(ctx, 0, req));
        ASSERT_EQ(res.entries.size(), count) << what;
        for (std::size_t i = 0; i < count; ++i) {
            const auto [x, y] = operands[i];
            const BatchEntry &entry = res.entries[i];
            std::set<Element> expect;
            switch (req.ops[i].kind) {
              case BatchOpKind::Intersect:
              case BatchOpKind::IntersectCard:
                expect = tests::refIntersect(mirror[x], mirror[y]);
                break;
              case BatchOpKind::Union:
              case BatchOpKind::UnionCard:
                expect = tests::refUnion(mirror[x], mirror[y]);
                break;
              case BatchOpKind::Difference:
                expect = tests::refDifference(mirror[x], mirror[y]);
                break;
            }
            const std::string where = what + ", batch " +
                                      std::to_string(b) + ", op " +
                                      std::to_string(i);
            EXPECT_EQ(entry.value, expect.size()) << where;
            const BatchOpKind kind = req.ops[i].kind;
            if (kind == BatchOpKind::IntersectCard ||
                kind == BatchOpKind::UnionCard) {
                EXPECT_EQ(entry.set, invalid_set) << where;
                continue;
            }
            ASSERT_NE(entry.set, invalid_set) << where;
            EXPECT_EQ(store.elementsOf(entry.set),
                      std::vector<Element>(expect.begin(), expect.end()))
                << where;
            ids.push_back(entry.set);
            mirror.push_back(std::move(expect));
        }
    }
    scu.drainWindow(ctx, 0);
}

TEST(BatchOracle, RandomBatchesMatchStdSet)
{
    for (const Routing routing :
         {Routing::Primary, Routing::Balanced}) {
        for (const std::uint32_t depth : {0u, 3u}) {
            ScuConfig config;
            config.pim.vaults = 4;
            config.routing = routing;
            config.asyncDepth = depth;
            const std::string what =
                "routing " + std::to_string(static_cast<int>(routing)) +
                ", depth " + std::to_string(depth);
            for (const std::uint64_t seed : {3u, 17u, 29u}) {
                checkOracleCampaign(config, seed,
                                    what + ", seed " +
                                        std::to_string(seed));
            }
        }
    }
}

// --- Window mechanics ------------------------------------------------------

/** A store/SCU pair with disjoint sets across 4 vaults. */
struct WindowFixture
{
    SetStore store{4096};
    std::unique_ptr<Scu> scu;
    std::vector<SetId> pool;

    explicit WindowFixture(std::uint32_t depth)
    {
        ScuConfig config;
        config.asyncDepth = depth;
        scu = std::make_unique<Scu>(store, config, 2);
        pool = makePool(store, 16, 2048, 3);
    }

    BatchHandle dispatch(SimContext &ctx, sim::ThreadId tid,
                         std::uint64_t seed)
    {
        return scu->dispatchAsync(ctx, tid,
                                  makeRequest(pool, 8, seed));
    }
};

TEST(AsyncWindow, DepthBoundsInFlightBatches)
{
    WindowFixture fx(2);
    SimContext ctx(1);
    std::vector<BatchHandle> handles;
    for (std::uint64_t b = 0; b < 5; ++b) {
        handles.push_back(fx.dispatch(ctx, 0, 100 + b));
        // ROB-style retirement: the oldest batch retires (stalling
        // to its completion) before the window exceeds its depth.
        EXPECT_LE(fx.scu->asyncInFlight(), 2u);
    }
    EXPECT_TRUE(fx.scu->asyncWindowActive());
    fx.scu->drainWindow(ctx, 0);
    EXPECT_FALSE(fx.scu->asyncWindowActive());
    EXPECT_EQ(fx.scu->asyncInFlight(), 0u);
    // Results survive the drain: every ticket still redeems.
    for (const BatchHandle &handle : handles)
        EXPECT_FALSE(
            fx.scu->collectBatch(ctx, 0, handle).entries.empty());
    EXPECT_EQ(ctx.counter("scu.async_dispatches"), 5u);
    EXPECT_GE(ctx.counter("scu.async_syncs"), 3u);
}

TEST(AsyncWindow, RebindingThreadDrainsTheWindow)
{
    // The window binds one (ctx, tid): a dispatch from another
    // simulated thread first retires everything in flight (charging
    // the BOUND thread), then re-opens for the newcomer.
    WindowFixture fx(4);
    SimContext ctx(2);
    fx.dispatch(ctx, 0, 11);
    EXPECT_TRUE(fx.scu->asyncWindowActive());
    fx.dispatch(ctx, 1, 12);
    EXPECT_TRUE(fx.scu->asyncWindowActive());
    EXPECT_EQ(ctx.counter("scu.async_drains"), 1u);
    EXPECT_EQ(fx.scu->asyncInFlight(), 1u);
    fx.scu->drainWindow(ctx, 1);
    EXPECT_EQ(ctx.counter("scu.async_drains"), 2u);
}

TEST(AsyncWindow, SerialOpsSynchronizeAgainstPendingResults)
{
    // A serial SISA op reading a pending batch's result must stall
    // to that batch's completion (RAW into the window) -- observable
    // as scu.async_syncs and added stall cycles relative to reading
    // an unrelated set.
    WindowFixture fx(8);
    SimContext ctx(1);
    BatchRequest req;
    req.intersect(fx.pool[0], fx.pool[1]);
    const BatchHandle handle = fx.scu->dispatchAsync(ctx, 0, req);
    const BatchResult res = fx.scu->collectBatch(ctx, 0, handle);
    ASSERT_NE(res.entries.at(0).set, invalid_set);
    EXPECT_EQ(ctx.counter("scu.async_syncs"), 0u);
    // Metadata stays decoupled (IntersectX-style): cardinality of
    // the pending result is front-end state and must NOT stall.
    fx.scu->cardinality(ctx, 0, res.entries.at(0).set);
    EXPECT_EQ(ctx.counter("scu.async_syncs"), 0u);
    fx.scu->intersectCard(ctx, 0, res.entries.at(0).set, fx.pool[2]);
    EXPECT_GE(ctx.counter("scu.async_syncs"), 1u);
}

TEST(AsyncWindow, DepthZeroDegradesToTheBarrier)
{
    WindowFixture fx(0);
    SimContext ctx(1);
    const BatchHandle handle = fx.dispatch(ctx, 0, 31);
    EXPECT_FALSE(fx.scu->asyncWindowActive());
    EXPECT_EQ(ctx.counter("scu.async_dispatches"), 0u);
    EXPECT_FALSE(
        fx.scu->collectBatch(ctx, 0, handle).entries.empty());
}

TEST(AsyncWindowDeathTest, DeadOperandAbortsTheDispatch)
{
    // Rule 1 of the batch.hpp HAZARD CONTRACT: a destroyed operand,
    // in either position, trips SetStore's liveness assert whether
    // the batch is barriered or joins an open window.
    const char *msg = "metadata of a dead set";
    for (const bool dead_is_a : {true, false}) {
        WindowFixture fx(4);
        SimContext ctx(1);
        // Open the window first: its results would recycle the slot.
        fx.dispatch(ctx, 0, 21);
        ASSERT_TRUE(fx.scu->asyncWindowActive());
        const SetId dead =
            fx.scu->create(ctx, 0, {1, 2, 3}, SetRepr::SparseArray);
        fx.scu->destroy(ctx, 0, dead);
        BatchRequest bad;
        if (dead_is_a)
            bad.intersect(dead, fx.pool[0]);
        else
            bad.intersect(fx.pool[0], dead);
        EXPECT_DEATH(fx.scu->dispatchAsync(ctx, 0, bad), msg);
        EXPECT_DEATH(fx.scu->dispatchBatch(ctx, 0, bad), msg);
    }
}

// --- lastBackend retention (batched vs serial) -----------------------------

TEST(LastBackend, MetadataOnlyBatchRetainsLikeSerialIssue)
{
    // An entire batch of short-circuited ops (empty co-operand: no
    // backend charges) must leave lastBackend() exactly where the
    // serial metadata-only retain path leaves it: pointing at the
    // last op that actually charged a backend.
    const auto run = [](bool batched) {
        SetStore store(4096);
        Scu scu(store, ScuConfig{}, 1);
        SimContext ctx(1);
        const SetId a = store.createFromSorted(
            {1, 2, 3, 4, 5}, SetRepr::SparseArray);
        const SetId b = store.createFromSorted(
            {2, 3, 4}, SetRepr::SparseArray);
        const SetId empty =
            store.createFromSorted({}, SetRepr::SparseArray);
        // Charge a backend, then issue only short-circuiting ops.
        scu.intersectCard(ctx, 0, a, b);
        const Backend charged = scu.lastBackend();
        if (batched) {
            BatchRequest req;
            req.intersectCard(a, empty);
            req.unionCard(empty, empty);
            scu.dispatchBatch(ctx, 0, req);
        } else {
            scu.intersectCard(ctx, 0, a, empty);
            scu.unionCard(ctx, 0, empty, empty);
        }
        EXPECT_GT(ctx.counter("scu.short_circuits"), 0u);
        return std::pair{charged, scu.lastBackend()};
    };
    const auto [serial_charged, serial_after] = run(false);
    const auto [batched_charged, batched_after] = run(true);
    EXPECT_NE(serial_charged, Backend::None);
    EXPECT_EQ(serial_after, serial_charged);
    EXPECT_EQ(batched_after, batched_charged);
    EXPECT_EQ(serial_after, batched_after);
}

// --- Scratch high-watermark release ----------------------------------------

TEST(ScratchRelease, EmptyBatchesAdvanceTheWindow)
{
    // A burst batch inflates the dispatch scratch; a full window of
    // EMPTY batches must still reset the high watermark and release
    // the burst capacity (the leak: empty dispatches returned before
    // maybeShrinkScratch, pinning scratchPeak_ forever).
    SetStore store(4096);
    Scu scu(store, ScuConfig{}, 1);
    SimContext ctx(1);
    const std::vector<SetId> pool = makePool(store, 24, 2048, 9);
    scu.dispatchBatch(ctx, 0, makeRequest(pool, 512, 77));
    const std::size_t burst = scu.scratchCapacity();
    ASSERT_GE(burst, 512u);
    for (int i = 0; i < 64; ++i)
        scu.dispatchBatch(ctx, 0, BatchRequest{});
    EXPECT_LT(scu.scratchCapacity(), burst);
}

} // namespace
