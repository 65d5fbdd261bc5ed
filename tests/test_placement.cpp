/**
 * @file
 * Routing suites (the `placement` CTest label): size-aware
 * dual-operand routing and makespan-driven balanced batch scheduling
 * (ScuConfig.routing = balanced: the bigger-operand rule of one-op
 * batches, LPT-order exact-cycle pins, rider-lane byte harvesting),
 * result-set placement, the vault-count validation of setPlacement,
 * the lastBackend_ mode-agreement contract, remote-operand dedup, and
 * the dispatch-scratch shrink policy. The differential suite runs
 * every policy x routing combination under a forced 2-vault
 * configuration as well as the default vault count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <string_view>
#include <tuple>
#include <vector>

#include "algorithms/common.hpp"
#include "algorithms/triangle_count.hpp"
#include "core/cpu_set_engine.hpp"
#include "core/set_graph.hpp"
#include "core/sisa_engine.hpp"
#include "graph/generators.hpp"
#include "mem/pim.hpp"
#include "sisa/placement.hpp"
#include "sisa/scu.hpp"
#include "sisa/set_store.hpp"

namespace {

using namespace sisa;
using namespace sisa::isa;
using sisa::sets::Element;
using sisa::sets::SetRepr;
using sisa::sim::SimContext;

/** n consecutive elements starting at @p base. */
std::vector<Element>
iota(Element base, Element n)
{
    std::vector<Element> out;
    for (Element e = 0; e < n; ++e)
        out.push_back(base + e);
    return out;
}

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

// --- Size-aware routing (ScuConfig.routing = balanced, one-op batches) -----

TEST(Routing, BalancedMovesOnlyTheSmallerOperand)
{
    // a (100 elems, 400 B) in vault 0, b (200 elems, 800 B) in vault
    // 1. Primary routing executes in a's vault and drags b's 800 B
    // across; balanced executes in b's vault and moves only a's
    // 400 B. The cycle difference is EXACTLY the transfer delta.
    ScuConfig primary_cfg, balanced_cfg;
    balanced_cfg.routing = Routing::Balanced;
    SetStore store_p(4096), store_m(4096);
    Scu scu_p(store_p, primary_cfg, 1);
    Scu scu_m(store_m, balanced_cfg, 1);

    const auto build = [&](SetStore &store, Scu &scu) {
        const SetId a = store.createFromSorted(iota(0, 100),
                                               SetRepr::SparseArray);
        const SetId b = store.createFromSorted(iota(0, 200),
                                               SetRepr::SparseArray);
        auto placement = std::make_shared<LocalityPlacement>(
            scu.config().pim.vaults);
        placement->assign(a, 0);
        placement->assign(b, 1);
        scu.setPlacement(placement);
        BatchRequest req;
        req.intersectCard(a, b);
        return req;
    };
    const BatchRequest req_p = build(store_p, scu_p);
    const BatchRequest req_m = build(store_m, scu_m);

    EXPECT_EQ(scu_p.routeVault(req_p.ops[0]), 0u);
    EXPECT_EQ(scu_m.routeVault(req_m.ops[0]), 1u);

    SimContext ctx_p(1), ctx_m(1);
    const BatchResult res_p = scu_p.dispatchBatch(ctx_p, 0, req_p);
    const BatchResult res_m = scu_m.dispatchBatch(ctx_m, 0, req_m);
    EXPECT_EQ(res_p.entries[0].value, res_m.entries[0].value);

    EXPECT_EQ(ctx_p.counter("setops.xvault_bytes"), 800u);
    EXPECT_EQ(ctx_m.counter("setops.xvault_bytes"), 400u);
    EXPECT_EQ(ctx_p.counter("scu.xvault_transfers"), 1u);
    EXPECT_EQ(ctx_m.counter("scu.xvault_transfers"), 1u);
    EXPECT_EQ(ctx_p.threadBusy(0) - ctx_m.threadBusy(0),
              mem::interconnectCycles(primary_cfg.pim, 800) -
                  mem::interconnectCycles(primary_cfg.pim, 400));
}

TEST(Routing, TiesKeepThePrimaryVault)
{
    // Equal footprints: balanced must fall back to a's vault, so
    // Primary remains a strict subset of the behavior.
    ScuConfig config;
    config.routing = Routing::Balanced;
    SetStore store(4096);
    Scu scu(store, config, 1);
    const SetId a = store.createFromSorted(iota(0, 100),
                                           SetRepr::SparseArray);
    const SetId b = store.createFromSorted(iota(200, 100),
                                           SetRepr::SparseArray);
    auto placement =
        std::make_shared<LocalityPlacement>(config.pim.vaults);
    placement->assign(a, 2);
    placement->assign(b, 5);
    scu.setPlacement(placement);

    BatchRequest req;
    req.intersectCard(a, b);
    EXPECT_EQ(scu.routeVault(req.ops[0]), 2u);

    SimContext ctx(1);
    scu.dispatchBatch(ctx, 0, req);
    EXPECT_EQ(ctx.counter("setops.xvault_bytes"), 400u); // b moved.
}

TEST(Routing, DegenerateUnionCopyRunsWhereTheDataLives)
{
    // {} cup B with a remote, bigger B: primary routing pays B's
    // transfer into the empty set's vault; balanced executes in B's
    // vault and never touches the interconnect.
    ScuConfig config;
    config.routing = Routing::Balanced;
    SetStore store(4096);
    Scu scu(store, config, 1);
    const SetId empty =
        store.createFromSorted({}, SetRepr::SparseArray);
    const SetId b = store.createFromSorted(iota(0, 100),
                                           SetRepr::SparseArray);
    auto placement =
        std::make_shared<LocalityPlacement>(config.pim.vaults);
    placement->assign(empty, 0);
    placement->assign(b, 1);
    scu.setPlacement(placement);

    SimContext ctx(1);
    BatchRequest req;
    req.setUnion(empty, b);
    const BatchResult res = scu.dispatchBatch(ctx, 0, req);
    EXPECT_EQ(res.entries[0].value, 100u);
    EXPECT_EQ(scu.routeVault(req.ops[0]), 1u);
    EXPECT_EQ(ctx.counter("scu.xvault_transfers"), 0u);
    EXPECT_EQ(ctx.counter("setops.xvault_bytes"), 0u);

    // A DENSE empty operand carries a full-row footprint but is
    // still never read: routing must weigh it at zero, not at
    // denseBytes(), or the degenerate copy would drag B into the
    // empty set's vault.
    const SetId dense_empty =
        store.createFromSorted({}, SetRepr::DenseBitvector);
    placement->assign(dense_empty, 0);
    scu.setPlacement(placement);
    BatchRequest dense_req;
    dense_req.setUnion(dense_empty, b);
    EXPECT_EQ(scu.routeVault(dense_req.ops[0]), 1u);
    SimContext dense_ctx(1);
    const BatchResult dense_res =
        scu.dispatchBatch(dense_ctx, 0, dense_req);
    EXPECT_EQ(dense_res.entries[0].value, 100u);
    EXPECT_EQ(dense_ctx.counter("scu.xvault_transfers"), 0u);

    // Mirror case: A \ dense-empty copies only A, so the op must
    // stay in A's vault with no transfer either.
    BatchRequest diff_req;
    diff_req.difference(b, dense_empty);
    EXPECT_EQ(scu.routeVault(diff_req.ops[0]), 1u);
    SimContext diff_ctx(1);
    scu.dispatchBatch(diff_ctx, 0, diff_req);
    EXPECT_EQ(diff_ctx.counter("scu.xvault_transfers"), 0u);
}

TEST(Routing, DenseOperandFootprintUsesDenseBytes)
{
    // A tiny DB still weighs ceil(universe / 8) bytes: balanced
    // routing must run in the DB's vault and move the SA.
    ScuConfig config;
    config.routing = Routing::Balanced;
    SetStore store(4096); // denseBytes() = 512 > 100 * 4.
    Scu scu(store, config, 1);
    const SetId sa = store.createFromSorted(iota(0, 100),
                                            SetRepr::SparseArray);
    const SetId db = store.createFromSorted({1, 2, 3},
                                            SetRepr::DenseBitvector);
    auto placement =
        std::make_shared<LocalityPlacement>(config.pim.vaults);
    placement->assign(sa, 0);
    placement->assign(db, 1);
    scu.setPlacement(placement);

    BatchRequest req;
    req.intersectCard(sa, db);
    EXPECT_EQ(scu.routeVault(req.ops[0]), 1u);
    SimContext ctx(1);
    scu.dispatchBatch(ctx, 0, req);
    EXPECT_EQ(ctx.counter("setops.xvault_bytes"), 400u); // The SA.
}

// --- Result-set placement ---------------------------------------------------

TEST(ResultPlacement, AdoptedResultsStayInTheProducingVault)
{
    // Under a result-placing policy (locality), a batch-produced
    // intersection is pinned to the vault that executed it instead of
    // falling back to the hash assignment -- the property that keeps
    // BK / k-clique recursion local.
    ScuConfig config;
    SetStore store(4096);
    Scu scu(store, config, 1);
    const SetId a = store.createFromSorted(iota(0, 100),
                                           SetRepr::SparseArray);
    const SetId b = store.createFromSorted(iota(50, 100),
                                           SetRepr::SparseArray);
    // Pick a target vault that provably differs from the hash
    // fallback of the (deterministic) result id.
    const HashPlacement hash(config.pim.vaults);
    const SetId expected_result = 2; // Two sets created above.
    const std::uint32_t target =
        (hash.vaultOf(expected_result) + 1) % config.pim.vaults;
    auto placement =
        std::make_shared<LocalityPlacement>(config.pim.vaults);
    placement->assign(a, target);
    placement->assign(b, target);
    scu.setPlacement(placement);

    SimContext ctx(1);
    BatchRequest req;
    req.intersect(a, b);
    const BatchResult res = scu.dispatchBatch(ctx, 0, req);
    ASSERT_EQ(res.entries[0].set, expected_result);
    EXPECT_EQ(scu.vaultOf(res.entries[0].set), target);
    EXPECT_NE(scu.vaultOf(res.entries[0].set),
              hash.vaultOf(res.entries[0].set));

    // Serial issue registers its result the same way.
    const SetId serial = scu.intersect(ctx, 0, a, b);
    EXPECT_EQ(scu.vaultOf(serial), target);

    // Destroy releases the pin: the id falls back to the policy.
    scu.destroy(ctx, 0, serial);
    const SetId recycled = store.createFromSorted(
        iota(0, 3), SetRepr::SparseArray);
    EXPECT_EQ(recycled, serial);
    EXPECT_EQ(scu.vaultOf(recycled), placement->vaultOf(recycled));
}

TEST(ResultPlacement, PureHashPoliciesDoNotPinResults)
{
    // Hash placement is the assignment under study: results
    // keep following the policy, bit-for-bit as before.
    ScuConfig config;
    SetStore store(4096);
    Scu scu(store, config, 1);
    const SetId a = store.createFromSorted(iota(0, 100),
                                           SetRepr::SparseArray);
    const SetId b = store.createFromSorted(iota(50, 100),
                                           SetRepr::SparseArray);
    SimContext ctx(1);
    BatchRequest req;
    req.intersect(a, b);
    const BatchResult res = scu.dispatchBatch(ctx, 0, req);
    const HashPlacement ref(config.pim.vaults);
    EXPECT_EQ(scu.vaultOf(res.entries[0].set),
              ref.vaultOf(res.entries[0].set));
}

// --- setPlacement vault-count validation ------------------------------------

TEST(PlacementValidation, MismatchedVaultCountFallsBackToCorrectHash)
{
    // A policy built for 2x the SCU's vault count used to be
    // silently folded by modulo, skewing the distribution it was
    // constructed to produce. It is now rejected and the hash
    // fallback is rebuilt at the correct width.
    ScuConfig config;
    config.pim.vaults = 4;
    SetStore store(256);
    Scu scu(store, config, 1);
    scu.setPlacement(std::make_shared<LocalityPlacement>(8));
    EXPECT_STREQ(scu.placement().name(), "hash");
    const HashPlacement ref(4);
    for (SetId id = 0; id < 512; ++id) {
        EXPECT_EQ(scu.vaultOf(id), ref.vaultOf(id));
        EXPECT_LT(scu.vaultOf(id), 4u);
    }
    // A correct-width policy installs normally.
    scu.setPlacement(std::make_shared<LocalityPlacement>(4));
    EXPECT_STREQ(scu.placement().name(), "locality");
}

// --- lastBackend_ mode agreement --------------------------------------------

TEST(LastBackend, BatchTailShortCircuitAgreesWithSerial)
{
    // A batch whose LAST op is metadata-only must leave lastBackend()
    // exactly where the serial issue of the same sequence leaves it:
    // at the last op that actually charged a backend.
    SetStore store_b(512), store_s(512);
    Scu scu_b(store_b, ScuConfig{}, 1);
    Scu scu_s(store_s, ScuConfig{}, 1);
    SimContext ctx_b(1), ctx_s(1);

    const auto build = [](SetStore &store) {
        const SetId full = store.createFromSorted(
            iota(0, 64), SetRepr::SparseArray);
        const SetId other = store.createFromSorted(
            iota(32, 64), SetRepr::SparseArray);
        const SetId empty =
            store.createFromSorted({}, SetRepr::SparseArray);
        return std::tuple{full, other, empty};
    };
    const auto [full_b, other_b, empty_b] = build(store_b);
    const auto [full_s, other_s, empty_s] = build(store_s);

    BatchRequest req;
    req.intersectCard(full_b, other_b); // Charges PnmStream.
    req.intersectCard(empty_b, full_b); // Metadata-only tail.
    scu_b.dispatchBatch(ctx_b, 0, req);

    scu_s.intersectCard(ctx_s, 0, full_s, other_s);
    scu_s.intersectCard(ctx_s, 0, empty_s, full_s);

    EXPECT_EQ(scu_b.lastBackend(), Backend::PnmStream);
    EXPECT_EQ(scu_b.lastBackend(), scu_s.lastBackend());

    // An all-metadata batch leaves the previous decision untouched,
    // again matching serial issue.
    BatchRequest all_short;
    all_short.intersectCard(empty_b, full_b);
    all_short.intersectCard(empty_b, other_b);
    scu_b.dispatchBatch(ctx_b, 0, all_short);
    scu_s.intersectCard(ctx_s, 0, empty_s, full_s);
    scu_s.intersectCard(ctx_s, 0, empty_s, other_s);
    EXPECT_EQ(scu_b.lastBackend(), Backend::PnmStream);
    EXPECT_EQ(scu_b.lastBackend(), scu_s.lastBackend());
}

// --- Remote-operand dedup ---------------------------------------------------

TEST(RemoteDedup, ChargesOncePerVaultOperandPairUnderInterleaving)
{
    // Interleaved repeats of two remote co-operands in one lane: the
    // per-worker fetch set must still charge each operand exactly
    // once regardless of arrival order (b2, b1, b2, b1).
    ScuConfig config;
    SetStore store(4096);
    Scu scu(store, config, 1);
    const SetId a1 = store.createFromSorted(iota(0, 50),
                                            SetRepr::SparseArray);
    const SetId a2 = store.createFromSorted(iota(10, 50),
                                            SetRepr::SparseArray);
    const SetId b1 = store.createFromSorted(iota(0, 100),
                                            SetRepr::SparseArray);
    const SetId b2 = store.createFromSorted(iota(0, 150),
                                            SetRepr::SparseArray);
    auto placement =
        std::make_shared<LocalityPlacement>(config.pim.vaults);
    placement->assign(a1, 0);
    placement->assign(a2, 0);
    placement->assign(b1, 1);
    placement->assign(b2, 2);
    scu.setPlacement(placement);

    SimContext ctx(1);
    BatchRequest req;
    req.intersectCard(a1, b2);
    req.intersectCard(a1, b1);
    req.intersectCard(a2, b2);
    req.intersectCard(a2, b1);
    scu.dispatchBatch(ctx, 0, req);
    EXPECT_EQ(ctx.counter("scu.xvault_transfers"), 2u);
    EXPECT_EQ(ctx.counter("setops.xvault_bytes"),
              100u * 4 + 150u * 4);
}

// --- Scratch shrink-to-high-watermark ---------------------------------------

TEST(ScratchShrink, BurstAllocationReleasedAfterSmallDispatchWindow)
{
    ScuConfig config;
    SetStore store(4096);
    Scu scu(store, config, 1);
    SimContext ctx(1);
    const auto pool = makePool(store, 16, 4096, 11);

    const BatchRequest burst = makeRequest(pool, 2048, 3);
    scu.dispatchBatch(ctx, 0, burst);
    EXPECT_GE(scu.scratchCapacity(), 2048u);

    // Two full shrink windows of small batches: the first window
    // still saw the burst's watermark, the second one releases.
    const BatchRequest small = makeRequest(pool, 4, 5);
    for (int i = 0; i < 64; ++i)
        scu.dispatchBatch(ctx, 0, small);
    EXPECT_LT(scu.scratchCapacity(), 64u);

    // The shrunk scratch still serves a follow-up burst correctly.
    const BatchResult res = scu.dispatchBatch(ctx, 0, burst);
    EXPECT_EQ(res.size(), burst.size());
}

// --- Balanced routing (ScuConfig.routing = balanced) ------------------------

TEST(BalancedRouting, SingleOpDegeneratesToBiggerOperandRule)
{
    // With empty lanes the LPT greedy picks exactly the bigger
    // operand's vault: a (100 elems) in vault 0 against b (200 elems) in vault
    // 1 executes in b's vault and moves only a's 400 B. routeVault
    // (the batchless query) reports the same choice.
    ScuConfig config;
    config.routing = Routing::Balanced;
    SetStore store(4096);
    Scu scu(store, config, 1);
    const SetId a = store.createFromSorted(iota(0, 100),
                                           SetRepr::SparseArray);
    const SetId b = store.createFromSorted(iota(0, 200),
                                           SetRepr::SparseArray);
    auto placement =
        std::make_shared<LocalityPlacement>(config.pim.vaults);
    placement->assign(a, 0);
    placement->assign(b, 1);
    scu.setPlacement(placement);

    BatchRequest req;
    req.intersectCard(a, b);
    EXPECT_EQ(scu.routeVault(req.ops[0]), 1u);
    SimContext ctx(1);
    const BatchResult res = scu.dispatchBatch(ctx, 0, req);
    EXPECT_EQ(res.entries[0].value, 100u);
    EXPECT_EQ(ctx.counter("setops.xvault_bytes"), 400u);
    EXPECT_EQ(ctx.counter("scu.xvault_transfers"), 1u);
}

TEST(BalancedRouting, LptSchedulesAcrossVaultsExactCycles)
{
    // Three operand pairs split across vaults 0 and 1, with equal
    // footprints inside each pair (so byte harvesting is moot and
    // pure LPT decides), request-ordered 300, 400, 500 elements.
    // LPT takes them DESCENDING: 500 -> vault 0 (tie keeps a), 400
    // -> vault 1, 300 -> vault 1 (load 520 < 620). Lanes: v0 = E500
    // + T500 = 620, v1 = (E400 + T400) + (E300 + T300) = 940, plus
    // one reduction-tree transfer of the second-touched lane's 8 B
    // scalar result. Primary routing serializes all three in vault 0
    // with the same transfers (1560, one lane, no reduction). The
    // busy-cycle difference between twin SCUs pins the schedule
    // EXACTLY; a request-order greedy would land at 1040-cycle
    // lanes instead.
    ScuConfig primary_cfg, balanced_cfg;
    balanced_cfg.routing = Routing::Balanced;
    SetStore store_p(8192), store_b(8192);
    Scu scu_p(store_p, primary_cfg, 1);
    Scu scu_b(store_b, balanced_cfg, 1);

    const auto build = [](SetStore &store, Scu &scu) {
        BatchRequest req;
        auto placement = std::make_shared<LocalityPlacement>(
            scu.config().pim.vaults);
        for (const Element size : {300u, 400u, 500u}) {
            const SetId x = store.createFromSorted(
                iota(0, size), SetRepr::SparseArray);
            const SetId y = store.createFromSorted(
                iota(0, size), SetRepr::SparseArray);
            placement->assign(x, 0);
            placement->assign(y, 1);
            req.intersectCard(x, y);
        }
        scu.setPlacement(placement);
        return req;
    };
    const BatchRequest req_p = build(store_p, scu_p);
    const BatchRequest req_b = build(store_b, scu_b);

    SimContext ctx_p(1), ctx_b(1);
    const BatchResult res_p = scu_p.dispatchBatch(ctx_p, 0, req_p);
    const BatchResult res_b = scu_b.dispatchBatch(ctx_b, 0, req_b);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(res_p.entries[i].value, res_b.entries[i].value);

    // Identical transfers (equal-footprint pairs move the same bytes
    // whichever side executes), so the busy delta is purely the
    // makespan difference.
    EXPECT_EQ(ctx_p.counter("setops.xvault_bytes"), 4800u);
    EXPECT_EQ(ctx_b.counter("setops.xvault_bytes"), 4800u);

    const mem::PimParams &pim = primary_cfg.pim;
    const auto lane_cost = [&](Element size) {
        return mem::pnmStreamCycles(pim, size, 4) +
               mem::interconnectCycles(pim, 4ull * size);
    };
    const mem::Cycles primary_makespan =
        lane_cost(300) + lane_cost(400) + lane_cost(500);
    const mem::Cycles balanced_makespan =
        lane_cost(300) + lane_cost(400) + // Vault 1's lane (deepest).
        mem::interconnectCycles(pim, 8);  // Reduce v0's scalar.
    EXPECT_EQ(ctx_p.threadBusy(0) - ctx_b.threadBusy(0),
              primary_makespan - balanced_makespan);
}

TEST(BalancedRouting, RiderLaneReusesFetchedCoOperand)
{
    // One shared 1000-element set b (vault 5) against: a1 (2000
    // elems, vault 1) plus four 100-element sets in vaults 2, 3, 4,
    // 6. Pass 1 (pure LPT) puts a1's op in vault 1 (moving b is
    // cheaper than moving a1) for M* = 1620, cap = 1.5 x M* = 2430.
    // Pass 2 in LPT order: a1's op stays in vault 1 and fetches b
    // there (4000 B -- lighter than moving a1's 8000 B); the small
    // ops then ride into b's home vault 5 (400 B each) until its
    // lane would exceed the cap (670 + 3 x 670 fits, a 4th does
    // not); the last op instead RIDES INTO VAULT 1 -- not an operand
    // home of its own -- where b is already fetched, paying only its
    // own 400 B. Total: one 4000 B fetch + four 400 B co-operands =
    // 5600 B over 5 transfers. Without rider lanes the last op would
    // have dragged another 4000 B copy of b into vault 6.
    ScuConfig config;
    config.routing = Routing::Balanced;
    SetStore store(8192);
    Scu scu(store, config, 1);
    const SetId b = store.createFromSorted(iota(0, 1000),
                                           SetRepr::SparseArray);
    const SetId a1 = store.createFromSorted(iota(0, 2000),
                                            SetRepr::SparseArray);
    auto placement =
        std::make_shared<LocalityPlacement>(config.pim.vaults);
    placement->assign(b, 5);
    placement->assign(a1, 1);
    BatchRequest req;
    req.intersectCard(a1, b);
    const std::uint32_t small_vaults[] = {2, 3, 4, 6};
    for (const std::uint32_t v : small_vaults) {
        const SetId a = store.createFromSorted(iota(0, 100),
                                               SetRepr::SparseArray);
        placement->assign(a, v);
        req.intersectCard(a, b);
    }
    scu.setPlacement(placement);

    SimContext ctx(1);
    const BatchResult res = scu.dispatchBatch(ctx, 0, req);
    EXPECT_EQ(res.entries[0].value, 1000u);
    for (std::size_t i = 1; i < 5; ++i)
        EXPECT_EQ(res.entries[i].value, 100u);
    EXPECT_EQ(ctx.counter("scu.xvault_transfers"), 5u);
    EXPECT_EQ(ctx.counter("setops.xvault_bytes"),
              4000u + 4 * 400u);
}

// --- Differential: policy x routing x engine, forced vault configs ---------

std::shared_ptr<PlacementPolicy>
buildPolicy(std::string_view name, std::uint32_t vaults,
            const BatchRequest &req)
{
    if (name == "locality") {
        std::vector<TrafficArc> arcs;
        for (const BatchOp &op : req.ops)
            arcs.push_back({op.a, op.b, 1});
        return greedyLocalityPlacement(vaults, arcs);
    }
    return std::make_shared<HashPlacement>(vaults);
}

class RoutingDifferential
    : public ::testing::TestWithParam<
          std::tuple<const char *, const char *>>
{
};

TEST_P(RoutingDifferential, BatchedBitIdenticalToSerialEverywhere)
{
    // The acceptance contract: for every placement policy x routing
    // rule, batched dispatch stays bit-identical to serial issue in
    // results, result ids, the functional setops.* totals, and
    // lastBackend() -- under the default configuration AND under a
    // forced 2-vault configuration. Three rounds of the
    // same request run against the result pins the earlier rounds
    // left in the placement overlay.
    const auto [policy_name, routing_name] = GetParam();
    const Element universe = 1024;

    for (const std::uint32_t vaults : {2u, 0u}) {
        ScuConfig config;
        if (vaults)
            config.pim.vaults = vaults;
        if (std::string_view(routing_name) == "balanced")
            config.routing = Routing::Balanced;

        SetStore store_b(universe), store_s(universe);
        Scu scu_b(store_b, config, 1);
        Scu scu_s(store_s, config, 1);
        const auto pool_b = makePool(store_b, 32, universe, 77);
        makePool(store_s, 32, universe, 77);
        const BatchRequest req = makeRequest(pool_b, 120, 13);
        scu_b.setPlacement(buildPolicy(
            policy_name, config.pim.vaults, req));

        SimContext ctx_b(1), ctx_s(1);
        for (int round = 0; round < 3; ++round) {
            const BatchResult res =
                scu_b.dispatchBatch(ctx_b, 0, req);
            ASSERT_EQ(res.size(), req.size());
            for (std::size_t i = 0; i < req.size(); ++i) {
                const BatchOp &op = req.ops[i];
                SetId serial = invalid_set;
                std::uint64_t value = 0;
                switch (op.kind) {
                  case BatchOpKind::Intersect:
                    serial =
                        scu_s.intersect(ctx_s, 0, op.a, op.b);
                    break;
                  case BatchOpKind::Union:
                    serial =
                        scu_s.setUnion(ctx_s, 0, op.a, op.b);
                    break;
                  case BatchOpKind::Difference:
                    serial =
                        scu_s.difference(ctx_s, 0, op.a, op.b);
                    break;
                  case BatchOpKind::IntersectCard:
                    value = scu_s.intersectCard(ctx_s, 0, op.a,
                                                op.b);
                    break;
                  case BatchOpKind::UnionCard:
                    value =
                        scu_s.unionCard(ctx_s, 0, op.a, op.b);
                    break;
                }
                if (serial != invalid_set) {
                    EXPECT_EQ(res.entries[i].set, serial);
                    EXPECT_EQ(
                        store_b.elementsOf(res.entries[i].set),
                        store_s.elementsOf(serial));
                } else {
                    EXPECT_EQ(res.entries[i].value, value);
                }
            }
            EXPECT_EQ(scu_b.lastBackend(), scu_s.lastBackend())
                << policy_name << "/" << routing_name
                << " vaults=" << vaults
                << " round=" << round;
        }
        for (const char *name :
             {"setops.streamed", "setops.probes", "setops.words",
              "setops.output", "scu.pum_ops",
              "scu.pnm_stream_ops", "scu.pnm_random_ops",
              "scu.short_circuits"}) {
            EXPECT_EQ(ctx_b.counter(name), ctx_s.counter(name))
                << name << " " << policy_name << "/"
                << routing_name << " vaults=" << vaults;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    PolicyByRouting, RoutingDifferential,
    ::testing::Combine(::testing::Values("hash", "locality"),
                       ::testing::Values("primary", "balanced")));

// --- Acceptance: balanced scheduling cuts bytes at primary-level cycles ---

TEST(SchedulingAcceptance, BalancedHoldsBytesAndRestoresCyclesOnRmat9)
{
    // The acceptance bar. On fixed-seed RMAT-9 triangle counting
    // over static locality placement, running every op where its
    // bigger operand lives cuts cross-vault bytes but piles ops onto
    // big-operand vaults. Balanced routing must keep a >= 12% byte
    // cut below the locality/primary baseline while holding cycles
    // within 2% of primary -- and every functional output must stay
    // bit-identical across both rules.
    graph::RmatParams params;
    params.scale = 9;
    params.edgeFactor = 8;
    const graph::Graph g = graph::rmat(params, 42);

    struct Run
    {
        std::uint64_t triangles;
        std::uint64_t cycles;
        std::uint64_t moved; ///< Cross-vault bytes.
        std::array<std::uint64_t, 4> work;
    };
    const auto run = [&](Routing routing) {
        ScuConfig config;
        config.routing = routing;
        core::SisaEngine eng(g.numVertices(), config, 4);
        SimContext ctx(4);
        ctx.setPatternCutoff(0);
        algorithms::OrientedSetGraph osg(g, eng);
        eng.scu().setPlacement(greedyLocalityPlacement(
            config.pim.vaults, core::placementArcs(*osg.sets)));
        const std::uint64_t tri = algorithms::triangleCount(osg, ctx);
        return Run{tri, ctx.makespan(),
                   ctx.counter("setops.xvault_bytes"),
                   {ctx.counter("setops.streamed"),
                    ctx.counter("setops.probes"),
                    ctx.counter("setops.words"),
                    ctx.counter("setops.output")}};
    };

    const Run primary = run(Routing::Primary);
    const Run balanced = run(Routing::Balanced);

    EXPECT_EQ(primary.triangles, balanced.triangles);
    EXPECT_EQ(primary.work, balanced.work);

    // >= 12% fewer interconnect bytes than the locality baseline
    // (the PR 3 configuration: locality placement, primary routing).
    EXPECT_LE(balanced.moved,
              primary.moved - (primary.moved * 12) / 100);
    // ... while modeled cycles stay within 2% of primary routing.
    EXPECT_LE(balanced.cycles,
              primary.cycles + (primary.cycles * 2) / 100);
}

} // namespace
