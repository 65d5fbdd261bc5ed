/**
 * @file
 * Fault-injection and recovery suites (the `faults` CTest label):
 * fault-spec parsing, the zero-overhead guarantee of a disabled
 * injector, exact-cycle pins for every recovery charge (checksum
 * verifies, retry backoff, transfer retransmits, quarantine
 * evacuation), recovery determinism (seeded fault campaigns and
 * permanent vault failures across {primary, balanced} routing,
 * bit-identical to fault-free in results, ids, and functional
 * setops.* totals), fail-stop unrecoverable faults, and an RMAT-9
 * triangle-count acceptance campaign.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "algorithms/common.hpp"
#include "algorithms/triangle_count.hpp"
#include "core/set_graph.hpp"
#include "core/sisa_engine.hpp"
#include "graph/generators.hpp"
#include "mem/pim.hpp"
#include "sisa/batch.hpp"
#include "sisa/faults.hpp"
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
    mem::Cycles busy = 0;
    std::uint64_t quarantines = 0;
};

/**
 * Run @p batches pseudo-random dispatches (seeds seed, seed+1, ...)
 * on a fresh store/SCU pair and record every functional observable
 * plus the counter totals. Twin calls with identical routing must
 * produce identical values/ids/payloads regardless of the fault
 * config.
 */
CampaignRun
runCampaign(const ScuConfig &config, std::uint32_t batches,
            std::uint32_t ops_per_batch, std::uint64_t seed)
{
    SetStore store(4096);
    Scu scu(store, config, 1);
    const std::vector<SetId> pool = makePool(store, 40, 2048, 7);
    SimContext ctx(1);
    CampaignRun run;
    for (std::uint32_t b = 0; b < batches; ++b) {
        const BatchRequest req =
            makeRequest(pool, ops_per_batch, seed + b);
        const BatchResult res = scu.dispatchBatch(ctx, 0, req);
        run.quarantines += res.faults.quarantinedVaults;
        for (const BatchEntry &entry : res.entries) {
            run.values.push_back(entry.value);
            run.ids.push_back(entry.set);
            run.payloads.push_back(entry.set == invalid_set
                                       ? std::vector<Element>{}
                                       : store.elementsOf(entry.set));
        }
    }
    run.counters = ctx.counters();
    run.busy = ctx.threadBusy(0);
    return run;
}

/** The functional setops.* totals that faults must never disturb. */
std::array<std::uint64_t, 4>
functionalWork(const std::map<std::string, std::uint64_t> &counters)
{
    const auto get = [&](const char *name) {
        const auto it = counters.find(name);
        return it == counters.end() ? 0ull : it->second;
    };
    return {get("setops.streamed"), get("setops.probes"),
            get("setops.words"), get("setops.output")};
}

// --- Fault-spec parsing ----------------------------------------------------

TEST(FaultSpec, ParsesFullSpec)
{
    const auto config = parseFaultSpec(
        "seed=7,corrupt=0.02,stall=0.01,stall-cycles=128,drop=0.005,"
        "retries=6,backoff=16,timeout=2048,verify=1,fail=3@2,fail=5@7,"
        "corrupt-at=1:4,corrupt-at=2:9:3");
    ASSERT_TRUE(config.has_value());
    EXPECT_TRUE(config->enabled);
    EXPECT_EQ(config->seed, 7u);
    EXPECT_DOUBLE_EQ(config->corruptRate, 0.02);
    EXPECT_DOUBLE_EQ(config->stallRate, 0.01);
    EXPECT_EQ(config->stallCycles, 128u);
    EXPECT_DOUBLE_EQ(config->dropRate, 0.005);
    EXPECT_EQ(config->maxRetries, 6u);
    EXPECT_EQ(config->retryBackoffBase, 16u);
    EXPECT_EQ(config->heartbeatTimeout, 2048u);
    EXPECT_TRUE(config->verifyChecksums);
    ASSERT_EQ(config->vaultFailures.size(), 2u);
    EXPECT_EQ(config->vaultFailures[0].dispatch, 3u);
    EXPECT_EQ(config->vaultFailures[0].vault, 2u);
    EXPECT_EQ(config->vaultFailures[1].dispatch, 5u);
    EXPECT_EQ(config->vaultFailures[1].vault, 7u);
    ASSERT_EQ(config->corruptAt.size(), 2u);
    EXPECT_EQ(config->corruptAt[0].dispatch, 1u);
    EXPECT_EQ(config->corruptAt[0].op, 4u);
    EXPECT_EQ(config->corruptAt[0].attempts, 1u);
    EXPECT_EQ(config->corruptAt[1].dispatch, 2u);
    EXPECT_EQ(config->corruptAt[1].op, 9u);
    EXPECT_EQ(config->corruptAt[1].attempts, 3u);
}

TEST(FaultSpec, RejectsMalformedSpecs)
{
    const char *bad[] = {
        "",                    // Empty.
        "corrupt=nope",        // Non-numeric rate.
        "corrupt=1.5",         // Rate out of [0, 1].
        "corrupt=-0.1",        // Negative rate.
        "bogus=1",             // Unknown key.
        "seed",                // Not key=value.
        "=7",                  // Empty key.
        "seed=",               // Empty value.
        "retries=0",           // Zero retry budget.
        "fail=3",              // Missing @vault.
        "fail=x@2",            // Non-numeric dispatch.
        "corrupt-at=1",        // Missing :op.
        "corrupt-at=1:x",      // Non-numeric op.
        "verify=2",            // Not a 0/1 flag.
        "corrupt=0.1,verify=0" // Undetectable corruption.
    };
    for (const char *spec : bad) {
        std::string error;
        EXPECT_FALSE(parseFaultSpec(spec, &error).has_value())
            << "spec '" << spec << "' should have been rejected";
        EXPECT_FALSE(error.empty()) << spec;
    }
}

// --- Payload integrity checksums -------------------------------------------

TEST(Checksum, StoreChecksumMatchesPayloadAndTracksMutation)
{
    SetStore store(4096);
    const SetId a =
        store.createFromSorted(iota(0, 100), SetRepr::SparseArray);
    // A SparseArray payload IS its sorted element array, so the
    // store's integrity code must equal the checksum any independent
    // reader computes over elementsOf.
    const std::vector<Element> elems = store.elementsOf(a);
    const std::uint64_t expected =
        fnvChecksum32(elems.data(), elems.size());
    EXPECT_EQ(store.payloadChecksum(a), expected);
    EXPECT_EQ(store.payloadChecksum(a), expected); // Cached: stable.

    store.insert(a, 500);
    EXPECT_NE(store.payloadChecksum(a), expected);
    store.remove(a, 500);
    EXPECT_EQ(store.payloadChecksum(a), expected);

    const SetId d = store.createFromSorted(iota(0, 300),
                                           SetRepr::DenseBitvector);
    const std::uint64_t dense = store.payloadChecksum(d);
    store.insert(d, 3000);
    EXPECT_NE(store.payloadChecksum(d), dense);
}

// --- The zero-overhead guarantee -------------------------------------------

TEST(ZeroOverhead, DisabledInjectorIsCycleIdenticalToDefaultConfig)
{
    // faults.enabled = false must behave EXACTLY like a config that
    // never heard of the fault layer, even with every rate and point
    // configured: the SCU installs no injector and the charge paths
    // take their historical branches. (The golden-trace pin in
    // test_isa guards the same property end to end.)
    ScuConfig plain;
    ScuConfig armed_but_off;
    armed_but_off.faults.enabled = false;
    armed_but_off.faults.seed = 99;
    armed_but_off.faults.corruptRate = 0.5;
    armed_but_off.faults.stallRate = 0.5;
    armed_but_off.faults.dropRate = 0.5;
    armed_but_off.faults.vaultFailures.push_back({0, 0});
    armed_but_off.faults.corruptAt.push_back({0, 0, 3});

    const CampaignRun base = runCampaign(plain, 3, 25, 11);
    const CampaignRun off = runCampaign(armed_but_off, 3, 25, 11);
    EXPECT_EQ(base.values, off.values);
    EXPECT_EQ(base.ids, off.ids);
    EXPECT_EQ(base.payloads, off.payloads);
    EXPECT_EQ(base.counters, off.counters);
    EXPECT_EQ(base.busy, off.busy);

    SetStore store(4096);
    Scu scu(store, armed_but_off, 1);
    EXPECT_EQ(scu.faultInjector(), nullptr);
}

// --- Exact-cycle pins ------------------------------------------------------

/** Twin single-op fixtures: a (400 B) and b (800 B) at set vaults. */
struct PinnedPair
{
    SetStore store{4096};
    std::unique_ptr<Scu> scu;
    SetId a = invalid_set;
    SetId b = invalid_set;

    PinnedPair(const ScuConfig &config, std::uint32_t vault_a,
               std::uint32_t vault_b)
    {
        scu = std::make_unique<Scu>(store, config, 1);
        a = store.createFromSorted(iota(0, 100), SetRepr::SparseArray);
        b = store.createFromSorted(iota(0, 200), SetRepr::SparseArray);
        auto placement = std::make_shared<LocalityPlacement>(
            scu->config().pim.vaults);
        placement->assign(a, vault_a);
        placement->assign(b, vault_b);
        scu->setPlacement(std::move(placement));
    }

    /** Dispatch one intersectCard(a, b) and return the busy cycles. */
    mem::Cycles
    dispatch(SimContext &ctx)
    {
        BatchRequest req;
        req.intersectCard(a, b);
        scu->dispatchBatch(ctx, 0, req);
        return ctx.threadBusy(0);
    }
};

TEST(ChecksumPin, VerifyChargesAreExactWordStreams)
{
    // One op, remote co-operand: the only deltas an otherwise quiet
    // injector may add are the two integrity verifies -- the fetched
    // operand (800 B) streaming through the receiving vault's
    // checksum unit and the scalar result (8 B) checked on adoption.
    ScuConfig clean_cfg;
    ScuConfig fault_cfg;
    fault_cfg.faults.enabled = true;
    fault_cfg.faults.seed = 1; // All rates zero: nothing ever fires.

    PinnedPair clean(clean_cfg, 0, 1), faulted(fault_cfg, 0, 1);
    SimContext ctx_c(1), ctx_f(1);
    const mem::Cycles busy_c = clean.dispatch(ctx_c);
    const mem::Cycles busy_f = faulted.dispatch(ctx_f);

    const mem::PimParams &pim = clean.scu->config().pim;
    EXPECT_EQ(busy_f - busy_c,
              mem::pnmStreamBytesCycles(pim, 800) +
                  mem::pnmStreamBytesCycles(pim, 8));
    EXPECT_EQ(ctx_f.counter("scu.checksum_verifies"), 2u);
    EXPECT_EQ(ctx_c.counter("scu.checksum_verifies"), 0u);
    // Functional accounting is untouched by the verifies.
    EXPECT_EQ(ctx_c.counter("setops.xvault_bytes"),
              ctx_f.counter("setops.xvault_bytes"));
    EXPECT_EQ(functionalWork(ctx_c.counters()),
              functionalWork(ctx_f.counters()));
}

TEST(RetryPin, BackoffGrowsExponentiallyFromTheConfiguredBase)
{
    // Target op 0 of dispatch 0 with exactly N in-flight corruptions.
    // Each detected corruption re-pays the op's execution, the failed
    // result verify, and backoff(k) = base << k, so with d(N) the
    // cycle delta of the N-corruption run over the clean faulted run:
    //   d(1) = exec + verify + base
    //   d(2) = d(1) + exec + verify + 2 * base
    // => d(2) - 2 * d(1) == base, an exact pin on the exponential
    // schedule with no knowledge of exec's magnitude.
    const auto run = [&](std::uint32_t attempts) {
        ScuConfig cfg;
        cfg.faults.enabled = true;
        cfg.faults.seed = 3;
        if (attempts)
            cfg.faults.corruptAt.push_back({0, 0, attempts});
        PinnedPair pair(cfg, 0, 0); // Co-located: no transfers.
        SimContext ctx(1);
        EXPECT_EQ(pair.scu->dispatchIndex(), 0u);
        const mem::Cycles busy = pair.dispatch(ctx);
        return std::pair{busy, ctx.counter("scu.retries")};
    };

    const auto [busy_0, retries_0] = run(0);
    const auto [busy_1, retries_1] = run(1);
    const auto [busy_2, retries_2] = run(2);
    EXPECT_EQ(retries_0, 0u);
    EXPECT_EQ(retries_1, 1u);
    EXPECT_EQ(retries_2, 2u);

    const mem::Cycles d1 = busy_1 - busy_0;
    const mem::Cycles d2 = busy_2 - busy_0;
    FaultConfig defaults;
    EXPECT_EQ(d2 - 2 * d1, defaults.retryBackoffBase);
    // Each retry also wastes at least the backoff plus the 8-byte
    // result verify it failed.
    ScuConfig probe_cfg;
    EXPECT_GT(d1, defaults.retryBackoffBase +
                      mem::pnmStreamBytesCycles(probe_cfg.pim, 8));
}

TEST(DropPin, RetransmitChargesMatchTheInjectorMirror)
{
    // The test mirrors the SCU's drop loop through the public
    // injector: every dropped attempt pays the full 800 B crossing
    // plus backoff(k) and books the bytes as recovery traffic, and
    // the surviving attempt pays the normal (fault-free) transfer.
    ScuConfig base_cfg;
    base_cfg.faults.enabled = true;
    base_cfg.faults.seed = 17;
    base_cfg.faults.verifyChecksums = false; // Isolate the drop path.
    base_cfg.faults.maxRetries = 30;

    // Probe seeds until the first transfer attempt drops, so the pin
    // exercises at least one retransmission. b's id is deterministic
    // (second set created in the twin stores below).
    ScuConfig drop_cfg = base_cfg;
    drop_cfg.faults.dropRate = 0.6;
    const SetId b_id = 1;
    for (std::uint64_t seed = 0;; ++seed) {
        drop_cfg.faults.seed = seed;
        base_cfg.faults.seed = seed;
        const FaultInjector probe(drop_cfg.faults);
        if (probe.dropsTransfer(0, 0, b_id, 0))
            break;
        ASSERT_LT(seed, 1000u) << "no dropping seed found";
    }

    PinnedPair clean(base_cfg, 0, 1), faulted(drop_cfg, 0, 1);
    ASSERT_EQ(faulted.b, b_id);
    SimContext ctx_c(1), ctx_f(1);
    const mem::Cycles busy_c = clean.dispatch(ctx_c);
    const mem::Cycles busy_f = faulted.dispatch(ctx_f);

    const FaultInjector *inj = faulted.scu->faultInjector();
    ASSERT_NE(inj, nullptr);
    mem::Cycles expected = 0;
    std::uint64_t drops = 0;
    const mem::PimParams &pim = faulted.scu->config().pim;
    while (inj->dropsTransfer(0, 0, faulted.b,
                              static_cast<std::uint32_t>(drops))) {
        expected += mem::interconnectCycles(pim, 800) +
                    inj->backoff(static_cast<std::uint32_t>(drops));
        ++drops;
    }
    ASSERT_GT(drops, 0u);
    EXPECT_EQ(busy_f - busy_c, expected);
    EXPECT_EQ(ctx_f.counter("scu.retries"), drops);
    EXPECT_EQ(ctx_f.counter("setops.recovery_bytes"), drops * 800);
    // The functional transfer is charged exactly once on both sides.
    EXPECT_EQ(ctx_c.counter("setops.xvault_bytes"), 800u);
    EXPECT_EQ(ctx_f.counter("setops.xvault_bytes"), 800u);
}

TEST(QuarantinePin, EvacuationChargesTimeoutPlusFootprintCrossings)
{
    // Vault 0 dies at dispatch 0 with both operands resident: the
    // watchdog fires one heartbeat timeout after the (empty) healthy
    // barrier, both payloads stream to the remap target, and the
    // stranded op replays there with charges identical to the clean
    // run (both operands co-located before AND after). The total
    // cycle delta is EXACTLY timeout + interconnect(400) +
    // interconnect(800).
    ScuConfig clean_cfg;
    clean_cfg.faults.enabled = true;
    clean_cfg.faults.seed = 5;
    ScuConfig fail_cfg = clean_cfg;
    fail_cfg.faults.vaultFailures.push_back({0, 0});

    PinnedPair clean(clean_cfg, 0, 0), faulted(fail_cfg, 0, 0);
    SimContext ctx_c(1), ctx_f(1);
    const mem::Cycles busy_c = clean.dispatch(ctx_c);
    const mem::Cycles busy_f = faulted.dispatch(ctx_f);

    const mem::PimParams &pim = faulted.scu->config().pim;
    const FaultConfig &fc = faulted.scu->config().faults;
    EXPECT_EQ(busy_f - busy_c,
              fc.heartbeatTimeout +
                  mem::interconnectCycles(pim, 400) +
                  mem::interconnectCycles(pim, 800));
    EXPECT_EQ(ctx_f.counter("scu.quarantines"), 1u);
    EXPECT_EQ(ctx_f.counter("setops.recovery_bytes"), 1200u);
    EXPECT_TRUE(faulted.scu->vaultQuarantined(0));
    // Both evacuees moved to the quarantine remap target (the next
    // live vault), and later routing agrees.
    EXPECT_EQ(faulted.scu->vaultOf(faulted.a), 1u);
    EXPECT_EQ(faulted.scu->vaultOf(faulted.b), 1u);
    // No fault ever touches the functional outcome or accounting.
    EXPECT_EQ(ctx_c.counter("setops.xvault_bytes"),
              ctx_f.counter("setops.xvault_bytes"));
    EXPECT_EQ(functionalWork(ctx_c.counters()),
              functionalWork(ctx_f.counters()));
}

TEST(Quarantine, LastLiveVaultIsUnrecoverable)
{
    ScuConfig cfg;
    cfg.pim.vaults = 2;
    cfg.faults.enabled = true;
    cfg.faults.vaultFailures.push_back({0, 0});
    cfg.faults.vaultFailures.push_back({0, 1});
    SetStore store(4096);
    Scu scu(store, cfg, 1);
    const SetId a =
        store.createFromSorted(iota(0, 50), SetRepr::SparseArray);
    const SetId b =
        store.createFromSorted(iota(25, 50), SetRepr::SparseArray);
    BatchRequest req;
    req.intersectCard(a, b);
    SimContext ctx(1);
    EXPECT_THROW(scu.dispatchBatch(ctx, 0, req),
                 UnrecoverableFaultError);
}

// --- Recovery determinism --------------------------------------------------

TEST(Recovery, DeadVaultDifferentialAcrossRoutings)
{
    // A vault dies mid-campaign (dispatch 1 of 3). Under every
    // routing rule the recovered run must be bit-identical to the
    // fault-free twin in entry values, result ids, payloads, and the
    // functional setops.* totals -- the fault moves only cycles and
    // recovery counters.
    for (const Routing routing :
         {Routing::Primary, Routing::Balanced}) {
        ScuConfig clean_cfg;
        clean_cfg.pim.vaults = 8; // Every vault hosts sets.
        clean_cfg.routing = routing;
        ScuConfig fail_cfg = clean_cfg;
        fail_cfg.faults.enabled = true;
        fail_cfg.faults.seed = 23;
        fail_cfg.faults.vaultFailures.push_back({1, 2});

        const CampaignRun clean = runCampaign(clean_cfg, 3, 30, 41);
        const CampaignRun failed = runCampaign(fail_cfg, 3, 30, 41);
        const std::string what =
            "routing " + std::to_string(static_cast<int>(routing));
        EXPECT_EQ(clean.values, failed.values) << what;
        EXPECT_EQ(clean.ids, failed.ids) << what;
        EXPECT_EQ(clean.payloads, failed.payloads) << what;
        EXPECT_EQ(functionalWork(clean.counters),
                  functionalWork(failed.counters))
            << what;
        EXPECT_EQ(failed.quarantines, 1u) << what;
        EXPECT_EQ(failed.counters.at("scu.quarantines"), 1u)
            << what;
        EXPECT_GT(failed.busy, clean.busy) << what;
    }
}

TEST(Recovery, SeededCampaignIsLossless)
{
    // A full probabilistic campaign (corruption + stalls + drops +
    // one permanent failure) must be functionally identical to the
    // fault-free twin.
    for (const Routing routing :
         {Routing::Primary, Routing::Balanced}) {
        ScuConfig clean_cfg;
        clean_cfg.pim.vaults = 8;
        clean_cfg.routing = routing;
        ScuConfig fault_cfg = clean_cfg;
        fault_cfg.faults.enabled = true;
        fault_cfg.faults.seed = 5;
        fault_cfg.faults.corruptRate = 0.02;
        fault_cfg.faults.stallRate = 0.01;
        fault_cfg.faults.dropRate = 0.01;
        fault_cfg.faults.maxRetries = 8;
        fault_cfg.faults.vaultFailures.push_back({2, 1});

        const CampaignRun clean = runCampaign(clean_cfg, 4, 25, 77);
        const CampaignRun f1 = runCampaign(fault_cfg, 4, 25, 77);
        const std::string what =
            "routing " + std::to_string(static_cast<int>(routing));

        EXPECT_EQ(clean.values, f1.values) << what;
        EXPECT_EQ(clean.ids, f1.ids) << what;
        EXPECT_EQ(clean.payloads, f1.payloads) << what;
        EXPECT_EQ(functionalWork(clean.counters),
                  functionalWork(f1.counters))
            << what;
        EXPECT_EQ(f1.counters.at("scu.quarantines"), 1u) << what;
        EXPECT_GT(f1.busy, clean.busy) << what;
    }
}

// --- Unrecoverable faults --------------------------------------------------

TEST(Unrecoverable, PersistentCorruptionThrows)
{
    // Corruption outliving maxRetries is fail-stop.
    ScuConfig cfg;
    cfg.faults.enabled = true;
    cfg.faults.maxRetries = 2;
    cfg.faults.corruptAt.push_back({0, 0, 10});
    SetStore store(4096);
    Scu scu(store, cfg, 1);
    const std::vector<SetId> pool = makePool(store, 16, 1024, 9);
    const BatchRequest req = makeRequest(pool, 12, 31);
    SimContext ctx(1);
    EXPECT_THROW(scu.dispatchBatch(ctx, 0, req), UnrecoverableFaultError);
}

TEST(Unrecoverable, PersistentTransferDropThrows)
{
    ScuConfig cfg;
    cfg.faults.enabled = true;
    cfg.faults.dropRate = 1.0; // Every attempt drops.
    cfg.faults.maxRetries = 1;
    cfg.faults.verifyChecksums = false;
    PinnedPair pair(cfg, 0, 1); // Remote co-operand: must transfer.
    SimContext ctx(1);
    BatchRequest req;
    req.intersectCard(pair.a, pair.b);
    EXPECT_THROW(pair.scu->dispatchBatch(ctx, 0, req),
                 UnrecoverableFaultError);
}

// --- Acceptance: RMAT-9 triangle counting under a fault campaign -----------

TEST(FaultAcceptance, Rmat9TriangleCountSurvivesCampaign)
{
    // The tentpole acceptance bar: fixed-seed RMAT-9 triangle
    // counting under a probabilistic fault campaign (transient
    // corruption, stalls, drops, plus one permanent vault failure)
    // completes with a triangle count and functional setops.* totals
    // bit-identical to the fault-free run, at a strictly higher
    // modeled cycle cost carrying the recovery counters.
    graph::RmatParams params;
    params.scale = 9;
    params.edgeFactor = 8;
    const graph::Graph g = graph::rmat(params, 42);

    const auto run = [&](bool faulted) {
        ScuConfig config;
        if (faulted) {
            config.faults.enabled = true;
            config.faults.seed = 11;
            config.faults.corruptRate = 0.001;
            config.faults.stallRate = 0.0005;
            config.faults.dropRate = 0.0005;
            config.faults.maxRetries = 8;
            config.faults.vaultFailures.push_back({5, 3});
        }
        core::SisaEngine eng(g.numVertices(), config, 4);
        SimContext ctx(4);
        ctx.setPatternCutoff(0);
        algorithms::OrientedSetGraph osg(g, eng);
        const std::uint64_t tri = algorithms::triangleCount(osg, ctx);
        return std::tuple{tri, ctx.makespan(),
                          functionalWork(ctx.counters()),
                          ctx.counters()};
    };

    const auto [tri_c, cycles_c, work_c, counters_c] = run(false);
    const auto [tri_f, cycles_f, work_f, counters_f] = run(true);

    EXPECT_EQ(tri_c, tri_f);
    EXPECT_EQ(work_c, work_f);
    EXPECT_GT(tri_c, 0u);
    EXPECT_GT(cycles_f, cycles_c);
    EXPECT_EQ(counters_f.at("scu.quarantines"), 1u);
    EXPECT_GT(counters_f.at("scu.retries"), 0u);
    EXPECT_GT(counters_f.at("scu.checksum_verifies"), 0u);
    EXPECT_EQ(counters_c.count("scu.retries"), 0u);
    EXPECT_EQ(counters_c.count("scu.quarantines"), 0u);
}

} // namespace
