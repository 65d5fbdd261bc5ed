/** @file Unit tests for the SISA ISA: encoding, set store, SCU. */

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sisa/encoding.hpp"
#include "sisa/scu.hpp"
#include "sisa/set_store.hpp"

namespace {

using namespace sisa::isa;
using sisa::sets::SetRepr;
using sisa::sim::SimContext;

// --- Encoding (Figure 5) ----------------------------------------------------

TEST(Encoding, CustomOpcodeInLowBits)
{
    SisaInst inst;
    inst.op = SisaOp::IntersectAuto;
    const std::uint32_t word = encode(inst);
    EXPECT_EQ(word & 0x7f, sisa_opcode);
    EXPECT_TRUE(isSisaWord(word));
}

TEST(Encoding, Funct7CarriesOperation)
{
    SisaInst inst;
    inst.op = SisaOp::IntersectDbDb; // Table 5 opcode 0x4.
    EXPECT_EQ(encode(inst) >> 25, 0x4u);
}

TEST(Encoding, RoundTripAllOps)
{
    for (std::uint8_t op = 0; op < num_sisa_ops; ++op) {
        SisaInst inst;
        inst.op = static_cast<SisaOp>(op);
        inst.rd = 3;
        inst.rs1 = 17;
        inst.rs2 = 31;
        inst.xd = true;
        inst.xs1 = true;
        inst.xs2 = (op % 2) == 0;
        const auto decoded = decode(encode(inst));
        ASSERT_TRUE(decoded.has_value());
        EXPECT_EQ(*decoded, inst);
    }
}

TEST(Encoding, RejectsForeignOpcode)
{
    EXPECT_FALSE(decode(0x33).has_value()); // RISC-V OP opcode.
    EXPECT_FALSE(isSisaWord(0x33));
}

TEST(Encoding, RejectsUndefinedFunct7)
{
    SisaInst inst;
    inst.op = SisaOp::IntersectAuto;
    const std::uint32_t base = encode(inst) & 0x01ffffff;
    // 0x15 is the retired multi-operand intersection: it stays
    // undefined rather than being reused.
    for (const std::uint32_t funct7 : {0x15u, 0x7fu}) {
        EXPECT_FALSE(decode(base | (funct7 << 25)).has_value())
            << "funct7=" << funct7;
    }
}

TEST(Encoding, OpNamesUnique)
{
    std::set<std::string_view> names;
    for (std::uint8_t op = 0; op < num_sisa_ops; ++op)
        names.insert(sisaOpName(static_cast<SisaOp>(op)));
    EXPECT_EQ(names.size(), num_sisa_ops);
}

TEST(Encoding, ProducerClassification)
{
    EXPECT_TRUE(producesSet(SisaOp::IntersectAuto));
    EXPECT_TRUE(producesSet(SisaOp::CreateSet));
    EXPECT_FALSE(producesSet(SisaOp::IntersectCard));
    EXPECT_TRUE(producesScalar(SisaOp::IntersectCard));
    EXPECT_TRUE(producesScalar(SisaOp::Member));
    EXPECT_FALSE(producesScalar(SisaOp::InsertElement));
}

// --- SetStore ---------------------------------------------------------------

TEST(SetStore, CreateAndMetadata)
{
    SetStore store(100);
    const SetId sa = store.createFromSorted({1, 5, 9},
                                            SetRepr::SparseArray);
    const SetId db = store.createFromSorted({2, 4},
                                            SetRepr::DenseBitvector);
    EXPECT_EQ(store.cardinality(sa), 3u);
    EXPECT_EQ(store.cardinality(db), 2u);
    EXPECT_FALSE(store.isDense(sa));
    EXPECT_TRUE(store.isDense(db));
    EXPECT_EQ(store.liveCount(), 2u);
}

TEST(SetStore, InsertRemoveKeepsMetadataFresh)
{
    SetStore store(64);
    const SetId id = store.createFromSorted({1, 2},
                                            SetRepr::DenseBitvector);
    store.insert(id, 10);
    EXPECT_EQ(store.metadata(id).cardinality, 3u);
    store.remove(id, 1);
    EXPECT_EQ(store.metadata(id).cardinality, 2u);
    EXPECT_TRUE(store.member(id, 10));
    EXPECT_FALSE(store.member(id, 1));
}

TEST(SetStore, DestroyRecyclesSlots)
{
    SetStore store(64);
    const SetId a = store.createFromSorted({1}, SetRepr::SparseArray);
    store.destroy(a);
    EXPECT_EQ(store.liveCount(), 0u);
    const SetId b = store.createFromSorted({2}, SetRepr::SparseArray);
    EXPECT_EQ(b, a); // Slot got recycled.
}

TEST(SetStore, CloneIsIndependent)
{
    SetStore store(64);
    const SetId a = store.createFromSorted({1, 2},
                                           SetRepr::DenseBitvector);
    const SetId b = store.clone(a);
    store.insert(b, 7);
    EXPECT_EQ(store.cardinality(a), 2u);
    EXPECT_EQ(store.cardinality(b), 3u);
}

TEST(SetStore, ConvertBetweenRepresentations)
{
    SetStore store(64);
    const SetId id = store.createFromSorted({3, 6, 9},
                                            SetRepr::SparseArray);
    store.convert(id, SetRepr::DenseBitvector);
    EXPECT_TRUE(store.isDense(id));
    EXPECT_EQ(store.cardinality(id), 3u);
    store.convert(id, SetRepr::SparseArray);
    EXPECT_FALSE(store.isDense(id));
    EXPECT_EQ(store.elementsOf(id),
              (std::vector<sisa::sets::Element>{3, 6, 9}));
}

TEST(SetStore, CreateFull)
{
    SetStore store(70);
    const SetId id = store.createFull();
    EXPECT_EQ(store.cardinality(id), 70u);
    EXPECT_TRUE(store.member(id, 69));
}

TEST(SetStore, StorageBitsTracksRepresentation)
{
    SetStore store(1000);
    store.createFromSorted({1, 2, 3}, SetRepr::SparseArray);
    EXPECT_EQ(store.storageBits(), 3u * 32);
    store.createFromSorted({1}, SetRepr::DenseBitvector);
    EXPECT_EQ(store.storageBits(), 3u * 32 + 1000);
}

TEST(SetStore, MetadataAddressesDistinct)
{
    SetStore store(64);
    const SetId a = store.createFromSorted({1}, SetRepr::SparseArray);
    const SetId b = store.createFromSorted({2}, SetRepr::SparseArray);
    EXPECT_NE(store.metadataAddr(a), store.metadataAddr(b));
}

// --- SetStore over a shared base ----------------------------------------------

/** A store holding an SA, a DB, an empty SA and a full DB. */
void
fillBase(SetStore &store)
{
    store.createFromSorted({1, 5, 9}, SetRepr::SparseArray);
    store.createFromSorted({2, 4, 100}, SetRepr::DenseBitvector);
    store.createFromSorted({}, SetRepr::SparseArray);
    store.createFull();
}

std::shared_ptr<const SetStore>
makeBase()
{
    auto base = std::make_shared<SetStore>(200);
    fillBase(*base);
    return base;
}

/** Same repr, cardinality, location and elements in both stores. */
void
expectSameSet(const SetStore &a, const SetStore &b, SetId id)
{
    SCOPED_TRACE(::testing::Message() << "set " << id);
    ASSERT_TRUE(a.live(id));
    ASSERT_TRUE(b.live(id));
    EXPECT_EQ(a.metadata(id).repr, b.metadata(id).repr);
    EXPECT_EQ(a.cardinality(id), b.cardinality(id));
    EXPECT_EQ(a.metadata(id).location, b.metadata(id).location);
    EXPECT_EQ(a.metadataAddr(id), b.metadataAddr(id));
    EXPECT_EQ(a.elementsOf(id), b.elementsOf(id));
}

TEST(SharedBaseStore, ReadsBaseSetsInPlace)
{
    const std::shared_ptr<const SetStore> base = makeBase();
    const SetStore tenant(base);
    EXPECT_EQ(tenant.base(), base.get());
    EXPECT_EQ(tenant.universe(), base->universe());
    EXPECT_EQ(tenant.liveCount(), base->liveCount());
    EXPECT_EQ(tenant.storageBits(), base->storageBits());
    for (SetId id = 0; id < 4; ++id) {
        expectSameSet(tenant, *base, id);
        EXPECT_EQ(tenant.payloadBytes(id), base->payloadBytes(id));
        if (tenant.isDense(id))
            EXPECT_EQ(&tenant.db(id), &base->db(id)); // Not a copy.
        else
            EXPECT_EQ(&tenant.sa(id), &base->sa(id));
    }
    EXPECT_TRUE(tenant.member(0, 5));
    EXPECT_TRUE(tenant.member(1, 100));
    EXPECT_FALSE(tenant.member(1, 3));
}

TEST(SharedBaseStore, NewSetsMatchAPrivateCopy)
{
    const std::shared_ptr<const SetStore> base = makeBase();
    SetStore tenant(base);
    SetStore copy(200); // A private copy of the base.
    fillBase(copy);

    // Every allocation path, including clones of base sets, hands out
    // the ids and locations the private copy does.
    std::vector<std::pair<SetId, SetId>> made;
    const auto both = [&](auto &&make) {
        made.emplace_back(make(tenant), make(copy));
    };
    both([](SetStore &s) { return s.clone(0); });
    both([](SetStore &s) { return s.clone(1); });
    both([](SetStore &s) {
        return s.createFromSorted({7, 8}, SetRepr::SparseArray);
    });
    both([](SetStore &s) { return s.adopt(SortedArraySet({3, 4})); });
    both([](SetStore &s) {
        return s.adopt(
            DenseBitset::fromSorted(std::vector<Element>{6}, 200));
    });
    both([](SetStore &s) { return s.createFull(); });
    for (const auto &[t, c] : made) {
        EXPECT_EQ(t, c);
        expectSameSet(tenant, copy, t);
    }

    // A tenant's own sets are ordinary: mutate, convert, destroy and
    // recycle them exactly like the private copy's.
    for (SetStore *s : {&tenant, &copy}) {
        s->insert(made[0].first, 150);
        s->remove(made[1].first, 2);
        s->convert(made[2].first, SetRepr::DenseBitvector);
        s->destroy(made[3].first);
    }
    for (const SetId id : {made[0].first, made[1].first, made[2].first})
        expectSameSet(tenant, copy, id);
    EXPECT_EQ(tenant.createEmpty(SetRepr::SparseArray),
              copy.createEmpty(SetRepr::SparseArray));
    EXPECT_EQ(tenant.liveCount(), copy.liveCount());
    EXPECT_EQ(tenant.storageBits(), copy.storageBits());
    for (SetId id = 0; id < 4; ++id)
        expectSameSet(tenant, copy, id);

    // The base never saw any of it.
    EXPECT_EQ(base->liveCount(), 4u);
    EXPECT_EQ(base->elementsOf(0), (std::vector<Element>{1, 5, 9}));
    EXPECT_EQ(base->cardinality(1), 3u);
    EXPECT_FALSE(base->live(4));
}

TEST(SharedBaseStoreDeathTest, BaseSetsAreReadOnly)
{
    const std::shared_ptr<const SetStore> base = makeBase();
    SetStore tenant(base);
    const char *msg = "read-only shared base";
    EXPECT_DEATH(tenant.insert(0, 3), msg);
    EXPECT_DEATH(tenant.remove(1, 2), msg);
    EXPECT_DEATH(tenant.convert(0, SetRepr::DenseBitvector), msg);
    EXPECT_DEATH(tenant.convert(0, SetRepr::SparseArray), msg);
    EXPECT_DEATH(tenant.destroy(2), msg);
    EXPECT_DEATH(tenant.mutableSa(0), msg);
    EXPECT_DEATH(tenant.mutableDb(3), msg);
}

TEST(SharedBaseStoreDeathTest, RejectsHoledOrNestedBase)
{
    auto holed = std::make_shared<SetStore>(64);
    holed->destroy(holed->createFromSorted({1}, SetRepr::SparseArray));
    EXPECT_DEATH(SetStore{holed}, "no base and no free slots");
    const auto nested = std::make_shared<const SetStore>(makeBase());
    EXPECT_DEATH(SetStore{nested}, "no base and no free slots");
}

// --- SCU ---------------------------------------------------------------------

class ScuTest : public ::testing::Test
{
  protected:
    ScuTest() : store_(256), scu_(store_, ScuConfig{}, 2), ctx_(2) {}

    SetId
    makeSa(std::vector<sisa::sets::Element> elems)
    {
        return store_.createFromSorted(std::move(elems),
                                       SetRepr::SparseArray);
    }

    SetId
    makeDb(std::vector<sisa::sets::Element> elems)
    {
        return store_.createFromSorted(std::move(elems),
                                       SetRepr::DenseBitvector);
    }

    SetStore store_;
    Scu scu_;
    SimContext ctx_;
};

TEST_F(ScuTest, DbDbIntersectGoesToPum)
{
    const SetId a = makeDb({1, 2, 3});
    const SetId b = makeDb({2, 3, 4});
    const SetId r = scu_.intersect(ctx_, 0, a, b);
    EXPECT_EQ(scu_.lastBackend(), Backend::Pum);
    EXPECT_EQ(store_.cardinality(r), 2u);
    EXPECT_TRUE(store_.isDense(r));
    EXPECT_GE(ctx_.counter("scu.pum_ops"), 1u);
}

TEST_F(ScuTest, SaSaSimilarSizesMerge)
{
    const SetId a = makeSa({1, 2, 3, 4, 5, 6, 7, 8});
    const SetId b = makeSa({2, 4, 6, 8, 10, 12, 14, 16});
    scu_.intersect(ctx_, 0, a, b);
    EXPECT_EQ(scu_.lastBackend(), Backend::PnmStream);
}

TEST_F(ScuTest, SaSaExtremeSkewGallops)
{
    // Under the Section 8.3 models (l_M per probe), galloping only
    // wins on extreme skews: merge streams max elements at b_M while
    // galloping pays l_M * min * log(max).
    SetStore store(8192);
    Scu scu(store, ScuConfig{}, 1);
    SimContext ctx(1);
    std::vector<sisa::sets::Element> big;
    for (sisa::sets::Element e = 0; e < 6000; ++e)
        big.push_back(e);
    const SetId a =
        store.createFromSorted({50}, SetRepr::SparseArray);
    const SetId b = store.createFromSorted(std::move(big),
                                           SetRepr::SparseArray);
    scu.intersect(ctx, 0, a, b);
    EXPECT_EQ(scu.lastBackend(), Backend::PnmRandom);
}

TEST_F(ScuTest, MixedReprUsesPnmRandom)
{
    const SetId a = makeSa({1, 2, 3});
    const SetId b = makeDb({2, 3, 4});
    const SetId r = scu_.intersect(ctx_, 0, a, b);
    EXPECT_EQ(scu_.lastBackend(), Backend::PnmRandom);
    EXPECT_EQ(store_.cardinality(r), 2u);
    EXPECT_FALSE(store_.isDense(r)); // SA cap DB -> SA.
}

TEST_F(ScuTest, ForcedVariantsOverrideModel)
{
    const SetId a = makeSa({1, 2, 3, 4});
    const SetId b = makeSa({3, 4, 5, 6});
    scu_.intersect(ctx_, 0, a, b, SisaOp::IntersectGallop);
    EXPECT_EQ(scu_.lastBackend(), Backend::PnmRandom);
    scu_.intersect(ctx_, 0, a, b, SisaOp::IntersectMerge);
    EXPECT_EQ(scu_.lastBackend(), Backend::PnmStream);
}

TEST_F(ScuTest, DifferenceChargesTwoRowOpsOnDbDb)
{
    const SetId a = makeDb({1, 2, 3});
    const SetId b = makeDb({2});
    const auto before = ctx_.threadBusy(0);
    const SetId r = scu_.difference(ctx_, 0, a, b);
    const auto diff_cost = ctx_.threadBusy(0) - before;
    EXPECT_EQ(store_.cardinality(r), 2u);

    const SetId c = makeDb({1, 2, 3});
    const SetId d = makeDb({2});
    const auto before2 = ctx_.threadBusy(0);
    scu_.intersect(ctx_, 0, c, d);
    const auto and_cost = ctx_.threadBusy(0) - before2;
    // A \ B = A AND NOT B: one extra in-situ row op vs plain AND.
    EXPECT_GT(diff_cost, and_cost);
}

TEST_F(ScuTest, UnionResults)
{
    const SetId a = makeSa({1, 3});
    const SetId b = makeSa({2, 3});
    const SetId r = scu_.setUnion(ctx_, 0, a, b);
    EXPECT_EQ(store_.elementsOf(r),
              (std::vector<sisa::sets::Element>{1, 2, 3}));

    const SetId da = makeDb({1, 3});
    const SetId db_ = makeDb({2});
    const SetId r2 = scu_.setUnion(ctx_, 0, da, db_);
    EXPECT_EQ(scu_.lastBackend(), Backend::Pum);
    EXPECT_EQ(store_.cardinality(r2), 3u);
}

TEST_F(ScuTest, FusedCardinalityCreatesNoSet)
{
    const SetId a = makeSa({1, 2, 3});
    const SetId b = makeSa({2, 3, 4});
    const auto live_before = store_.liveCount();
    EXPECT_EQ(scu_.intersectCard(ctx_, 0, a, b), 2u);
    EXPECT_EQ(store_.liveCount(), live_before);
}

TEST_F(ScuTest, UnionCardUsesInclusionExclusion)
{
    const SetId a = makeSa({1, 2, 3});
    const SetId b = makeSa({3, 4});
    EXPECT_EQ(scu_.unionCard(ctx_, 0, a, b), 4u);
}

TEST_F(ScuTest, MemberAndCardinality)
{
    const SetId a = makeDb({5, 10});
    EXPECT_TRUE(scu_.member(ctx_, 0, a, 5));
    EXPECT_FALSE(scu_.member(ctx_, 0, a, 6));
    EXPECT_EQ(scu_.cardinality(ctx_, 0, a), 2u);
}

TEST_F(ScuTest, InsertRemoveOnDbChargesOneAccess)
{
    const SetId a = makeDb({});
    const auto busy_before = ctx_.threadBusy(0);
    scu_.insert(ctx_, 0, a, 9);
    const auto cost = ctx_.threadBusy(0) - busy_before;
    // Table 5 0x5: O(1) random access plus SCU/SMB overheads; far
    // below any streaming cost over the universe.
    EXPECT_LE(cost, 3 * scu_.config().pim.dramLatency);
    EXPECT_TRUE(store_.member(a, 9));
    scu_.remove(ctx_, 0, a, 9);
    EXPECT_FALSE(store_.member(a, 9));
}

TEST_F(ScuTest, SmbHitsAfterFirstTouch)
{
    const SetId a = makeSa({1});
    const SetId b = makeSa({2});
    scu_.intersect(ctx_, 0, a, b);
    const auto misses_first = ctx_.counter("scu.smb_misses");
    scu_.intersect(ctx_, 0, a, b);
    EXPECT_EQ(ctx_.counter("scu.smb_misses"), misses_first);
    EXPECT_GE(ctx_.counter("scu.smb_hits"), 2u);
}

TEST_F(ScuTest, CloneAndDestroyLifecycle)
{
    const SetId a = makeDb({1, 2});
    const SetId b = scu_.clone(ctx_, 0, a);
    EXPECT_EQ(store_.cardinality(b), 2u);
    scu_.destroy(ctx_, 0, b);
    EXPECT_FALSE(store_.live(b));
}

TEST(ScuConfigTest, DisabledSmbChargesDram)
{
    SetStore store(64);
    ScuConfig config;
    config.smbEnabled = false;
    Scu scu(store, config, 1);
    SimContext ctx(1);
    const SetId a = store.createFromSorted({1}, SetRepr::SparseArray);
    const SetId b = store.createFromSorted({2}, SetRepr::SparseArray);
    scu.intersect(ctx, 0, a, b);
    EXPECT_GE(ctx.counter("scu.sm_dram_lookups"), 2u);
    EXPECT_EQ(ctx.counter("scu.smb_hits"), 0u);
}

TEST(ScuConfigTest, GallopThresholdHeuristic)
{
    SetStore store(4096);
    ScuConfig config;
    config.gallopThreshold = 5.0;
    Scu scu(store, config, 1);
    EXPECT_FALSE(scu.wouldGallop(100, 400)); // 4x < 5x.
    EXPECT_TRUE(scu.wouldGallop(100, 600));  // 6x >= 5x.
}

TEST(ScuConfigTest, SharedSmbCostsExtraLatency)
{
    SetStore store_a(64), store_b(64);
    ScuConfig priv;
    ScuConfig shared;
    shared.smbShared = true;
    shared.smbSharedExtraLatency = 10;
    Scu scu_a(store_a, priv, 2);
    Scu scu_b(store_b, shared, 2);
    SimContext ctx_a(2), ctx_b(2);
    const SetId a1 = store_a.createFromSorted({1},
                                              SetRepr::SparseArray);
    const SetId a2 = store_a.createFromSorted({2},
                                              SetRepr::SparseArray);
    const SetId b1 = store_b.createFromSorted({1},
                                              SetRepr::SparseArray);
    const SetId b2 = store_b.createFromSorted({2},
                                              SetRepr::SparseArray);
    // Warm both SMBs, then compare a hot lookup.
    scu_a.intersectCard(ctx_a, 0, a1, a2);
    scu_b.intersectCard(ctx_b, 0, b1, b2);
    const auto busy_a0 = ctx_a.threadBusy(0);
    const auto busy_b0 = ctx_b.threadBusy(0);
    scu_a.intersectCard(ctx_a, 0, a1, a2);
    scu_b.intersectCard(ctx_b, 0, b1, b2);
    EXPECT_GT(ctx_b.threadBusy(0) - busy_b0,
              ctx_a.threadBusy(0) - busy_a0);
}

} // namespace

// --- Instruction trace --------------------------------------------------

#include "sisa/trace.hpp"

namespace trace_tests {

using namespace sisa::isa;
using sisa::sets::SetRepr;
using sisa::sim::SimContext;

TEST(InstructionTrace, RecordsEncodedStream)
{
    SetStore store(128);
    Scu scu(store, ScuConfig{}, 1);
    InstructionTrace trace;
    scu.setTrace(&trace);
    SimContext ctx(1);

    const SetId a = scu.create(ctx, 0, {1, 2, 3},
                               SetRepr::SparseArray);
    const SetId b = scu.create(ctx, 0, {2, 3, 4},
                               SetRepr::SparseArray);
    const SetId r = scu.intersect(ctx, 0, a, b);
    scu.intersectCard(ctx, 0, a, b);
    scu.insert(ctx, 0, r, 9);
    scu.destroy(ctx, 0, r);

    EXPECT_EQ(trace.count(SisaOp::CreateSet), 2u);
    EXPECT_EQ(trace.count(SisaOp::IntersectAuto), 1u);
    EXPECT_EQ(trace.count(SisaOp::IntersectCard), 1u);
    EXPECT_EQ(trace.count(SisaOp::InsertElement), 1u);
    EXPECT_EQ(trace.count(SisaOp::DeleteSet), 1u);
    EXPECT_EQ(trace.size(), 6u);

    // Every recorded word is a decodable SISA instruction.
    for (const std::uint32_t word : trace.words()) {
        EXPECT_TRUE(isSisaWord(word));
        EXPECT_TRUE(decode(word).has_value());
    }
}

TEST(InstructionTrace, DisassemblesToMnemonics)
{
    SetStore store(64);
    Scu scu(store, ScuConfig{}, 1);
    InstructionTrace trace;
    scu.setTrace(&trace);
    SimContext ctx(1);

    const SetId a = scu.create(ctx, 0, {5}, SetRepr::SparseArray);
    const SetId b = scu.create(ctx, 0, {5, 6}, SetRepr::SparseArray);
    scu.setUnion(ctx, 0, a, b);
    const std::string asm_text = trace.disassemble();
    EXPECT_NE(asm_text.find("sisa.new"), std::string::npos);
    EXPECT_NE(asm_text.find("sisa.or"), std::string::npos);
}

TEST(InstructionTrace, ForcedVariantsRecordTheirOpcodes)
{
    SetStore store(64);
    Scu scu(store, ScuConfig{}, 1);
    InstructionTrace trace;
    scu.setTrace(&trace);
    SimContext ctx(1);

    const SetId a = scu.create(ctx, 0, {1, 2}, SetRepr::SparseArray);
    const SetId b = scu.create(ctx, 0, {2, 3}, SetRepr::SparseArray);
    scu.intersect(ctx, 0, a, b, SisaOp::IntersectMerge);
    scu.intersect(ctx, 0, a, b, SisaOp::IntersectGallop);
    EXPECT_EQ(trace.count(SisaOp::IntersectMerge), 1u);
    EXPECT_EQ(trace.count(SisaOp::IntersectGallop), 1u);
    EXPECT_EQ(trace.count(SisaOp::IntersectAuto), 0u);
}

TEST(InstructionTrace, ClearResets)
{
    InstructionTrace trace;
    trace.record(SisaOp::Member, 1, 2, invalid_set);
    EXPECT_EQ(trace.size(), 1u);
    trace.clear();
    EXPECT_EQ(trace.size(), 0u);
    EXPECT_EQ(trace.count(SisaOp::Member), 0u);
}

TEST(InstructionTrace, DetachStopsRecording)
{
    SetStore store(64);
    Scu scu(store, ScuConfig{}, 1);
    InstructionTrace trace;
    scu.setTrace(&trace);
    SimContext ctx(1);
    const SetId a = scu.create(ctx, 0, {1}, SetRepr::SparseArray);
    scu.setTrace(nullptr);
    scu.cardinality(ctx, 0, a);
    EXPECT_EQ(trace.count(SisaOp::Cardinality), 0u);
    EXPECT_EQ(trace.size(), 1u); // Only the create.
}

} // namespace trace_tests

// --- Cost-model regressions (word counts, byte pricing, short circuits) ---

namespace cost_model_tests {

using namespace sisa::isa;
using sisa::sets::SetRepr;
using sisa::sim::SimContext;
namespace mem = sisa::mem;
namespace sets = sisa::sets;

TEST(CostModel, SubWordUniverseStreamsOneWord)
{
    // A universe smaller than one 64-bit DB word: the popcount pass
    // of a DB-DB intersectCard must stream ONE 8-byte word, not zero
    // (universe / word_bits truncated to 0 before).
    SetStore store(40);
    ScuConfig config;
    Scu scu(store, config, 1);
    SimContext ctx(1);
    const SetId a = store.createFromSorted({1, 2, 3},
                                           SetRepr::DenseBitvector);
    const SetId b = store.createFromSorted({2, 3, 4},
                                           SetRepr::DenseBitvector);
    const auto before = ctx.threadBusy(0);
    EXPECT_EQ(scu.intersectCard(ctx, 0, a, b), 2u);
    const auto cost = ctx.threadBusy(0) - before;

    const auto &pim = config.pim;
    const mem::Cycles expected =
        pim.scuDelay                                     // decode
        + 2 * (pim.smbHitLatency + pim.dramLatency)      // 2 SMB misses
        + mem::pumBulkCycles(pim, 40)                    // in-situ AND
        + mem::pnmStreamBytesCycles(pim, sets::db_word_bytes);
    EXPECT_EQ(cost, expected);
}

TEST(CostModel, DbDbCardWordCountRoundsUp)
{
    // 100 bits -> ceil(100 / 64) = 2 words at 8 bytes each (the
    // truncating form streamed 1).
    SetStore store(100);
    ScuConfig config;
    Scu scu(store, config, 1);
    SimContext ctx(1);
    const SetId a = store.createFromSorted({1, 70},
                                           SetRepr::DenseBitvector);
    const SetId b = store.createFromSorted({1, 70, 99},
                                           SetRepr::DenseBitvector);
    const auto before = ctx.threadBusy(0);
    EXPECT_EQ(scu.intersectCard(ctx, 0, a, b), 2u);
    const auto cost = ctx.threadBusy(0) - before;
    const auto &pim = config.pim;
    const mem::Cycles expected =
        pim.scuDelay + 2 * (pim.smbHitLatency + pim.dramLatency) +
        mem::pumBulkCycles(pim, 100) +
        mem::pnmStreamBytesCycles(pim, 2 * sets::db_word_bytes);
    EXPECT_EQ(cost, expected);
}

TEST(CostModel, MixedPlanSelectsAtByteCrossover)
{
    // SA-vs-DB dispatch with default parameters and a 2^16 universe:
    // the stream plan moves ceil(65536 / 64) * 8 = 8192 bytes
    // (l_M + 1024 = 1084 cycles); the probe plan costs
    // ceil(l_M * n / mlp) = 15 n cycles. Crossover between n = 72
    // (probe: 1080 < 1084) and n = 73 (probe: 1095 > 1084).
    SetStore store(1u << 16);
    Scu scu(store, ScuConfig{}, 1);
    SimContext ctx(1);
    const SetId db = store.createFromSorted({5, 1000, 40000},
                                            SetRepr::DenseBitvector);

    std::vector<sisa::sets::Element> probe_side;
    for (sisa::sets::Element e = 0; e < 72; ++e)
        probe_side.push_back(e * 7);
    const SetId sa72 = store.createFromSorted(probe_side,
                                              SetRepr::SparseArray);
    scu.intersectCard(ctx, 0, sa72, db);
    EXPECT_EQ(scu.lastBackend(), Backend::PnmRandom);

    probe_side.push_back(72 * 7);
    const SetId sa73 = store.createFromSorted(probe_side,
                                              SetRepr::SparseArray);
    scu.intersectCard(ctx, 0, sa73, db);
    EXPECT_EQ(scu.lastBackend(), Backend::PnmStream);
}

TEST(CostModel, ZeroCardinalityOperandShortCircuits)
{
    SetStore store(256);
    ScuConfig config;
    Scu scu(store, config, 1);
    SimContext ctx(1);
    const SetId empty = store.createFromSorted({}, SetRepr::SparseArray);
    const SetId full = store.createFromSorted({1, 2, 3, 4, 5},
                                              SetRepr::SparseArray);

    // wouldGallop must not claim the gallop plan for empty operands.
    EXPECT_FALSE(scu.wouldGallop(0, 100));
    EXPECT_FALSE(scu.wouldGallop(100, 0));

    // Intersect: empty result, metadata-only charge, no backend.
    const auto before = ctx.threadBusy(0);
    const SetId r = scu.intersect(ctx, 0, empty, full);
    const auto cost = ctx.threadBusy(0) - before;
    EXPECT_EQ(store.cardinality(r), 0u);
    EXPECT_EQ(scu.lastBackend(), Backend::None);
    const auto &pim = config.pim;
    EXPECT_EQ(cost, pim.scuDelay +
                        2 * (pim.smbHitLatency + pim.dramLatency));
    EXPECT_EQ(ctx.counter("scu.short_circuits"), 1u);
    EXPECT_EQ(ctx.counter("scu.pnm_random_ops"), 0u);

    // Fused cardinality short-circuits to 0 the same way.
    EXPECT_EQ(scu.intersectCard(ctx, 0, full, empty), 0u);
    EXPECT_EQ(scu.lastBackend(), Backend::None);
    EXPECT_EQ(ctx.counter("scu.short_circuits"), 2u);

    // A \ {} degenerates to a streamed copy of A.
    const SetId copy = scu.difference(ctx, 0, full, empty);
    EXPECT_EQ(store.elementsOf(copy),
              (std::vector<sisa::sets::Element>{1, 2, 3, 4, 5}));
    EXPECT_EQ(scu.lastBackend(), Backend::PnmStream);

    // {} \ A is empty without touching a vault; lastBackend keeps
    // reporting the last op that actually charged one (the streamed
    // copy above), matching batched dispatch's backward scan.
    const SetId none = scu.difference(ctx, 0, empty, full);
    EXPECT_EQ(store.cardinality(none), 0u);
    EXPECT_EQ(scu.lastBackend(), Backend::PnmStream);

    // {} cup A copies A.
    const SetId uni = scu.setUnion(ctx, 0, empty, full);
    EXPECT_EQ(store.elementsOf(uni),
              (std::vector<sisa::sets::Element>{1, 2, 3, 4, 5}));
}

} // namespace cost_model_tests

// --- Batched dispatch ------------------------------------------------------

namespace batch_tests {

using namespace sisa::isa;
using sisa::sets::Element;
using sisa::sets::SetRepr;
using sisa::sim::SimContext;

/** Identical random set pools in two stores. */
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
        const std::uint64_t size = next() % 60; // Includes empty sets.
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

TEST(BatchDispatch, BitIdenticalToSerialDispatch)
{
    // The core batching contract: same results, same result ids, and
    // same total setops.* work counters as issuing the ops serially.
    SetStore store_batch(512), store_serial(512);
    Scu scu_batch(store_batch, ScuConfig{}, 1);
    Scu scu_serial(store_serial, ScuConfig{}, 1);
    SimContext ctx_batch(1), ctx_serial(1);

    const auto pool_b = makePool(store_batch, 24, 512, 42);
    const auto pool_s = makePool(store_serial, 24, 512, 42);
    const BatchRequest req_b = makeRequest(pool_b, 64, 7);
    const BatchRequest req_s = makeRequest(pool_s, 64, 7);

    const BatchResult res = scu_batch.dispatchBatch(ctx_batch, 0, req_b);
    ASSERT_EQ(res.size(), req_b.size());

    for (std::size_t i = 0; i < req_s.size(); ++i) {
        const BatchOp &op = req_s.ops[i];
        const BatchEntry &entry = res.entries[i];
        switch (op.kind) {
          case BatchOpKind::Intersect: {
            const SetId r =
                scu_serial.intersect(ctx_serial, 0, op.a, op.b);
            EXPECT_EQ(entry.set, r);
            EXPECT_EQ(store_batch.elementsOf(entry.set),
                      store_serial.elementsOf(r));
            break;
          }
          case BatchOpKind::Union: {
            const SetId r =
                scu_serial.setUnion(ctx_serial, 0, op.a, op.b);
            EXPECT_EQ(entry.set, r);
            EXPECT_EQ(store_batch.elementsOf(entry.set),
                      store_serial.elementsOf(r));
            break;
          }
          case BatchOpKind::Difference: {
            const SetId r =
                scu_serial.difference(ctx_serial, 0, op.a, op.b);
            EXPECT_EQ(entry.set, r);
            EXPECT_EQ(store_batch.elementsOf(entry.set),
                      store_serial.elementsOf(r));
            break;
          }
          case BatchOpKind::IntersectCard:
            EXPECT_EQ(entry.value,
                      scu_serial.intersectCard(ctx_serial, 0, op.a,
                                               op.b));
            break;
          case BatchOpKind::UnionCard:
            EXPECT_EQ(entry.value,
                      scu_serial.unionCard(ctx_serial, 0, op.a, op.b));
            break;
        }
    }

    for (const char *name :
         {"setops.streamed", "setops.probes", "setops.words",
          "setops.output", "scu.pum_ops", "scu.pnm_stream_ops",
          "scu.pnm_random_ops", "scu.short_circuits"}) {
        EXPECT_EQ(ctx_batch.counter(name), ctx_serial.counter(name))
            << name;
    }
}

TEST(BatchDispatch, RejectsBatchWorkersOtherThanOne)
{
    // Batches always pre-execute inline on the dispatching thread;
    // the batchWorkers shim accepts only its default of 1, and any
    // other value must fail loudly, naming the field.
    SetStore store(64);
    EXPECT_EQ(ScuConfig{}.batchWorkers, 1u);
    EXPECT_NO_THROW({ Scu scu(store, ScuConfig{}, 1); });
    for (const std::uint32_t workers : {0u, 2u, 4u}) {
        ScuConfig config;
        config.batchWorkers = workers;
        try {
            Scu scu(store, config, 1);
            ADD_FAILURE() << "batchWorkers = " << workers << " accepted";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(
                          "ScuConfig::batchWorkers = " +
                          std::to_string(workers)),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(BatchDispatch, ChargesSlowestVaultNotSum)
{
    // Ops spread across distinct vaults cost the batch their MAX,
    // while a serial issue pays the SUM. (Metadata/decode still
    // serialize, so compare against the post-metadata residue.)
    SetStore store(4096);
    Scu scu(store, ScuConfig{}, 1);
    SimContext ctx_batch(1), ctx_serial(1);

    std::vector<Element> big;
    for (Element e = 0; e < 3000; ++e)
        big.push_back(e);
    std::vector<SetId> sets;
    for (int s = 0; s < 8; ++s)
        sets.push_back(
            store.createFromSorted(big, SetRepr::SparseArray));

    BatchRequest req;
    for (std::size_t s = 0; s < 8; s += 2)
        req.intersectCard(sets[s], sets[s + 1]);

    const BatchResult res = scu.dispatchBatch(ctx_batch, 0, req);
    for (const BatchEntry &entry : res.entries)
        EXPECT_EQ(entry.value, 3000u);

    for (std::size_t s = 0; s < 8; s += 2)
        scu.intersectCard(ctx_serial, 0, sets[s], sets[s + 1]);

    // All four ops hash to at least two distinct vaults here, so the
    // batched makespan must be strictly below the serial sum.
    EXPECT_LT(ctx_batch.threadBusy(0), ctx_serial.threadBusy(0));
}

TEST(BatchDispatch, EmptyBatchIsFree)
{
    SetStore store(64);
    Scu scu(store, ScuConfig{}, 1);
    SimContext ctx(1);
    const BatchResult res = scu.dispatchBatch(ctx, 0, BatchRequest{});
    EXPECT_EQ(res.size(), 0u);
    EXPECT_EQ(ctx.threadBusy(0), 0u);
}

TEST(BatchDispatch, TracedPerOperation)
{
    SetStore store(64);
    Scu scu(store, ScuConfig{}, 1);
    InstructionTrace trace;
    scu.setTrace(&trace);
    SimContext ctx(1);
    const SetId a = store.createFromSorted({1, 2},
                                           SetRepr::SparseArray);
    const SetId b = store.createFromSorted({2, 3},
                                           SetRepr::SparseArray);
    BatchRequest req;
    req.intersect(a, b);
    req.intersectCard(a, b);
    req.unionCard(a, b);
    scu.dispatchBatch(ctx, 0, req);
    EXPECT_EQ(trace.count(SisaOp::IntersectAuto), 1u);
    EXPECT_EQ(trace.count(SisaOp::IntersectCard), 1u);
    EXPECT_EQ(trace.count(SisaOp::UnionCard), 1u);
}

} // namespace batch_tests

// --- Vault placement policies + cross-vault traffic model ------------------

#include <cmath>
#include <string_view>

#include "algorithms/common.hpp"
#include "algorithms/triangle_count.hpp"
#include "core/cpu_set_engine.hpp"
#include "core/sisa_engine.hpp"
#include "graph/generators.hpp"
#include "sisa/placement.hpp"

namespace placement_tests {

using namespace sisa;
using namespace sisa::isa;
using sisa::sets::Element;
using sisa::sets::SetRepr;
using sisa::sim::SimContext;

TEST(Placement, PoliciesStayInVaultRange)
{
    const HashPlacement hash(7);
    LocalityPlacement locality(7);
    locality.assign(5, 100); // Out-of-range vault clamps.
    for (SetId id = 0; id < 1000; ++id) {
        EXPECT_LT(hash.vaultOf(id), 7u);
        EXPECT_LT(locality.vaultOf(id), 7u);
    }
    // Locality: the table wins, everything else falls back to hash.
    EXPECT_EQ(locality.vaultOf(5), 100u % 7u);
    EXPECT_EQ(locality.vaultOf(6), hash.vaultOf(6));
    EXPECT_EQ(locality.assignedCount(), 1u);
}

TEST(Placement, ScuDefaultMatchesHashPlacement)
{
    // The default-configured SCU must keep the historical splitmix64
    // assignment bit-for-bit (ids hash to the same vaults as before
    // the placement subsystem existed).
    SetStore store(64);
    Scu scu(store, ScuConfig{}, 1);
    const HashPlacement ref(ScuConfig{}.pim.vaults);
    EXPECT_STREQ(scu.placement().name(), "hash");
    for (SetId id = 0; id < 4096; ++id)
        EXPECT_EQ(scu.vaultOf(id), ref.vaultOf(id));
}

TEST(Placement, HashAssignmentNearUniform)
{
    // Chi-square-style guard on the "well-mixed" promise of the
    // splitmix64 vault hash: over 10k consecutive ids the per-vault
    // counts stay within the 99.9th-percentile chi-square band around
    // uniform (df + 3.29 * sqrt(2 df) approximates that quantile).
    constexpr std::uint64_t ids = 10000;
    for (const std::uint32_t vaults : {64u, 512u}) {
        HashPlacement hash(vaults);
        std::vector<std::uint64_t> counts(vaults, 0);
        for (SetId id = 0; id < ids; ++id)
            ++counts[hash.vaultOf(id)];
        const double expected =
            static_cast<double>(ids) / static_cast<double>(vaults);
        double chi2 = 0.0;
        for (const std::uint64_t c : counts) {
            const double dev = static_cast<double>(c) - expected;
            chi2 += dev * dev / expected;
        }
        const double df = vaults - 1;
        EXPECT_LT(chi2, df + 3.29 * std::sqrt(2.0 * df))
            << "vaults=" << vaults;
    }
}

TEST(Placement, GreedyLocalityCoLocatesHeavyPairs)
{
    // Two disjoint heavy cliques of sets over two vaults with a
    // balance-tight capacity (slack 1.0 -> 4 per vault): the greedy
    // build puts each clique in its own vault, deterministically.
    std::vector<TrafficArc> arcs;
    for (SetId a = 0; a < 4; ++a)
        for (SetId b = a + 1; b < 4; ++b)
            arcs.push_back({a, b, 10});
    for (SetId a = 10; a < 14; ++a)
        for (SetId b = a + 1; b < 14; ++b)
            arcs.push_back({a, b, 10});
    const auto placement = greedyLocalityPlacement(2, arcs, 1.0);
    EXPECT_EQ(placement->assignedCount(), 8u);
    for (SetId id = 1; id < 4; ++id)
        EXPECT_EQ(placement->vaultOf(id), placement->vaultOf(0));
    for (SetId id = 11; id < 14; ++id)
        EXPECT_EQ(placement->vaultOf(id), placement->vaultOf(10));
    EXPECT_NE(placement->vaultOf(0), placement->vaultOf(10));
    const auto again = greedyLocalityPlacement(2, arcs, 1.0);
    for (SetId id = 0; id < 14; ++id)
        EXPECT_EQ(placement->vaultOf(id), again->vaultOf(id));
}

} // namespace placement_tests

// --- Cross-vault transfer + reduction charges ------------------------------

namespace xvault_tests {

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

TEST(CrossVault, CoLocatedOperandsNeverTouchInterconnect)
{
    SetStore store(4096);
    ScuConfig config;
    Scu scu(store, config, 1);
    auto placement =
        std::make_shared<LocalityPlacement>(config.pim.vaults);
    const SetId a = store.createFromSorted(iota(0, 100),
                                           SetRepr::SparseArray);
    const SetId b = store.createFromSorted(iota(50, 100),
                                           SetRepr::SparseArray);
    placement->assign(a, 3);
    placement->assign(b, 3);
    scu.setPlacement(placement);

    SimContext ctx(1);
    BatchRequest req;
    req.intersectCard(a, b);
    req.setUnion(a, b);
    scu.dispatchBatch(ctx, 0, req);
    EXPECT_EQ(ctx.counter("scu.xvault_transfers"), 0u);
    EXPECT_EQ(ctx.counter("setops.xvault_bytes"), 0u);
    EXPECT_EQ(ctx.counter("setops.xvault_reduce_bytes"), 0u);
}

TEST(CrossVault, RemoteOperandPricedAtInterconnectBandwidth)
{
    // Identical single-op batches, co-located vs split operands: the
    // cycle difference is EXACTLY one l_M + ceil(bytes / b_L)
    // transfer of the remote co-operand's 200 * 4 bytes.
    ScuConfig config;
    SetStore store_local(4096), store_remote(4096);
    Scu scu_local(store_local, config, 1);
    Scu scu_remote(store_remote, config, 1);
    SimContext ctx_local(1), ctx_remote(1);

    const auto build = [&](SetStore &store, Scu &scu,
                           std::uint32_t vault_b) {
        const SetId a = store.createFromSorted(iota(0, 100),
                                               SetRepr::SparseArray);
        const SetId b = store.createFromSorted(iota(0, 200),
                                               SetRepr::SparseArray);
        auto placement =
            std::make_shared<LocalityPlacement>(config.pim.vaults);
        placement->assign(a, 0);
        placement->assign(b, vault_b);
        scu.setPlacement(placement);
        BatchRequest req;
        req.intersectCard(a, b);
        return req;
    };
    const BatchRequest req_local = build(store_local, scu_local, 0);
    const BatchRequest req_remote = build(store_remote, scu_remote, 1);

    scu_local.dispatchBatch(ctx_local, 0, req_local);
    scu_remote.dispatchBatch(ctx_remote, 0, req_remote);
    EXPECT_EQ(ctx_remote.threadBusy(0) - ctx_local.threadBusy(0),
              mem::interconnectCycles(config.pim, 200 * 4));
    EXPECT_EQ(ctx_remote.counter("scu.xvault_transfers"), 1u);
    EXPECT_EQ(ctx_remote.counter("setops.xvault_bytes"), 200u * 4);
    EXPECT_EQ(ctx_local.counter("scu.xvault_transfers"), 0u);
}

TEST(CrossVault, RemoteOperandFetchedOncePerVaultPerDispatch)
{
    // Two ops in the same vault sharing one remote co-operand: the
    // vault buffers it for the dispatch, so ONE transfer is charged.
    ScuConfig config;
    SetStore store(4096);
    Scu scu(store, config, 1);
    const SetId a = store.createFromSorted(iota(0, 100),
                                           SetRepr::SparseArray);
    const SetId c = store.createFromSorted(iota(10, 100),
                                           SetRepr::SparseArray);
    const SetId b = store.createFromSorted(iota(0, 300),
                                           SetRepr::SparseArray);
    auto placement =
        std::make_shared<LocalityPlacement>(config.pim.vaults);
    placement->assign(a, 0);
    placement->assign(c, 0);
    placement->assign(b, 7);
    scu.setPlacement(placement);

    SimContext ctx(1);
    BatchRequest req;
    req.intersectCard(a, b);
    req.intersectCard(c, b);
    scu.dispatchBatch(ctx, 0, req);
    EXPECT_EQ(ctx.counter("scu.xvault_transfers"), 1u);
    EXPECT_EQ(ctx.counter("setops.xvault_bytes"), 300u * 4);
}

TEST(CrossVault, ShortCircuitedOpsSkipTheInterconnect)
{
    // A zero-cardinality primary operand short-circuits: the SM
    // already proves the result, so the remote co-operand never moves.
    ScuConfig config;
    SetStore store(4096);
    Scu scu(store, config, 1);
    const SetId empty =
        store.createFromSorted({}, SetRepr::SparseArray);
    const SetId b = store.createFromSorted(iota(0, 50),
                                           SetRepr::SparseArray);
    auto placement =
        std::make_shared<LocalityPlacement>(config.pim.vaults);
    placement->assign(empty, 0);
    placement->assign(b, 1);
    scu.setPlacement(placement);

    SimContext ctx(1);
    BatchRequest req;
    req.intersectCard(empty, b);
    scu.dispatchBatch(ctx, 0, req);
    EXPECT_EQ(ctx.counter("scu.short_circuits"), 1u);
    EXPECT_EQ(ctx.counter("scu.xvault_transfers"), 0u);
    EXPECT_EQ(ctx.counter("setops.xvault_bytes"), 0u);

    // Multi-lane variant: a batch whose every op short-circuits has
    // nothing to reduce either -- the SCU front end already holds all
    // the results, so the log tree must not run.
    const SetId empty2 =
        store.createFromSorted({}, SetRepr::SparseArray);
    placement->assign(empty2, 2);
    BatchRequest req2;
    req2.intersectCard(empty, b);  // Lane of vault 0.
    req2.intersectCard(empty2, b); // Lane of vault 2.
    SimContext ctx2(1);
    scu.dispatchBatch(ctx2, 0, req2);
    EXPECT_EQ(ctx2.counter("scu.short_circuits"), 2u);
    EXPECT_EQ(ctx2.counter("setops.xvault_reduce_bytes"), 0u);
    // Metadata/decode only: no vault executed, so no makespan beyond
    // the front end (in particular no interconnectCycles(0) floor).
    // empty2's first SM lookup misses the SMB; the rest were warmed
    // by the first dispatch.
    const auto &pim = config.pim;
    EXPECT_EQ(ctx2.threadBusy(0),
              pim.scuDelay + 4 * pim.smbHitLatency + pim.dramLatency);
}

TEST(CrossVault, DegenerateUnionCopyOfRemoteOperandPaysTransfer)
{
    // {} cup B short-circuits to a COPY of B -- real data movement,
    // not a metadata-only outcome: a remote B must pay the b_L
    // transfer, and the copy's result participates in reduction
    // accounting (single lane here, so no tree).
    ScuConfig config;
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
    EXPECT_EQ(ctx.counter("scu.short_circuits"), 1u);
    EXPECT_EQ(ctx.counter("scu.xvault_transfers"), 1u);
    EXPECT_EQ(ctx.counter("setops.xvault_bytes"), 100u * 4);

    // The mirror case A cup {} copies the LOCAL primary operand: the
    // remote empty co-operand contributes no data, no transfer.
    const SetId a2 = store.createFromSorted(iota(0, 100),
                                            SetRepr::SparseArray);
    const SetId empty2 =
        store.createFromSorted({}, SetRepr::SparseArray);
    placement->assign(a2, 0);
    placement->assign(empty2, 1);
    scu.setPlacement(placement);
    SimContext ctx2(1);
    BatchRequest req2;
    req2.setUnion(a2, empty2);
    scu.dispatchBatch(ctx2, 0, req2);
    EXPECT_EQ(ctx2.counter("scu.xvault_transfers"), 0u);
    EXPECT_EQ(ctx2.counter("setops.xvault_bytes"), 0u);
}

TEST(CrossVault, MultiVaultResultsReduceOverLogTree)
{
    // Four equal-cost scalar ops in four distinct vaults, operand
    // pairs co-located (no operand transfers). One-vault placement of
    // the same batch isolates the reduction charge R:
    //   makespan_one  = F + 4C        (serial lane, no reduction)
    //   makespan_four = F + C + R     (parallel lanes + log tree)
    // with C the known merge-stream cost, so
    //   R = makespan_four - makespan_one + 3C.
    // The tree moves 8-byte scalars: level 1 sends lanes 1->0 and
    // 3->2 (8 B each, in parallel), level 2 sends the 16 B aggregate.
    ScuConfig config;
    SetStore store_one(4096), store_four(4096);
    Scu scu_one(store_one, config, 1);
    Scu scu_four(store_four, config, 1);

    const auto build = [&](SetStore &store, Scu &scu, bool spread) {
        auto placement =
            std::make_shared<LocalityPlacement>(config.pim.vaults);
        BatchRequest req;
        for (std::uint32_t i = 0; i < 4; ++i) {
            const SetId a = store.createFromSorted(
                iota(0, 100), SetRepr::SparseArray);
            const SetId b = store.createFromSorted(
                iota(0, 100), SetRepr::SparseArray);
            placement->assign(a, spread ? i : 0);
            placement->assign(b, spread ? i : 0);
            req.intersectCard(a, b);
        }
        scu.setPlacement(placement);
        return req;
    };
    const BatchRequest req_one = build(store_one, scu_one, false);
    const BatchRequest req_four = build(store_four, scu_four, true);

    SimContext ctx_one(1), ctx_four(1);
    scu_one.dispatchBatch(ctx_one, 0, req_one);
    scu_four.dispatchBatch(ctx_four, 0, req_four);
    EXPECT_EQ(ctx_one.counter("setops.xvault_reduce_bytes"), 0u);
    EXPECT_EQ(ctx_four.counter("setops.xvault_reduce_bytes"),
              8u + 8u + 16u);

    const mem::Cycles op_cost =
        mem::pnmStreamCycles(config.pim, 100, sizeof(Element));
    const mem::Cycles reduction = ctx_four.threadBusy(0) -
                                  ctx_one.threadBusy(0) + 3 * op_cost;
    EXPECT_EQ(reduction,
              mem::interconnectCycles(config.pim, 8) +
                  mem::interconnectCycles(config.pim, 16));
}

} // namespace xvault_tests

// --- Differential: placement policies x engines vs serial ------------------

namespace placement_differential_tests {

using namespace sisa;
using namespace sisa::isa;
using sisa::sets::Element;
using sisa::sets::SetRepr;
using sisa::sim::SimContext;

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

class PlacementDifferential
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(PlacementDifferential, ScuBatchesBitIdenticalToSerialAndHash)
{
    // The placement contract: for every policy, batched dispatch is
    // bit-identical to the serial issue and to HashPlacement in
    // results, result ids, cardinalities, and the functional setops.*
    // totals -- only cycle charges (and xvault counters) may differ.
    const Element universe = 1024;
    SetStore store_policy(universe), store_hash(universe),
        store_serial(universe);
    Scu scu_policy(store_policy, ScuConfig{}, 1);
    Scu scu_hash(store_hash, ScuConfig{}, 1);
    Scu scu_serial(store_serial, ScuConfig{}, 1);

    const auto pool_p =
        batch_tests::makePool(store_policy, 32, universe, 77);
    batch_tests::makePool(store_hash, 32, universe, 77);
    batch_tests::makePool(store_serial, 32, universe, 77);
    const BatchRequest req = batch_tests::makeRequest(pool_p, 150, 13);

    scu_policy.setPlacement(
        buildPolicy(GetParam(), ScuConfig{}.pim.vaults, req));

    SimContext ctx_p(1), ctx_h(1), ctx_s(1);
    const BatchResult res_p = scu_policy.dispatchBatch(ctx_p, 0, req);
    const BatchResult res_h = scu_hash.dispatchBatch(ctx_h, 0, req);
    ASSERT_EQ(res_p.size(), req.size());

    for (std::size_t i = 0; i < req.size(); ++i) {
        const BatchOp &op = req.ops[i];
        EXPECT_EQ(res_p.entries[i].set, res_h.entries[i].set);
        EXPECT_EQ(res_p.entries[i].value, res_h.entries[i].value);

        SetId serial = invalid_set;
        std::uint64_t value = 0;
        switch (op.kind) {
          case BatchOpKind::Intersect:
            serial = scu_serial.intersect(ctx_s, 0, op.a, op.b);
            break;
          case BatchOpKind::Union:
            serial = scu_serial.setUnion(ctx_s, 0, op.a, op.b);
            break;
          case BatchOpKind::Difference:
            serial = scu_serial.difference(ctx_s, 0, op.a, op.b);
            break;
          case BatchOpKind::IntersectCard:
            value = scu_serial.intersectCard(ctx_s, 0, op.a, op.b);
            break;
          case BatchOpKind::UnionCard:
            value = scu_serial.unionCard(ctx_s, 0, op.a, op.b);
            break;
        }
        if (serial != invalid_set) {
            EXPECT_EQ(res_p.entries[i].set, serial);
            EXPECT_EQ(store_policy.elementsOf(res_p.entries[i].set),
                      store_serial.elementsOf(serial));
            EXPECT_EQ(res_p.entries[i].value,
                      store_serial.cardinality(serial));
        } else {
            EXPECT_EQ(res_p.entries[i].value, value);
        }
    }

    for (const char *name :
         {"setops.streamed", "setops.probes", "setops.words",
          "setops.output", "scu.pum_ops", "scu.pnm_stream_ops",
          "scu.pnm_random_ops", "scu.short_circuits"}) {
        EXPECT_EQ(ctx_p.counter(name), ctx_h.counter(name)) << name;
        EXPECT_EQ(ctx_p.counter(name), ctx_s.counter(name)) << name;
    }
}

TEST_P(PlacementDifferential, EnginesBatchIdenticalToSerialUnderPolicy)
{
    // Same contract one layer up, for BOTH SetEngine implementations:
    // the sisa engine runs under the parameterized policy, the CPU
    // engine has no vaults but must honor the same batch semantics.
    const Element universe = 1024;
    const auto fill = [&](core::SetEngine &eng, SimContext &ctx) {
        std::vector<core::SetId> pool;
        std::uint64_t state = 31;
        const auto next = [&state] {
            state = state * 6364136223846793005ull +
                    1442695040888963407ull;
            return state >> 33;
        };
        for (int s = 0; s < 24; ++s) {
            std::vector<Element> elems;
            const std::uint64_t size = next() % 80;
            for (std::uint64_t e = 0; e < size; ++e)
                elems.push_back(
                    static_cast<Element>(next() % universe));
            std::sort(elems.begin(), elems.end());
            elems.erase(std::unique(elems.begin(), elems.end()),
                        elems.end());
            pool.push_back(eng.create(ctx, 0, elems,
                                      next() % 3 == 0
                                          ? SetRepr::DenseBitvector
                                          : SetRepr::SparseArray));
        }
        return pool;
    };

    for (const bool sisa_engine : {true, false}) {
        std::unique_ptr<core::SetEngine> eng_b, eng_s;
        if (sisa_engine) {
            eng_b = std::make_unique<core::SisaEngine>(
                universe, ScuConfig{}, 1);
            eng_s = std::make_unique<core::SisaEngine>(
                universe, ScuConfig{}, 1);
        } else {
            eng_b = std::make_unique<core::CpuSetEngine>(
                universe, sim::CpuParams{}, 1);
            eng_s = std::make_unique<core::CpuSetEngine>(
                universe, sim::CpuParams{}, 1);
        }
        SimContext ctx_b(1), ctx_s(1);
        const auto pool_b = fill(*eng_b, ctx_b);
        fill(*eng_s, ctx_s);
        const BatchRequest req =
            batch_tests::makeRequest(pool_b, 120, 23);
        if (sisa_engine) {
            static_cast<core::SisaEngine &>(*eng_b).scu().setPlacement(
                placement_differential_tests::buildPolicy(
                    GetParam(), ScuConfig{}.pim.vaults, req));
        }

        const BatchResult res = eng_b->executeBatch(ctx_b, 0, req);
        ASSERT_EQ(res.size(), req.size());
        for (std::size_t i = 0; i < req.size(); ++i) {
            const BatchOp &op = req.ops[i];
            switch (op.kind) {
              case BatchOpKind::Intersect:
              case BatchOpKind::Union:
              case BatchOpKind::Difference: {
                SetId serial = invalid_set;
                if (op.kind == BatchOpKind::Intersect)
                    serial = eng_s->intersect(ctx_s, 0, op.a, op.b);
                else if (op.kind == BatchOpKind::Union)
                    serial = eng_s->setUnion(ctx_s, 0, op.a, op.b);
                else
                    serial = eng_s->difference(ctx_s, 0, op.a, op.b);
                EXPECT_EQ(res.entries[i].set, serial);
                EXPECT_EQ(
                    eng_b->store().elementsOf(res.entries[i].set),
                    eng_s->store().elementsOf(serial));
                break;
              }
              case BatchOpKind::IntersectCard:
                EXPECT_EQ(res.entries[i].value,
                          eng_s->intersectCard(ctx_s, 0, op.a, op.b));
                break;
              case BatchOpKind::UnionCard:
                EXPECT_EQ(res.entries[i].value,
                          eng_s->unionCard(ctx_s, 0, op.a, op.b));
                break;
            }
        }
        for (const char *name :
             {"setops.streamed", "setops.probes", "setops.words",
              "setops.output"}) {
            EXPECT_EQ(ctx_b.counter(name), ctx_s.counter(name))
                << name << (sisa_engine ? " (sisa)" : " (cpu)");
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Policies, PlacementDifferential,
                         ::testing::Values("hash", "locality"));

TEST(PlacementAcceptance, LocalityReducesCrossVaultBytesOnRmat)
{
    // The acceptance bar: on a fixed-seed RMAT graph, greedy locality
    // placement moves measurably fewer interconnect bytes than hash
    // placement while every functional output stays bit-identical.
    graph::RmatParams params;
    params.scale = 8;
    params.edgeFactor = 8;
    const graph::Graph g = graph::rmat(params, 42);

    const auto run = [&](bool locality) {
        core::SisaEngine eng(g.numVertices(), ScuConfig{}, 4);
        SimContext ctx(4);
        ctx.setPatternCutoff(0);
        algorithms::OrientedSetGraph osg(g, eng);
        if (locality) {
            eng.scu().setPlacement(greedyLocalityPlacement(
                ScuConfig{}.pim.vaults,
                core::placementArcs(*osg.sets)));
        }
        const std::uint64_t tri = algorithms::triangleCount(osg, ctx);
        return std::tuple{tri, ctx.counter("setops.xvault_bytes"),
                          ctx.counter("setops.streamed"),
                          ctx.counter("setops.probes"),
                          ctx.counter("setops.words"),
                          ctx.counter("setops.output")};
    };

    const auto [tri_h, bytes_h, st_h, pr_h, wo_h, out_h] = run(false);
    const auto [tri_l, bytes_l, st_l, pr_l, wo_l, out_l] = run(true);
    EXPECT_EQ(tri_h, tri_l);
    EXPECT_EQ(st_h, st_l);
    EXPECT_EQ(pr_h, pr_l);
    EXPECT_EQ(wo_h, wo_l);
    EXPECT_EQ(out_h, out_l);
    EXPECT_GT(bytes_h, 0u);
    // "Measurably": at least a 5% cut (observed ~16% at slack 2.0).
    EXPECT_LT(bytes_l, bytes_h - bytes_h / 20);
}

} // namespace placement_differential_tests

// --- Golden instruction trace: fixed-seed RMAT triangle count --------------

namespace golden_trace_tests {

using namespace sisa;
using namespace sisa::isa;

TEST(GoldenTrace, RmatTriangleCountPinsInstructionStream)
{
    // Regression pin: the exact SISA instruction stream and backend
    // mix of a fixed-seed RMAT triangle count. A refactor that
    // reorders, drops, or re-plans instructions changes one of these
    // constants and must justify the new goldens explicitly.
    graph::RmatParams params;
    params.scale = 6;
    params.edgeFactor = 4;
    const graph::Graph g = graph::rmat(params, 7);
    ASSERT_EQ(g.numVertices(), 64u);
    ASSERT_EQ(g.numEdges(), 165u);

    core::SisaEngine eng(g.numVertices(), ScuConfig{}, 2);
    InstructionTrace trace;
    eng.scu().setTrace(&trace);
    sim::SimContext ctx(2);
    ctx.setPatternCutoff(0);
    algorithms::OrientedSetGraph osg(g, eng);
    EXPECT_EQ(algorithms::triangleCount(osg, ctx), 186u);

    // One fused-cardinality instruction per oriented arc.
    EXPECT_EQ(trace.size(), 165u);
    EXPECT_EQ(trace.count(SisaOp::IntersectCard), 165u);

    // FNV-1a over the encoded words pins opcode sequence AND operand
    // registers (any reorder or operand swap moves the hash).
    std::uint64_t fnv = 1469598103934665603ull;
    for (const std::uint32_t word : trace.words()) {
        EXPECT_TRUE(decode(word).has_value());
        fnv ^= word;
        fnv *= 1099511628211ull;
    }
    EXPECT_EQ(fnv, 306698877496648735ull);

    // Backend choices pinned: the Section 8.2/8.3 dispatch decisions
    // for this workload must not drift silently.
    EXPECT_EQ(ctx.counter("scu.pum_ops"), 67u);
    EXPECT_EQ(ctx.counter("scu.pnm_stream_ops"), 81u);
    EXPECT_EQ(ctx.counter("scu.pnm_random_ops"), 51u);
    EXPECT_EQ(ctx.counter("scu.short_circuits"), 33u);
    EXPECT_EQ(ctx.counter("scu.batch_dispatches"), 50u);
    EXPECT_EQ(ctx.counter("setops.streamed"), 141u);
    EXPECT_EQ(ctx.counter("setops.probes"), 106u);
    EXPECT_EQ(ctx.counter("setops.words"), 67u);
    EXPECT_EQ(ctx.counter("setops.output"), 186u);
}

} // namespace golden_trace_tests
