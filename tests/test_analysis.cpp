/**
 * @file
 * Static program verification suite (the `analysis` CTest label):
 * exact-diagnostic pins for every DiagKind on hand-crafted hazardous
 * programs, dependency-graph topology checks, the Scu integration
 * (warn counters, strict rejection, analyze-off zero overhead), and
 * a differential proving the batches emitted by all five batched
 * algorithm families analyze clean under every placement x routing
 * combination.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "algorithms/bron_kerbosch.hpp"
#include "algorithms/clustering.hpp"
#include "algorithms/kclique.hpp"
#include "algorithms/link_prediction.hpp"
#include "algorithms/triangle_count.hpp"
#include "core/set_graph.hpp"
#include "core/sisa_engine.hpp"
#include "graph/generators.hpp"
#include "sisa/analysis.hpp"
#include "sisa/scu.hpp"
#include "sisa/trace.hpp"

namespace {

using namespace sisa;
using namespace sisa::isa;
using namespace sisa::isa::analysis;

// --- Helpers ---------------------------------------------------------------

ProgramOp
makeOp(SisaOp op, SetId dest, SetId a, SetId b = invalid_set)
{
    ProgramOp p;
    p.op = op;
    p.dest = dest;
    p.a = a;
    p.b = b;
    return p;
}

/** The only diagnostic of @p report, asserted to be of @p kind. */
const Diagnostic &
single(const Report &report, DiagKind kind)
{
    EXPECT_EQ(report.diagnostics.size(), 1u) << report.toString();
    EXPECT_EQ(report.count(kind), 1u) << report.toString();
    return report.diagnostics.front();
}

// --- Kind metadata ----------------------------------------------------------

TEST(AnalysisMeta, KindNamesUniqueAndKebabCase)
{
    std::vector<std::string> names;
    for (std::size_t k = 0; k < num_diag_kinds; ++k) {
        const std::string name(
            diagKindName(static_cast<DiagKind>(k)));
        EXPECT_FALSE(name.empty());
        for (const char c : name)
            EXPECT_TRUE((c >= 'a' && c <= 'z') || c == '-') << name;
        names.push_back(name);
    }
    std::sort(names.begin(), names.end());
    EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
}

TEST(AnalysisMeta, SeverityGrading)
{
    EXPECT_EQ(diagSeverity(DiagKind::RawHazard), Severity::Error);
    EXPECT_EQ(diagSeverity(DiagKind::UseAfterFree), Severity::Error);
    EXPECT_EQ(diagSeverity(DiagKind::MetadataOnlyMisuse),
              Severity::Warning);
    EXPECT_EQ(diagSeverity(DiagKind::RedundantOp), Severity::Info);
    EXPECT_EQ(severityName(Severity::Error), "error");
}

// --- Positive pins: one test per diagnostic kind ----------------------------

TEST(AnalysisPins, UnknownInstruction)
{
    // 0x33 is the RISC-V OP opcode, not SISA's custom opcode.
    const std::vector<std::uint32_t> words{0x33};
    const Report report =
        analyze(Program::fromWords(words), AnalysisContext{});
    const Diagnostic &diag =
        single(report, DiagKind::UnknownInstruction);
    EXPECT_EQ(diag.severity, Severity::Error);
    EXPECT_EQ(diag.op, 0u);
    EXPECT_EQ(diag.word, 0x33u);
    EXPECT_TRUE(report.hasErrors());
}

TEST(AnalysisPins, UseBeforeDef)
{
    SetStore store(64);
    const SetId live = store.createFromSorted({1, 2},
                                              SetRepr::SparseArray);
    AnalysisContext ctx;
    ctx.store = &store;

    Program program;
    program.serial(makeOp(SisaOp::IntersectAuto, 40, live, 17));
    const Report report = analyze(program, ctx);
    const Diagnostic &diag = single(report, DiagKind::UseBeforeDef);
    EXPECT_EQ(diag.id, 17u); // The never-defined operand.
    EXPECT_EQ(diag.op, 0u);
}

TEST(AnalysisPins, UseAfterFreeSerial)
{
    Program program;
    program.serial(makeOp(SisaOp::CreateSet, 5, invalid_set));
    program.serial(makeOp(SisaOp::DeleteSet, invalid_set, 5));
    program.serial(makeOp(SisaOp::Cardinality, invalid_set, 5));
    const Report report = analyze(program, AnalysisContext{});
    const Diagnostic &diag = single(report, DiagKind::UseAfterFree);
    EXPECT_EQ(diag.op, 2u);
    EXPECT_EQ(diag.id, 5u);
}

TEST(AnalysisPins, UseAfterFreeParallelRelease)
{
    // A lane reading what a sibling lane releases is a race, not an
    // ordering edge.
    Program program;
    program.serial(makeOp(SisaOp::CreateSet, 5, invalid_set));
    program.beginGroup();
    program.add(makeOp(SisaOp::DeleteSet, invalid_set, 5));
    program.add(makeOp(SisaOp::Cardinality, invalid_set, 5));
    program.endGroup();
    const Report report = analyze(program, AnalysisContext{});
    const Diagnostic &diag = single(report, DiagKind::UseAfterFree);
    EXPECT_EQ(diag.op, 2u);
    EXPECT_EQ(diag.otherOp, 1u); // The releasing sibling.
}

TEST(AnalysisPins, RawHazard)
{
    Program program;
    program.serial(makeOp(SisaOp::CreateSet, 1, invalid_set));
    program.serial(makeOp(SisaOp::CreateSet, 2, invalid_set));
    program.beginGroup();
    program.add(makeOp(SisaOp::IntersectAuto, 9, 1, 2));
    program.add(makeOp(SisaOp::Cardinality, invalid_set, 9));
    program.endGroup();
    const Report report = analyze(program, AnalysisContext{});
    const Diagnostic &diag = single(report, DiagKind::RawHazard);
    EXPECT_EQ(diag.op, 3u);      // The reader carries the finding.
    EXPECT_EQ(diag.otherOp, 2u); // The writer.
    EXPECT_EQ(diag.id, 9u);
}

TEST(AnalysisPins, WarHazard)
{
    Program program;
    program.serial(makeOp(SisaOp::CreateSet, 1, invalid_set));
    program.serial(makeOp(SisaOp::CreateSet, 2, invalid_set));
    program.beginGroup();
    program.add(makeOp(SisaOp::Cardinality, invalid_set, 2));
    program.add(makeOp(SisaOp::UnionAuto, 2, 1, 1));
    program.endGroup();
    const Report report = analyze(program, AnalysisContext{});
    const Diagnostic &diag = single(report, DiagKind::WarHazard);
    EXPECT_EQ(diag.op, 3u);      // The (later) writer.
    EXPECT_EQ(diag.otherOp, 2u); // The reader it races.
}

TEST(AnalysisPins, WawHazardInPlaceMutators)
{
    Program program;
    program.serial(makeOp(SisaOp::CreateSet, 3, invalid_set));
    program.beginGroup();
    ProgramOp ins = makeOp(SisaOp::InsertElement, 3, 3);
    ins.element = 1;
    ins.hasElement = true;
    ProgramOp rem = makeOp(SisaOp::RemoveElement, 3, 3);
    rem.element = 2;
    rem.hasElement = true;
    program.add(ins);
    program.add(rem);
    program.endGroup();
    const Report report = analyze(program, AnalysisContext{});
    const Diagnostic &diag = single(report, DiagKind::WawHazard);
    EXPECT_EQ(diag.op, 2u);
    EXPECT_EQ(diag.id, 3u);
}

TEST(AnalysisPins, DuplicateDestination)
{
    Program program;
    program.serial(makeOp(SisaOp::CreateSet, 1, invalid_set));
    program.serial(makeOp(SisaOp::CreateSet, 2, invalid_set));
    program.beginGroup();
    program.add(makeOp(SisaOp::IntersectAuto, 9, 1, 2));
    program.add(makeOp(SisaOp::UnionAuto, 9, 1, 2));
    program.endGroup();
    const Report report = analyze(program, AnalysisContext{});
    const Diagnostic &diag =
        single(report, DiagKind::DuplicateDestination);
    EXPECT_EQ(diag.op, 3u);
    EXPECT_EQ(diag.otherOp, 2u);
    EXPECT_EQ(diag.id, 9u);
}

TEST(AnalysisPins, DestAliasesOperand)
{
    Program program;
    program.serial(makeOp(SisaOp::CreateSet, 1, invalid_set));
    program.serial(makeOp(SisaOp::CreateSet, 2, invalid_set));
    program.serial(makeOp(SisaOp::IntersectAuto, 1, 1, 2));
    const Report report = analyze(program, AnalysisContext{});
    const Diagnostic &diag =
        single(report, DiagKind::DestAliasesOperand);
    EXPECT_EQ(diag.op, 2u);
    EXPECT_EQ(diag.id, 1u);
}

TEST(AnalysisPins, InPlaceMutationIsNotAliasing)
{
    // insert/remove/convert define dest == a BY DESIGN.
    Program program;
    program.serial(makeOp(SisaOp::CreateSet, 1, invalid_set));
    ProgramOp ins = makeOp(SisaOp::InsertElement, 1, 1);
    ins.element = 3;
    ins.hasElement = true;
    program.serial(ins);
    const Report report = analyze(program, AnalysisContext{});
    EXPECT_TRUE(report.clean()) << report.toString();
}

TEST(AnalysisPins, VaultOutOfRange)
{
    AnalysisContext ctx;
    ctx.vaults = 4;
    ctx.vaultOf = [](SetId id) { return id; }; // id 9 -> vault 9.
    Program program;
    program.serial(makeOp(SisaOp::Cardinality, invalid_set, 9));
    const Report report = analyze(program, ctx);
    const Diagnostic &diag =
        single(report, DiagKind::VaultOutOfRange);
    EXPECT_EQ(diag.id, 9u);
}

TEST(AnalysisPins, UniverseOutOfRange)
{
    SetStore store(64);
    const SetId id = store.createFromSorted({1},
                                            SetRepr::SparseArray);
    AnalysisContext ctx;
    ctx.store = &store;
    Program program;
    ProgramOp ins = makeOp(SisaOp::InsertElement, id, id);
    ins.element = 1000; // Universe is 64.
    ins.hasElement = true;
    program.serial(ins);
    const Report report = analyze(program, ctx);
    const Diagnostic &diag =
        single(report, DiagKind::UniverseOutOfRange);
    EXPECT_EQ(diag.op, 0u);
}

TEST(AnalysisPins, MetadataOnlyMisuse)
{
    // A DeleteSet encoding xd claims a destination write the op
    // never performs -- a miscompiled instruction.
    SisaInst inst;
    inst.op = SisaOp::DeleteSet;
    inst.rd = 3;
    inst.rs1 = 3;
    inst.xd = true; // Wrong: DeleteSet writes no register.
    inst.xs1 = true;
    inst.xs2 = false;
    const std::vector<std::uint32_t> words{encode(inst)};
    const Report report =
        analyze(Program::fromWords(words), AnalysisContext{});
    const Diagnostic &diag =
        single(report, DiagKind::MetadataOnlyMisuse);
    EXPECT_EQ(diag.severity, Severity::Warning);
    EXPECT_FALSE(report.hasErrors());
}

TEST(AnalysisPins, RedundantOp)
{
    BatchRequest batch;
    batch.intersectCard(1, 2);
    batch.intersectCard(3, 2);
    batch.intersectCard(1, 2); // Duplicate of op 0: a wasted lane.
    const Report report =
        analyze(Program::fromBatch(batch), AnalysisContext{});
    const Diagnostic &diag = single(report, DiagKind::RedundantOp);
    EXPECT_EQ(diag.severity, Severity::Info);
    EXPECT_EQ(diag.op, 2u);
    EXPECT_EQ(diag.otherOp, 0u);
    EXPECT_FALSE(report.hasErrors());
}

// --- Batch lifting ----------------------------------------------------------

TEST(AnalysisBatch, CleanBatchAnalyzesClean)
{
    SetStore store(64);
    const SetId a = store.createFromSorted({1, 2},
                                           SetRepr::SparseArray);
    const SetId b = store.createFromSorted({2, 3},
                                           SetRepr::SparseArray);
    const SetId c = store.createFromSorted({3, 4},
                                           SetRepr::SparseArray);
    AnalysisContext ctx;
    ctx.store = &store;
    ctx.vaults = 4;
    BatchRequest batch;
    batch.intersect(a, b);
    batch.setUnion(b, c);
    batch.intersectCard(a, c);
    const Report report = analyze(Program::fromBatch(batch), ctx);
    EXPECT_TRUE(report.clean()) << report.toString();
    EXPECT_EQ(report.instructions, 3u);
}

TEST(AnalysisBatch, DeadOperandIsUseBeforeDef)
{
    SetStore store(64);
    const SetId a = store.createFromSorted({1},
                                           SetRepr::SparseArray);
    const SetId b = store.createFromSorted({2},
                                           SetRepr::SparseArray);
    store.destroy(b);
    AnalysisContext ctx;
    ctx.store = &store;
    BatchRequest batch;
    batch.intersect(a, b);
    const Report report = analyze(Program::fromBatch(batch), ctx);
    const Diagnostic &diag = single(report, DiagKind::UseBeforeDef);
    EXPECT_EQ(diag.id, b);
    EXPECT_TRUE(report.hasErrors());
}

// --- Report serialization ---------------------------------------------------

TEST(AnalysisReport, JsonCarriesSchemaAndCounts)
{
    BatchRequest batch;
    batch.intersectCard(1, 2);
    batch.intersectCard(1, 2);
    const Report report =
        analyze(Program::fromBatch(batch), AnalysisContext{});
    const std::string json = report.toJson();
    EXPECT_NE(json.find("\"schema\": \"sisa-analysis-report-v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"kind\": \"redundant-op\""),
              std::string::npos);
    EXPECT_NE(json.find("\"infos\": 1"), std::string::npos);
}

// --- Dependency graph -------------------------------------------------------

TEST(DependencyGraph, SerialChainIsOneOpPerLevel)
{
    Program program;
    program.serial(makeOp(SisaOp::CreateSet, 1, invalid_set));
    program.serial(makeOp(SisaOp::CreateSet, 2, invalid_set));
    program.serial(makeOp(SisaOp::IntersectAuto, 3, 1, 2));
    program.serial(makeOp(SisaOp::Cardinality, invalid_set, 3));
    const DependencyGraph dag(program);
    ASSERT_EQ(dag.size(), 4u);
    // 0 and 1 are independent; 2 reads both; 3 reads 2's result.
    EXPECT_EQ(dag.levelOf(0), 0u);
    EXPECT_EQ(dag.levelOf(1), 0u);
    EXPECT_EQ(dag.levelOf(2), 1u);
    EXPECT_EQ(dag.levelOf(3), 2u);
    EXPECT_EQ(dag.depth(), 3u);
    ASSERT_EQ(dag.levels().size(), 3u);
    EXPECT_EQ(dag.levels()[0].size(), 2u);
    EXPECT_EQ(dag.edgeCount(), 3u); // 0->2, 1->2, 2->3.
    EXPECT_EQ(dag.successors(2), std::vector<std::uint32_t>{3});
    EXPECT_EQ(dag.predecessors(3), std::vector<std::uint32_t>{2});
}

TEST(DependencyGraph, WarEdgeOrdersOverwriteAfterRead)
{
    Program program;
    program.serial(makeOp(SisaOp::CreateSet, 1, invalid_set));
    program.serial(makeOp(SisaOp::Cardinality, invalid_set, 1));
    ProgramOp ins = makeOp(SisaOp::InsertElement, 1, 1);
    ins.element = 2;
    ins.hasElement = true;
    program.serial(ins); // Mutates 1: must wait for the read.
    const DependencyGraph dag(program);
    EXPECT_EQ(dag.levelOf(1), 1u);
    EXPECT_EQ(dag.levelOf(2), 2u);
    const auto &preds = dag.predecessors(2);
    EXPECT_NE(std::find(preds.begin(), preds.end(), 1u),
              preds.end());
}

TEST(DependencyGraph, ParallelGroupSharesOneLevel)
{
    Program program;
    program.serial(makeOp(SisaOp::CreateSet, 1, invalid_set));
    program.serial(makeOp(SisaOp::CreateSet, 2, invalid_set));
    program.beginGroup();
    program.add(makeOp(SisaOp::IntersectCard, invalid_set, 1, 2));
    program.add(makeOp(SisaOp::UnionCard, invalid_set, 1, 2));
    program.endGroup();
    const DependencyGraph dag(program);
    EXPECT_EQ(dag.levelOf(2), dag.levelOf(3));
    // Siblings never grow edges to each other.
    EXPECT_TRUE(dag.successors(2).empty());
    EXPECT_TRUE(dag.successors(3).empty());
}

// --- Scu integration --------------------------------------------------------

TEST(ScuAnalyze, StrictRejectsDeadOperandBeforeDispatch)
{
    SetStore store(64);
    ScuConfig config;
    config.analyze = AnalyzeMode::Strict;
    Scu scu(store, config, 1);
    sim::SimContext ctx(1);

    const SetId a = scu.create(ctx, 0, {1, 2}, SetRepr::SparseArray);
    const SetId b = scu.create(ctx, 0, {2, 3}, SetRepr::SparseArray);
    scu.destroy(ctx, 0, b);

    BatchRequest batch;
    batch.intersect(a, b);
    const std::uint64_t index_before = scu.dispatchIndex();
    const std::uint64_t cycles_before = ctx.makespan();
    try {
        scu.dispatchBatch(ctx, 0, batch);
        FAIL() << "strict mode must reject the dead operand";
    } catch (const AnalysisError &e) {
        EXPECT_GE(e.report().errors, 1u);
        EXPECT_EQ(e.report().count(DiagKind::UseBeforeDef), 1u);
    }
    // The rejected batch consumed no dispatch sequence number and
    // charged no cycles.
    EXPECT_EQ(scu.dispatchIndex(), index_before);
    EXPECT_EQ(ctx.makespan(), cycles_before);
    EXPECT_EQ(ctx.counter("scu.analysis_batches"), 1u);
    EXPECT_GE(ctx.counter("scu.analysis_errors"), 1u);
    EXPECT_EQ(ctx.counter("scu.batch_dispatches"), 0u);
}

TEST(ScuAnalyze, WarnCountsAndStillExecutes)
{
    SetStore store(64);
    ScuConfig config;
    config.analyze = AnalyzeMode::Warn;
    Scu scu(store, config, 1);
    sim::SimContext ctx(1);

    const SetId a = scu.create(ctx, 0, {1, 2}, SetRepr::SparseArray);
    const SetId b = scu.create(ctx, 0, {2, 3}, SetRepr::SparseArray);
    BatchRequest batch;
    batch.intersectCard(a, b);
    batch.intersectCard(a, b); // Info-grade duplicate, not an error.
    const BatchResult result = scu.dispatchBatch(ctx, 0, batch);
    ASSERT_EQ(result.size(), 2u);
    EXPECT_EQ(result.entries[0].value, 1u);
    EXPECT_EQ(result.entries[1].value, 1u);
    EXPECT_EQ(ctx.counter("scu.analysis_batches"), 1u);
    EXPECT_EQ(ctx.counter("scu.analysis_errors"), 0u);
    EXPECT_EQ(ctx.counter("scu.batch_dispatches"), 1u);
}

TEST(ScuAnalyze, AnalyzeOnVsOffBitIdentity)
{
    // Warn-mode analysis must change NOTHING observable but the
    // scu.analysis_* counters: same results, same instruction trace,
    // same modeled cycles (zero-overhead in the model).
    graph::RmatParams params;
    params.scale = 6;
    params.edgeFactor = 4;
    const graph::Graph g = graph::rmat(params, 7);

    const auto run = [&](AnalyzeMode mode) {
        ScuConfig config;
        config.analyze = mode;
        core::SisaEngine eng(g.numVertices(), config, 2);
        InstructionTrace trace;
        eng.scu().setTrace(&trace);
        sim::SimContext ctx(2);
        ctx.setPatternCutoff(0);
        algorithms::OrientedSetGraph osg(g, eng);
        const std::uint64_t tri = algorithms::triangleCount(osg, ctx);
        std::uint64_t fnv = 1469598103934665603ull;
        for (const std::uint32_t word : trace.words()) {
            fnv ^= word;
            fnv *= 1099511628211ull;
        }
        return std::tuple{tri, fnv, ctx.makespan(),
                          ctx.counter("scu.analysis_batches"),
                          ctx.counter("scu.analysis_errors")};
    };

    const auto [tri_off, fnv_off, cycles_off, batches_off, err_off] =
        run(AnalyzeMode::Off);
    const auto [tri_on, fnv_on, cycles_on, batches_on, err_on] =
        run(AnalyzeMode::Warn);
    EXPECT_EQ(tri_off, 186u);
    EXPECT_EQ(tri_on, tri_off);
    EXPECT_EQ(fnv_on, fnv_off); // Bit-identical instruction stream.
    EXPECT_EQ(cycles_on, cycles_off); // Zero modeled overhead.
    EXPECT_EQ(batches_off, 0u);       // Off never runs the analyzer.
    EXPECT_EQ(batches_on, 50u);       // One per non-empty dispatch.
    EXPECT_EQ(err_on, 0u); // The real TC stream is hazard-free.
}

// --- Differential: real algorithm streams analyze clean ---------------------

struct GridCase
{
    bool locality; ///< false = hash placement.
    Routing routing;
};

const GridCase grid[] = {
    {false, Routing::Primary},
    {false, Routing::Balanced},
    {true, Routing::Primary},
    {true, Routing::Balanced},
};

/**
 * Run @p body under strict batch analysis for one grid case; any
 * hazardous batch throws AnalysisError and fails the test. Returns
 * the problem value for cross-checking against the analyze-off run.
 */
template <typename Body>
std::uint64_t
runStrict(const graph::Graph &g, const GridCase &c, Body &&body)
{
    ScuConfig config;
    config.analyze = AnalyzeMode::Strict;
    config.routing = c.routing;
    core::SisaEngine eng(g.numVertices(), config, 2);
    sim::SimContext ctx(2);
    ctx.setPatternCutoff(0);
    return body(eng, ctx, c.locality);
}

TEST(AnalysisDifferential, AllBatchedAlgorithmsAnalyzeClean)
{
    graph::RmatParams params;
    params.scale = 6;
    params.edgeFactor = 4;
    const graph::Graph g = graph::rmat(params, 7);

    const auto locality = [](core::SisaEngine &eng,
                             const core::SetGraph &sg) {
        eng.scu().setPlacement(greedyLocalityPlacement(
            eng.scu().config().pim.vaults, core::placementArcs(sg)));
    };

    for (const GridCase &c : grid) {
        // Triangle count (oriented batched intersect-cards).
        EXPECT_EQ(runStrict(g, c,
                            [&](core::SisaEngine &eng,
                                sim::SimContext &ctx, bool loc) {
                                algorithms::OrientedSetGraph osg(g,
                                                                 eng);
                                if (loc)
                                    locality(eng, *osg.sets);
                                return algorithms::triangleCount(osg,
                                                                 ctx);
                            }),
                  186u);
        // k-clique counting (batched candidate intersections).
        EXPECT_EQ(runStrict(g, c,
                            [&](core::SisaEngine &eng,
                                sim::SimContext &ctx, bool loc) {
                                algorithms::OrientedSetGraph osg(g,
                                                                 eng);
                                if (loc)
                                    locality(eng, *osg.sets);
                                return algorithms::kCliqueCount(osg,
                                                                ctx,
                                                                4);
                            }),
                  runStrict(g, grid[0],
                            [&](core::SisaEngine &eng,
                                sim::SimContext &ctx, bool) {
                                algorithms::OrientedSetGraph osg(g,
                                                                 eng);
                                return algorithms::kCliqueCount(osg,
                                                                ctx,
                                                                4);
                            }));
        // Bron-Kerbosch maximal cliques (batched pivot scans).
        const std::uint64_t mc = runStrict(
            g, c,
            [&](core::SisaEngine &eng, sim::SimContext &ctx,
                bool loc) {
                core::SetGraph sg(g, eng, {});
                if (loc)
                    locality(eng, sg);
                return algorithms::maximalCliques(sg, ctx)
                    .cliqueCount;
            });
        EXPECT_GT(mc, 0u);
        // Jarvis-Patrick clustering (batched similarity rounds).
        const std::uint64_t cl = runStrict(
            g, c,
            [&](core::SisaEngine &eng, sim::SimContext &ctx,
                bool loc) {
                core::SetGraph sg(g, eng, {});
                if (loc)
                    locality(eng, sg);
                return algorithms::jarvisPatrick(
                           sg, ctx,
                           algorithms::SimilarityMeasure::Jaccard,
                           0.05)
                    .clusterEdges;
            });
        EXPECT_GT(cl, 0u);
        // Link prediction (batched scoring over candidate pairs).
        runStrict(g, c,
                  [&](core::SisaEngine &eng, sim::SimContext &ctx,
                      bool loc) {
                      if (loc) {
                          eng.scu().setPlacement(
                              greedyLocalityPlacement(
                                  eng.scu().config().pim.vaults,
                                  {}));
                      }
                      return algorithms::linkPredictionTest(
                                 eng, g, ctx,
                                 algorithms::SimilarityMeasure::
                                     Jaccard,
                                 0.1, 7)
                          .removedEdges;
                  });
    }
}

// --- Offline trace lint -----------------------------------------------------

TEST(AnalysisTrace, RecordedTcStreamLintsClean)
{
    graph::RmatParams params;
    params.scale = 6;
    params.edgeFactor = 4;
    const graph::Graph g = graph::rmat(params, 7);

    core::SisaEngine eng(g.numVertices(), ScuConfig{}, 2);
    InstructionTrace trace;
    eng.scu().setTrace(&trace);
    sim::SimContext ctx(2);
    ctx.setPatternCutoff(0);
    algorithms::OrientedSetGraph osg(g, eng);
    ASSERT_EQ(algorithms::triangleCount(osg, ctx), 186u);

    const Program program = Program::fromWords(trace.words());
    EXPECT_TRUE(program.registerLevel());
    const Report report = analyze(program, AnalysisContext{});
    EXPECT_FALSE(report.hasErrors()) << report.toString();
    EXPECT_EQ(report.instructions, trace.size());

    // The TC inner loop is pure scalar intersect-card probes: no op
    // materializes a set another op consumes, so the recorded stream
    // is one fully independent issue wave -- exactly why it batches
    // onto parallel vault lanes so well.
    const DependencyGraph dag(program);
    EXPECT_EQ(dag.size(), trace.size());
    EXPECT_EQ(dag.edgeCount(), 0u);
    EXPECT_EQ(dag.depth(), trace.size() == 0 ? 0u : 1u);
}

} // namespace
