/**
 * @file
 * The SISA simulator's steady benchmark. One process runs one
 * workload for a fixed number of host seconds and prints, as its last
 * stdout line, one JSON object {correct, attempted, failed, metrics}.
 *
 *   sisa_perfbench <workload> <seed> <seconds> <trace> <spans.csv>
 *   sisa_perfbench --selftest
 *
 * Workloads (why each was chosen is in NOTES.md):
 *   tc-hub     full triangle count on a heavy-tail hub graph (PUM,
 *              large batches, async window)
 *   mc-bk      full Bron-Kerbosch on a moderate-tail graph (PNM,
 *              small barriered batches, serial ops, set lifecycle)
 *   serve-mix  co-tenant tc / kcc-4 / cl-jac / mc queries arriving
 *              open-loop under Credit scheduling and EDF shedding
 *
 * The program receives only the generated graph and query list; the
 * seed argument drives every generator. trace=0 reports end-to-end
 * metrics; trace=1 reports per-layer metrics from a traced run that
 * wraps the engine in TracedEngine (tracing.hpp), writes its spans
 * to the CSV path, and also times untraced repetitions so the tracing
 * overhead is measured rather than assumed.
 *
 * Every repetition starts from empty SMB and vault state: each one
 * builds a fresh engine. Modeled metrics must repeat exactly across
 * repetitions (and between traced and untraced repetitions); a
 * mismatch, a wrong result or an exception counts as a failed
 * operation.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "algorithms/bron_kerbosch.hpp"
#include "algorithms/clustering.hpp"
#include "algorithms/kclique.hpp"
#include "algorithms/triangle_count.hpp"
#include "baselines/bk_baseline.hpp"
#include "baselines/clustering_baseline.hpp"
#include "baselines/csr_view.hpp"
#include "baselines/kclique_baseline.hpp"
#include "baselines/tc_baseline.hpp"
#include "core/sisa_engine.hpp"
#include "graph/degeneracy.hpp"
#include "graph/generators.hpp"
#include "serve/scenario.hpp"
#include "sim/cpu_model.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "tracing.hpp"

using namespace sisa;
using perfbench::nowNs;
using perfbench::Scope;
using perfbench::SpanKind;
using perfbench::TracedEngine;
using perfbench::Tracer;

namespace {

/**
 * Host worker count for batched dispatch, pinned rather than left at
 * the hardware_concurrency default: with one worker a batch runs
 * inline on the calling thread, which measured steady (about 1%)
 * where two workers spread about 12% on a 4-vCPU host.
 */
constexpr std::uint32_t kBatchWorkers = 1;

// --- Output ---------------------------------------------------------------

struct Metric
{
    double value = 0;
    const char *unit = "";
};

using Metrics = std::map<std::string, Metric>;

/** Exact modeled outputs of one repetition (must repeat bit for bit). */
using Modeled = std::map<std::string, std::uint64_t>;

struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    Metrics metrics;
};

void
printResult(const Outcome &out)
{
    std::string json = "{\"correct\": ";
    json += out.failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(out.attempted);
    json += ", \"failed\": " + std::to_string(out.failed);
    json += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, m] : out.metrics) {
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      first ? "" : ", ", name.c_str(), m.value, m.unit);
        json += buf;
        first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

double
seconds(std::int64_t from, std::int64_t to)
{
    return 1e-9 * static_cast<double>(to - from);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Peak resident set of this process so far, in MB. */
double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den ? static_cast<double>(num) / static_cast<double>(den)
               : 0.0;
}

void
logLine(const std::string &line)
{
    std::fprintf(stderr, "[perfbench] %s\n", line.c_str());
}

/** The workload's generator seed, decorrelated from the argument. */
std::uint64_t
workloadSeed(std::uint64_t seed, std::uint64_t salt)
{
    support::SplitMix64 mix(seed ^ (salt * 0x9e3779b97f4a7c15ULL));
    return mix.next();
}


// --- Graphs ---------------------------------------------------------------

/**
 * The bio-humanGene recipe of graph/dataset_registry.cpp (heavy-tail
 * Chung-Lu, hubs at 0.4 n, planted cliques up to 18), seeded from
 * the argument instead of the dataset name.
 */
graph::Graph
tcHubGraph(std::uint64_t seed)
{
    graph::ChungLuParams cl;
    cl.n = 14000;
    cl.m = 1200000;
    cl.exponent = 1.9;
    cl.hubs = cl.n / 200;
    cl.hubDegreeFraction = 0.4;
    graph::PlantedCliqueParams pc;
    pc.count = cl.n / 100;
    pc.minSize = 5;
    pc.maxSize = 18;
    return graph::plantCliques(graph::chungLu(cl, seed), pc,
                               seed ^ 0xabcdefULL);
}

/**
 * The int-authorship recipe (moderate-tail Chung-Lu, two mild hubs,
 * planted 4..8-cliques), sized up to n = 12000, m = 100000.
 */
graph::Graph
mcBkGraph(std::uint64_t seed)
{
    graph::ChungLuParams cl;
    cl.n = 12000;
    cl.m = 100000;
    cl.exponent = 2.3;
    cl.hubs = 2;
    cl.hubDegreeFraction = 0.1;
    graph::PlantedCliqueParams pc;
    pc.count = cl.n / 300;
    pc.minSize = 4;
    pc.maxSize = 8;
    return graph::plantCliques(graph::chungLu(cl, seed), pc,
                               seed ^ 0xabcdefULL);
}

/** Graph500-style RMAT, scale 12, edge factor 16. */
graph::Graph
serveGraph(std::uint64_t seed)
{
    graph::RmatParams p;
    p.scale = 12;
    p.edgeFactor = 16;
    return graph::rmat(p, seed);
}

/** Stable 64-bit digest of a graph's adjacency. */
std::uint64_t
graphDigest(const graph::Graph &g)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (graph::VertexId v = 0; v < g.numVertices(); ++v) {
        for (graph::VertexId w : g.neighbors(v)) {
            h ^= (static_cast<std::uint64_t>(v) << 32) | w;
            h *= 0x100000001b3ULL;
        }
    }
    return h;
}

// --- Solo algorithm workloads (tc-hub, mc-bk) -----------------------------

struct SoloWorkload
{
    const char *name;
    graph::Graph (*generate)(std::uint64_t);
    std::uint64_t salt;
    bool triangles;          ///< tc on the oriented graph, else BK.
    std::uint32_t threads;   ///< Modeled threads.
    std::uint32_t asyncDepth;
};

const SoloWorkload kTcHub{"tc-hub", tcHubGraph, 1, true, 4, 8};
// mc-bk models one thread: its makespan is then the whole modeled
// work, rather than whichever of several threads' blocks of the
// degeneracy order holds the largest cliques (which doubled the
// seed-to-seed spread of sim_cycles).
const SoloWorkload kMcBk{"mc-bk", mcBkGraph, 2, false, 1, 0};

isa::ScuConfig
soloScu(const SoloWorkload &w)
{
    isa::ScuConfig scu;
    scu.batchWorkers = kBatchWorkers;
    scu.asyncDepth = w.asyncDepth;
    return scu;
}

/** One repetition of a solo workload. */
struct SoloRep
{
    double generateS = 0;
    double buildS = 0;
    double runS = 0;
    std::uint64_t value = 0;
    Modeled modeled;
    // Filled when traced.
    std::uint32_t maxDegree = 0;
    std::uint64_t bitvectorSets = 0;
    std::uint64_t sortedArraySets = 0;
    double selfS = 0;
    std::uint32_t algoSpan = 0;
    std::uint64_t batchOps = 0;

    double setupS() const { return generateS + buildS; }
};

Modeled
modeledOf(const sim::SimContext &ctx, std::uint64_t value)
{
    Modeled m(ctx.counters().begin(), ctx.counters().end());
    std::uint64_t busy = 0;
    std::uint64_t stall = 0;
    for (sim::ThreadId t = 0; t < ctx.numThreads(); ++t) {
        busy += ctx.threadBusy(t);
        stall += ctx.threadStall(t);
    }
    m["sim.busy_cycles"] = busy;
    m["sim.stall_cycles"] = stall;
    m["sim.makespan"] = ctx.makespan();
    m["result.value"] = value;
    return m;
}

std::uint64_t
get(const Modeled &m, const std::string &key)
{
    const auto it = m.find(key);
    return it == m.end() ? 0 : it->second;
}

/** Fills the fields of @p rep that only a traced run records. */
void
recordTraced(SoloRep &rep, const core::SetGraph &sets,
             const Tracer &tracer, const TracedEngine &engine)
{
    rep.bitvectorSets = sets.assignment().denseCount;
    rep.sortedArraySets = sets.numVertices() - sets.assignment().denseCount;
    rep.selfS = tracer.selfSeconds(rep.algoSpan);
    rep.batchOps = engine.batchOps();
}

/**
 * One repetition: (when @p regenerate) generate the graph into @p g,
 * then build a fresh engine and set graph and run the algorithm.
 * With @p tracer, every step and every engine call is a span.
 */
SoloRep
runSolo(const SoloWorkload &w, std::uint64_t seed, graph::Graph &g,
        bool regenerate, Tracer *tracer)
{
    SoloRep rep;
    std::optional<Scope> span;
    if (regenerate) {
        const std::int64_t t0 = nowNs();
        if (tracer)
            span.emplace(*tracer, SpanKind::Generate);
        g = w.generate(workloadSeed(seed, w.salt));
        span.reset();
        rep.generateS = seconds(t0, nowNs());
    }

    core::SisaEngine sisa(g.numVertices(), soloScu(w), w.threads);
    std::optional<TracedEngine> traced;
    if (tracer)
        traced.emplace(sisa, *tracer);
    core::SetEngine &engine =
        tracer ? static_cast<core::SetEngine &>(*traced) : sisa;
    sim::SimContext ctx(w.threads);
    ctx.setPatternCutoff(0);

    std::optional<algorithms::OrientedSetGraph> osg;
    std::optional<core::SetGraph> sg;
    const std::int64_t t2 = nowNs();
    if (tracer)
        span.emplace(*tracer, SpanKind::SetGraph);
    if (w.triangles)
        osg.emplace(g, engine);
    else
        sg.emplace(g, engine);
    span.reset();
    const std::int64_t t3 = nowNs();
    rep.buildS = seconds(t2, t3);

    if (tracer) {
        span.emplace(*tracer, SpanKind::Algorithm);
        rep.algoSpan = span->id();
    }
    rep.value = w.triangles ? algorithms::triangleCount(*osg, ctx)
                            : algorithms::maximalCliques(*sg, ctx)
                                  .cliqueCount;
    span.reset();
    rep.runS = seconds(t3, nowNs());
    rep.modeled = modeledOf(ctx, rep.value);

    if (tracer) {
        rep.maxDegree = g.maxDegree();
        recordTraced(rep, w.triangles ? *osg->sets : *sg, *tracer,
                     *traced);
    }
    return rep;
}

/** The non-set baseline on the same graph: (value, cycles). */
std::pair<std::uint64_t, std::uint64_t>
soloOracle(const SoloWorkload &w, const graph::Graph &g)
{
    sim::CpuModel cpu(sim::CpuParams{}, w.threads);
    sim::SimContext ctx(w.threads);
    ctx.setPatternCutoff(0);
    std::uint64_t value = 0;
    if (w.triangles) {
        const auto deg = graph::exactDegeneracyOrder(g);
        const graph::Graph oriented = g.orientByRank(deg.rank);
        baselines::CsrView view(oriented, cpu);
        value = baselines::triangleCountBaseline(view, ctx);
    } else {
        baselines::CsrView view(g, cpu);
        value = baselines::maximalCliquesBaseline(view, ctx).cliqueCount;
    }
    return {value, ctx.makespan()};
}

/** Modeled per-layer counters shared by every workload. */
void
addCounterMetrics(Metrics &out, const Modeled &m)
{
    const auto count = [&](const char *metric, const char *counter) {
        out[metric] = {static_cast<double>(get(m, counter)), "count"};
    };
    count("sisa.pum_ops", "scu.pum_ops");
    count("sisa.pnm_stream_ops", "scu.pnm_stream_ops");
    count("sisa.pnm_random_ops", "scu.pnm_random_ops");
    count("sisa.short_circuits", "scu.short_circuits");
    count("sisa.xvault_transfers", "scu.xvault_transfers");
    count("sisa.batch_dispatches", "scu.batch_dispatches");
    count("sisa.async_syncs", "scu.async_syncs");
    count("sets.streamed", "setops.streamed");
    count("sets.probes", "setops.probes");
    count("sets.words", "setops.words");
    count("sets.output", "setops.output");
    const std::uint64_t hits = get(m, "scu.smb_hits");
    out["sisa.smb_hit_ratio"] = {
        ratio(hits, hits + get(m, "scu.smb_misses")), "fraction"};
    out["sisa.ops_per_dispatch"] = {
        ratio(get(m, "scu.batch_ops"), get(m, "scu.batch_dispatches")),
        "ops"};
}

std::uint64_t
xvaultBytes(const Modeled &m)
{
    return get(m, "setops.xvault_bytes") +
           get(m, "setops.xvault_reduce_bytes");
}

/**
 * Per-layer metrics of the traced algorithm runs. A pass is what one
 * workload repetition runs: one algorithm call on tc-hub and mc-bk,
 * the four solo reference runs on serve-mix. Times of a pass are
 * summed over its runs, then the median is taken over @p passes.
 * Engine calls are those the algorithm calls of the last pass made
 * (set materialisation calls belong to set-up); the solo workloads
 * keep only that pass's spans in @p tracer.
 */
void
addEngineLayerMetrics(Metrics &out,
                      const std::vector<std::vector<SoloRep>> &passes,
                      const Tracer &tracer)
{
    std::vector<double> build, run, self;
    for (const std::vector<SoloRep> &pass : passes) {
        double b = 0, r = 0, s = 0;
        for (const SoloRep &rep : pass) {
            b += rep.buildS;
            r += rep.runS;
            s += rep.selfS;
        }
        build.push_back(b);
        run.push_back(r);
        self.push_back(s);
    }

    std::vector<std::uint32_t> algoSpans;
    std::uint64_t bitvectorSets = 0;
    std::uint64_t sortedArraySets = 0;
    std::uint64_t batchOps = 0;
    for (const SoloRep &rep : passes.back()) {
        algoSpans.push_back(rep.algoSpan);
        bitvectorSets += rep.bitvectorSets;
        sortedArraySets += rep.sortedArraySets;
        batchOps += rep.batchOps;
    }
    std::map<SpanKind, std::pair<std::uint64_t, double>> calls;
    for (const perfbench::Span &s : tracer.spans()) {
        if (std::find(algoSpans.begin(), algoSpans.end(), s.parent) ==
            algoSpans.end())
            continue;
        auto &[count, secs] = calls[s.kind];
        ++count;
        secs += 1e-9 * static_cast<double>(s.end - s.start);
    }
    const auto batch = calls[SpanKind::Batch];
    const double batchS = batch.second + calls[SpanKind::BatchCollect].second;
    const auto serial = calls[SpanKind::Serial];
    const auto lifecycle = calls[SpanKind::Lifecycle];

    out["core.setgraph_build_s"] = {median(build), "s"};
    out["core.sets_bitvector"] = {static_cast<double>(bitvectorSets),
                                  "count"};
    out["core.sets_sorted_array"] = {static_cast<double>(sortedArraySets),
                                     "count"};
    out["core.batch_calls"] = {static_cast<double>(batch.first), "count"};
    out["core.batch_s"] = {batchS, "s"};
    out["core.batch_ns_per_op"] = {
        batchOps ? 1e9 * batchS / static_cast<double>(batchOps) : 0.0,
        "ns"};
    out["core.serial_calls"] = {static_cast<double>(serial.first),
                                "count"};
    out["core.serial_s"] = {serial.second, "s"};
    out["core.lifecycle_calls"] = {static_cast<double>(lifecycle.first),
                                   "count"};
    out["core.lifecycle_s"] = {lifecycle.second, "s"};
    out["algorithms.run_s"] = {median(run), "s"};
    out["algorithms.self_s"] = {median(self), "s"};
}

/** sim.* per-layer metrics from modeled busy and stall cycles. */
void
addSimLayerMetrics(Metrics &out, std::uint64_t busy, std::uint64_t stall)
{
    out["sim.busy_cycles"] = {static_cast<double>(busy), "cycles"};
    out["sim.stall_cycles"] = {static_cast<double>(stall), "cycles"};
    out["sim.stall_share"] = {ratio(stall, busy + stall), "fraction"};
}

/**
 * Set-up is repeated at least kSetupReps times, and until it has taken
 * kSetupShare of the run's budget, so a cheap set-up still yields a
 * steady median.
 */
constexpr std::size_t kSetupReps = 3;
constexpr double kSetupShare = 0.05;

bool
moreSetup(const std::vector<double> &setup, double budget)
{
    double spent = 0;
    for (double s : setup)
        spent += s;
    return setup.size() < kSetupReps || spent < kSetupShare * budget;
}


// --- Serving workload (serve-mix) -----------------------------------------

/** Queries per arrival stream (one serveMixedWorkload call). */
constexpr std::size_t kServeQueries = 128;

/**
 * Independent arrival streams per rate. Their query outcomes are
 * pooled, so percentiles and shares rest on streams x queries samples
 * while each call keeps only one stream's sessions alive.
 */
constexpr std::uint32_t kServeStreams = 8;

/** Deadline (and latency limit) after each query's virtual arrival. */
constexpr mem::Cycles kServeDeadline = 3000000;

/**
 * Fixed ladder of absolute arrival rates, in queries per million
 * modeled cycles, about 8% apart. The lowest rung is the nominal
 * rate. Never recalibrated from the code under test.
 */
constexpr double kServeLadder[] = {6,    6.5,  7,    7.5,  8,   8.7,
                                   9.4,  10.2, 11,   11.9, 12.9, 13.9,
                                   15,   16.2, 17.5, 19,   20.5};

/** Share of offered queries that must meet the latency limit. */
constexpr double kServeMeetShare = 0.9;

constexpr const char *kServeProblems[] = {"tc", "kcc-4", "cl-jac",
                                          "mc"};

/** Balanced, seeded mix of the four problems, open-loop arrivals. */
serve::ScenarioConfig
serveConfig(std::uint64_t seed, std::uint32_t stream, double rate)
{
    serve::ScenarioConfig sc;
    sc.policy = isa::SchedPolicy::Credit;
    sc.shed = isa::ShedPolicy::Edf;
    sc.admitCapacity = 8;
    sc.threads = 1;
    sc.scu.batchWorkers = kBatchWorkers;
    sc.scu.asyncDepth = 8;
    const std::uint64_t streamSeed = workloadSeed(seed, 16 + stream);
    std::vector<std::string> problems;
    for (std::size_t i = 0; i < kServeQueries; ++i)
        problems.push_back(kServeProblems[i % 4]);
    support::SplitMix64 rng(streamSeed);
    for (std::size_t i = problems.size(); i > 1; --i)
        std::swap(problems[i - 1], problems[rng.next() % i]);
    const std::vector<mem::Cycles> arrivals = serve::poissonArrivals(
        rng.next(), 1e6 / rate, kServeQueries);
    for (std::size_t i = 0; i < kServeQueries; ++i) {
        serve::QuerySpec q;
        q.problem = problems[i];
        q.arrival = arrivals[i];
        q.deadline = arrivals[i] + kServeDeadline;
        sc.queries.push_back(std::move(q));
    }
    return sc;
}

/** The four serving problems are set up oriented or undirected. */
bool
orientedProblem(const std::string &problem)
{
    return problem == "tc" || problem == "kcc-4";
}

/**
 * Solo SISA run of (problem, serving default cutoff) on @p g: the
 * value every served copy must reproduce, and the SISA side of
 * serve-mix's sim_speedup_vs_nonset. With @p tracer, the set-graph
 * build, the algorithm call and every engine call are spans.
 */
SoloRep
serveReference(const graph::Graph &g, const std::string &problem,
               Tracer *tracer)
{
    SoloRep rep;
    isa::ScuConfig scu;
    scu.batchWorkers = kBatchWorkers;
    scu.asyncDepth = 8;
    core::SisaEngine sisa(g.numVertices(), scu, 1);
    std::optional<TracedEngine> traced;
    if (tracer)
        traced.emplace(sisa, *tracer);
    core::SetEngine &engine =
        tracer ? static_cast<core::SetEngine &>(*traced) : sisa;
    sim::SimContext ctx(1);
    ctx.setPatternCutoff(serve::serveDefaultCutoff(problem));

    std::optional<algorithms::OrientedSetGraph> osg;
    std::optional<core::SetGraph> sg;
    std::optional<Scope> span;
    const std::int64_t t0 = nowNs();
    if (tracer)
        span.emplace(*tracer, SpanKind::SetGraph);
    if (orientedProblem(problem))
        osg.emplace(g, engine);
    else
        sg.emplace(g, engine);
    span.reset();
    const std::int64_t t1 = nowNs();
    rep.buildS = seconds(t0, t1);

    if (tracer) {
        span.emplace(*tracer, SpanKind::Algorithm);
        rep.algoSpan = span->id();
    }
    if (problem == "tc")
        rep.value = algorithms::triangleCount(*osg, ctx);
    else if (problem == "kcc-4")
        rep.value = algorithms::kCliqueCount(*osg, ctx, 4);
    else if (problem == "mc")
        rep.value = algorithms::maximalCliques(*sg, ctx).cliqueCount;
    else
        rep.value = algorithms::jarvisPatrick(
                        *sg, ctx, algorithms::SimilarityMeasure::Jaccard,
                        0.05)
                        .clusterEdges;
    span.reset();
    rep.runS = seconds(t1, nowNs());
    rep.modeled = modeledOf(ctx, rep.value);
    if (tracer)
        recordTraced(rep, orientedProblem(problem) ? *osg->sets : *sg,
                     *tracer, *traced);
    return rep;
}

/** The non-set baseline of (problem, serving default cutoff) on @p g. */
std::pair<std::uint64_t, std::uint64_t>
serveOracle(const graph::Graph &g, const std::string &problem)
{
    sim::CpuModel cpu(sim::CpuParams{}, 1);
    sim::SimContext ctx(1);
    ctx.setPatternCutoff(serve::serveDefaultCutoff(problem));
    std::uint64_t value = 0;
    if (orientedProblem(problem)) {
        const auto deg = graph::exactDegeneracyOrder(g);
        const graph::Graph oriented = g.orientByRank(deg.rank);
        baselines::CsrView view(oriented, cpu);
        value = problem == "tc"
                    ? baselines::triangleCountBaseline(view, ctx)
                    : baselines::kCliqueCountBaseline(view, ctx, 4);
    } else {
        baselines::CsrView view(g, cpu);
        value = problem == "mc"
                    ? baselines::maximalCliquesBaseline(view, ctx)
                          .cliqueCount
                    : baselines::jarvisPatrickBaseline(
                          view, ctx, baselines::ClusterCoefficient::Jaccard,
                          0.05);
    }
    return {value, ctx.makespan()};
}

using SoloValues = std::map<std::string, std::uint64_t>;

SoloValues
serveSoloValues(const graph::Graph &g)
{
    SoloValues solo;
    for (const char *p : kServeProblems)
        solo[p] = serveReference(g, p, nullptr).value;
    return solo;
}

/**
 * One line per completed query of @p report whose value differs from
 * the solo run of the same (problem, cutoff).
 */
std::vector<std::string>
wrongValues(const serve::ScenarioConfig &sc,
            const serve::ScenarioReport &report, const SoloValues &solo)
{
    std::vector<std::string> wrong;
    for (std::size_t i = 0; i < report.queries.size(); ++i) {
        const serve::QueryReport &q = report.queries[i];
        const std::string &problem = sc.queries[i].problem;
        const std::uint64_t want = solo.at(problem);
        if (q.state == isa::QueryState::Completed && q.value != want)
            wrong.push_back("query " + std::to_string(i) + " (" +
                            problem + ") value " +
                            std::to_string(q.value) + " != solo " +
                            std::to_string(want));
    }
    return wrong;
}

/** Query outcomes of every stream at one rate, pooled. */
struct ServeStats
{
    std::size_t offered = 0;
    std::size_t completed = 0;
    std::size_t met = 0; ///< Completed within the latency limit.
    std::size_t shed = 0;
    std::size_t timedOut = 0;
    std::vector<double> latency;   ///< Completed queries.
    std::vector<double> queueWait; ///< Completed: latency - own.
    std::vector<double> own;       ///< Completed.
    Modeled counters;              ///< Summed per-query accounts.
    std::uint64_t ownSum = 0;      ///< Every query's own cycles.
    std::uint64_t busy = 0;        ///< Every query's busy cycles.
    std::uint64_t stall = 0;       ///< Every query's stall cycles.
    std::uint64_t grants = 0;
    std::uint32_t streams = 0;

    double metShare() const { return ratio(met, offered); }

    void
    add(const serve::ScenarioReport &report)
    {
        ++streams;
        offered += report.queries.size();
        grants += report.admissionLog.size();
        for (const serve::QueryReport &q : report.queries) {
            for (const auto &[name, v] : q.account.counters)
                counters[name] += v;
            ownSum += q.ownCycles;
            busy += q.account.busy;
            stall += q.account.stall;
            if (q.state == isa::QueryState::Shed)
                ++shed;
            if (q.state == isa::QueryState::TimedOut)
                ++timedOut;
            if (q.state != isa::QueryState::Completed)
                continue;
            ++completed;
            const mem::Cycles lat = q.completion - q.arrival;
            if (lat <= kServeDeadline)
                ++met;
            latency.push_back(static_cast<double>(lat));
            own.push_back(static_cast<double>(q.ownCycles));
            queueWait.push_back(
                static_cast<double>(lat - std::min(lat, q.ownCycles)));
        }
    }
};

/** Exact modeled fingerprint of one scenario run. */
Modeled
serveModeled(const serve::ScenarioReport &report)
{
    Modeled m;
    m["makespan"] = report.makespan;
    m["grants"] = report.admissionLog.size();
    m["lifecycle_events"] = report.lifecycleLog.size();
    for (std::size_t i = 0; i < report.queries.size(); ++i) {
        const serve::QueryReport &q = report.queries[i];
        std::string k = "q";
        k += std::to_string(i);
        k += '.';
        m[k + "value"] = q.value;
        m[k + "own"] = q.ownCycles;
        m[k + "completion"] = q.completion;
        m[k + "state"] = static_cast<std::uint64_t>(q.state);
        for (const auto &[name, v] : q.account.counters)
            m[k + name] = v;
    }
    return m;
}

std::string
rateLabel(double rate)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", rate);
    return buf;
}


/**
 * serve.* per-layer metrics of the nominal rate's pooled streams.
 * They read 0 on tc-hub and mc-bk, which serve no queries.
 */
void
addServeLayerMetrics(Metrics &out, const ServeStats &nom, double maxRate)
{
    const auto count = [&](const char *metric, std::uint64_t v) {
        out[metric] = {static_cast<double>(v), "count"};
    };
    const auto cycles = [&](const char *metric,
                            const std::vector<double> &v, double p) {
        out[metric] = {support::percentile(v, p), "cycles"};
    };
    count("serve.offered", nom.offered);
    count("serve.completed", nom.completed);
    count("serve.shed", nom.shed);
    count("serve.timed_out", nom.timedOut);
    count("serve.admission_grants", nom.grants);
    cycles("serve.p50_latency_cycles", nom.latency, 50);
    cycles("serve.p90_latency_cycles", nom.latency, 90);
    cycles("serve.queue_wait_p50_cycles", nom.queueWait, 50);
    cycles("serve.queue_wait_p90_cycles", nom.queueWait, 90);
    cycles("serve.own_cycles_p50", nom.own, 50);
    out["serve.cancelled_cycles"] = {
        static_cast<double>(get(nom.counters, "setops.cancelled_cycles")),
        "cycles"};
    out["serve.goodput"] = {nom.metShare(), "fraction"};
    out["serve.max_rate_qpmc"] = {maxRate, "q/Mcycles"};
}

// --- Workload runs --------------------------------------------------------

Outcome
runSoloWorkload(const SoloWorkload &w, std::uint64_t seed,
                double budget, bool trace, const std::string &spansPath)
{
    Outcome out;
    const auto fail = [&](const std::string &why) {
        ++out.failed;
        logLine(std::string(w.name) + ": " + why);
    };
    Tracer tracer;
    std::vector<SoloRep> plain;
    std::vector<SoloRep> traced;
    std::vector<double> setup;
    std::vector<double> generate;
    graph::Graph g;
    std::uint64_t digest = 0;
    std::optional<Modeled> reference;
    // Leading repetitions generate the graph afresh (see moreSetup);
    // the rest reuse it. Every repetition builds a fresh engine and
    // set graph. With trace=1, odd repetitions run traced.
    const std::int64_t start = nowNs();
    for (std::uint32_t i = 0;
         i < kSetupReps || seconds(start, nowNs()) < budget; ++i) {
        const bool regenerate = moreSetup(setup, budget);
        const bool traceThis = trace && i % 2 == 1;
        // Engine-call spans run to millions per repetition on mc-bk,
        // so only the last traced repetition's spans are kept.
        if (traceThis)
            tracer.clear();
        tracer.setRun(i);
        ++out.attempted;
        try {
            SoloRep rep = runSolo(w, seed, g, regenerate,
                                  traceThis ? &tracer : nullptr);
            logLine(std::string(w.name) + " repetition " +
                    std::to_string(i) + (traceThis ? " (traced)" : "") +
                    ": generate " + std::to_string(rep.generateS) +
                    " s, build " + std::to_string(rep.buildS) +
                    " s, run " + std::to_string(rep.runS) + " s");
            if (regenerate) {
                setup.push_back(rep.setupS());
                generate.push_back(rep.generateS);
                const std::uint64_t d = graphDigest(g);
                if (i > 0 && d != digest)
                    fail("the same seed generated a different graph");
                digest = d;
            }
            if (!reference)
                reference = rep.modeled;
            else if (rep.modeled != *reference)
                fail("repetition " + std::to_string(i) +
                     " modeled metrics differ from the first");
            (traceThis ? traced : plain).push_back(std::move(rep));
        } catch (const std::exception &e) {
            fail(e.what());
        }
    }
    const double rssMb = peakRssMb();

    // Oracle: the non-set baseline on the same graph. Its time and
    // memory are outside every reported metric.
    const std::int64_t oracleStart = nowNs();
    const auto [oracleValue, nonsetCycles] = soloOracle(w, g);
    ++out.attempted;
    for (const auto *reps : {&plain, &traced}) {
        for (const SoloRep &r : *reps) {
            if (r.value != oracleValue)
                fail("value " + std::to_string(r.value) +
                     " != non-set " + std::to_string(oracleValue));
        }
    }
    logLine(std::string(w.name) + ": value " +
            std::to_string(oracleValue) + " (non-set oracle " +
            std::to_string(seconds(oracleStart, nowNs())) + " s), " +
            std::to_string(plain.size()) + " untraced + " +
            std::to_string(traced.size()) + " traced repetitions");
    if (plain.empty() || (trace && traced.empty()))
        return out;

    const Modeled &m = *reference;
    std::vector<double> plainRun;
    for (const SoloRep &r : plain)
        plainRun.push_back(r.runS);
    if (!trace) {
        out.metrics["sim_cycles"] = {
            static_cast<double>(get(m, "sim.makespan")), "cycles"};
        out.metrics["sim_xvault_bytes"] = {
            static_cast<double>(xvaultBytes(m)), "bytes"};
        out.metrics["sim_speedup_vs_nonset"] = {
            ratio(nonsetCycles, get(m, "sim.makespan")), "x"};
        out.metrics["host_run_s"] = {median(plainRun), "s"};
        out.metrics["setup_s"] = {median(setup), "s"};
        out.metrics["peak_rss_mb"] = {rssMb, "MB"};
        return out;
    }

    std::vector<std::vector<SoloRep>> passes;
    for (const SoloRep &r : traced)
        passes.push_back({r});
    out.metrics["graph.generate_s"] = {median(generate), "s"};
    out.metrics["graph.max_degree"] = {
        static_cast<double>(traced.back().maxDegree), "count"};
    addEngineLayerMetrics(out.metrics, passes, tracer);
    addSimLayerMetrics(out.metrics, get(m, "sim.busy_cycles"),
                       get(m, "sim.stall_cycles"));
    addCounterMetrics(out.metrics, m);
    addServeLayerMetrics(out.metrics, ServeStats{}, 0);
    out.metrics["baselines.nonset_cycles"] = {
        static_cast<double>(nonsetCycles), "cycles"};
    std::vector<double> tracedRun;
    for (const SoloRep &r : traced)
        tracedRun.push_back(r.runS);
    out.metrics["trace.overhead_s"] = {
        median(tracedRun) - median(plainRun), "s"};
    if (!tracer.write(spansPath))
        logLine("cannot write spans to " + spansPath);
    return out;
}


/**
 * serve-mix. The measured phase is one serveMixedWorkload call: 128
 * co-tenant queries of one arrival stream at the nominal rate.
 * host_run_s is the median call over whole passes through the
 * kServeStreams streams; the first pass is a warm-up that fixes each
 * stream's modeled outcome, which every later call must reproduce
 * bit for bit. With trace=1 the run instead walks the rate ladder
 * (for serve.max_rate_qpmc), runs the solo references traced, and
 * alternates traced and untraced nominal passes for trace.overhead_s.
 */
Outcome
runServeWorkload(std::uint64_t seed, double budget, bool trace,
                 const std::string &spansPath)
{
    Outcome out;
    Tracer tracer;
    const std::int64_t start = nowNs();
    const auto elapsed = [&] { return seconds(start, nowNs()); };

    // Set-up: graph generation. Per-session set materialisation
    // happens inside serveMixedWorkload.
    graph::Graph g;
    std::vector<double> setup;
    while (moreSetup(setup, budget)) {
        Scope s(tracer, SpanKind::Generate);
        const std::int64_t t0 = nowNs();
        g = serveGraph(workloadSeed(seed, 3));
        setup.push_back(seconds(t0, nowNs()));
    }

    std::vector<SoloRep> reference;
    SoloValues solo;
    std::uint64_t soloCycles = 0;
    for (const char *p : kServeProblems) {
        reference.push_back(serveReference(g, p, nullptr));
        solo[p] = reference.back().value;
        soloCycles += get(reference.back().modeled, "sim.makespan");
    }

    // One serveMixedWorkload call; checks every completed query's
    // value against the solo run of the same (problem, cutoff), and a
    // repeated stream against its first call.
    std::uint32_t call = 0;
    std::map<std::pair<double, std::uint32_t>, Modeled> firstCall;
    const auto runStream =
        [&](double rate, std::uint32_t stream, bool traced,
            double &hostS) -> std::optional<serve::ScenarioReport> {
        const serve::ScenarioConfig sc = serveConfig(seed, stream, rate);
        ++out.attempted;
        tracer.setRun(call++);
        std::optional<Scope> span;
        if (traced)
            span.emplace(tracer, SpanKind::Scenario);
        const std::int64_t t0 = nowNs();
        try {
            serve::ScenarioReport r = serve::serveMixedWorkload(g, sc);
            hostS = seconds(t0, nowNs());
            for (const std::string &why : wrongValues(sc, r, solo)) {
                ++out.failed;
                logLine("serve-mix: " + why);
            }
            const auto [it, first] =
                firstCall.try_emplace({rate, stream}, serveModeled(r));
            if (!first && it->second != serveModeled(r)) {
                ++out.failed;
                logLine("serve-mix: stream " + std::to_string(stream) +
                        " modeled metrics differ between repetitions");
            }
            return r;
        } catch (const std::exception &e) {
            hostS = seconds(t0, nowNs());
            ++out.failed;
            logLine(std::string("serve-mix: ") + e.what());
            return std::nullopt;
        }
    };

    // One pass over the streams of a rate; pools their outcomes into
    // @p stats (when given) and their host seconds per call into
    // @p hostS.
    const auto pass = [&](double rate, bool traced, ServeStats *stats,
                          std::vector<double> &hostS) {
        std::string calls;
        for (std::uint32_t s = 0; s < kServeStreams; ++s) {
            double callS = 0;
            const auto r = runStream(rate, s, traced, callS);
            hostS.push_back(callS);
            calls += ' ';
            calls += std::to_string(callS);
            if (r && stats)
                stats->add(*r);
        }
        logLine("serve-mix: rate " + rateLabel(rate) +
                (traced ? " traced" : "") + " calls (s):" + calls);
        if (stats)
            logLine("serve-mix: rate " + rateLabel(rate) + " met " +
                    std::to_string(stats->met) + "/" +
                    std::to_string(stats->offered) + " shed " +
                    std::to_string(stats->shed) + " timed_out " +
                    std::to_string(stats->timedOut));
    };

    const double nominalRate = kServeLadder[0];
    ServeStats nom;
    std::vector<double> warmS;
    pass(nominalRate, false, &nom, warmS);

    std::vector<double> plainS;
    std::vector<double> tracedS;
    double maxRate = 0;
    std::vector<SoloRep> tracedReference;
    if (!trace) {
        do
            pass(nominalRate, false, nullptr, plainS);
        while (elapsed() < budget);
    } else {
        // The ladder: binary search for the highest rung whose pooled
        // streams meet the latency limit for kServeMeetShare of
        // offered queries, taking the met share to fall as the rate
        // rises. The lowest rung is the nominal rate.
        std::vector<double> ladderS;
        std::size_t lo = 0;
        std::size_t hi = std::size(kServeLadder);
        if (nom.metShare() >= kServeMeetShare) {
            // Invariant: rung lo passes; rung hi (if any) misses.
            while (hi - lo > 1) {
                const std::size_t mid = (lo + hi) / 2;
                ServeStats st;
                pass(kServeLadder[mid], false, &st, ladderS);
                (st.metShare() >= kServeMeetShare ? lo : hi) = mid;
            }
            maxRate = kServeLadder[lo];
        }
        for (const char *p : kServeProblems)
            tracedReference.push_back(serveReference(g, p, &tracer));
        for (std::size_t i = 0; i < reference.size(); ++i) {
            if (tracedReference[i].modeled != reference[i].modeled) {
                ++out.failed;
                logLine(std::string("serve-mix: traced ") +
                        kServeProblems[i] +
                        " reference differs from the untraced one");
            }
        }
        // Alternate traced and untraced nominal passes, at least one
        // of each, until the budget is spent.
        for (std::uint32_t i = 0; i < 2 || elapsed() < budget; ++i)
            pass(nominalRate, i % 2 == 0, nullptr,
                 i % 2 == 0 ? tracedS : plainS);
    }
    const double rssMb = peakRssMb();

    // Oracle: the non-set baseline of every problem. Its time and
    // memory are outside every reported metric.
    std::uint64_t nonsetCycles = 0;
    ++out.attempted;
    for (std::size_t i = 0; i < reference.size(); ++i) {
        const auto [value, cycles] = serveOracle(g, kServeProblems[i]);
        nonsetCycles += cycles;
        if (value != reference[i].value) {
            ++out.failed;
            logLine(std::string("serve-mix: ") + kServeProblems[i] +
                    " value " + std::to_string(reference[i].value) +
                    " != non-set " + std::to_string(value));
        }
    }

    if (nom.streams == 0 || plainS.empty())
        return out;
    logLine("serve-mix: " + std::to_string(nom.completed) + "/" +
            std::to_string(nom.offered) +
            " completed at the nominal rate; max rate " +
            rateLabel(maxRate) + "; " + std::to_string(call) +
            " calls in " + std::to_string(elapsed()) +
            " s; median call " + std::to_string(median(plainS)) + " s");
    const double streams = static_cast<double>(nom.streams);
    if (!trace) {
        out.metrics["sim_cycles"] = {
            static_cast<double>(nom.ownSum) / streams, "cycles"};
        out.metrics["sim_xvault_bytes"] = {
            static_cast<double>(xvaultBytes(nom.counters)) / streams,
            "bytes"};
        out.metrics["sim_speedup_vs_nonset"] = {
            ratio(nonsetCycles, soloCycles), "x"};
        out.metrics["host_run_s"] = {median(plainS), "s"};
        out.metrics["setup_s"] = {median(setup), "s"};
        out.metrics["peak_rss_mb"] = {rssMb, "MB"};
        return out;
    }

    Metrics &pl = out.metrics;
    pl["graph.generate_s"] = {median(setup), "s"};
    pl["graph.max_degree"] = {static_cast<double>(g.maxDegree()), "count"};
    addEngineLayerMetrics(pl, {tracedReference}, tracer);
    addSimLayerMetrics(pl, nom.busy, nom.stall);
    addCounterMetrics(pl, nom.counters);
    pl["baselines.nonset_cycles"] = {static_cast<double>(nonsetCycles),
                                     "cycles"};
    addServeLayerMetrics(pl, nom, maxRate);
    pl["trace.overhead_s"] = {median(tracedS) - median(plainS), "s"};
    if (!tracer.write(spansPath))
        logLine("cannot write spans to " + spansPath);
    return out;
}

// --- Self-test ------------------------------------------------------------

int
selftest()
{
    int failures = 0;
    const auto check = [&](bool ok, const std::string &what) {
        logLine(std::string(ok ? "PASS " : "FAIL ") + what);
        failures += ok ? 0 : 1;
    };

    // Traced and untraced runs give bit-identical modeled metrics and
    // sets.* counts; on tc-hub the async window is really exercised.
    for (const SoloWorkload *w : {&kTcHub, &kMcBk}) {
        graph::Graph g;
        Tracer tracer;
        const SoloRep plain = runSolo(*w, 1, g, true, nullptr);
        const SoloRep traced = runSolo(*w, 1, g, true, &tracer);
        check(plain.modeled == traced.modeled,
              std::string(w->name) +
                  ": traced modeled metrics == untraced");
        check(!tracer.spans().empty(),
              std::string(w->name) + ": traced run recorded spans");
        if (w->asyncDepth > 0) {
            check(get(traced.modeled, "scu.async_syncs") > 0 &&
                      get(traced.modeled, "scu.async_syncs") ==
                          get(plain.modeled, "scu.async_syncs") &&
                      get(traced.modeled, "sim.stall_cycles") ==
                          get(plain.modeled, "sim.stall_cycles"),
                  std::string(w->name) +
                      ": async syncs and stall cycles unchanged "
                      "under tracing");
        }
    }

    // Two seeds give different graphs, and both pass the oracle.
    for (const SoloWorkload *w : {&kTcHub, &kMcBk}) {
        std::uint64_t digest[2] = {0, 0};
        for (std::uint64_t seed : {1, 2}) {
            graph::Graph g;
            const SoloRep rep = runSolo(*w, seed, g, true, nullptr);
            digest[seed - 1] = graphDigest(g);
            check(rep.value == soloOracle(*w, g).first,
                  std::string(w->name) + ": seed " +
                      std::to_string(seed) + " matches non-set");
        }
        check(digest[0] != digest[1],
              std::string(w->name) + ": seeds 1 and 2 differ");
    }
    std::uint64_t serveDigest[2] = {0, 0};
    for (std::uint64_t seed : {1, 2}) {
        const graph::Graph g = serveGraph(workloadSeed(seed, 3));
        serveDigest[seed - 1] = graphDigest(g);
        const serve::ScenarioConfig sc =
            serveConfig(seed, 0, kServeLadder[0]);
        const serve::ScenarioReport r = serve::serveMixedWorkload(g, sc);
        const std::size_t completed = static_cast<std::size_t>(
            std::count_if(r.queries.begin(), r.queries.end(),
                          [](const serve::QueryReport &q) {
                              return q.state ==
                                     isa::QueryState::Completed;
                          }));
        check(completed > 0 &&
                  wrongValues(sc, r, serveSoloValues(g)).empty(),
              "serve-mix: seed " + std::to_string(seed) +
                  " completed queries match their solo runs");
        for (const char *p : kServeProblems) {
            Tracer tracer;
            const SoloRep plain = serveReference(g, p, nullptr);
            const SoloRep traced = serveReference(g, p, &tracer);
            check(plain.modeled == traced.modeled &&
                      plain.value == serveOracle(g, p).first,
                  "serve-mix: seed " + std::to_string(seed) + " " + p +
                      " reference: traced == untraced == non-set");
        }
    }
    check(serveDigest[0] != serveDigest[1],
          "serve-mix: seeds 1 and 2 differ");
    logLine(failures ? "selftest FAILED" : "selftest passed");
    return failures ? 1 : 0;
}

/**
 * Pin the process to the CPU it starts on, before it starts any
 * thread, so that every thread inherits the mask. serve-mix's 128
 * query threads hand the scheduler's grant to one another; on one CPU
 * each hand-off is a local wake-up, and its call time spread less from
 * run to run than when the hand-offs crossed CPUs (NOTES.md).
 */
void
pinToStartCpu()
{
    const int cpu = sched_getcpu();
    if (cpu < 0)
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    if (sched_setaffinity(0, sizeof set, &set) != 0)
        logLine("cannot pin to CPU " + std::to_string(cpu));
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: sisa_perfbench <tc-hub|mc-bk|serve-mix> <seed> "
                 "<seconds> <0|1> <spans.csv>\n"
                 "       sisa_perfbench --selftest\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc == 2 && std::strcmp(argv[1], "--selftest") == 0)
        return selftest();
    if (argc != 6)
        return usage();
    const std::string workload = argv[1];
    char *end = nullptr;
    const std::uint64_t seed = std::strtoull(argv[2], &end, 10);
    if (*end)
        return usage();
    const double budget = std::strtod(argv[3], &end);
    if (*end || budget <= 0)
        return usage();
    const std::string traceArg = argv[4];
    if (traceArg != "0" && traceArg != "1")
        return usage();
    const bool trace = traceArg == "1";

    pinToStartCpu();
    Outcome out;
    if (workload == kTcHub.name)
        out = runSoloWorkload(kTcHub, seed, budget, trace, argv[5]);
    else if (workload == kMcBk.name)
        out = runSoloWorkload(kMcBk, seed, budget, trace, argv[5]);
    else if (workload == "serve-mix")
        out = runServeWorkload(seed, budget, trace, argv[5]);
    else
        return usage();
    printResult(out);
    return 0;
}
