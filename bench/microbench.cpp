/**
 * @file
 * Google-benchmark microbenchmarks of the host-side library: raw set
 * algorithms (merge/galloping/bitwise) and full engine instructions.
 * These measure the *simulator's* throughput (host ns/op), which
 * bounds how much evaluation a given wall-clock budget can cover.
 *
 * Before handing control to google-benchmark, main() runs a
 * deterministic scalar-vs-vectorized kernel sweep and writes it to a
 * machine-readable BENCH_kernels.json (override the path with
 * --kernels-json=PATH, or run only the sweep with --kernels-only) so
 * the kernel-layer perf trajectory is tracked across PRs. The
 * "scalar" side replicates the seed's per-element-accounted loops;
 * the "vector" side is the sets/kernels.hpp bulk layer.
 */

#include <benchmark/benchmark.h>

#include <bit>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/sisa_engine.hpp"
#include "graph/dataset_registry.hpp"
#include "graph/generators.hpp"
#include "harness.hpp"
#include "sets/kernels.hpp"
#include "sets/operations.hpp"
#include "support/rng.hpp"

namespace {

using namespace sisa;
using sets::Element;
using sets::OpWork;
using sets::SortedArraySet;

SortedArraySet
randomSet(std::uint64_t seed, Element universe, std::size_t size)
{
    support::Xoshiro256 rng(seed);
    std::vector<Element> elems;
    elems.reserve(size * 2);
    while (elems.size() < size)
        elems.push_back(
            static_cast<Element>(rng.nextBounded(universe)));
    return SortedArraySet::fromUnsorted(std::move(elems));
}

// --- Seed-replica scalar operations --------------------------------------
//
// The pre-kernel-layer implementations, kept verbatim as the baseline
// of the scalar-vs-vectorized comparison: branchy two-pointer loops
// with a per-element ++work counter inside.

SortedArraySet
seedIntersectMerge(const SortedArraySet &a, const SortedArraySet &b,
                   OpWork &work)
{
    std::vector<Element> out;
    out.reserve(std::min(a.size(), b.size()));
    std::uint64_t i = 0, j = 0;
    while (i < a.size() && j < b.size()) {
        ++work.streamedElements;
        if (a[i] < b[j]) {
            ++i;
        } else if (b[j] < a[i]) {
            ++j;
        } else {
            out.push_back(a[i]);
            ++i;
            ++j;
        }
    }
    work.outputElements += out.size();
    return SortedArraySet(std::move(out));
}

std::uint64_t
seedIntersectCardMerge(const SortedArraySet &a, const SortedArraySet &b,
                       OpWork &work)
{
    std::uint64_t count = 0;
    std::uint64_t i = 0, j = 0;
    while (i < a.size() && j < b.size()) {
        ++work.streamedElements;
        if (a[i] < b[j]) {
            ++i;
        } else if (b[j] < a[i]) {
            ++j;
        } else {
            ++count;
            ++i;
            ++j;
        }
    }
    return count;
}

SortedArraySet
seedUnionMerge(const SortedArraySet &a, const SortedArraySet &b,
               OpWork &work)
{
    std::vector<Element> out;
    out.reserve(a.size() + b.size());
    std::uint64_t i = 0, j = 0;
    while (i < a.size() && j < b.size()) {
        ++work.streamedElements;
        if (a[i] < b[j]) {
            out.push_back(a[i++]);
        } else if (b[j] < a[i]) {
            out.push_back(b[j++]);
        } else {
            out.push_back(a[i]);
            ++i;
            ++j;
        }
    }
    for (; i < a.size(); ++i) {
        ++work.streamedElements;
        out.push_back(a[i]);
    }
    for (; j < b.size(); ++j) {
        ++work.streamedElements;
        out.push_back(b[j]);
    }
    work.outputElements += out.size();
    return SortedArraySet(std::move(out));
}

SortedArraySet
seedDifferenceMerge(const SortedArraySet &a, const SortedArraySet &b,
                    OpWork &work)
{
    std::vector<Element> out;
    out.reserve(a.size());
    std::uint64_t i = 0, j = 0;
    while (i < a.size() && j < b.size()) {
        ++work.streamedElements;
        if (a[i] < b[j]) {
            out.push_back(a[i++]);
        } else if (b[j] < a[i]) {
            ++j;
        } else {
            ++i;
            ++j;
        }
    }
    for (; i < a.size(); ++i) {
        ++work.streamedElements;
        out.push_back(a[i]);
    }
    work.outputElements += out.size();
    return SortedArraySet(std::move(out));
}

// --- Kernel sweep -> BENCH_kernels.json ----------------------------------

/** Best-of-repetitions ns/op of @p op, run long enough to be stable. */
template <typename Op>
double
timeNs(Op &&op)
{
    using clock = std::chrono::steady_clock;
    constexpr int repetitions = 3;
    double best = 1e300;
    for (int rep = 0; rep < repetitions; ++rep) {
        // Calibrate the iteration count to ~20ms of work.
        std::uint64_t iters = 1;
        for (;;) {
            const auto start = clock::now();
            for (std::uint64_t it = 0; it < iters; ++it)
                op();
            const double elapsed =
                std::chrono::duration<double, std::nano>(clock::now() -
                                                         start)
                    .count();
            if (elapsed > 20e6 || iters > (1ull << 30)) {
                best = std::min(best, elapsed /
                                          static_cast<double>(iters));
                break;
            }
            iters *= elapsed > 1e6
                         ? static_cast<std::uint64_t>(25e6 / elapsed) + 1
                         : 10;
        }
    }
    return best;
}

struct SweepRow
{
    std::string name;
    std::uint64_t size;
    double scalar_ns;
    double vector_ns;
    const char *unit;
};

int
runKernelSweep(const std::string &json_path)
{
    std::vector<SweepRow> rows;
    // @p unit is "ns" for timing rows; non-timing sweeps (the
    // placement rows report modeled bytes/cycles) label themselves so
    // JSON consumers never mix units into nanosecond statistics.
    const auto add = [&rows](std::string name, std::uint64_t size,
                             double scalar_ns, double vector_ns,
                             const char *unit = "ns") {
        std::printf("  %-28s %12.0f %s -> %12.0f %s   (%.2fx)\n",
                    name.c_str(), scalar_ns, unit, vector_ns, unit,
                    scalar_ns / vector_ns);
        rows.push_back(
            {std::move(name), size, scalar_ns, vector_ns, unit});
    };

    std::printf("kernel sweep (tier: %s, block: %zu lanes)\n",
                sets::kernels::tierName(), sets::kernels::block_elems);

    // Sorted-array merge kernels at three sizes, 1/16 density.
    for (const std::size_t size :
         {std::size_t{1} << 10, std::size_t{1} << 13,
          std::size_t{1} << 16}) {
        const Element universe = static_cast<Element>(size * 16);
        const SortedArraySet a = randomSet(1, universe, size);
        const SortedArraySet b = randomSet(2, universe, size);
        std::vector<Element> out(a.size() + b.size() +
                                 sets::kernels::block_elems);

        const std::string suffix = std::to_string(size >> 10) + "k";
        add("intersect_kernel_" + suffix, size,
            timeNs([&] {
                benchmark::DoNotOptimize(sets::kernels::ref::intersect(
                    a.elements(), b.elements(), out.data()));
            }),
            timeNs([&] {
                benchmark::DoNotOptimize(sets::kernels::intersect(
                    a.elements(), b.elements(), out.data()));
            }));
        add("intersect_card_kernel_" + suffix, size,
            timeNs([&] {
                benchmark::DoNotOptimize(
                    sets::kernels::ref::intersectCard(a.elements(),
                                                      b.elements()));
            }),
            timeNs([&] {
                benchmark::DoNotOptimize(sets::kernels::intersectCard(
                    a.elements(), b.elements()));
            }));
        add("union_kernel_" + suffix, size,
            timeNs([&] {
                benchmark::DoNotOptimize(sets::kernels::ref::setUnion(
                    a.elements(), b.elements(), out.data()));
            }),
            timeNs([&] {
                benchmark::DoNotOptimize(sets::kernels::setUnion(
                    a.elements(), b.elements(), out.data()));
            }));
        add("difference_kernel_" + suffix, size,
            timeNs([&] {
                benchmark::DoNotOptimize(sets::kernels::ref::difference(
                    a.elements(), b.elements(), out.data()));
            }),
            timeNs([&] {
                benchmark::DoNotOptimize(sets::kernels::difference(
                    a.elements(), b.elements(), out.data()));
            }));
    }

    // Operation level (OpWork accounting + result materialization
    // included): the acceptance-gate 64K intersection, seed loop vs
    // rewired operations.cpp.
    {
        const std::size_t size = std::size_t{1} << 16;
        const SortedArraySet a = randomSet(1, 1u << 20, size);
        const SortedArraySet b = randomSet(2, 1u << 20, size);
        add("intersect_merge_op_64k", size,
            timeNs([&] {
                OpWork work;
                benchmark::DoNotOptimize(
                    seedIntersectMerge(a, b, work));
            }),
            timeNs([&] {
                OpWork work;
                benchmark::DoNotOptimize(
                    sets::intersectMerge(a, b, work));
            }));
        add("intersect_card_op_64k", size,
            timeNs([&] {
                OpWork work;
                benchmark::DoNotOptimize(
                    seedIntersectCardMerge(a, b, work));
            }),
            timeNs([&] {
                OpWork work;
                benchmark::DoNotOptimize(
                    sets::intersectCardMerge(a, b, work));
            }));
        add("union_merge_op_64k", size,
            timeNs([&] {
                OpWork work;
                benchmark::DoNotOptimize(seedUnionMerge(a, b, work));
            }),
            timeNs([&] {
                OpWork work;
                benchmark::DoNotOptimize(sets::unionMerge(a, b, work));
            }));
        add("difference_merge_op_64k", size,
            timeNs([&] {
                OpWork work;
                benchmark::DoNotOptimize(
                    seedDifferenceMerge(a, b, work));
            }),
            timeNs([&] {
                OpWork work;
                benchmark::DoNotOptimize(
                    sets::differenceMerge(a, b, work));
            }));
    }

    // Word-wise dense-bitvector kernel: AND + popcount over 1M bits.
    {
        const Element universe = 1u << 20;
        const SortedArraySet a = randomSet(1, universe, universe / 8);
        const SortedArraySet b = randomSet(2, universe, universe / 8);
        const auto da =
            sets::DenseBitset::fromSorted(a.elements(), universe);
        const auto db =
            sets::DenseBitset::fromSorted(b.elements(), universe);
        const std::size_t words = da.numWords();
        add("and_card_words_1m", words,
            timeNs([&] {
                const auto wa = da.words();
                const auto wb = db.words();
                std::uint64_t count = 0;
                for (std::size_t i = 0; i < wa.size(); ++i)
                    count += static_cast<std::uint64_t>(
                        std::popcount(wa[i] & wb[i]));
                benchmark::DoNotOptimize(count);
            }),
            timeNs([&] {
                benchmark::DoNotOptimize(sets::kernels::andCardWords(
                    da.words().data(), db.words().data(), words));
            }));
    }

    // Batched-vs-serial SISA dispatch: the same N neighbor
    // intersections issued one instruction at a time ("scalar"
    // column) vs as one dispatchBatch ("vector" column). Host
    // wall-clock on one host thread: a batch pre-executes its ops
    // inline, so the ratio is the host cost of one decode and lane
    // layout vs N serial issues. The vaults' parallelism is modeled
    // time and does not show here.
    {
        constexpr std::size_t ops = 64;
        for (const std::size_t size :
             {std::size_t{1} << 12, std::size_t{1} << 16}) {
            const Element universe = 1u << 20;
            core::SisaEngine eng(universe, isa::ScuConfig{}, 1);
            sim::SimContext setup_ctx(1);
            std::vector<core::SetId> ids;
            for (std::size_t s = 0; s < ops + 1; ++s) {
                const SortedArraySet set =
                    randomSet(s + 1, universe, size);
                ids.push_back(eng.create(
                    setup_ctx, 0,
                    std::vector<Element>(set.begin(), set.end()),
                    sets::SetRepr::SparseArray));
            }
            core::BatchRequest req;
            for (std::size_t s = 0; s < ops; ++s)
                req.intersectCard(ids[s], ids[s + 1]);

            const std::string suffix = std::to_string(size >> 10) + "k";
            add("batched_dispatch_64x" + suffix, size,
                timeNs([&] {
                    sim::SimContext ctx(1);
                    std::uint64_t total = 0;
                    for (std::size_t s = 0; s < ops; ++s)
                        total += eng.intersectCard(ctx, 0, ids[s],
                                                   ids[s + 1]);
                    benchmark::DoNotOptimize(total);
                }),
                timeNs([&] {
                    sim::SimContext ctx(1);
                    benchmark::DoNotOptimize(
                        eng.executeBatch(ctx, 0, req));
                }));
        }
    }

    // Placement / routing sweep: cross-vault traffic
    // of a fixed-seed RMAT triangle count. These rows are NOT
    // nanoseconds (their unit field says so): "scalar" is the
    // baseline configuration's value, "vector" the tuned one's, and
    // "speedup" the reduction factor.
    {
        graph::RmatParams rmat_params;
        rmat_params.scale = 9;
        rmat_params.edgeFactor = 8;
        const graph::Graph g = graph::rmat(rmat_params, 42);
        struct PlacementRun
        {
            std::uint64_t moved_bytes; ///< Cross-vault bytes.
            std::uint64_t cycles;
        };
        const auto run = [&](const char *placement,
                             const char *routing) {
            bench::RunConfig rc;
            rc.threads = 4;
            rc.cutoff = 0;
            rc.placement = placement;
            rc.routing = routing;
            bench::RunOutcome out =
                bench::runProblem("tc", g, bench::Mode::Sisa, rc);
            return PlacementRun{out.ctx->counter("setops.xvault_bytes"),
                                out.cycles};
        };
        // hash vs locality placement (primary routing): the PR 3 row.
        const PlacementRun hash = run("hash", "primary");
        const PlacementRun locality = run("locality", "primary");
        add("placement_tc_rmat9_xvault_bytes", g.numVertices(),
            static_cast<double>(hash.moved_bytes),
            static_cast<double>(locality.moved_bytes), "bytes");
        add("placement_tc_rmat9_cycles", g.numVertices(),
            static_cast<double>(hash.cycles),
            static_cast<double>(locality.cycles), "cycles");
        // Makespan-driven balanced scheduling (LPT + rider-lane byte
        // harvesting) vs the same PR 3 locality/primary baseline:
        // the sched_* acceptance rows. Balanced must cut bytes while
        // keeping cycles at primary level.
        const PlacementRun balanced = run("locality", "balanced");
        add("sched_tc_rmat9_xvault_bytes", g.numVertices(),
            static_cast<double>(locality.moved_bytes),
            static_cast<double>(balanced.moved_bytes), "bytes");
        add("sched_tc_rmat9_cycles", g.numVertices(),
            static_cast<double>(locality.cycles),
            static_cast<double>(balanced.cycles), "cycles");
        // Async dispatch rows: the same fixed-seed kernels with the
        // SCU's in-flight batch window open (asyncDepth 8) vs the
        // per-batch barrier. Results, ids, traces, and work counters
        // are bit-identical (the differential suite in
        // tests/test_async.cpp proves it); only the modeled makespan
        // moves, so "speedup" here is the barrier-retirement win.
        const auto run_async = [&](const char *problem,
                                   std::uint32_t depth) {
            bench::RunConfig rc;
            rc.threads = 4;
            rc.cutoff = 0;
            rc.placement = "locality";
            rc.routing = "balanced";
            rc.scu.asyncDepth = depth;
            bench::RunOutcome out =
                bench::runProblem(problem, g, bench::Mode::Sisa, rc);
            return out.cycles;
        };
        add("async_tc_rmat9_cycles", g.numVertices(),
            static_cast<double>(run_async("tc", 0)),
            static_cast<double>(run_async("tc", 8)), "cycles");
        add("async_mc_rmat9_cycles", g.numVertices(),
            static_cast<double>(run_async("mc", 0)),
            static_cast<double>(run_async("mc", 8)), "cycles");
    }

    // Remote-operand dedup guard: one vault serializing 512 ops whose
    // co-operands are all remote and distinct -- the worst case for
    // the per-lane fetched-set membership check (formerly an O(k)
    // linear scan per op, now an epoch-stamped array indexed by
    // SetId). Host wall-clock, serial vs batched.
    {
        const Element universe = 1u << 16;
        constexpr std::size_t ops = 512;
        isa::ScuConfig cfg;
        core::SisaEngine eng(universe, cfg, 1);
        sim::SimContext setup_ctx(1);
        auto placement = std::make_shared<isa::LocalityPlacement>(
            cfg.pim.vaults);
        std::vector<core::SetId> as, bs;
        for (std::size_t s = 0; s < ops; ++s) {
            const SortedArraySet a_set =
                randomSet(2 * s + 1, universe, 64);
            const SortedArraySet b_set =
                randomSet(2 * s + 2, universe, 64);
            as.push_back(eng.create(
                setup_ctx, 0,
                std::vector<Element>(a_set.begin(), a_set.end()),
                sets::SetRepr::SparseArray));
            bs.push_back(eng.create(
                setup_ctx, 0,
                std::vector<Element>(b_set.begin(), b_set.end()),
                sets::SetRepr::SparseArray));
            placement->assign(as.back(), 0);
            placement->assign(bs.back(),
                              1 + static_cast<std::uint32_t>(
                                      s % (cfg.pim.vaults - 1)));
        }
        eng.scu().setPlacement(placement);
        core::BatchRequest req;
        for (std::size_t s = 0; s < ops; ++s)
            req.intersectCard(as[s], bs[s]);

        add("batched_dispatch_1vault_512x64", ops,
            timeNs([&] {
                sim::SimContext ctx(1);
                std::uint64_t total = 0;
                for (std::size_t s = 0; s < ops; ++s)
                    total +=
                        eng.intersectCard(ctx, 0, as[s], bs[s]);
                benchmark::DoNotOptimize(total);
            }),
            timeNs([&] {
                sim::SimContext ctx(1);
                benchmark::DoNotOptimize(
                    eng.executeBatch(ctx, 0, req));
            }));
    }

    // Algorithm-layer host time: one whole bench::runProblem in
    // set-based mode ("scalar") vs SISA mode ("vector") on a
    // registry dataset generated outside the timer. Both modes must
    // report the same result value.
    const auto algo_row = [&](const char *name, const char *problem,
                              const char *dataset, std::uint32_t threads,
                              std::uint64_t cutoff) {
        const graph::Graph g = graph::makeDataset(dataset);
        bench::RunConfig rc;
        rc.threads = threads;
        rc.cutoff = cutoff;
        std::uint64_t set_based_value = 0, sisa_value = 0;
        const double set_based_ns = timeNs([&] {
            set_based_value =
                bench::runProblem(problem, g, bench::Mode::SetBased, rc)
                    .value;
        });
        const double sisa_ns = timeNs([&] {
            sisa_value =
                bench::runProblem(problem, g, bench::Mode::Sisa, rc).value;
        });
        if (set_based_value != sisa_value) {
            std::fprintf(stderr, "%s: set-based %llu != sisa %llu\n",
                         name,
                         static_cast<unsigned long long>(set_based_value),
                         static_cast<unsigned long long>(sisa_value));
            return false;
        }
        add(name, g.numVertices(), set_based_ns, sisa_ns);
        return true;
    };
    if (!algo_row("algo_mc_authorship_host_ns", "mc", "int-authorship", 4,
                  0) ||
        !algo_row("algo_kcc5_antcol5_host_ns", "kcc-5", "int-antCol5-d1",
                  1, 1000000))
        return 1;

    std::FILE *f = std::fopen(json_path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
        return 1;
    }
    std::fprintf(f, "{\n  \"tier\": \"%s\",\n  \"block_elems\": %zu,\n",
                 sets::kernels::tierName(), sets::kernels::block_elems);
    std::fprintf(f, "  \"host_threads\": %u,\n",
                 std::max(1u, std::thread::hardware_concurrency()));
    std::fprintf(f, "  \"benchmarks\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const SweepRow &r = rows[i];
        std::fprintf(f,
                     "    {\"name\": \"%s\", \"size\": %llu, "
                     "\"unit\": \"%s\", "
                     "\"scalar_ns\": %.1f, \"vector_ns\": %.1f, "
                     "\"speedup\": %.3f}%s\n",
                     r.name.c_str(),
                     static_cast<unsigned long long>(r.size), r.unit,
                     r.scalar_ns, r.vector_ns,
                     r.scalar_ns / r.vector_ns,
                     i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
    return 0;
}

// --- google-benchmark registrations --------------------------------------

void
BM_IntersectMerge(benchmark::State &state)
{
    const auto size = static_cast<std::size_t>(state.range(0));
    const SortedArraySet a = randomSet(1, 1 << 20, size);
    const SortedArraySet b = randomSet(2, 1 << 20, size);
    for (auto _ : state) {
        OpWork work;
        benchmark::DoNotOptimize(sets::intersectMerge(a, b, work));
    }
    state.SetItemsProcessed(state.iterations() * 2 *
                            static_cast<std::int64_t>(size));
}
BENCHMARK(BM_IntersectMerge)->Range(64, 1 << 16);

void
BM_IntersectMergeSeedScalar(benchmark::State &state)
{
    const auto size = static_cast<std::size_t>(state.range(0));
    const SortedArraySet a = randomSet(1, 1 << 20, size);
    const SortedArraySet b = randomSet(2, 1 << 20, size);
    for (auto _ : state) {
        OpWork work;
        benchmark::DoNotOptimize(seedIntersectMerge(a, b, work));
    }
    state.SetItemsProcessed(state.iterations() * 2 *
                            static_cast<std::int64_t>(size));
}
BENCHMARK(BM_IntersectMergeSeedScalar)->Range(64, 1 << 16);

void
BM_IntersectCardKernel(benchmark::State &state)
{
    const auto size = static_cast<std::size_t>(state.range(0));
    const SortedArraySet a = randomSet(1, 1 << 20, size);
    const SortedArraySet b = randomSet(2, 1 << 20, size);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            sets::kernels::intersectCard(a.elements(), b.elements()));
    state.SetItemsProcessed(state.iterations() * 2 *
                            static_cast<std::int64_t>(size));
}
BENCHMARK(BM_IntersectCardKernel)->Range(64, 1 << 16);

void
BM_IntersectGallop(benchmark::State &state)
{
    const auto big = static_cast<std::size_t>(state.range(0));
    const SortedArraySet a = randomSet(1, 1 << 20, 16);
    const SortedArraySet b = randomSet(2, 1 << 20, big);
    for (auto _ : state) {
        OpWork work;
        benchmark::DoNotOptimize(sets::intersectGallop(a, b, work));
    }
}
BENCHMARK(BM_IntersectGallop)->Range(1 << 10, 1 << 18);

void
BM_DenseAnd(benchmark::State &state)
{
    const auto universe = static_cast<Element>(state.range(0));
    const SortedArraySet a = randomSet(1, universe, universe / 8);
    const SortedArraySet b = randomSet(2, universe, universe / 8);
    const auto da = sets::DenseBitset::fromSorted(a.elements(),
                                                  universe);
    const auto db = sets::DenseBitset::fromSorted(b.elements(),
                                                  universe);
    for (auto _ : state) {
        OpWork work;
        benchmark::DoNotOptimize(sets::intersectCardDbDb(da, db,
                                                         work));
    }
    state.SetBytesProcessed(state.iterations() * (universe / 8) * 2);
}
BENCHMARK(BM_DenseAnd)->Range(1 << 12, 1 << 20);

void
BM_EngineIntersectCard(benchmark::State &state)
{
    const auto size = static_cast<std::size_t>(state.range(0));
    core::SisaEngine eng(1 << 20, isa::ScuConfig{}, 1);
    sim::SimContext ctx(1);
    const auto a_set = randomSet(1, 1 << 20, size);
    const auto b_set = randomSet(2, 1 << 20, size);
    const auto a = eng.create(
        ctx, 0,
        std::vector<Element>(a_set.begin(), a_set.end()),
        sets::SetRepr::SparseArray);
    const auto b = eng.create(
        ctx, 0,
        std::vector<Element>(b_set.begin(), b_set.end()),
        sets::SetRepr::SparseArray);
    for (auto _ : state)
        benchmark::DoNotOptimize(eng.intersectCard(ctx, 0, a, b));
}
BENCHMARK(BM_EngineIntersectCard)->Range(64, 1 << 14);

void
BM_EngineInsertRemoveDb(benchmark::State &state)
{
    core::SisaEngine eng(1 << 16, isa::ScuConfig{}, 1);
    sim::SimContext ctx(1);
    const auto a =
        eng.createEmpty(ctx, 0, sets::SetRepr::DenseBitvector);
    Element e = 0;
    for (auto _ : state) {
        eng.insert(ctx, 0, a, e);
        eng.remove(ctx, 0, a, e);
        e = (e + 7919) & 0xffff;
    }
}
BENCHMARK(BM_EngineInsertRemoveDb);

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path = "BENCH_kernels.json";
    bool kernels_only = false;
    std::vector<char *> passthrough;
    passthrough.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--kernels-json=", 15) == 0)
            json_path = argv[i] + 15;
        else if (std::strcmp(argv[i], "--kernels-only") == 0)
            kernels_only = true;
        else
            passthrough.push_back(argv[i]);
    }

    if (const int rc = runKernelSweep(json_path))
        return rc;
    if (kernels_only)
        return 0;

    int bench_argc = static_cast<int>(passthrough.size());
    benchmark::Initialize(&bench_argc, passthrough.data());
    if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                               passthrough.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
