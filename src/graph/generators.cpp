#include "graph/generators.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <utility>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "support/logging.hpp"
#include "support/rng.hpp"

namespace sisa::graph {

namespace {

using support::Xoshiro256;

/** Walker alias table for O(1) weighted vertex sampling. */
class AliasTable
{
  public:
    explicit AliasTable(const std::vector<double> &weights)
        : prob_(weights.size()), alias_(weights.size())
    {
        const std::size_t n = weights.size();
        double total = 0.0;
        for (double w : weights)
            total += w;
        sisa_assert(total > 0.0, "alias table needs positive total weight");

        std::vector<double> scaled(n);
        for (std::size_t i = 0; i < n; ++i)
            scaled[i] = weights[i] * static_cast<double>(n) / total;

        std::vector<std::uint32_t> small, large;
        for (std::size_t i = 0; i < n; ++i) {
            (scaled[i] < 1.0 ? small : large)
                .push_back(static_cast<std::uint32_t>(i));
        }
        while (!small.empty() && !large.empty()) {
            const std::uint32_t s = small.back();
            const std::uint32_t l = large.back();
            small.pop_back();
            prob_[s] = scaled[s];
            alias_[s] = l;
            scaled[l] = scaled[l] + scaled[s] - 1.0;
            if (scaled[l] < 1.0) {
                large.pop_back();
                small.push_back(l);
            }
        }
        for (std::uint32_t s : small) {
            prob_[s] = 1.0;
            alias_[s] = s;
        }
        for (std::uint32_t l : large) {
            prob_[l] = 1.0;
            alias_[l] = l;
        }
    }

    std::uint32_t
    sample(Xoshiro256 &rng) const
    {
        const auto slot = static_cast<std::uint32_t>(
            rng.nextBounded(prob_.size()));
        return rng.nextDouble() < prob_[slot] ? slot : alias_[slot];
    }

  private:
    std::vector<double> prob_;
    std::vector<std::uint32_t> alias_;
};

/**
 * Graph of the first @p m distinct edges that @p draw yields as
 * endpoint pairs (self-loops are redrawn), or of fewer once
 * @p attempt_limit draws are spent; an @p m above n(n-1)/2 is fatal.
 * Seen edges live in one flat open-addressing, linear-probing table
 * of keys u << 32 | v (u < v) that is at most half full; key 0 would
 * be the self-loop (0, 0), so 0 marks an empty slot.
 *
 * The table is far larger than cache, so draws go in batches: each
 * batch draws every attempt and prefetches its home slot, then probes
 * and inserts in draw order, letting the misses overlap. An attempt
 * adds at most one edge, so a batch of min(depth, m - count,
 * attempt_limit - attempts) stops exactly where a one-at-a-time loop
 * would, with the same draws and the same edges in the same order.
 */
template <typename Draw>
Graph
distinctEdgeGraph(VertexId n, std::uint64_t m, std::uint64_t attempt_limit,
                  Draw draw)
{
    const std::uint64_t max_edges =
        static_cast<std::uint64_t>(n) * (n - 1) / 2;
    if (m > max_edges)
        sisa_fatal("m=", m, " distinct edges exceeds n(n-1)/2=", max_edges);
    const std::uint64_t table_size =
        std::bit_ceil(std::max<std::uint64_t>(2 * m, 2));
    // Before a large table, return the heap's free pages to the
    // system. Free heap memory stays resident, and the allocator does
    // not always place the arrays below in it, so what earlier graphs
    // and runs left free added to the peak: a process's peak RSS grew
    // with each regeneration (tc-hub recipe, 32 MiB table: 45, 66, 76,
    // 85 MB over four; with the trim 45, 55, 55, 55 MB). Below 16 MiB
    // the pages cost more to fault back in than the peak they save
    // (mc-bk recipe, 2 MiB table: +2 ms per graph, same peak).
#if defined(__GLIBC__)
    if (table_size * sizeof(std::uint64_t) >= (std::uint64_t{16} << 20))
        malloc_trim(0);
#endif
    // Sized up front, so the queue never grows by copying itself
    // beside the key table.
    GraphBuilder builder(n);
    builder.reserve(m);
    {
        std::vector<std::uint64_t> seen(table_size);
        const int shift = 64 - std::countr_zero(seen.size());
        constexpr std::uint64_t depth = 16; // Attempts per batch.
        std::array<std::uint64_t, depth> keys{};
        std::array<std::size_t, depth> slots{};
        std::uint64_t count = 0;
        for (std::uint64_t attempts = 0;
             count < m && attempts < attempt_limit;) {
            const std::uint64_t batch =
                std::min({depth, m - count, attempt_limit - attempts});
            attempts += batch;
            for (std::uint64_t i = 0; i < batch; ++i) {
                auto [u, v] = draw();
                if (u > v)
                    std::swap(u, v);
                // A self-loop gets key 0 and is skipped below.
                keys[i] = u == v ? 0
                                 : (static_cast<std::uint64_t>(u) << 32) | v;
                // Fibonacci hashing: the top bits of key * 2^64 / phi.
                slots[i] = (keys[i] * 0x9e3779b97f4a7c15ULL) >> shift;
                __builtin_prefetch(&seen[slots[i]]);
            }
            for (std::uint64_t i = 0; i < batch; ++i) {
                const std::uint64_t key = keys[i];
                if (key == 0)
                    continue;
                std::size_t slot = slots[i];
                while (seen[slot] != 0 && seen[slot] != key)
                    slot = (slot + 1) & (seen.size() - 1);
                if (seen[slot] == 0) {
                    seen[slot] = key;
                    ++count;
                    builder.addEdge(static_cast<VertexId>(key >> 32),
                                    static_cast<VertexId>(key));
                }
            }
        }
    } // The key table is freed before the CSR is built.
    return builder.build();
}

} // namespace

Graph
erdosRenyi(VertexId n, std::uint64_t m, std::uint64_t seed)
{
    sisa_assert(n >= 2, "erdosRenyi needs n >= 2");
    Xoshiro256 rng(seed);
    return distinctEdgeGraph(n, m, 40 * m + 1000, [&] {
        const auto u = static_cast<VertexId>(rng.nextBounded(n));
        const auto v = static_cast<VertexId>(rng.nextBounded(n));
        return std::pair{u, v};
    });
}

Graph
complete(VertexId n)
{
    GraphBuilder builder(n);
    for (VertexId u = 0; u < n; ++u) {
        for (VertexId v = u + 1; v < n; ++v)
            builder.addEdge(u, v);
    }
    return builder.build();
}

Graph
star(VertexId n)
{
    sisa_assert(n >= 2, "star needs n >= 2");
    GraphBuilder builder(n);
    for (VertexId v = 1; v < n; ++v)
        builder.addEdge(0, v);
    return builder.build();
}

Graph
path(VertexId n)
{
    GraphBuilder builder(n);
    for (VertexId v = 0; v + 1 < n; ++v)
        builder.addEdge(v, v + 1);
    return builder.build();
}

Graph
cycle(VertexId n)
{
    sisa_assert(n >= 3, "cycle needs n >= 3");
    GraphBuilder builder(n);
    for (VertexId v = 0; v < n; ++v)
        builder.addEdge(v, (v + 1) % n);
    return builder.build();
}

Graph
rmat(const RmatParams &params, std::uint64_t seed)
{
    const VertexId n = VertexId{1} << params.scale;
    const std::uint64_t m =
        static_cast<std::uint64_t>(params.edgeFactor) * n;
    const double d = 1.0 - params.a - params.b - params.c;
    sisa_assert(d > 0.0, "RMAT probabilities must sum below 1");

    Xoshiro256 rng(seed);
    GraphBuilder builder(n);
    for (std::uint64_t e = 0; e < m; ++e) {
        VertexId u = 0, v = 0;
        for (std::uint32_t bit = 0; bit < params.scale; ++bit) {
            const double r = rng.nextDouble();
            std::uint32_t quadrant;
            if (r < params.a) {
                quadrant = 0;
            } else if (r < params.a + params.b) {
                quadrant = 1;
            } else if (r < params.a + params.b + params.c) {
                quadrant = 2;
            } else {
                quadrant = 3;
            }
            u = (u << 1) | (quadrant >> 1);
            v = (v << 1) | (quadrant & 1);
        }
        if (u != v)
            builder.addEdge(u, v);
    }
    return builder.build();
}

Graph
chungLu(const ChungLuParams &params, std::uint64_t seed)
{
    const VertexId n = params.n;
    sisa_assert(n >= 2, "chungLu needs n >= 2");
    sisa_assert(params.exponent > 1.0, "chungLu needs exponent > 1");

    // Power-law weights: w_i = (i+1)^{-1/(gamma-1)}, the standard
    // Chung-Lu construction for a degree exponent of gamma.
    std::vector<double> weights(n);
    const double beta = 1.0 / (params.exponent - 1.0);
    for (VertexId i = 0; i < n; ++i)
        weights[i] = std::pow(static_cast<double>(i + 1), -beta);

    if (params.hubs > 0) {
        // Boost the first `hubs` weights so their expected degree is
        // about hubDegreeFraction * n: expected degree of i is
        // 2m * w_i / W, so set w_i = f*n/(2m) * W_rest approximately.
        double base_total = 0.0;
        for (double w : weights)
            base_total += w;
        const double target =
            params.hubDegreeFraction * static_cast<double>(n);
        const double hub_weight =
            target * base_total /
            std::max<double>(1.0, 2.0 * static_cast<double>(params.m) -
                                      target *
                                      static_cast<double>(params.hubs));
        for (VertexId i = 0; i < params.hubs && i < n; ++i)
            weights[i] = std::max(weights[i], hub_weight);
    }

    if (params.maxDegreeFraction > 0.0) {
        // Clamp weights so no expected degree exceeds the cap:
        // E[deg(i)] = 2m * w_i / W. Two passes converge well enough.
        for (int pass = 0; pass < 2; ++pass) {
            double total = 0.0;
            for (double w : weights)
                total += w;
            const double cap = params.maxDegreeFraction *
                               static_cast<double>(n) * total /
                               (2.0 * static_cast<double>(params.m));
            for (double &w : weights)
                w = std::min(w, cap);
        }
    }

    AliasTable alias(weights);
    Xoshiro256 rng(seed);
    // Duplicates concentrate on hub pairs, so heavy-tailed targets
    // need many more draws than m to land near m distinct edges.
    return distinctEdgeGraph(n, params.m, 30 * params.m + 1000, [&] {
        const VertexId u = alias.sample(rng);
        const VertexId v = alias.sample(rng);
        return std::pair{u, v};
    });
}

Graph
plantCliques(const Graph &base, const PlantedCliqueParams &params,
             std::uint64_t seed)
{
    sisa_assert(params.minSize >= 2 && params.maxSize >= params.minSize,
                "invalid planted-clique size range");
    const VertexId n = base.numVertices();
    if (params.maxSize > n)
        sisa_fatal("plantCliques: maxSize=", params.maxSize,
                   " exceeds n=", n);
    Xoshiro256 rng(seed);

    // Only the clique edges go through a builder; that small graph
    // is then merged into the base one row at a time.
    GraphBuilder builder(n);
    const std::uint32_t span = params.maxSize - params.minSize + 1;
    for (std::uint32_t g = 0; g < params.count; ++g) {
        const std::uint32_t size =
            params.minSize + static_cast<std::uint32_t>(
                                 rng.nextBounded(span));
        std::vector<VertexId> members;
        members.reserve(size);
        while (members.size() < size) {
            const auto v = static_cast<VertexId>(rng.nextBounded(n));
            if (std::find(members.begin(), members.end(), v) ==
                members.end()) {
                members.push_back(v);
            }
        }
        for (std::size_t i = 0; i < members.size(); ++i) {
            for (std::size_t j = i + 1; j < members.size(); ++j) {
                if (params.density >= 1.0 ||
                    rng.nextDouble() < params.density) {
                    builder.addEdge(members[i], members[j]);
                }
            }
        }
    }
    return base.unionWith(builder.build());
}

std::vector<Label>
randomVertexLabels(VertexId n, std::uint32_t num_labels, std::uint64_t seed)
{
    sisa_assert(num_labels >= 1, "need at least one label");
    Xoshiro256 rng(seed);
    std::vector<Label> labels(n);
    for (VertexId v = 0; v < n; ++v)
        labels[v] = static_cast<Label>(rng.nextBounded(num_labels));
    return labels;
}

} // namespace sisa::graph
