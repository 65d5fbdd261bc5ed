/**
 * @file
 * Brute-force reference implementations used to validate every
 * set-centric algorithm and baseline. These are deliberately naive
 * (clarity over speed) and are only run on small graphs.
 */

#ifndef SISA_TESTS_REFERENCE_HPP
#define SISA_TESTS_REFERENCE_HPP

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <set>
#include <vector>

#include "graph/graph.hpp"

namespace sisa::tests {

using graph::Graph;
using graph::VertexId;

/** O(n^3) triangle count. */
inline std::uint64_t
refTriangleCount(const Graph &g)
{
    const VertexId n = g.numVertices();
    std::uint64_t count = 0;
    for (VertexId a = 0; a < n; ++a) {
        for (VertexId b = a + 1; b < n; ++b) {
            if (!g.hasEdge(a, b))
                continue;
            for (VertexId c = b + 1; c < n; ++c) {
                if (g.hasEdge(a, c) && g.hasEdge(b, c))
                    ++count;
            }
        }
    }
    return count;
}

/** Recursive k-clique enumeration (combinations + pairwise checks). */
inline std::uint64_t
refKCliqueCount(const Graph &g, std::uint32_t k,
                std::vector<VertexId> *current = nullptr,
                VertexId start = 0)
{
    std::vector<VertexId> local;
    if (!current)
        current = &local;
    if (current->size() == k)
        return 1;
    std::uint64_t count = 0;
    for (VertexId v = start; v < g.numVertices(); ++v) {
        bool ok = true;
        for (VertexId m : *current) {
            if (!g.hasEdge(m, v)) {
                ok = false;
                break;
            }
        }
        if (ok) {
            current->push_back(v);
            count += refKCliqueCount(g, k, current, v + 1);
            current->pop_back();
        }
    }
    return count;
}

/** All maximal cliques (naive BK without pivoting). */
inline void
refMaximalCliques(const Graph &g, std::vector<VertexId> r,
                  std::vector<VertexId> p, std::vector<VertexId> x,
                  std::vector<std::vector<VertexId>> &out)
{
    if (p.empty() && x.empty()) {
        std::sort(r.begin(), r.end());
        out.push_back(r);
        return;
    }
    const std::vector<VertexId> p_copy = p;
    for (VertexId v : p_copy) {
        std::vector<VertexId> r2 = r;
        r2.push_back(v);
        std::vector<VertexId> p2, x2;
        for (VertexId w : p) {
            if (g.hasEdge(v, w))
                p2.push_back(w);
        }
        for (VertexId w : x) {
            if (g.hasEdge(v, w))
                x2.push_back(w);
        }
        refMaximalCliques(g, r2, p2, x2, out);
        p.erase(std::find(p.begin(), p.end(), v));
        x.push_back(v);
    }
}

inline std::vector<std::vector<VertexId>>
refMaximalCliques(const Graph &g)
{
    std::vector<VertexId> p(g.numVertices());
    for (VertexId v = 0; v < g.numVertices(); ++v)
        p[v] = v;
    std::vector<std::vector<VertexId>> out;
    refMaximalCliques(g, {}, p, {}, out);
    return out;
}

/** |N(u) cap N(v)| by std::set intersection. */
inline std::uint64_t
refCommonNeighbors(const Graph &g, VertexId u, VertexId v)
{
    const auto nu = g.neighbors(u);
    const auto nv = g.neighbors(v);
    std::set<VertexId> su(nu.begin(), nu.end());
    std::uint64_t count = 0;
    for (VertexId w : nv)
        count += su.count(w);
    return count;
}

/** Count embeddings of a star with @p leaves leaves (ordered center). */
inline std::uint64_t
refStarEmbeddings(const Graph &g, std::uint32_t leaves)
{
    // Induced star: center adjacent to each leaf, leaves pairwise
    // non-adjacent; embeddings count ordered leaf tuples.
    std::uint64_t count = 0;
    const VertexId n = g.numVertices();
    std::vector<VertexId> chosen;
    auto recurse = [&](auto &&self, VertexId center) -> void {
        if (chosen.size() == leaves) {
            ++count;
            return;
        }
        for (VertexId leaf : g.neighbors(center)) {
            bool ok = true;
            for (VertexId c : chosen) {
                if (c == leaf || g.hasEdge(c, leaf)) {
                    ok = false;
                    break;
                }
            }
            if (ok) {
                chosen.push_back(leaf);
                self(self, center);
                chosen.pop_back();
            }
        }
    };
    for (VertexId center = 0; center < n; ++center) {
        chosen.clear();
        recurse(recurse, center);
    }
    return count;
}

/** A cap B over std::set: the oracle for the intersect instructions. */
template <typename T>
inline std::set<T>
refIntersect(const std::set<T> &a, const std::set<T> &b)
{
    std::set<T> out;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::inserter(out, out.end()));
    return out;
}

/** A cup B over std::set. */
template <typename T>
inline std::set<T>
refUnion(const std::set<T> &a, const std::set<T> &b)
{
    std::set<T> out = a;
    out.insert(b.begin(), b.end());
    return out;
}

/** A setminus B over std::set. */
template <typename T>
inline std::set<T>
refDifference(const std::set<T> &a, const std::set<T> &b)
{
    std::set<T> out;
    std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                        std::inserter(out, out.end()));
    return out;
}

} // namespace sisa::tests

#endif // SISA_TESTS_REFERENCE_HPP
