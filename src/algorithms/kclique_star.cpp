#include "algorithms/kclique_star.hpp"

#include <algorithm>
#include <map>

#include "algorithms/kclique.hpp"

namespace sisa::algorithms {

KcsResult
kCliqueStarsJabbour(OrientedSetGraph &osg, sim::SimContext &ctx,
                    std::uint32_t k)
{
    SetEngine &eng = osg.sets->engine();
    // Cliques are mined on the oriented graph, but star extensions
    // must see *all* neighbors: build the undirected neighborhoods.
    SetGraph undirected(*osg.original, eng);
    KcsResult result;

    // Deduplicate stars by their full member list (host-side map, as
    // the paper's "remove duplicates from S" step).
    std::map<std::vector<VertexId>, bool> seen;

    kCliqueList(osg, ctx, k, [&](sim::ThreadId tid,
                                 const std::vector<VertexId> &clique) {
        // X = intersection of all member neighborhoods.
        core::SetId x = eng.clone(
            ctx, tid, undirected.neighborhood(clique[0]));
        for (std::size_t i = 1; i < clique.size(); ++i) {
            const core::SetId next = eng.intersect(
                ctx, tid, x, undirected.neighborhood(clique[i]));
            eng.destroy(ctx, tid, x);
            x = next;
        }
        // G_s = X cup V_c (clique vertices arrive in recursion
        // order; set creation wants them sorted).
        std::vector<sets::Element> members(clique.begin(),
                                           clique.end());
        std::sort(members.begin(), members.end());
        const core::SetId vc = eng.create(
            ctx, tid, std::move(members), sets::SetRepr::SparseArray);
        const core::SetId star = eng.setUnion(ctx, tid, x, vc);
        const std::vector<sets::Element> star_members =
            eng.elements(ctx, tid, star);
        std::vector<VertexId> key(star_members.begin(),
                                  star_members.end());
        if (!seen.contains(key)) {
            seen.emplace(std::move(key), true);
            ++result.starCount;
            result.memberTotal += star_members.size();
        }
        eng.destroy(ctx, tid, star);
        eng.destroy(ctx, tid, vc);
        eng.destroy(ctx, tid, x);
    });
    return result;
}

} // namespace sisa::algorithms
