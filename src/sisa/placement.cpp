#include "sisa/placement.hpp"

#include <algorithm>
#include <cmath>

namespace sisa::isa {

std::uint32_t
HashPlacement::vaultOf(SetId id) const
{
    std::uint64_t x = id + 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    x ^= x >> 31;
    return static_cast<std::uint32_t>(x % vaults_);
}

std::uint32_t
LocalityPlacement::vaultOf(SetId id) const
{
    const auto it = table_.find(id);
    return it != table_.end() ? it->second : fallback_.vaultOf(id);
}

void
LocalityPlacement::assign(SetId id, std::uint32_t vault)
{
    table_[id] = vault % vaults_;
}

std::shared_ptr<LocalityPlacement>
greedyLocalityPlacement(std::uint32_t vaults,
                        const std::vector<TrafficArc> &arcs,
                        double capacity_slack)
{
    vaults = std::max<std::uint32_t>(vaults, 1);
    auto placement = std::make_shared<LocalityPlacement>(vaults);

    // Index the sets appearing in the traffic and merge duplicate
    // arcs into a weighted adjacency (undirected: saving a transfer
    // is symmetric in which operand would have moved).
    std::unordered_map<SetId, std::uint32_t> index;
    std::vector<SetId> ids;
    const auto indexOf = [&](SetId id) {
        const auto [it, inserted] =
            index.try_emplace(id, static_cast<std::uint32_t>(ids.size()));
        if (inserted)
            ids.push_back(id);
        return it->second;
    };
    std::vector<std::unordered_map<std::uint32_t, std::uint64_t>> adj;
    for (const TrafficArc &arc : arcs) {
        if (arc.a == invalid_set || arc.b == invalid_set ||
            arc.a == arc.b || arc.weight == 0)
            continue;
        const std::uint32_t ia = indexOf(arc.a);
        const std::uint32_t ib = indexOf(arc.b);
        adj.resize(ids.size());
        adj[ia][ib] += arc.weight;
        adj[ib][ia] += arc.weight;
    }
    adj.resize(ids.size());
    if (ids.empty())
        return placement;

    // Heaviest-traffic sets choose their vault first: they anchor the
    // clusters their partners then join.
    std::vector<std::uint32_t> order(ids.size());
    std::vector<std::uint64_t> traffic(ids.size(), 0);
    for (std::uint32_t i = 0; i < ids.size(); ++i) {
        order[i] = i;
        for (const auto &[j, w] : adj[i])
            traffic[i] += w;
    }
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t x, std::uint32_t y) {
                         if (traffic[x] != traffic[y])
                             return traffic[x] > traffic[y];
                         return ids[x] < ids[y];
                     });

    // Capacity keeps the assignment near-balanced: locality must not
    // collapse the whole workload onto one vault and forfeit the
    // parallelism the batch model charges for.
    const std::uint64_t capacity = std::max<std::uint64_t>(
        2, static_cast<std::uint64_t>(std::ceil(
               capacity_slack * static_cast<double>(ids.size()) /
               vaults)));

    std::vector<std::uint64_t> load(vaults, 0);
    std::vector<std::uint32_t> vault_of(ids.size(), UINT32_MAX);
    std::vector<std::uint64_t> score(vaults, 0);
    for (const std::uint32_t i : order) {
        // Score = traffic to partners already placed in each vault.
        std::vector<std::uint32_t> touched;
        for (const auto &[j, w] : adj[i]) {
            if (vault_of[j] == UINT32_MAX)
                continue;
            const std::uint32_t v = vault_of[j];
            if (score[v] == 0)
                touched.push_back(v);
            score[v] += w;
        }
        std::uint32_t best = UINT32_MAX;
        std::uint64_t best_score = 0;
        std::sort(touched.begin(), touched.end());
        for (const std::uint32_t v : touched) {
            if (load[v] >= capacity)
                continue;
            if (best == UINT32_MAX || score[v] > best_score ||
                (score[v] == best_score && load[v] < load[best])) {
                best = v;
                best_score = score[v];
            }
        }
        if (best == UINT32_MAX) {
            // No placed partner has room: take the least-loaded vault.
            best = 0;
            for (std::uint32_t v = 1; v < vaults; ++v) {
                if (load[v] < load[best])
                    best = v;
            }
        }
        for (const std::uint32_t v : touched)
            score[v] = 0;
        vault_of[i] = best;
        ++load[best];
        placement->assign(ids[i], best);
    }
    return placement;
}

std::optional<PlacementKind>
parsePlacement(std::string_view name)
{
    if (name.empty() || name == "hash")
        return PlacementKind::Hash;
    if (name == "locality")
        return PlacementKind::Locality;
    return std::nullopt;
}

std::string_view
placementNames()
{
    return "hash | locality";
}

std::shared_ptr<PlacementPolicy>
makePlacement(PlacementKind kind, std::uint32_t vaults,
              const std::function<std::vector<TrafficArc>()> &arcs)
{
    switch (kind) {
      case PlacementKind::Locality:
        return greedyLocalityPlacement(vaults, arcs());
      case PlacementKind::Hash:
        break;
    }
    return std::make_shared<HashPlacement>(vaults);
}

} // namespace sisa::isa
