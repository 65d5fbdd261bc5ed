/**
 * @file
 * Vault placement policies for SISA sets (Section 9's locality
 * discussion; PIMMiner-style architecture-aware placement). The SCU
 * routes every batched operation to the vault holding its primary
 * operand; when the co-operand lives in a DIFFERENT vault, its bytes
 * must cross the inter-vault interconnect at b_L before the vault can
 * execute (see Scu::dispatchBatch). Which vault holds which set is
 * the placement policy's decision:
 *
 *  - HashPlacement:     splitmix64 over the set id -- the default
 *                       "well-mixed" assignment the PNM design relies
 *                       on for load balance, blind to locality;
 *  - LocalityPlacement: an explicit per-set table, typically built by
 *                       greedyLocalityPlacement() from the traffic
 *                       arcs of the workload (co-locate each
 *                       neighborhood set with its highest-traffic
 *                       partners, seeded from the oriented graph's
 *                       arc structure).
 *
 * Policies are pure functions of the set id (and their frozen build
 * state): deterministic, thread-safe after construction, and
 * functionally invisible -- placement only moves cycle charges and
 * the cross-vault byte counters, never results. The authoritative
 * set-to-vault map is Scu::vaultOf, which consults its result overlay
 * first and falls back to the installed policy; policies that return
 * placesResults() == true additionally have adopted result sets
 * pinned (via that overlay) to the vault that produced them, so
 * recursion intermediates (BK, k-clique) stay local instead of
 * falling back to the hash assignment.
 */

#ifndef SISA_SISA_PLACEMENT_HPP
#define SISA_SISA_PLACEMENT_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sisa/isa.hpp"

namespace sisa::isa {

/** Maps every set id to the simulated vault that stores it. */
class PlacementPolicy
{
  public:
    /** @param vaults Total vault count (>= 1 after clamping). */
    explicit PlacementPolicy(std::uint32_t vaults)
        : vaults_(vaults ? vaults : 1)
    {
    }

    virtual ~PlacementPolicy() = default;

    /** Short policy name for reports ("hash" / "locality"). */
    virtual const char *name() const = 0;

    /** Vault holding @p id; must return a value in [0, vaults()). */
    virtual std::uint32_t vaultOf(SetId id) const = 0;

    /**
     * Whether the SCU should pin adopted result sets to the vault
     * that produced them (kept in the SCU's placement overlay).
     * Pure id-hash policies decline: their assignment IS the model
     * being studied. Table-backed policies accept, so dynamically
     * created intermediates stay where they materialized instead of
     * falling back to the hash assignment.
     */
    virtual bool placesResults() const { return false; }

    std::uint32_t vaults() const { return vaults_; }

  protected:
    std::uint32_t vaults_;
};

/**
 * The default assignment: a splitmix64 finalizer over the set id.
 * Deterministic, cheap, and well-mixed -- the hash distribution of
 * sets across vaults the PNM design relies on for load balance
 * (guarded by the chi-square bound in tests/test_isa.cpp).
 */
class HashPlacement final : public PlacementPolicy
{
  public:
    using PlacementPolicy::PlacementPolicy;

    const char *name() const override { return "hash"; }
    std::uint32_t vaultOf(SetId id) const override;
};

/**
 * Explicit per-set placement table with hash fallback for unmapped
 * ids (dynamically created intermediates). Build one by hand with
 * assign(), or from workload traffic with greedyLocalityPlacement().
 */
class LocalityPlacement final : public PlacementPolicy
{
  public:
    explicit LocalityPlacement(std::uint32_t vaults)
        : PlacementPolicy(vaults), fallback_(vaults)
    {
    }

    const char *name() const override { return "locality"; }
    std::uint32_t vaultOf(SetId id) const override;
    bool placesResults() const override { return true; }

    /** Pin @p id to @p vault (clamped into range). */
    void assign(SetId id, std::uint32_t vault);

    std::uint64_t assignedCount() const { return table_.size(); }

  private:
    std::unordered_map<SetId, std::uint32_t> table_;
    HashPlacement fallback_;
};

/**
 * Per-vault load accumulator for makespan-driven batch scheduling
 * (ScuConfig.routing = Balanced): the scheduler tracks how many
 * modeled cycles it has already queued on each vault within the
 * current dispatch and assigns every operation to the candidate vault
 * with the smallest completion time. Reset is sparse (only vaults
 * touched since the last reset are cleared), so the tracker is O(ops)
 * per dispatch even with 512 vaults, and the backing array is reused
 * across dispatches.
 */
class VaultLoads
{
  public:
    /** Clear all loads; (re)size the table to @p vaults entries. */
    void
    reset(std::uint32_t vaults)
    {
        if (loads_.size() != vaults) {
            loads_.assign(vaults, 0);
        } else {
            for (const std::uint32_t v : touched_)
                loads_[v] = 0;
        }
        touched_.clear();
        max_ = 0;
    }

    /** Cycles queued on vault @p v this dispatch. */
    std::uint64_t of(std::uint32_t v) const { return loads_[v]; }

    /**
     * Deepest queued vault so far -- the scheduler's running
     * makespan estimate: assignments that stay at or below it are
     * free with respect to the batch's modeled completion time.
     */
    std::uint64_t max() const { return max_; }

    /** Queue @p cycles more work on vault @p v. */
    void
    add(std::uint32_t v, std::uint64_t cycles)
    {
        if (cycles == 0)
            return;
        if (loads_[v] == 0)
            touched_.push_back(v);
        loads_[v] += cycles;
        if (loads_[v] > max_)
            max_ = loads_[v];
    }

  private:
    std::vector<std::uint64_t> loads_;
    std::vector<std::uint32_t> touched_;
    std::uint64_t max_ = 0;
};

/**
 * One expected operand pairing: the workload will issue operations
 * routed to @p a's vault with @p b as the co-operand (so co-locating
 * them saves @p weight interconnect transfers).
 */
struct TrafficArc
{
    SetId a = invalid_set;
    SetId b = invalid_set;
    std::uint64_t weight = 1;
};

/**
 * Greedy edge-locality placement: process sets in descending
 * traffic order and put each one where most of its already-placed
 * partners live, subject to a per-vault capacity of
 * max(2, ceil(capacity_slack * sets / vaults)) that preserves load
 * balance. Sets without placed partners fill the least-loaded vault.
 * Deterministic for a fixed arc list.
 */
std::shared_ptr<LocalityPlacement>
greedyLocalityPlacement(std::uint32_t vaults,
                        const std::vector<TrafficArc> &arcs,
                        double capacity_slack = 2.0);

/** Placement policies selectable by name (configs, the CLI). */
enum class PlacementKind : std::uint8_t { Hash, Locality };

/**
 * The placement name table: "hash" (also "") and "locality".
 * std::nullopt for any other name -- report it with placementNames().
 */
std::optional<PlacementKind> parsePlacement(std::string_view name);

/** The valid placement names, "hash | locality". */
std::string_view placementNames();

/**
 * Build a @p kind policy over @p vaults. @p arcs supplies the
 * workload's traffic and is called for Locality only.
 */
std::shared_ptr<PlacementPolicy>
makePlacement(PlacementKind kind, std::uint32_t vaults,
              const std::function<std::vector<TrafficArc>()> &arcs);

} // namespace sisa::isa

#endif // SISA_SISA_PLACEMENT_HPP
