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
 *  - RangePlacement:    contiguous SetId blocks per vault -- ids
 *                       created together (e.g. consecutive vertex
 *                       neighborhoods) land together;
 *  - LocalityPlacement: an explicit per-set table, typically built by
 *                       greedyLocalityPlacement() from the traffic
 *                       arcs of the workload (co-locate each
 *                       neighborhood set with its highest-traffic
 *                       partners, seeded from the oriented graph's
 *                       arc structure);
 *  - DynamicPlacement:  a re-placement controller wrapping any base
 *                       policy: it ingests the observed cross-vault
 *                       transfers at each dispatch barrier and asks
 *                       the SCU to migrate sets that keep being
 *                       fetched into the same remote vault (the
 *                       migration itself is priced as an explicit
 *                       b_L transfer; counter scu.migrations). Heat
 *                       ages out: every decayHalfLife barriers the
 *                       accumulated observations halve, so stale
 *                       traffic cannot trigger migrations in long
 *                       runs whose access pattern has moved on.
 *
 * Policies are pure functions of the set id (and their frozen build
 * state): deterministic, thread-safe after construction, and
 * functionally invisible -- placement only moves cycle charges and
 * the cross-vault byte counters, never results. The authoritative
 * set-to-vault map is Scu::vaultOf, which consults its result/
 * migration overlay first and falls back to the installed policy;
 * policies that return placesResults() == true additionally have
 * adopted result sets pinned (via that overlay) to the vault that
 * produced them, so recursion intermediates (BK, k-clique) stay
 * local instead of falling back to the hash assignment.
 *
 * DynamicPlacement is the one policy with mutable observation state,
 * and its barrier hooks (observe / collectMigrations / decayBarrier /
 * forget) are NON-const so the mutation is visible in the type system
 * -- the Scu keeps a separate non-const handle to the installed
 * DynamicPlacement for exactly those calls, while routing still goes
 * through the const vaultOf interface. All mutation happens on the
 * dispatching thread at batch barriers, so a policy instance must not
 * be shared between Scus.
 */

#ifndef SISA_SISA_PLACEMENT_HPP
#define SISA_SISA_PLACEMENT_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <utility>
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

    /** Short policy name for reports ("hash" / "range" / ...). */
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
 * Contiguous SetId blocks: ids [k * blockSize, (k+1) * blockSize)
 * share vault k % vaults. Sets created back-to-back (vertex
 * neighborhoods materialized in vertex order) stay together, at the
 * cost of hot id ranges piling onto one vault.
 */
class RangePlacement final : public PlacementPolicy
{
  public:
    RangePlacement(std::uint32_t vaults, std::uint32_t block_size = 64)
        : PlacementPolicy(vaults),
          blockSize_(block_size ? block_size : 1)
    {
    }

    const char *name() const override { return "range"; }
    std::uint32_t vaultOf(SetId id) const override;
    std::uint32_t blockSize() const { return blockSize_; }

  private:
    std::uint32_t blockSize_;
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

/** Tuning knobs of DynamicPlacement's migration rule. */
struct DynamicPlacementConfig
{
    /**
     * Migrate a set once the bytes observed moving into one remote
     * vault reach migrateFactor times the set's footprint. Moving
     * costs one footprint transfer, so the default pays for itself
     * by the first post-migration dispatch that would have fetched
     * the set again.
     */
    double migrateFactor = 2.0;
    /**
     * Observation half-life in dispatch barriers: every
     * decayHalfLife barriers all accumulated per-(set, vault) heat
     * is halved (and zeroed records dropped), so traffic observed
     * long ago stops counting toward the migration threshold. A
     * long-running service whose access pattern drifts no longer
     * migrates sets on the strength of stale heat -- only traffic
     * sustained within a few half-lives can reach migrateFactor x
     * footprint. 0 disables decay (heat accumulates forever, the
     * pre-decay behavior).
     */
    std::uint32_t decayHalfLife = 64;
};

/** One migration decision: move @p id (at @p from) to @p to. */
struct MigrationEvent
{
    SetId id = invalid_set;
    std::uint32_t from = 0;
    std::uint32_t to = 0;
    std::uint64_t bytes = 0; ///< Footprint priced as one b_L transfer.
};

/**
 * Dynamic re-placement from observed cross-vault traffic. Wraps a
 * base policy (its vaultOf is the wrapped assignment -- the SCU's
 * overlay holds every deviation): at each dispatch barrier the SCU
 * feeds it the charged remote-operand transfers (observe) and then
 * collects the sets whose accumulated traffic into one vault crossed
 * the migrateFactor threshold (collectMigrations). The SCU applies
 * each migration to its overlay and charges the set's footprint as
 * an explicit b_L interconnect transfer (scu.migrations /
 * setops.migration_bytes).
 *
 * The observation hooks are non-const (see the file comment): the
 * SCU calls them through its dedicated DynamicPlacement handle, and
 * all mutation happens on the dispatching thread at barriers. Heat
 * resets on migration, so a set must earn another
 * migrateFactor x footprint of traffic before it moves again
 * (ping-pong damping). Deterministic: decisions depend only on the
 * observation sequence, never on hash iteration order.
 */
class DynamicPlacement final : public PlacementPolicy
{
  public:
    explicit DynamicPlacement(
        std::shared_ptr<const PlacementPolicy> base,
        DynamicPlacementConfig config = {});

    const char *name() const override { return "dynamic"; }
    std::uint32_t vaultOf(SetId id) const override
    {
        return base_->vaultOf(id);
    }
    bool placesResults() const override { return true; }

    const PlacementPolicy &base() const { return *base_; }
    const DynamicPlacementConfig &config() const { return config_; }

    /**
     * Record one charged remote-operand transfer: @p id (currently
     * homed in @p from) was pulled into @p into, moving @p bytes.
     */
    void observe(SetId id, std::uint32_t from, std::uint32_t into,
                 std::uint64_t bytes);

    /**
     * Drain the sets whose observed traffic crossed the migration
     * threshold, sorted by id (deterministic order). Their heat
     * records are erased.
     */
    std::vector<MigrationEvent> collectMigrations();

    /**
     * Close one dispatch barrier: after decayHalfLife barriers, halve
     * every accumulated heat record and drop the ones that decayed to
     * zero. Called by the SCU once per dispatch (after migrations are
     * collected, so the barrier's own observations count in full).
     */
    void decayBarrier();

    /** Drop all state for @p id (the set was destroyed/recycled). */
    void forget(SetId id);

    /** Number of sets currently carrying heat (introspection). */
    std::uint64_t trackedSets() const { return heat_.size(); }

  private:
    struct Heat
    {
        std::uint32_t from = 0;      ///< Home vault at last observation.
        std::uint64_t footprint = 0; ///< Bytes at last observation.
        /** Observed bytes per destination vault (small, flat). */
        std::vector<std::pair<std::uint32_t, std::uint64_t>> perVault;
    };

    std::shared_ptr<const PlacementPolicy> base_;
    DynamicPlacementConfig config_;
    std::unordered_map<SetId, Heat> heat_;
    std::uint32_t barriersSinceDecay_ = 0;
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
 * Permanently failed vaults and the deterministic remap off them
 * (the fault model's quarantine protocol, see sisa/faults.hpp). A
 * quarantined vault stops receiving placements: Scu::vaultOf remaps
 * every assignment that lands on a dead vault to the next live vault
 * scanning upward with wraparound -- a pure function of the dead set,
 * so re-placement stays deterministic across worker counts and
 * identical for policy and overlay assignments alike. The last live
 * vault can never be quarantined (add refuses).
 */
class QuarantineSet
{
  public:
    /** Forget all failures; (re)size to @p vaults vaults. */
    void reset(std::uint32_t vaults);

    /** Any vault quarantined? (The vaultOf fast-path guard.) */
    bool any() const { return deadCount_ != 0; }

    std::uint32_t deadCount() const { return deadCount_; }
    std::uint32_t vaults() const
    {
        return static_cast<std::uint32_t>(dead_.size());
    }

    bool contains(std::uint32_t vault) const
    {
        return vault < dead_.size() && dead_[vault];
    }

    /**
     * Quarantine @p vault. Returns false if it already was (no-op).
     * Throws UnrecoverableFaultError when @p vault is the last live
     * vault -- with nowhere left to re-place, the failure is fatal.
     */
    bool add(std::uint32_t vault);

    /**
     * The vault @p vault's residents and operations re-place to: the
     * next non-quarantined vault at or above @p vault, wrapping.
     */
    std::uint32_t remap(std::uint32_t vault) const;

  private:
    std::vector<bool> dead_;
    std::uint32_t deadCount_ = 0;
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
enum class PlacementKind : std::uint8_t { Hash, Range, Locality };

/**
 * The placement name table: "hash" (also ""), "range", "locality".
 * std::nullopt for any other name -- report it with placementNames().
 */
std::optional<PlacementKind> parsePlacement(std::string_view name);

/** The valid placement names, "hash | range | locality". */
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
