#include "sisa/scu.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <unordered_set>

#include "support/bits.hpp"
#include "support/logging.hpp"

namespace sisa::isa {

using sets::OpWork;

namespace {

using sim::CounterId;
using sim::internCounter;

/**
 * Every counter the SCU bumps, interned once on first use: the hot
 * paths add by id, and names are resolved only when a context
 * reports (SimContext::counters).
 */
struct ScuCounters
{
    const CounterId asyncDispatches = internCounter("scu.async_dispatches");
    const CounterId asyncDrains = internCounter("scu.async_drains");
    const CounterId asyncSyncs = internCounter("scu.async_syncs");
    const CounterId batchDispatches = internCounter("scu.batch_dispatches");
    const CounterId batchOps = internCounter("scu.batch_ops");
    const CounterId cancelDrains = internCounter("scu.cancel_drains");
    const CounterId pnmRandomOps = internCounter("scu.pnm_random_ops");
    const CounterId pnmStreamOps = internCounter("scu.pnm_stream_ops");
    const CounterId pumOps = internCounter("scu.pum_ops");
    const CounterId shortCircuits = internCounter("scu.short_circuits");
    const CounterId smDramLookups = internCounter("scu.sm_dram_lookups");
    const CounterId smbHits = internCounter("scu.smb_hits");
    const CounterId smbMisses = internCounter("scu.smb_misses");
    const CounterId xvaultTransfers = internCounter("scu.xvault_transfers");
    const CounterId cancelledCycles = internCounter("setops.cancelled_cycles");
    const CounterId output = internCounter("setops.output");
    const CounterId probes = internCounter("setops.probes");
    const CounterId streamed = internCounter("setops.streamed");
    const CounterId words = internCounter("setops.words");
    const CounterId xvaultBytes = internCounter("setops.xvault_bytes");
    const CounterId xvaultReduceBytes =
        internCounter("setops.xvault_reduce_bytes");
};

const ScuCounters &
ids()
{
    static const ScuCounters instance;
    return instance;
}

/**
 * Balanced routing's bytes-vs-makespan slack: after the LPT pass
 * establishes the best achievable batch makespan M*, the byte-
 * harvesting pass may deepen a lane up to M* x (1 + balanced_slack)
 * to keep an operation at its byte-lighter vault.
 */
constexpr double balanced_slack = 0.5;

/** One (vault, operand) transfer in the scheduler's dedup set. */
std::uint64_t
fetchKey(std::uint32_t vault, SetId id)
{
    return (static_cast<std::uint64_t>(vault) << 32) | id;
}

} // namespace

std::optional<Routing>
parseRouting(std::string_view name)
{
    if (name.empty() || name == "primary")
        return Routing::Primary;
    if (name == "balanced")
        return Routing::Balanced;
    return std::nullopt;
}

std::string_view
routingNames()
{
    return "primary | balanced";
}

Scu::Scu(SetStore &store, const ScuConfig &config,
         std::uint32_t num_threads)
    : store_(store), config_(config)
{
    if (config_.batchWorkers != 1) {
        throw std::invalid_argument(
            "ScuConfig::batchWorkers = " +
            std::to_string(config_.batchWorkers) +
            ": batches always pre-execute inline on the dispatching "
            "thread, so the only accepted value is 1");
    }
    const std::uint32_t vaults =
        std::max<std::uint32_t>(config_.pim.vaults, 1);
    placement_ = std::make_shared<HashPlacement>(vaults);
    if (config_.smbEnabled) {
        // The SMB is a small associative scratchpad over SM entries;
        // model it as a 4-way cache with 16-byte lines (one entry).
        mem::CacheConfig smb_cfg;
        smb_cfg.sizeBytes = config_.smbBytes;
        smb_cfg.associativity = 4;
        smb_cfg.lineBytes = 16;
        const std::uint32_t count = config_.smbShared ? 1 : num_threads;
        for (std::uint32_t i = 0; i < count; ++i)
            smbs_.push_back(std::make_unique<mem::Cache>(smb_cfg));
    }
}

void
Scu::chargeMetadata(sim::SimContext &ctx, sim::ThreadId tid, SetId id)
{
    if (!config_.smbEnabled) {
        // SM lives in memory: every lookup is a DRAM access.
        ctx.chargeBusy(tid, config_.pim.dramLatency);
        ctx.bumpCounter(ids().smDramLookups);
        return;
    }
    mem::Cache &smb = config_.smbShared ? *smbs_[0] : *smbs_[tid];
    const bool hit = smb.access(store_.metadataAddr(id));
    mem::Cycles latency = config_.pim.smbHitLatency;
    if (config_.smbShared)
        latency += config_.smbSharedExtraLatency;
    if (!hit)
        latency += config_.pim.dramLatency;
    ctx.chargeBusy(tid, latency);
    ctx.bumpCounter(hit ? ids().smbHits : ids().smbMisses);
}

// --- Section 8.3 cost predictors ------------------------------------------

mem::Cycles
Scu::pumCost(std::uint64_t n_bits, std::uint32_t row_ops) const
{
    const mem::Cycles base = mem::pumBulkCycles(config_.pim, n_bits);
    const mem::Cycles per_op = base - config_.pim.dramLatency;
    return config_.pim.dramLatency + per_op * row_ops;
}

mem::Cycles
Scu::streamCost(std::uint64_t max_elems) const
{
    return mem::pnmStreamCycles(config_.pim, max_elems,
                                sizeof(Element));
}

mem::Cycles
Scu::streamDbWordsCost(std::uint64_t words) const
{
    return mem::pnmStreamBytesCycles(config_.pim,
                                     words * sets::db_word_bytes);
}

mem::Cycles
Scu::randomCost(std::uint64_t probes) const
{
    return mem::pnmRandomCycles(config_.pim, probes);
}

Scu::MixedPlan
Scu::mixedProbePlan(std::uint64_t array_size) const
{
    // SA-vs-DB operations: either probe one bit per array element
    // (independent accesses, overlapped on the PNM core) or stream
    // the whole bitvector past the array. Both plans are priced in
    // bytes -- 4 B per SA element, 8 B per 64-bit DB word -- so the
    // comparison is unit-consistent, and the word count rounds UP
    // (a universe smaller than one word still streams that word).
    const std::uint64_t db_bytes =
        sets::dbWords(store_.universe()) * sets::db_word_bytes;
    const std::uint64_t sa_bytes = array_size * sizeof(Element);
    const mem::Cycles probe_cost =
        mem::pnmIndependentRandomCycles(config_.pim, array_size);
    const mem::Cycles stream_cost = mem::pnmStreamBytesCycles(
        config_.pim, std::max(sa_bytes, db_bytes));
    if (stream_cost < probe_cost)
        return {Backend::PnmStream, stream_cost};
    return {Backend::PnmRandom, probe_cost};
}

// --- Charging wrappers (serial issue and element ops) ---------------------

void
Scu::chargePum(sim::SimContext &ctx, sim::ThreadId tid,
               std::uint64_t n_bits, std::uint32_t row_ops)
{
    ctx.chargeBusy(tid, pumCost(n_bits, row_ops));
    ctx.bumpCounter(ids().pumOps);
    lastBackend_ = Backend::Pum;
}

void
Scu::chargePnmStream(sim::SimContext &ctx, sim::ThreadId tid,
                     std::uint64_t max_elems)
{
    ctx.chargeBusy(tid, streamCost(max_elems));
    ctx.bumpCounter(ids().pnmStreamOps);
    lastBackend_ = Backend::PnmStream;
}

void
Scu::chargePnmRandom(sim::SimContext &ctx, sim::ThreadId tid,
                     std::uint64_t probes)
{
    ctx.chargeBusy(tid, randomCost(probes));
    ctx.bumpCounter(ids().pnmRandomOps);
    lastBackend_ = Backend::PnmRandom;
}

void
Scu::recordWork(sim::SimContext &ctx, const OpWork &work)
{
    // Bulk counters from the kernel layer (one O(1) charge per set
    // operation; see the formula table in sets/operations.hpp).
    ctx.bumpCounter(ids().streamed, work.streamedElements);
    ctx.bumpCounter(ids().probes, work.probes);
    ctx.bumpCounter(ids().words, work.bitvectorWords);
    ctx.bumpCounter(ids().output, work.outputElements);
}

bool
Scu::wouldGallop(std::uint64_t size_a, std::uint64_t size_b) const
{
    const std::uint64_t small = std::min(size_a, size_b);
    const std::uint64_t big = std::max(size_a, size_b);
    if (small == 0) {
        // A zero-cardinality operand short-circuits the whole
        // operation (see executeBinary); it must not pick a plan.
        return false;
    }
    if (config_.gallopThreshold > 0.0) {
        return static_cast<double>(big) >=
               config_.gallopThreshold * static_cast<double>(small);
    }
    // Section 8.3: predict both variants, pick the cheaper one.
    const mem::Cycles merge_cost =
        mem::pnmStreamCycles(config_.pim, big, sizeof(Element));
    const mem::Cycles gallop_cost = mem::pnmRandomCycles(
        config_.pim, mem::predictedGallopProbes(small, big));
    return gallop_cost < merge_cost;
}

// --- The shared plan-and-execute path -------------------------------------

Scu::OpOutcome
Scu::executeBinary(BatchOpKind kind, SetId a, SetId b,
                   SisaOp variant) const
{
    OpOutcome out;
    const bool a_dense = store_.isDense(a);
    const bool b_dense = store_.isDense(b);
    const std::uint64_t card_a = store_.cardinality(a);
    const std::uint64_t card_b = store_.cardinality(b);

    // Resolve the merge-vs-galloping knob for SA-SA pairs.
    const auto resolve = [&](SisaOp merge_op, SisaOp gallop_op) {
        if (variant == merge_op)
            return false;
        if (variant == gallop_op)
            return true;
        return wouldGallop(card_a, card_b);
    };

    // Materialize a copy of @p id (the degenerate result of a union
    // or difference against an empty operand): RowClone for DBs, a
    // vault stream for SAs.
    const auto copySet = [&](SetId id) {
        const std::uint64_t card = store_.cardinality(id);
        if (store_.isDense(id)) {
            out.payload = store_.db(id);
            out.work.bitvectorWords +=
                sets::dbWords(store_.universe());
            out.addCharge(Backend::Pum,
                          pumCost(store_.universe(), /*row_ops=*/1));
        } else {
            const auto span = store_.sa(id).elements();
            out.payload = SortedArraySet(
                std::vector<Element>(span.begin(), span.end()));
            out.work.streamedElements += card;
            out.addCharge(Backend::PnmStream, streamCost(card));
        }
        out.work.outputElements += card;
    };

    switch (kind) {
      case BatchOpKind::Intersect: {
        if (card_a == 0 || card_b == 0) {
            // Short-circuit: the SM already proves the result empty;
            // charge nothing beyond decode + metadata.
            out.payload = SortedArraySet();
            out.shortCircuited = true;
            out.readsA = out.readsB = false;
            break;
        }
        if (a_dense && b_dense) {
            // Two bitvectors are always processed with SISA-PUM (3c).
            out.payload = sets::intersectDbDb(store_.db(a),
                                              store_.db(b), out.work);
            out.addCharge(Backend::Pum,
                          pumCost(store_.universe(), /*row_ops=*/1));
        } else if (a_dense != b_dense) {
            out.payload = sets::intersectSaDb(
                a_dense ? store_.sa(b) : store_.sa(a),
                a_dense ? store_.db(a) : store_.db(b), out.work);
            const MixedPlan plan =
                mixedProbePlan(a_dense ? card_b : card_a);
            out.addCharge(plan.backend, plan.cycles);
        } else if (resolve(SisaOp::IntersectMerge,
                           SisaOp::IntersectGallop)) {
            out.payload = sets::intersectGallop(store_.sa(a),
                                                store_.sa(b), out.work);
            out.addCharge(Backend::PnmRandom,
                          randomCost(out.work.probes));
        } else {
            out.payload = sets::intersectMerge(store_.sa(a),
                                               store_.sa(b), out.work);
            out.addCharge(Backend::PnmStream,
                          streamCost(std::max(card_a, card_b)));
        }
        break;
      }

      case BatchOpKind::Union: {
        if (card_a == 0 || card_b == 0) {
            // A cup {} degenerates to a copy of the live operand;
            // only that operand's payload is read.
            copySet(card_a == 0 ? b : a);
            out.shortCircuited = true;
            out.readsA = card_a != 0;
            out.readsB = card_a == 0;
            break;
        }
        if (a_dense && b_dense) {
            out.payload = sets::unionDbDb(store_.db(a), store_.db(b),
                                          out.work);
            out.addCharge(Backend::Pum,
                          pumCost(store_.universe(), /*row_ops=*/1));
        } else if (a_dense != b_dense) {
            const std::uint64_t array_size = a_dense ? card_b : card_a;
            out.payload = sets::unionSaDb(
                a_dense ? store_.sa(b) : store_.sa(a),
                a_dense ? store_.db(a) : store_.db(b), out.work);
            // RowClone the DB copy, then set the SA's bits.
            out.addCharge(Backend::Pum,
                          pumCost(store_.universe(), /*row_ops=*/1));
            const MixedPlan plan = mixedProbePlan(array_size);
            out.addCharge(plan.backend, plan.cycles);
        } else if (resolve(SisaOp::UnionMerge, SisaOp::UnionGallop)) {
            out.payload = sets::unionGallop(store_.sa(a), store_.sa(b),
                                            out.work);
            out.addCharge(Backend::PnmRandom,
                          randomCost(out.work.probes +
                                     std::min(card_a, card_b)));
            // The copied larger run still streams through the vault.
            out.addCharge(Backend::PnmStream,
                          streamCost(std::max(card_a, card_b)));
        } else {
            out.payload = sets::unionMerge(store_.sa(a), store_.sa(b),
                                           out.work);
            out.addCharge(Backend::PnmStream,
                          streamCost(card_a + card_b));
        }
        break;
      }

      case BatchOpKind::Difference: {
        if (card_a == 0) {
            out.payload = SortedArraySet();
            out.shortCircuited = true;
            out.readsA = out.readsB = false;
            break;
        }
        if (card_b == 0) {
            copySet(a);
            out.shortCircuited = true;
            out.readsB = false;
            break;
        }
        if (a_dense && b_dense) {
            // A \ B = A AND (NOT B): in-situ NOT plus AND (8.1).
            out.payload = sets::differenceDbDb(store_.db(a),
                                               store_.db(b), out.work);
            out.addCharge(Backend::Pum,
                          pumCost(store_.universe(), /*row_ops=*/2));
        } else if (!a_dense && b_dense) {
            out.payload = sets::differenceSaDb(store_.sa(a),
                                               store_.db(b), out.work);
            const MixedPlan plan = mixedProbePlan(card_a);
            out.addCharge(plan.backend, plan.cycles);
        } else if (a_dense && !b_dense) {
            out.payload = sets::differenceDbSa(store_.db(a),
                                               store_.sa(b), out.work);
            out.addCharge(Backend::Pum,
                          pumCost(store_.universe(),
                                  /*row_ops=*/1)); // Copy.
            const MixedPlan plan = mixedProbePlan(card_b);
            out.addCharge(plan.backend, plan.cycles);
        } else if (resolve(SisaOp::DifferenceMerge,
                           SisaOp::DifferenceGallop)) {
            out.payload = sets::differenceGallop(
                store_.sa(a), store_.sa(b), out.work);
            out.addCharge(Backend::PnmRandom,
                          randomCost(out.work.probes));
        } else {
            out.payload = sets::differenceMerge(
                store_.sa(a), store_.sa(b), out.work);
            out.addCharge(Backend::PnmStream,
                          streamCost(std::max(card_a, card_b)));
        }
        break;
      }

      case BatchOpKind::IntersectCard:
      case BatchOpKind::UnionCard: {
        if (card_a == 0 || card_b == 0) {
            out.scalar = 0;
            out.shortCircuited = true;
            out.readsA = out.readsB = false;
        } else if (a_dense && b_dense) {
            out.scalar = sets::intersectCardDbDb(store_.db(a),
                                                 store_.db(b), out.work);
            // In-situ AND, then the logic layer streams the result
            // row for the population count: ceil(universe / 64)
            // 8-byte words (truncating this streamed 0 words for
            // sub-word universes).
            out.addCharge(Backend::Pum,
                          pumCost(store_.universe(), /*row_ops=*/1));
            out.addCharge(Backend::PnmStream,
                          streamDbWordsCost(
                              sets::dbWords(store_.universe())));
        } else if (a_dense != b_dense) {
            const auto &array = a_dense ? store_.sa(b) : store_.sa(a);
            const auto &bits = a_dense ? store_.db(a) : store_.db(b);
            out.scalar = sets::intersectCardSaDb(array, bits, out.work);
            const MixedPlan plan = mixedProbePlan(array.size());
            out.addCharge(plan.backend, plan.cycles);
        } else if (resolve(SisaOp::IntersectMerge,
                           SisaOp::IntersectGallop)) {
            out.scalar = sets::intersectCardGallop(
                store_.sa(a), store_.sa(b), out.work);
            out.addCharge(Backend::PnmRandom,
                          randomCost(out.work.probes));
        } else {
            out.scalar = sets::intersectCardMerge(
                store_.sa(a), store_.sa(b), out.work);
            out.addCharge(Backend::PnmStream,
                          streamCost(std::max(card_a, card_b)));
        }
        if (kind == BatchOpKind::UnionCard) {
            // |A cup B| = |A| + |B| - |A cap B| (O(1) metadata).
            out.scalar = card_a + card_b - out.scalar;
        }
        break;
      }
    }
    return out;
}

void
Scu::chargeOutcome(sim::SimContext &ctx, sim::ThreadId tid,
                   const OpOutcome &outcome)
{
    for (std::uint32_t i = 0; i < outcome.numCharges; ++i) {
        const OpCharge &charge = outcome.charges[i];
        ctx.chargeBusy(tid, charge.cycles);
        switch (charge.backend) {
          case Backend::Pum:
            ctx.bumpCounter(ids().pumOps);
            break;
          case Backend::PnmStream:
            ctx.bumpCounter(ids().pnmStreamOps);
            break;
          case Backend::PnmRandom:
            ctx.bumpCounter(ids().pnmRandomOps);
            break;
          case Backend::None:
            break;
        }
    }
    if (outcome.shortCircuited)
        ctx.bumpCounter(ids().shortCircuits);
    recordWork(ctx, outcome.work);
}

void
Scu::applyOutcome(sim::SimContext &ctx, sim::ThreadId tid,
                  const OpOutcome &outcome)
{
    chargeOutcome(ctx, tid, outcome);
    retainOrUpdateLastBackend(outcome);
}

void
Scu::retainOrUpdateLastBackend(const OpOutcome &outcome)
{
    // Metadata-only outcomes executed on no backend: lastBackend_
    // keeps reporting the last op that actually charged one. Serial
    // issue applies this per op; batched dispatch applies it to the
    // last charging op of the batch (its backward scan), so both
    // paths agree on any operation sequence.
    if (outcome.numCharges) {
        lastBackend_ =
            outcome.charges[outcome.numCharges - 1].backend;
    }
}

SetId
Scu::adoptPlacedOutcome(OpOutcome &&outcome, SetId a, SetId b)
{
    const SetId result = adoptOutcome(std::move(outcome));
    if (placement_->placesResults())
        placeResult(result, resolveRoute(a, b).vault);
    return result;
}

SetId
Scu::adoptOutcome(OpOutcome &&outcome)
{
    if (std::holds_alternative<SortedArraySet>(outcome.payload)) {
        return store_.adopt(
            std::get<SortedArraySet>(std::move(outcome.payload)));
    }
    if (std::holds_alternative<DenseBitset>(outcome.payload)) {
        return store_.adopt(
            std::get<DenseBitset>(std::move(outcome.payload)));
    }
    return invalid_set;
}

// --- Serial instruction issue ---------------------------------------------

Scu::OpOutcome
Scu::issueSerial(sim::SimContext &ctx, sim::ThreadId tid,
                 BatchOpKind kind, SetId a, SetId b, SisaOp variant)
{
    syncRead(ctx, tid, a); // RAW edge into the async window.
    syncRead(ctx, tid, b);
    ctx.chargeBusy(tid, config_.pim.scuDelay);
    chargeMetadata(ctx, tid, a);
    chargeMetadata(ctx, tid, b);
    ctx.recordSetSize(tid, store_.cardinality(a));
    ctx.recordSetSize(tid, store_.cardinality(b));
    OpOutcome out = executeBinary(kind, a, b, variant);
    applyOutcome(ctx, tid, out);
    return out;
}

SetId
Scu::issueSetOp(sim::SimContext &ctx, sim::ThreadId tid,
                BatchOpKind kind, SetId a, SetId b, SisaOp variant)
{
    const SetId result = adoptPlacedOutcome(
        issueSerial(ctx, tid, kind, a, b, variant), a, b);
    traceOp(variant, result, a, b);
    return result;
}

SetId
Scu::intersect(sim::SimContext &ctx, sim::ThreadId tid, SetId a, SetId b,
               SisaOp variant)
{
    return issueSetOp(ctx, tid, BatchOpKind::Intersect, a, b, variant);
}

SetId
Scu::setUnion(sim::SimContext &ctx, sim::ThreadId tid, SetId a, SetId b,
              SisaOp variant)
{
    return issueSetOp(ctx, tid, BatchOpKind::Union, a, b, variant);
}

SetId
Scu::difference(sim::SimContext &ctx, sim::ThreadId tid, SetId a, SetId b,
                SisaOp variant)
{
    return issueSetOp(ctx, tid, BatchOpKind::Difference, a, b, variant);
}

std::uint64_t
Scu::intersectCard(sim::SimContext &ctx, sim::ThreadId tid, SetId a,
                   SetId b, SisaOp variant)
{
    const std::uint64_t card =
        issueSerial(ctx, tid, BatchOpKind::IntersectCard, a, b, variant)
            .scalar;
    traceOp(SisaOp::IntersectCard, 0, a, b);
    return card;
}

std::uint64_t
Scu::unionCard(sim::SimContext &ctx, sim::ThreadId tid, SetId a, SetId b)
{
    // |A cup B| = |A| + |B| - |A cap B|: cardinalities are O(1)
    // metadata, so only the intersection cardinality costs cycles.
    const std::uint64_t card =
        issueSerial(ctx, tid, BatchOpKind::UnionCard, a, b,
                    SisaOp::IntersectAuto)
            .scalar;
    traceOp(SisaOp::UnionCard, 0, a, b);
    return card;
}

// --- Batched dispatch ------------------------------------------------------

std::uint32_t
Scu::vaultOf(SetId id) const
{
    // Overlay first (results pinned where they materialized), then
    // the installed policy.
    // setPlacement guarantees the policy's width matches pim.vaults,
    // so no modulo folding is needed (the old defensive clamp
    // silently skewed mismatched policies).
    const auto it =
        overlay_.empty() ? overlay_.end() : overlay_.find(id);
    return it != overlay_.end() ? it->second : placement_->vaultOf(id);
}

std::uint32_t
Scu::routeVault(const BatchOp &op) const
{
    return resolveRoute(op.a, op.b).vault;
}

Scu::OpRoute
Scu::resolveRoute(SetId a, SetId b) const
{
    const std::uint32_t vault_a = vaultOf(a);
    const std::uint32_t vault_b = vaultOf(b);
    if (vault_a == vault_b)
        return {vault_a, invalid_set, 0, true};
    if (config_.routing == Routing::Balanced) {
        // Balanced outside a batch context (serial ops, result
        // placement, one-op batches), where the LPT greedy over empty
        // lanes reduces to exactly this rule: run where the bigger
        // operand lives; only the smaller co-operand crosses the
        // interconnect. Weights are the bytes the operand would
        // actually move: a zero-cardinality operand is never read
        // (every short-circuit copies the OTHER side), so it weighs
        // nothing even as a dense bitvector with a full-row footprint
        // -- {} cup B always executes in B's vault for free. Ties keep
        // a's vault, so Primary behavior is the exact tie-break
        // fallback.
        const std::uint64_t bytes_a =
            store_.cardinality(a) ? operandBytes(a) : 0;
        const std::uint64_t bytes_b =
            store_.cardinality(b) ? operandBytes(b) : 0;
        if (bytes_a < bytes_b)
            return {vault_b, a, operandBytes(a), false};
    }
    return {vault_a, b, operandBytes(b), true};
}

void
Scu::setPlacement(std::shared_ptr<const PlacementPolicy> policy)
{
    const std::uint32_t vaults =
        std::max<std::uint32_t>(config_.pim.vaults, 1);
    if (policy && policy->vaults() != vaults) {
        // A policy built for a different vault count would previously
        // be folded by modulo, silently skewing the assignment it was
        // constructed to produce. Reject it and rebuild the hash
        // fallback at the correct width instead.
        sisa_warn("placement policy '", policy->name(), "' built for ",
                  policy->vaults(), " vaults installed on a ", vaults,
                  "-vault SCU; falling back to hash placement");
        policy = nullptr;
    }
    placement_ = policy ? std::move(policy)
                        : std::make_shared<HashPlacement>(vaults);
    overlay_.clear();
}

void
Scu::placeResult(SetId id, std::uint32_t vault)
{
    if (id == invalid_set)
        return;
    if (placement_->placesResults())
        overlay_[id] = vault;
    else
        overlay_.erase(id); // Scrub a recycled slot's stale entry.
}

void
Scu::forgetPlacement(SetId id)
{
    overlay_.erase(id);
    // A destroyed (or recycled) id starts with a clean dependency
    // slate: the WAW rule of the async window's scoreboard.
    if (windowCtx_)
        deps_.forget(id);
}

std::uint64_t
Scu::operandBytes(SetId id) const
{
    return store_.payloadBytes(id);
}

std::uint64_t
Scu::resultBytes(const OpOutcome &outcome) const
{
    if (std::holds_alternative<SortedArraySet>(outcome.payload)) {
        return std::get<SortedArraySet>(outcome.payload).size() *
               sizeof(Element);
    }
    if (std::holds_alternative<DenseBitset>(outcome.payload))
        return store_.denseBytes();
    return 8; // Scalar result register.
}

void
Scu::bindQuery(QueryScheduler &sched, sim::QueryId query,
               const sim::SimContext &ctx)
{
    sisa_assert(!sched_, "bindQuery: already bound to a scheduler");
    sched_ = &sched;
    query_ = query;
    schedBase_ = ctx.totalCycles();
    demand_.lanes.clear();
    cancelled_ = false;
    cancelVerdict_ = QueryState::Running;
}

DispatchDemand
Scu::unbindQuery(const sim::SimContext &ctx)
{
    sisa_assert(sched_, "unbindQuery: not bound");
    DispatchDemand tail;
    tail.own = ctx.totalCycles() - schedBase_;
    tail.lanes = std::move(demand_.lanes);
    sched_ = nullptr;
    query_ = sim::no_query;
    schedBase_ = 0;
    demand_.lanes.clear();
    cancelled_ = false;
    cancelVerdict_ = QueryState::Running;
    return tail;
}

void
Scu::admitDispatch(sim::SimContext &ctx, sim::ThreadId tid)
{
    if (!sched_)
        return;
    // Once cancelled, the query stays cancelled: any further gated
    // dispatch attempted while the algorithm unwinds (e.g. from a
    // catch block) rethrows instead of re-entering the scheduler --
    // the grant slot is already spoken for until leave().
    if (cancelled_)
        throw QueryCancelledError(query_, cancelVerdict_);
    const QueryState verdict = sched_->admit(query_);
    if (verdict == QueryState::Running)
        return;
    cancelled_ = true;
    cancelVerdict_ = verdict;
    ctx.bumpCounter(ids().cancelDrains);
    (void)tid; // The window's bound thread pays the drain.
    cancelWindow();
    throw QueryCancelledError(query_, verdict);
}

void
Scu::cancelWindow()
{
    if (!windowCtx_)
        return;
    // Same settlement as drainWindow -- the bound thread pays the
    // pending modeled completions -- but booked as cancellation
    // cost: the abandoned batches' vault time was already spent on
    // the shared clocks, so it must be priced, not dropped. The
    // uncollected tickets' functional results die with the session's
    // store; only the timing ledger survives into the leave() tail.
    sim::SimContext &ctx = *windowCtx_;
    if (const mem::Cycles waited = closeWindow())
        ctx.bumpCounter(ids().cancelledCycles, waited);
}

void
Scu::reportDispatch(const sim::SimContext &ctx)
{
    if (!sched_)
        return;
    DispatchDemand demand;
    demand.own = ctx.totalCycles() - schedBase_;
    schedBase_ = ctx.totalCycles();
    demand.lanes = std::move(demand_.lanes);
    demand_.lanes.clear();
    sched_->report(query_, std::move(demand));
}

mem::Cycles
Scu::outcomeCycles(const OpOutcome &outcome)
{
    mem::Cycles total = 0;
    for (std::uint32_t i = 0; i < outcome.numCharges; ++i)
        total += outcome.charges[i].cycles;
    return total;
}

void
Scu::preExecuteOutcomes(const BatchRequest &batch)
{
    // Nothing is charged here: lanes are laid out in modeled time
    // afterwards.
    for (std::uint32_t i = 0; i < batch.size(); ++i) {
        const BatchOp &op = batch.ops[i];
        outcomes_[i] = executeBinary(op.kind, op.a, op.b, op.variant);
    }
}

mem::Cycles
Scu::routeLpt(const BatchRequest &batch)
{
    // LPT order: most expensive operations choose their vault first
    // (stable, so equal-cost ops keep request order -- deterministic).
    schedOrder_.resize(batch.size());
    for (std::uint32_t i = 0; i < batch.size(); ++i)
        schedOrder_[i] = i;
    std::stable_sort(schedOrder_.begin(), schedOrder_.end(),
                     [&](std::uint32_t x, std::uint32_t y) {
                         return outcomeCycles(outcomes_[x]) >
                                outcomeCycles(outcomes_[y]);
                     });
    schedLoads_.reset(std::max<std::uint32_t>(config_.pim.vaults, 1));
    schedFetched_.clear();
    for (const std::uint32_t i : schedOrder_) {
        const BatchOp &op = batch.ops[i];
        const OpOutcome &out = outcomes_[i];
        const mem::Cycles exec = outcomeCycles(out);
        const std::uint32_t va = vaultOf(op.a);
        const std::uint32_t vb = vaultOf(op.b);
        if (va == vb) {
            routes_[i] = {va, invalid_set, 0, true};
            schedLoads_.add(va, exec);
            continue;
        }
        // The transfer each assignment would pay NOW: the co-operand
        // footprint's interconnect cost, unless the operand is never
        // read (short circuits, degenerate copies) or an already-
        // scheduled op pulled it into that vault.
        const std::uint64_t bytes_b =
            out.readsB ? operandBytes(op.b) : 0;
        const std::uint64_t bytes_a =
            out.readsA ? operandBytes(op.a) : 0;
        const mem::Cycles xfer_at_a =
            bytes_b && !schedFetched_.count(fetchKey(va, op.b))
                ? mem::interconnectCycles(config_.pim, bytes_b)
                : 0;
        const mem::Cycles xfer_at_b =
            bytes_a && !schedFetched_.count(fetchKey(vb, op.a))
                ? mem::interconnectCycles(config_.pim, bytes_a)
                : 0;
        if (schedLoads_.of(vb) + exec + xfer_at_b <
            schedLoads_.of(va) + exec + xfer_at_a) {
            routes_[i] = {vb, op.a, operandBytes(op.a), false};
            schedLoads_.add(vb, exec + xfer_at_b);
            if (xfer_at_b)
                schedFetched_.insert(fetchKey(vb, op.a));
        } else {
            routes_[i] = {va, op.b, operandBytes(op.b), true};
            schedLoads_.add(va, exec + xfer_at_a);
            if (xfer_at_a)
                schedFetched_.insert(fetchKey(va, op.b));
        }
    }
    return schedLoads_.max();
}

void
Scu::scheduleBalanced(const BatchRequest &batch)
{
    // Pass 1 -- LPT list scheduling on completion time alone
    // (routeLpt), with the once-per-(vault, operand) transfer dedup
    // the charge path applies priced in (so the scheduled depths
    // equal the billed lane cycles exactly). This pass only
    // establishes the makespan M* a balanced schedule achieves;
    // every route is rewritten by pass 2, which re-runs the sweep
    // with byte harvesting under the M*-derived cap.
    const mem::Cycles lpt_makespan = routeLpt(batch);

    // Pass 2 -- transfer-aware byte harvesting: re-run the greedy
    // sweep, but among every candidate vault whose completion time
    // stays under M* x (1 + balanced_slack), pick the one putting the
    // FEWEST new bytes on the interconnect (cost, then a-first order
    // break remaining ties); only when no candidate fits the cap does
    // pure completion time decide. Candidates are the two operand
    // vaults plus every "rider" vault that is already paying the
    // co-operand's transfer this dispatch: an op sharing set B can run
    // in any lane B was fetched into, moving only its own (usually
    // small) A -- that is how a batch full of ops against one shared
    // set spreads across several lanes at the traffic of the
    // bigger-operand rule instead of serializing in B's home vault. Ops
    // the cap rejects keep their completion-time-optimal vault, so the
    // final makespan is at most max(cap, unavoidable single-op costs).
    // Both passes reuse the cached outcomes; nothing re-executes, and
    // the scheduled depths stay exactly the cycles the lanes later
    // charge.
    const auto cap = static_cast<mem::Cycles>(
        static_cast<double>(lpt_makespan) * (1.0 + balanced_slack));
    schedLoads_.reset(std::max<std::uint32_t>(config_.pim.vaults, 1));
    schedFetched_.clear();
    schedFetchedVaults_.clear();
    const auto pay_transfer = [&](std::uint32_t vault, SetId operand) {
        if (schedFetched_.insert(fetchKey(vault, operand)).second)
            schedFetchedVaults_[operand].push_back(vault);
    };
    struct Candidate
    {
        std::uint32_t vault = 0;
        mem::Cycles cost = 0;
        std::uint64_t newBytes = 0;
        mem::Cycles xfer = 0;
        SetId remote = invalid_set;
        bool remoteIsB = true;
    };
    for (const std::uint32_t i : schedOrder_) {
        const BatchOp &op = batch.ops[i];
        const OpOutcome &out = outcomes_[i];
        const mem::Cycles exec = outcomeCycles(out);
        const std::uint32_t va = vaultOf(op.a);
        const std::uint32_t vb = vaultOf(op.b);
        if (va == vb) {
            routes_[i] = {va, invalid_set, 0, true};
            schedLoads_.add(va, exec);
            continue;
        }
        const std::uint64_t bytes_b =
            out.readsB ? operandBytes(op.b) : 0;
        const std::uint64_t bytes_a =
            out.readsA ? operandBytes(op.a) : 0;
        const auto make_candidate =
            [&](std::uint32_t vault, SetId moved,
                std::uint64_t moved_bytes,
                bool moved_is_b) -> Candidate {
            const mem::Cycles xfer =
                moved_bytes &&
                        !schedFetched_.count(fetchKey(vault, moved))
                    ? mem::interconnectCycles(config_.pim,
                                              moved_bytes)
                    : 0;
            return {vault, schedLoads_.of(vault) + exec + xfer,
                    xfer ? moved_bytes : 0, xfer, moved, moved_is_b};
        };
        // Deterministic candidate order: a's vault, b's vault, then
        // rider vaults in first-fetch order. Selection prefers (in
        // lexicographic order) under-cap, fewer new bytes, lower
        // cost, earlier candidate -- so ties keep a's vault and a
        // one-op batch reproduces the bigger-operand rule exactly.
        const mem::Cycles cap_eff = std::max(cap, schedLoads_.max());
        Candidate best = make_candidate(va, op.b, bytes_b, true);
        bool best_under = best.cost <= cap_eff;
        const auto consider = [&](const Candidate &cand) {
            const bool under = cand.cost <= cap_eff;
            if (under != best_under) {
                if (under) {
                    best = cand;
                    best_under = true;
                }
                return;
            }
            if (under
                    ? (cand.newBytes < best.newBytes ||
                       (cand.newBytes == best.newBytes &&
                        cand.cost < best.cost))
                    : cand.cost < best.cost) {
                best = cand;
            }
        };
        consider(make_candidate(vb, op.a, bytes_a, false));
        if (out.readsA && out.readsB) {
            // Rider lanes already hold b; only a would move. (Vaults
            // already holding a are never cheaper than vb for this
            // op's bytes, so indexing b's fetches suffices.)
            const auto it = schedFetchedVaults_.find(op.b);
            if (it != schedFetchedVaults_.end()) {
                for (const std::uint32_t v : it->second) {
                    if (v != va && v != vb)
                        consider(
                            make_candidate(v, op.a, bytes_a, false));
                }
            }
        }
        routes_[i] = {best.vault, best.remote,
                      operandBytes(best.remote), best.remoteIsB};
        schedLoads_.add(best.vault, exec + best.xfer);
        if (best.xfer)
            pay_transfer(best.vault, best.remote);
    }
}

void
Scu::appendLanes(std::uint32_t n)
{
    // First-touch grouping of ops by execution vault: a new lane per
    // vault first seen, so lane order (= order of first appearance)
    // is deterministic. The scratch vault->lane table persists across
    // dispatches; the lanes created here reset their entries
    // afterwards.
    vaultLane_.resize(std::max<std::uint32_t>(config_.pim.vaults, 1),
                      UINT32_MAX);
    laneVault_.clear();
    for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint32_t vault = routes_[i].vault;
        std::uint32_t lane = vaultLane_[vault];
        if (lane == UINT32_MAX) {
            lane = static_cast<std::uint32_t>(laneVault_.size());
            vaultLane_[vault] = lane;
            laneVault_.push_back(vault);
            if (laneOps_.size() <= lane)
                laneOps_.emplace_back();
            laneOps_[lane].clear();
        }
        laneOps_[lane].push_back(i);
    }
    for (const std::uint32_t vault : laneVault_)
        vaultLane_[vault] = UINT32_MAX;
}

mem::Cycles
Scu::chargeLaneOp(std::uint32_t i)
{
    // The accounting half of op i, billed into serialCtx_ with
    // serialFetched_ deduping the lane's remote operand pulls (scope:
    // one lane within one dispatch).
    sim::SimContext &wctx = serialCtx_;
    const mem::Cycles before = wctx.threadCycles(0);
    const OpRoute &route = routes_[i];
    const OpOutcome &outcome = outcomes_[i];
    const bool reads_remote =
        route.remoteIsB ? outcome.readsB : outcome.readsA;
    if (route.bytes && reads_remote &&
        serialFetched_.insert(route.remote)) {
        wctx.chargeBusy(0,
                        mem::interconnectCycles(config_.pim, route.bytes));
        wctx.bumpCounter(ids().xvaultTransfers);
        wctx.bumpCounter(ids().xvaultBytes, route.bytes);
    }
    chargeOutcome(wctx, 0, outcome);
    return wctx.threadCycles(0) - before;
}

mem::Cycles
Scu::layLanes(const BatchRequest &batch, mem::Cycles issue,
              const std::vector<std::uint64_t> *ready)
{
    // Lanes run concurrently; a lane's ops serialize. Each op's exact
    // cost comes back from chargeLaneOp, and starts at its lane's
    // clock -- and, in a window (@p ready set), no earlier than its
    // scoreboard ready time, on a lane clock that persists across the
    // window's batches: precisely where the overlap win comes from. A
    // barrier lays every lane from @p issue, so the latest lane end is
    // issue + the makespan.
    mem::Cycles end = issue;
    for (std::uint32_t l = 0; l < laneVault_.size(); ++l) {
        const std::uint32_t vault = laneVault_[l];
        serialFetched_.clear();
        mem::Cycles clock =
            ready ? std::max(laneClockV_[vault], issue) : issue;
        mem::Cycles busy = 0;
        for (const std::uint32_t i : laneOps_[l]) {
            const mem::Cycles cost = chargeLaneOp(i);
            busy += cost;
            if (!ready) {
                clock += cost;
                continue;
            }
            clock = std::max<mem::Cycles>(clock, (*ready)[i]) + cost;
            // Payload reads end when the op does: the WAR horizon
            // for serial mutations of the operands.
            if (outcomes_[i].readsA)
                deps_.noteRead(batch.ops[i].a, clock);
            if (outcomes_[i].readsB)
                deps_.noteRead(batch.ops[i].b, clock);
        }
        if (ready)
            laneClockV_[vault] = clock;
        end = std::max(end, clock);
        // Shared-vault occupancy for the admission model: the lane's
        // busy time is its charge total.
        noteVaultBusy(vault, busy);
    }
    return end;
}

mem::Cycles
Scu::reduceResults(sim::SimContext &ctx, mem::Cycles batch_end,
                   bool windowed)
{
    // Cross-vault result reduction: a multi-vault batch funnels its
    // per-vault results back to the SCU as a binary tree over the b_L
    // interconnect. Each level runs its transfers in parallel and
    // costs the slowest sender; a sender's payload accumulates the
    // results it already absorbed. Metadata-only outcomes (zero
    // charges: the SCU front end proved them from the SM alone) have
    // nothing in any vault to send, so only lanes that charged vault
    // work participate -- degenerate copies DID materialize data and
    // reduce like any other result. Lane order is the deterministic
    // first-touch order. The SCU has ONE tree, so in a window it
    // starts no earlier than the previous batch's reduction ended.
    laneResultBytes_.clear();
    for (std::uint32_t l = 0; l < laneVault_.size(); ++l) {
        std::uint64_t bytes = 0;
        bool executed = false;
        for (const std::uint32_t i : laneOps_[l]) {
            if (outcomes_[i].numCharges == 0)
                continue;
            executed = true;
            bytes += resultBytes(outcomes_[i]);
        }
        if (executed)
            laneResultBytes_.push_back(bytes);
    }
    if (laneResultBytes_.size() <= 1)
        return batch_end;
    mem::Cycles completion =
        windowed ? std::max(batch_end, reduceEndV_) : batch_end;
    std::uint64_t reduce_bytes = 0;
    std::size_t len = laneResultBytes_.size();
    while (len > 1) {
        mem::Cycles level = 0;
        std::size_t out = 0;
        for (std::size_t i = 0; i + 1 < len; i += 2) {
            level = std::max(level,
                             mem::interconnectCycles(
                                 config_.pim, laneResultBytes_[i + 1]));
            reduce_bytes += laneResultBytes_[i + 1];
            laneResultBytes_[out++] =
                laneResultBytes_[i] + laneResultBytes_[i + 1];
        }
        if (len % 2)
            laneResultBytes_[out++] = laneResultBytes_[len - 1];
        len = out;
        completion += level;
    }
    ctx.bumpCounter(ids().xvaultReduceBytes, reduce_bytes);
    if (windowed)
        reduceEndV_ = completion;
    return completion;
}

BatchResult
Scu::dispatchBatch(sim::SimContext &ctx, sim::ThreadId tid,
                   const BatchRequest &batch)
{
    return dispatch(ctx, tid, batch, /*windowed=*/false);
}

BatchHandle
Scu::dispatchAsync(sim::SimContext &ctx, sim::ThreadId tid,
                   const BatchRequest &batch)
{
    BatchResult result = dispatch(ctx, tid, batch, config_.asyncDepth > 0);
    const std::uint64_t ticket = nextTicket_++;
    pendingResults_.emplace(ticket, std::move(result));
    return BatchHandle{ticket};
}

BatchResult
Scu::dispatch(sim::SimContext &ctx, sim::ThreadId tid,
              const BatchRequest &batch, bool windowed)
{
    // A barrier closes any async window first (charging its bound
    // thread), so lane clocks and the scoreboard never leak between
    // the two retire rules; a windowed dispatch from a foreign
    // (context, thread) drains it too.
    if (windowed)
        ensureWindowContext(ctx, tid);
    else if (windowCtx_)
        drainWindow(*windowCtx_, windowTid_);
    BatchResult result;
    const std::size_t n = batch.size();
    if (n == 0) {
        // An empty dispatch charges nothing, but it is a size-0 use
        // of the scratch: it must advance the shrink window (and
        // reset its peak), or a burst followed by a quiet stream of
        // empty dispatches would pin the burst's allocation forever.
        // An open window stays open.
        maybeShrinkScratch(0);
        return result;
    }

    // --- Admit -----------------------------------------------------------
    // Serving admission: block until the scheduler grants this query
    // a dispatch slot. Sits before any charge, so co-tenant
    // dispatches interleave at whole-dispatch boundaries. A
    // cancellation verdict cancel-drains the window and throws
    // QueryCancelledError from here.
    admitDispatch(ctx, tid);

    // Open the window lazily on the first overlapped dispatch.
    // Modeled time inside it is virtual: cycles past windowBase_.
    if (windowed && !windowCtx_) {
        windowCtx_ = &ctx;
        windowTid_ = tid;
        windowBase_ = ctx.threadCycles(tid);
        laneClockV_.assign(
            std::max<std::uint32_t>(config_.pim.vaults, 1), 0);
        maxCompletionV_ = 0;
        reduceEndV_ = 0;
        deps_.clear();
    }

    // In-order front end: one decode for the whole batch, then one
    // serial metadata round per operand on the SCU (the SMB is shared
    // state). These charges advance real (and so virtual) time.
    ctx.chargeBusy(tid, config_.pim.scuDelay);
    ctx.bumpCounter(ids().batchDispatches);
    ctx.bumpCounter(ids().batchOps, n);
    for (const BatchOp &op : batch.ops) {
        chargeMetadata(ctx, tid, op.a);
        chargeMetadata(ctx, tid, op.b);
        ctx.recordSetSize(tid, store_.cardinality(op.a));
        ctx.recordSetSize(tid, store_.cardinality(op.b));
    }

    // --- Execute functionally --------------------------------------------
    // Eager and in program order as far as results go: every op runs
    // up front, so each lane can be laid out from exact cycle costs
    // and the Balanced scheduler can plan on the very charges that
    // are later billed.
    if (outcomes_.size() < n)
        outcomes_.resize(n);
    if (routes_.size() < n)
        routes_.resize(n);
    preExecuteOutcomes(batch);

    // --- Route -----------------------------------------------------------
    // Primary resolves each op independently from metadata;
    // Balanced runs the LPT scheduler over the exact cycle charges,
    // so its routes reflect per-vault load. Then one serial queue
    // ("lane") per touched vault. Operations whose co-operand stayed
    // in a different vault first pull its bytes over the
    // interconnect (charged once per (vault, operand) pair -- the
    // vault buffers the remote operand for the dispatch's duration).
    if (config_.routing == Routing::Balanced) {
        scheduleBalanced(batch);
    } else {
        for (std::uint32_t i = 0; i < n; ++i)
            routes_[i] = resolveRoute(batch.ops[i].a, batch.ops[i].b);
    }
    appendLanes(static_cast<std::uint32_t>(n));

    // --- Lay lanes out in modeled time -----------------------------------
    // Every lane is billed serially into serialCtx_ (tagged with the
    // issuing query); its counters merge into ctx below, so counter
    // totals do not depend on the retire rule. A window issues at
    // virtual now against its scoreboard (incremental cross-batch DAG
    // join -- O(ops), not a rebuild); a barrier lays lanes from fresh
    // clocks at 0.
    sim::SimContext &acct = serialCtx_;
    acct.reset(1);
    acct.bindQuery(ctx.activeQuery());
    const mem::Cycles issue = windowed ? nowV() : 0;
    std::vector<std::uint64_t> ready;
    if (windowed)
        ready = deps_.joinBatch(batch, issue);
    const mem::Cycles batch_end =
        layLanes(batch, issue, windowed ? &ready : nullptr);

    // --- Reduce ----------------------------------------------------------
    const mem::Cycles completion = reduceResults(ctx, batch_end, windowed);
    ctx.absorbCounters(acct);

    // --- Retire ----------------------------------------------------------
    // A barrier charges the issuing thread the whole span at once:
    // the slowest lane's makespan plus the reduction tree. A window
    // charges nothing yet; the ROB step below pays only real waits.
    if (!windowed)
        ctx.chargeBusy(tid, completion - issue);

    // lastBackend_ reports the last operation (in request = serial
    // order) that actually charged a backend; a batch whose tail ops
    // were all metadata-only leaves the previous value in place,
    // exactly as issuing them serially would (one shared rule:
    // retainOrUpdateLastBackend).
    for (std::uint32_t i = static_cast<std::uint32_t>(n); i-- > 0;) {
        if (outcomes_[i].numCharges) {
            retainOrUpdateLastBackend(outcomes_[i]);
            break;
        }
    }

    // Materialize results in request order (ids deterministic and
    // identical to a serial issue of the same operations). Adopted
    // results are pinned to the vault that produced them when the
    // policy places results, so recursion over intermediates stays
    // local. In a window every materialized result is a pending def
    // until the batch's reduction completes -- results ride the tree
    // back to the SCU together, so one conservative def time covers
    // the batch.
    result.entries.resize(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        const BatchOp &op = batch.ops[i];
        BatchEntry &entry = result.entries[i];
        entry.value = outcomes_[i].scalar;
        if (!std::holds_alternative<std::monostate>(
                outcomes_[i].payload)) {
            entry.set = adoptOutcome(std::move(outcomes_[i]));
            entry.value = store_.cardinality(entry.set);
            placeResult(entry.set, routes_[i].vault);
            if (windowed)
                deps_.noteDef(entry.set, completion);
        }
        SisaOp traced = op.variant;
        if (op.kind == BatchOpKind::IntersectCard)
            traced = SisaOp::IntersectCard;
        else if (op.kind == BatchOpKind::UnionCard)
            traced = SisaOp::UnionCard;
        traceOp(traced, entry.set == invalid_set ? 0 : entry.set, op.a,
                op.b);
    }
    maybeShrinkScratch(n);

    if (windowed) {
        // Join the ROB, then retire its head past the window depth:
        // the front end may run at most asyncDepth batches ahead, so
        // the issuing thread stalls to the oldest pending completion
        // first -- in-order retirement, exactly like a ROB.
        maxCompletionV_ = std::max(maxCompletionV_, completion);
        pendingCompletions_.push_back(completion);
        ctx.bumpCounter(ids().asyncDispatches);
        while (pendingCompletions_.size() > config_.asyncDepth) {
            const mem::Cycles retire = pendingCompletions_.front();
            pendingCompletions_.pop_front();
            const mem::Cycles now = nowV();
            if (retire > now) {
                ctx.chargeStall(tid, retire - now);
                ctx.bumpCounter(ids().asyncSyncs);
            }
        }
    }
    reportDispatch(ctx);
    return result;
}

void
Scu::maybeShrinkScratch(std::size_t n)
{
    scratchPeak_ = std::max(scratchPeak_, n);
    if (++scratchDispatches_ < scratch_window)
        return;
    // A window of dispatches never needed more than scratchPeak_
    // entries: release capacity beyond twice that watermark so a
    // one-off burst batch does not pin its allocation for the whole
    // process lifetime (long-running services stay flat).
    const auto shrink = [](auto &vec, std::size_t keep) {
        if (vec.capacity() > 2 * std::max<std::size_t>(keep, 1)) {
            // Never grow: shrinking a short vector to the watermark
            // would append value-initialized live entries.
            vec.resize(std::min(vec.size(), keep));
            vec.shrink_to_fit();
        }
    };
    shrink(outcomes_, scratchPeak_);
    shrink(routes_, scratchPeak_);
    shrink(schedOrder_, scratchPeak_);
    shrink(laneResultBytes_, scratchPeak_);
    shrink(laneVault_, scratchPeak_);
    for (auto &lane : laneOps_)
        shrink(lane, scratchPeak_);
    shrink(laneOps_, scratchPeak_);
    // The balanced scheduler's hash tables hold at most one entry
    // per op: clear() keeps their bucket arrays, so they need the
    // same burst release as the vectors (swap-with-fresh is the only
    // portable way to shrink them).
    if (schedFetched_.bucket_count() >
        2 * std::max<std::size_t>(scratchPeak_, 16)) {
        std::unordered_set<std::uint64_t>().swap(schedFetched_);
    }
    if (schedFetchedVaults_.bucket_count() >
        2 * std::max<std::size_t>(scratchPeak_, 16)) {
        std::unordered_map<SetId, std::vector<std::uint32_t>>().swap(
            schedFetchedVaults_);
    }
    scratchDispatches_ = 0;
    scratchPeak_ = n;
}

// --- Async dispatch window -------------------------------------------------

void
Scu::ensureWindowContext(sim::SimContext &ctx, sim::ThreadId tid)
{
    // One window, one owner: any other (context, thread) arriving at
    // the SCU is a synchronization point -- the bound thread pays its
    // pending completions and the window closes.
    if (windowCtx_ && (windowCtx_ != &ctx || windowTid_ != tid))
        drainWindow(*windowCtx_, windowTid_);
}

void
Scu::drainWindow(sim::SimContext &, sim::ThreadId)
{
    if (!windowCtx_)
        return;
    windowCtx_->bumpCounter(ids().asyncDrains);
    closeWindow();
}

mem::Cycles
Scu::closeWindow()
{
    // Charges land on the BOUND thread regardless of who forced the
    // close: the window's wait belongs to the thread that ran ahead.
    const mem::Cycles now = nowV();
    const mem::Cycles wait =
        maxCompletionV_ > now ? maxCompletionV_ - now : 0;
    if (wait)
        windowCtx_->chargeStall(windowTid_, wait);
    windowCtx_ = nullptr;
    pendingCompletions_.clear();
    deps_.clear();
    laneClockV_.clear();
    maxCompletionV_ = 0;
    reduceEndV_ = 0;
    return wait;
}

void
Scu::syncRead(sim::SimContext &ctx, sim::ThreadId tid, SetId id)
{
    if (!windowCtx_)
        return;
    ensureWindowContext(ctx, tid);
    if (!windowCtx_)
        return; // Foreign context: the drain already synchronized.
    const mem::Cycles def = deps_.defTime(id);
    const mem::Cycles now = nowV();
    if (def > now) {
        ctx.chargeStall(tid, def - now);
        ctx.bumpCounter(ids().asyncSyncs);
    }
}

void
Scu::syncWrite(sim::SimContext &ctx, sim::ThreadId tid, SetId id)
{
    if (!windowCtx_)
        return;
    ensureWindowContext(ctx, tid);
    if (!windowCtx_)
        return;
    // A mutation must wait for the pending def (RAW) and for every
    // pending payload read of the set (WAR).
    const mem::Cycles horizon =
        std::max(deps_.defTime(id), deps_.lastRead(id));
    const mem::Cycles now = nowV();
    if (horizon > now) {
        ctx.chargeStall(tid, horizon - now);
        ctx.bumpCounter(ids().asyncSyncs);
    }
}


BatchResult
Scu::collectBatch(sim::SimContext &, sim::ThreadId, BatchHandle handle)
{
    // ROB value forwarding: the in-order front end completed the
    // batch functionally at dispatch, so redeeming the ticket reads
    // the SCU's result registers -- no charge, no synchronization.
    const auto it = pendingResults_.find(handle.ticket);
    sisa_assert(it != pendingResults_.end(),
                "collectBatch: unknown or already-collected ticket");
    BatchResult out = std::move(it->second);
    pendingResults_.erase(it);
    return out;
}

std::uint64_t
Scu::cardinality(sim::SimContext &ctx, sim::ThreadId tid, SetId a)
{
    ctx.chargeBusy(tid, config_.pim.scuDelay);
    chargeMetadata(ctx, tid, a);
    traceOp(SisaOp::Cardinality, 0, a);
    return store_.cardinality(a);
}

bool
Scu::member(sim::SimContext &ctx, sim::ThreadId tid, SetId a, Element x)
{
    syncRead(ctx, tid, a); // Probes the payload: RAW into the window.
    ctx.chargeBusy(tid, config_.pim.scuDelay);
    chargeMetadata(ctx, tid, a);
    if (store_.isDense(a)) {
        chargePnmRandom(ctx, tid, 1); // Single bit probe.
        return store_.db(a).test(x);
    }
    const auto &sa = store_.sa(a);
    const std::uint64_t probes =
        sa.size() == 0 ? 1 : support::ceilLog2(sa.size()) + 1;
    chargePnmRandom(ctx, tid, probes);
    return sa.contains(x);
}

void
Scu::insert(sim::SimContext &ctx, sim::ThreadId tid, SetId a, Element x)
{
    syncWrite(ctx, tid, a); // Mutation: WAR/RAW into the window.
    ctx.chargeBusy(tid, config_.pim.scuDelay);
    chargeMetadata(ctx, tid, a);
    if (store_.isDense(a)) {
        chargePnmRandom(ctx, tid, 1); // Table 5 op 0x5: one bit set.
    } else {
        // Sorted insert shifts the array tail through the vault.
        chargePnmStream(ctx, tid, store_.cardinality(a) + 1);
    }
    traceOp(SisaOp::InsertElement, a, a);
    store_.insert(a, x);
}

void
Scu::remove(sim::SimContext &ctx, sim::ThreadId tid, SetId a, Element x)
{
    syncWrite(ctx, tid, a); // Mutation: WAR/RAW into the window.
    ctx.chargeBusy(tid, config_.pim.scuDelay);
    chargeMetadata(ctx, tid, a);
    if (store_.isDense(a)) {
        chargePnmRandom(ctx, tid, 1); // Table 5 op 0x6: one bit clear.
    } else {
        chargePnmStream(ctx, tid, store_.cardinality(a));
    }
    traceOp(SisaOp::RemoveElement, a, a);
    store_.remove(a, x);
}

SetId
Scu::create(sim::SimContext &ctx, sim::ThreadId tid,
            std::vector<Element> elems, SetRepr repr)
{
    ctx.chargeBusy(tid, config_.pim.scuDelay);
    const std::uint64_t count = elems.size();
    const SetId id = store_.createFromSorted(std::move(elems), repr);
    forgetPlacement(id); // The slot may recycle a pinned set's id.
    if (repr == SetRepr::DenseBitvector) {
        chargePum(ctx, tid, store_.universe(), /*row_ops=*/1); // Zero.
        if (count)
            chargePnmRandom(ctx, tid, count);
    } else {
        chargePnmStream(ctx, tid, count);
    }
    chargeMetadata(ctx, tid, id); // SM entry installation.
    traceOp(SisaOp::CreateSet, id, invalid_set);
    return id;
}

SetId
Scu::createEmpty(sim::SimContext &ctx, sim::ThreadId tid, SetRepr repr)
{
    return create(ctx, tid, {}, repr);
}

SetId
Scu::createFull(sim::SimContext &ctx, sim::ThreadId tid)
{
    ctx.chargeBusy(tid, config_.pim.scuDelay);
    const SetId id = store_.createFull();
    forgetPlacement(id);
    chargePum(ctx, tid, store_.universe(), /*row_ops=*/1);
    chargeMetadata(ctx, tid, id);
    return id;
}

SetId
Scu::clone(sim::SimContext &ctx, sim::ThreadId tid, SetId a)
{
    syncRead(ctx, tid, a); // Streams the payload: RAW into the window.
    ctx.chargeBusy(tid, config_.pim.scuDelay);
    chargeMetadata(ctx, tid, a);
    const SetId id = store_.clone(a);
    forgetPlacement(id);
    if (store_.isDense(a)) {
        chargePum(ctx, tid, store_.universe(), /*row_ops=*/1); // RowClone.
    } else {
        chargePnmStream(ctx, tid, store_.cardinality(a));
    }
    chargeMetadata(ctx, tid, id);
    traceOp(SisaOp::CloneSet, id, a);
    return id;
}

void
Scu::destroy(sim::SimContext &ctx, sim::ThreadId tid, SetId a)
{
    syncWrite(ctx, tid, a); // Release: pending readers finish first.
    ctx.chargeBusy(tid, config_.pim.scuDelay);
    chargeMetadata(ctx, tid, a);
    traceOp(SisaOp::DeleteSet, 0, a);
    forgetPlacement(a);
    store_.destroy(a);
}

} // namespace sisa::isa
