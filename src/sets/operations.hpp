/**
 * @file
 * The set algorithms behind every SISA instruction variant of Table 5
 * (Section 6.2): merge and galloping intersection / union /
 * difference over sorted sparse arrays, SA-vs-DB probing, and bulk
 * bitwise DB-vs-DB operations, plus the fused cardinality-only
 * variants that avoid materializing intermediate results
 * (Section 6.2.3). Every routine reports an OpWork record with the
 * exact amount of streaming and random-access work it performed; the
 * SCU performance models (Section 8.3) and the Table 6 complexity
 * validation consume these counters.
 *
 * The compute itself is delegated to the vectorized bulk kernels in
 * sets/kernels.hpp; this layer adds the OpWork accounting in O(1) per
 * call (plus at most two branchless bisections), never per element.
 * The documented per-op formulas, with nA=|A|, nB=|B|, k=|A cap B|,
 * u=|A cup B|, d=|A \ B|, W=bitvector words, and
 * M1 = |{x in A : x <= m}| + |{x in B : x <= m}| for
 * m = min(max A, max B) (0 if either side is empty -- the elements a
 * two-pointer merge fetches before one side is exhausted):
 *
 *   op                  streamed          probes            words  output
 *   intersectMerge      M1                0                 0      k
 *   intersectCardMerge  M1                0                 0      k
 *   intersect[Card]Gallop min(nA,nB)      bisection steps   0      k
 *   intersect[Card]SaDb nA                nA                0      k
 *   intersect[Card]DbDb 0                 0                 W      k
 *   unionMerge          nA + nB           0                 0      u
 *   unionGallop         nA + nB           bisection steps   0      u
 *   unionSaDb           nA                nA                W      u
 *   unionDbDb           0                 0                 W      u
 *   differenceMerge     nA + |{b<=max A}| 0                 0      d
 *   differenceGallop    nA                nA bisections     0      d
 *   differenceSaDb      nA                nA                0      d
 *   differenceDbSa      nB                nB                W      d
 *   differenceDbDb      0                 0                 W      d
 *
 * "Bisection steps" is the closed-form branchless-search charge:
 * ceilLog2(range) + 1 per lower-bound call (kernels::lowerBound).
 * Cardinality-only variants charge the same outputElements as their
 * materializing twins (the logical result size) so set-size statistics
 * are comparable across variants. |A cup B| has no row of its own:
 * both engines compute it as nA + nB - |A cap B| and charge the
 * intersection-cardinality row.
 *
 * Why unionMerge stays on the scalar kernel while intersection and
 * difference are SIMD (kernels::setUnion): union is STORE-bound, not
 * compare-bound. Every input element is written to the output
 * (nA + nB stores, minus duplicates), so throughput is limited by
 * store bandwidth that a vector compress path cannot raise -- the
 * blocked all-pairs compare + VPERMD compress that gives
 * intersection ~10x only helps when most elements are FILTERED
 * (intersection keeps ~|A cap B|, difference ~|A \ B|). A compress
 * store also cannot emit the two-source sorted interleaving in one
 * step: merging blocks needs a bitonic network (min/max + shuffle
 * per lane pair) plus a cross-block dedup pass, whose shuffle
 * latency replaces perfectly predicted branches and raw stores. The
 * union_kernel_* rows of bench_microbench sit at store-bound parity
 * with the seed loop (medians 1.02-1.09x over 20 runs), so the
 * vectorized merge-network path is deliberately NOT built -- this
 * note gates it off until a workload shows union on the critical
 * path with small outputs (where a gallop copy already applies).
 *
 * Cycle-charge conventions on top of these work counters (the SCU's
 * Section 8.3 pricing; see sisa/scu.cpp):
 *
 *  - SA streams move 4-byte elements; DB streams move 8-byte 64-bit
 *    words. Mixed SA-vs-DB plans are compared in BYTES
 *    (mem::pnmStreamBytesCycles), never in raw element counts, and
 *    the W used for a DB stream is ceil(universe / 64) -- it rounds
 *    UP, so a sub-word universe still streams one word.
 *  - A zero-cardinality operand short-circuits the whole operation:
 *    intersection (and A \ B with |A| = 0) yields an empty set for a
 *    metadata-only charge; union (and A \ B with |B| = 0) degenerates
 *    to a copy of the live operand (RowClone for DBs, a stream for
 *    SAs). No merge/gallop plan is selected.
 *
 * Batched dispatch (sisa/batch.hpp, SetEngine::executeBatch): a
 * BatchRequest of N independent operations decodes ONCE, charges
 * metadata per operand, executes each operation with exactly the
 * kernels and OpWork formulas above (so batched == serial in results
 * and in total setops.* counters), routes operations to the
 * execution vault Scu::routeVault picks, and charges the issuing
 * thread the makespan of the slowest vault instead of the serial
 * sum. Operations inside a batch must not consume each other's
 * results.
 *
 * Routing (ScuConfig.routing): Primary executes every op in the
 * vault the placement policy (sisa/placement.hpp) assigns operand A.
 * Balanced schedules the whole batch against per-vault load:
 * operations are executed functionally first (caching their exact
 * charges), an LPT sweep assigns each -- most expensive first -- to the candidate
 * vault minimizing lane_depth + exec + interconnect(moved
 * co-operand), and a second sweep re-routes ops to byte-lighter
 * candidates (including "rider" lanes that already fetched the
 * co-operand this dispatch) whenever completion stays under
 * LPT-makespan x 1.5. A one-op batch (and a serial op) executes
 * where the LARGER operand (by footprint: SA 4 |S| bytes, DB
 * ceil(universe / 8) bytes) lives and moves only the smaller
 * co-operand, with ties keeping A's vault. Scheduler-estimated vs
 * charged cycles: there is NO divergence by construction -- the scheduler
 * consumes the very OpOutcome charges the lanes later bill, and its
 * transfer dedup is the same once-per-(vault, operand) rule the
 * charge path applies, so the scheduled lane depths equal the
 * charged lane cycles exactly (pinned in tests/test_placement.cpp).
 * Routing, like placement, moves only cycles and xvault counters.
 *
 * Cross-vault charges on top (batched dispatch only; priced with
 * mem::interconnectCycles(bytes) = l_M + ceil(bytes / b_L)):
 *
 *  - Operand transfer: an op whose co-operand lives in a different
 *    vault than its execution vault first moves the co-operand's
 *    footprint over the interconnect, charged into that vault's
 *    lane ONCE per (vault, operand) pair per dispatch -- the vault
 *    buffers remote operands for the dispatch's duration.
 *    Metadata-only short circuits (empty results, zero
 *    cardinalities) never touch the interconnect; a degenerate copy
 *    pays only for the operand it actually reads ({} cup B with a
 *    remote B streams B's bytes under Primary routing, and a one-op
 *    Balanced batch simply executes in B's vault). Counters:
 *    scu.xvault_transfers, setops.xvault_bytes.
 *  - Result reduction: a batch touching L > 1 vaults that charged
 *    vault work (metadata-only outcomes have nothing to send)
 *    reduces its results to the SCU as a ceil(log2 L)-level binary
 *    tree; each
 *    level's transfers run in parallel and cost the slowest sender
 *    (senders aggregate absorbed results; scalars count 8 bytes, SA
 *    results 4 |R| bytes, DB results ceil(universe / 8) bytes),
 *    added to the batch makespan. Counter:
 *    setops.xvault_reduce_bytes.
 *
 * Result sets adopted under a result-placing policy (locality) are
 * pinned to the vault that produced them (the SCU's
 * placement overlay), so recursion over intermediates stays local
 * instead of falling back to the hash assignment.
 *
 * Placement and routing move only these cycle charges and xvault
 * counters; results, result ids, the functional
 * setops.{streamed, probes, words, output} totals, and lastBackend()
 * are invariant (differential-tested per policy x routing in
 * tests/test_isa.cpp and tests/test_placement.cpp).
 */

#ifndef SISA_SETS_OPERATIONS_HPP
#define SISA_SETS_OPERATIONS_HPP

#include <cstdint>

#include "sets/dense_bitset.hpp"
#include "sets/sorted_array.hpp"

namespace sisa::sets {

/**
 * Work performed by one set operation, split by access pattern. The
 * split mirrors the "Main form of data transfer" column of Table 5:
 * streamed elements map to sequential-bandwidth cost, probes map to
 * random-access latency cost, and words map to in-situ row operations.
 */
struct OpWork
{
    std::uint64_t streamedElements = 0; ///< Elements read sequentially.
    std::uint64_t probes = 0;           ///< Random accesses (search/bit).
    std::uint64_t bitvectorWords = 0;   ///< 64-bit words processed.
    std::uint64_t outputElements = 0;   ///< Elements written out.

    OpWork &
    operator+=(const OpWork &other)
    {
        streamedElements += other.streamedElements;
        probes += other.probes;
        bitvectorWords += other.bitvectorWords;
        outputElements += other.outputElements;
        return *this;
    }
};

// --- Intersection (Section 6.2.1) ---------------------------------------

/** Merge intersection of sorted SAs; O(|A| + |B|). Table 5 op 0x0. */
SortedArraySet intersectMerge(const SortedArraySet &a,
                              const SortedArraySet &b, OpWork &work);

/**
 * Galloping intersection: scan the smaller set, binary-search the
 * larger; O(min log max). Table 5 op 0x1.
 */
SortedArraySet intersectGallop(const SortedArraySet &a,
                               const SortedArraySet &b, OpWork &work);

/** SA-vs-DB intersection: probe each array element; O(|A|). Op 0x3. */
SortedArraySet intersectSaDb(const SortedArraySet &a, const DenseBitset &b,
                             OpWork &work);

/** DB-vs-DB intersection: bulk bitwise AND; O(n / q R). Op 0x4. */
DenseBitset intersectDbDb(const DenseBitset &a, const DenseBitset &b,
                          OpWork &work);

// --- Fused cardinalities (Section 6.2.3) --------------------------------

/** |A cap B| by merging without materializing the result. */
std::uint64_t intersectCardMerge(const SortedArraySet &a,
                                 const SortedArraySet &b, OpWork &work);

/** |A cap B| by galloping without materializing the result. */
std::uint64_t intersectCardGallop(const SortedArraySet &a,
                                  const SortedArraySet &b, OpWork &work);

/** |A cap B| for SA vs DB. */
std::uint64_t intersectCardSaDb(const SortedArraySet &a,
                                const DenseBitset &b, OpWork &work);

/** |A cap B| for DB vs DB (popcount of the AND). */
std::uint64_t intersectCardDbDb(const DenseBitset &a, const DenseBitset &b,
                                OpWork &work);

// --- Union (Section 6.2.2) ----------------------------------------------

/** Merge union of sorted SAs; O(|A| + |B|). */
SortedArraySet unionMerge(const SortedArraySet &a, const SortedArraySet &b,
                          OpWork &work);

/**
 * Galloping union: stream the smaller set, locating insertion points
 * in the larger by binary search; O(|B| + |A| log |B|) with |A| the
 * smaller set.
 */
SortedArraySet unionGallop(const SortedArraySet &a, const SortedArraySet &b,
                           OpWork &work);

/** SA-vs-DB union: copy the DB and set each array element's bit. */
DenseBitset unionSaDb(const SortedArraySet &a, const DenseBitset &b,
                      OpWork &work);

/** DB-vs-DB union: bulk bitwise OR. */
DenseBitset unionDbDb(const DenseBitset &a, const DenseBitset &b,
                      OpWork &work);

// --- Difference (Section 6.2.2; A \ B = A AND NOT B on DBs) -------------

/** Merge difference A \ B of sorted SAs; O(|A| + |B|). */
SortedArraySet differenceMerge(const SortedArraySet &a,
                               const SortedArraySet &b, OpWork &work);

/** Galloping difference: probe each a in A against B; O(|A| log |B|). */
SortedArraySet differenceGallop(const SortedArraySet &a,
                                const SortedArraySet &b, OpWork &work);

/** SA \ DB: probe each array element's bit. */
SortedArraySet differenceSaDb(const SortedArraySet &a, const DenseBitset &b,
                              OpWork &work);

/** DB \ SA: copy the DB and clear each array element's bit. */
DenseBitset differenceDbSa(const DenseBitset &a, const SortedArraySet &b,
                           OpWork &work);

/** DB \ DB: bulk bitwise AND-NOT (Section 8.1's A cap B' rule). */
DenseBitset differenceDbDb(const DenseBitset &a, const DenseBitset &b,
                           OpWork &work);

} // namespace sisa::sets

#endif // SISA_SETS_OPERATIONS_HPP
