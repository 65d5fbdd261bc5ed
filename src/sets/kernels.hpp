/**
 * @file
 * Vectorized bulk set kernels: the raw compute layer underneath the
 * Table 5 set operations in sets/operations.hpp. Every kernel works
 * on plain sorted spans / word arrays, performs no OpWork accounting
 * of its own, and returns exactly the quantities (result size, probe
 * totals) that let the caller derive the OpWork counters in O(1) per
 * call. This is the dispatch seam future parallel and PIM backends
 * plug into: operations.cpp calls through this header only.
 *
 * Three ISA tiers are selected at compile time from the compiler's
 * feature macros:
 *
 *   Avx2    8-lane blocked all-pairs compare (VPCMPEQD over lane
 *           rotations) with table-driven VPERMD compress stores.
 *   Sse2    4-lane blocked all-pairs compare with scalar mask drains.
 *   Scalar  branchless (cmov-friendly) two-pointer merges.
 *
 * All tiers are bit-identical: the blocked kernels advance whichever
 * block has the smaller maximum, so every pair of overlapping blocks
 * is co-resident for exactly one compare, which preserves order and
 * emits each match once (the invariant QFilter/BMiss-style stream
 * intersection relies on).
 */

#ifndef SISA_SETS_KERNELS_HPP
#define SISA_SETS_KERNELS_HPP

#include <cstddef>
#include <cstdint>
#include <span>

#include "sets/sorted_array.hpp"

namespace sisa::sets::kernels {

/** Vector instruction tier compiled into this binary. */
enum class IsaTier { Scalar, Sse2, Avx2 };

// Define SISA_FORCE_SCALAR_KERNELS to pin the scalar tier on any
// hardware (differential testing, portable builds).
#if !defined(SISA_FORCE_SCALAR_KERNELS) && defined(__AVX2__)
inline constexpr IsaTier active_tier = IsaTier::Avx2;
/** Elements per vector block in the active tier. */
inline constexpr std::size_t block_elems = 8;
#elif !defined(SISA_FORCE_SCALAR_KERNELS) &&                             \
    (defined(__SSE2__) || defined(_M_X64) || defined(__x86_64__))
inline constexpr IsaTier active_tier = IsaTier::Sse2;
inline constexpr std::size_t block_elems = 4;
#else
inline constexpr IsaTier active_tier = IsaTier::Scalar;
inline constexpr std::size_t block_elems = 1;
#endif

/** Human-readable name of the active tier ("avx2", "sse2", "scalar"). */
const char *tierName();

// --- Branchless galloping search ----------------------------------------

/** Position plus the number of bisection probes the search charged. */
struct SearchResult
{
    std::uint64_t pos;
    std::uint64_t probes;
};

/**
 * Branchless lower bound over elems[lo, elems.size()): first index
 * whose element is >= @p target. The bisection executes a fixed
 * probe count for a given range length (ceilLog2(len) + 1, 0 for an
 * empty range), so the probe charge is a closed form rather than a
 * per-iteration counter -- this is what SortedArraySet::contains and
 * every galloping kernel use.
 */
SearchResult lowerBound(std::span<const Element> elems, std::uint64_t lo,
                        Element target);

/** Number of elements <= @p v (branchless upper bound). */
std::uint64_t countNotGreater(std::span<const Element> elems, Element v);

// --- Sorted-array merge kernels -----------------------------------------
//
// Inputs are sorted and duplicate-free; `out` must have capacity for
// the worst-case result (min(|A|,|B|) for intersection, |A|+|B| for
// union, |A| for difference) PLUS block_elems slack slots: the
// compress stores of the blocked tiers always write a full vector,
// then only advance the cursor by the match count. Each kernel
// returns the logical result size.

/** A cap B into @p out. */
std::size_t intersect(std::span<const Element> a,
                      std::span<const Element> b, Element *out);

/** |A cap B| without materializing. */
std::uint64_t intersectCard(std::span<const Element> a,
                            std::span<const Element> b);

/** A cup B into @p out. */
std::size_t setUnion(std::span<const Element> a,
                     std::span<const Element> b, Element *out);

/** A \ B into @p out. */
std::size_t difference(std::span<const Element> a,
                       std::span<const Element> b, Element *out);

// --- Sorted-array galloping kernels -------------------------------------
//
// The caller passes the streamed (smaller) operand first where the
// algorithm is symmetric. Each kernel accumulates its bisection work
// into @p probes using the closed-form charge of lowerBound().

/** Gallop @p small through @p large, materializing the intersection. */
std::size_t intersectGallop(std::span<const Element> small,
                            std::span<const Element> large, Element *out,
                            std::uint64_t &probes);

/** Cardinality-only galloping intersection. */
std::uint64_t intersectCardGallop(std::span<const Element> small,
                                  std::span<const Element> large,
                                  std::uint64_t &probes);

/**
 * Galloping union: stream @p small, binary-search insertion points in
 * @p large, copying the skipped runs. Emits the same sorted result as
 * setUnion().
 */
std::size_t unionGallop(std::span<const Element> small,
                        std::span<const Element> large, Element *out,
                        std::uint64_t &probes);

/**
 * Galloping difference A \ B: each element of @p a is searched in the
 * full range of @p b (the Table 6 O(|A| log |B|) form).
 */
std::size_t differenceGallop(std::span<const Element> a,
                             std::span<const Element> b, Element *out,
                             std::uint64_t &probes);

// --- Word-wise dense-bitvector kernels ----------------------------------
//
// 64-bit block operations with fused std::popcount reduction; `out`
// may alias `a` (the in-place DenseBitset update path).

/** out = a & b; returns popcount(out). */
std::uint64_t andWords(const std::uint64_t *a, const std::uint64_t *b,
                       std::uint64_t *out, std::size_t n);

/** out = a | b; returns popcount(out). */
std::uint64_t orWords(const std::uint64_t *a, const std::uint64_t *b,
                      std::uint64_t *out, std::size_t n);

/** out = a & ~b; returns popcount(out). */
std::uint64_t andNotWords(const std::uint64_t *a, const std::uint64_t *b,
                          std::uint64_t *out, std::size_t n);

/** popcount(a & b) without materializing. */
std::uint64_t andCardWords(const std::uint64_t *a, const std::uint64_t *b,
                           std::size_t n);

// --- Scalar reference kernels -------------------------------------------
//
// Textbook two-pointer implementations mirroring the seed's scalar
// operations, kept as the ground truth for the randomized differential
// tests in tests/test_kernels.cpp and as the baseline side of the
// scalar-vs-vectorized microbenchmarks. Not used on any hot path.

namespace ref {

std::size_t intersect(std::span<const Element> a,
                      std::span<const Element> b, Element *out);
std::uint64_t intersectCard(std::span<const Element> a,
                            std::span<const Element> b);
std::size_t setUnion(std::span<const Element> a,
                     std::span<const Element> b, Element *out);
std::size_t difference(std::span<const Element> a,
                       std::span<const Element> b, Element *out);

} // namespace ref

} // namespace sisa::sets::kernels

#endif // SISA_SETS_KERNELS_HPP
