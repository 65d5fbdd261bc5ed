#include "sets/kernels.hpp"

#include <array>
#include <bit>
#include <cstring>

#include "support/bits.hpp"

#if defined(__AVX2__) || defined(__SSE2__) || defined(_M_X64) ||         \
    defined(__x86_64__)
#include <immintrin.h>
#endif

namespace sisa::sets::kernels {

const char *
tierName()
{
    switch (active_tier) {
      case IsaTier::Avx2: return "avx2";
      case IsaTier::Sse2: return "sse2";
      case IsaTier::Scalar: return "scalar";
    }
    return "?";
}

// --- Branchless search ---------------------------------------------------

SearchResult
lowerBound(std::span<const Element> elems, std::uint64_t lo, Element target)
{
    const std::uint64_t len0 = elems.size() - lo;
    if (len0 == 0)
        return {lo, 0};
    // The bisection below runs a fixed ceilLog2(len) halvings plus one
    // final compare regardless of the data, so the probe charge is a
    // closed form -- no per-iteration counter on the hot path.
    const std::uint64_t probes = support::ceilLog2(len0) + 1;
    const Element *p = elems.data() + lo;
    std::uint64_t len = len0;
    while (len > 1) {
        const std::uint64_t half = len / 2;
        p += (p[half - 1] < target) ? half : 0; // cmov, no branch.
        len -= half;
    }
    p += (*p < target) ? 1 : 0;
    return {static_cast<std::uint64_t>(p - elems.data()), probes};
}

std::uint64_t
countNotGreater(std::span<const Element> elems, Element v)
{
    std::uint64_t len = elems.size();
    if (len == 0)
        return 0;
    const Element *p = elems.data();
    while (len > 1) {
        const std::uint64_t half = len / 2;
        p += (p[half - 1] <= v) ? half : 0;
        len -= half;
    }
    return static_cast<std::uint64_t>(p - elems.data()) +
           (*p <= v ? 1 : 0);
}

// --- Blocked SIMD primitives --------------------------------------------

namespace {

#if !defined(SISA_FORCE_SCALAR_KERNELS) && defined(__AVX2__)

#define SISA_KERNELS_BLOCKED 1

/**
 * Lane-index table for mask-driven compress stores: entry m lists the
 * set bit positions of m in ascending order (VPERMD gather pattern).
 */
constexpr auto compress_table = [] {
    std::array<std::array<std::uint32_t, 8>, 256> table{};
    for (std::uint32_t m = 0; m < 256; ++m) {
        std::uint32_t k = 0;
        for (std::uint32_t bit = 0; bit < 8; ++bit) {
            if (m & (1u << bit))
                table[m][k++] = bit;
        }
        for (; k < 8; ++k)
            table[m][k] = 0;
    }
    return table;
}();

struct Simd
{
    static constexpr std::size_t W = 8;
    using Vec = __m256i;

    static Vec
    load(const Element *p)
    {
        return _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p));
    }

    /** Per-lane flag: va lane matches some lane of vb (8x8 all-pairs). */
    static unsigned
    matchMask(Vec va, Vec vb)
    {
        const Vec rot = _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 0);
        Vec acc = _mm256_cmpeq_epi32(va, vb);
        for (int r = 1; r < 8; ++r) {
            vb = _mm256_permutevar8x32_epi32(vb, rot);
            acc = _mm256_or_si256(acc, _mm256_cmpeq_epi32(va, vb));
        }
        return static_cast<unsigned>(
            _mm256_movemask_ps(_mm256_castsi256_ps(acc)));
    }

    /**
     * Store va's masked lanes contiguously at @p out (writes a full
     * vector; callers reserve W slack slots past the logical result).
     */
    static std::size_t
    emit(Element *out, const Element *, Vec va, unsigned mask)
    {
        const __m256i perm = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(
                compress_table[mask].data()));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out),
                            _mm256_permutevar8x32_epi32(va, perm));
        return static_cast<std::size_t>(std::popcount(mask));
    }
};

#elif !defined(SISA_FORCE_SCALAR_KERNELS) &&                             \
    (defined(__SSE2__) || defined(_M_X64) || defined(__x86_64__))

#define SISA_KERNELS_BLOCKED 1

struct Simd
{
    static constexpr std::size_t W = 4;
    using Vec = __m128i;

    static Vec
    load(const Element *p)
    {
        return _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
    }

    static unsigned
    matchMask(Vec va, Vec vb)
    {
        __m128i acc = _mm_cmpeq_epi32(va, vb);
        __m128i r = _mm_shuffle_epi32(vb, _MM_SHUFFLE(0, 3, 2, 1));
        acc = _mm_or_si128(acc, _mm_cmpeq_epi32(va, r));
        r = _mm_shuffle_epi32(vb, _MM_SHUFFLE(1, 0, 3, 2));
        acc = _mm_or_si128(acc, _mm_cmpeq_epi32(va, r));
        r = _mm_shuffle_epi32(vb, _MM_SHUFFLE(2, 1, 0, 3));
        acc = _mm_or_si128(acc, _mm_cmpeq_epi32(va, r));
        return static_cast<unsigned>(
            _mm_movemask_ps(_mm_castsi128_ps(acc)));
    }

    /** SSE2 has no lane compress; drain the mask bits scalar-wise. */
    static std::size_t
    emit(Element *out, const Element *src, Vec, unsigned mask)
    {
        std::size_t count = 0;
        while (mask) {
            const unsigned lane =
                static_cast<unsigned>(std::countr_zero(mask));
            out[count++] = src[lane];
            mask &= mask - 1;
        }
        return count;
    }
};

#endif

} // namespace

// --- Merge kernels -------------------------------------------------------

std::size_t
intersect(std::span<const Element> a, std::span<const Element> b,
          Element *out)
{
    const Element *pa = a.data(), *pb = b.data();
    const std::size_t na = a.size(), nb = b.size();
    std::size_t i = 0, j = 0, o = 0;

#ifdef SISA_KERNELS_BLOCKED
    constexpr std::size_t W = Simd::W;
    while (i + W <= na && j + W <= nb) {
        const auto va = Simd::load(pa + i);
        const auto vb = Simd::load(pb + j);
        // Each overlapping block pair is compared exactly once, and a
        // matched lane's partner lies behind both frontiers afterward,
        // so immediate emission is duplicate-free and stays sorted.
        o += Simd::emit(out + o, pa + i, va, Simd::matchMask(va, vb));
        const Element amax = pa[i + W - 1], bmax = pb[j + W - 1];
        i += amax <= bmax ? W : 0;
        j += bmax <= amax ? W : 0;
    }
#endif
    while (i < na && j < nb) {
        const Element x = pa[i], y = pb[j];
        out[o] = x;
        o += x == y ? 1 : 0;
        i += x <= y ? 1 : 0;
        j += y <= x ? 1 : 0;
    }
    return o;
}

std::uint64_t
intersectCard(std::span<const Element> a, std::span<const Element> b)
{
    const Element *pa = a.data(), *pb = b.data();
    const std::size_t na = a.size(), nb = b.size();
    std::size_t i = 0, j = 0;
    std::uint64_t count = 0;

#ifdef SISA_KERNELS_BLOCKED
    constexpr std::size_t W = Simd::W;
    while (i + W <= na && j + W <= nb) {
        const unsigned mask = Simd::matchMask(Simd::load(pa + i),
                                              Simd::load(pb + j));
        count += static_cast<std::uint64_t>(std::popcount(mask));
        const Element amax = pa[i + W - 1], bmax = pb[j + W - 1];
        i += amax <= bmax ? W : 0;
        j += bmax <= amax ? W : 0;
    }
#endif
    while (i < na && j < nb) {
        const Element x = pa[i], y = pb[j];
        count += x == y ? 1 : 0;
        i += x <= y ? 1 : 0;
        j += y <= x ? 1 : 0;
    }
    return count;
}

std::size_t
setUnion(std::span<const Element> a, std::span<const Element> b,
         Element *out)
{
    const Element *pa = a.data(), *pb = b.data();
    const std::size_t na = a.size(), nb = b.size();
    std::size_t i = 0, j = 0, o = 0;
    // Deliberately scalar -- union is store-bound (see the full
    // rationale in sets/operations.hpp): every element is written
    // out regardless, so a blocked compare tier cannot filter work
    // the way it does for intersection/difference, and a bitonic
    // merge network would trade predicted branches for shuffle
    // latency. A branchy merge beats a cmov one here: speculation
    // across predicted branches buys memory-level parallelism that a
    // serialized cmov chain cannot. Against the seed loop
    // (ref::setUnion) this loop is at parity, not a win: over 20
    // runs of bench_microbench --kernels-only (AVX2 tier, 4-vCPU
    // host) union_kernel_{1k,8k,64k} read medians 1.09x, 1.03x and
    // 1.02x, each with runs on both sides of 1.0 (0.81x-1.48x).
    while (i < na && j < nb) {
        const Element x = pa[i], y = pb[j];
        if (x < y) {
            out[o++] = x;
            ++i;
        } else if (y < x) {
            out[o++] = y;
            ++j;
        } else {
            out[o++] = x;
            ++i;
            ++j;
        }
    }
    if (i < na) {
        std::memcpy(out + o, pa + i, (na - i) * sizeof(Element));
        o += na - i;
    }
    if (j < nb) {
        std::memcpy(out + o, pb + j, (nb - j) * sizeof(Element));
        o += nb - j;
    }
    return o;
}

std::size_t
difference(std::span<const Element> a, std::span<const Element> b,
           Element *out)
{
    const Element *pa = a.data(), *pb = b.data();
    const std::size_t na = a.size(), nb = b.size();
    std::size_t i = 0, j = 0, o = 0;

#ifdef SISA_KERNELS_BLOCKED
    constexpr std::size_t W = Simd::W;
    // A lane of the current A block may match any B block it overlaps,
    // so matches accumulate until the A block retires, then the
    // unmatched lanes are emitted in one compress.
    unsigned pending = 0;
    while (i + W <= na && j + W <= nb) {
        const auto va = Simd::load(pa + i);
        pending |= Simd::matchMask(va, Simd::load(pb + j));
        const Element amax = pa[i + W - 1], bmax = pb[j + W - 1];
        if (amax <= bmax) {
            constexpr unsigned full = (1u << W) - 1;
            o += Simd::emit(out + o, pa + i, va, ~pending & full);
            i += W;
            pending = 0;
        }
        if (bmax <= amax)
            j += W;
    }
    if (pending) {
        // B ran out of full blocks mid-A-block: drain the block
        // scalar-wise, skipping lanes already matched.
        for (std::size_t lane = 0; lane < W; ++lane) {
            const Element e = pa[i + lane];
            if (pending >> lane & 1u)
                continue;
            while (j < nb && pb[j] < e)
                ++j;
            if (j < nb && pb[j] == e)
                ++j;
            else
                out[o++] = e;
        }
        i += W;
    }
#endif
    while (i < na && j < nb) {
        const Element x = pa[i], y = pb[j];
        out[o] = x;
        o += x < y ? 1 : 0;
        i += x <= y ? 1 : 0;
        j += y <= x ? 1 : 0;
    }
    if (i < na) {
        std::memcpy(out + o, pa + i, (na - i) * sizeof(Element));
        o += na - i;
    }
    return o;
}

// --- Galloping kernels ---------------------------------------------------

std::size_t
intersectGallop(std::span<const Element> small,
                std::span<const Element> large, Element *out,
                std::uint64_t &probes)
{
    std::uint64_t lo = 0;
    std::size_t o = 0;
    for (const Element e : small) {
        const SearchResult r = lowerBound(large, lo, e);
        probes += r.probes;
        lo = r.pos;
        if (lo < large.size() && large[lo] == e) {
            out[o++] = e;
            ++lo;
        }
    }
    return o;
}

std::uint64_t
intersectCardGallop(std::span<const Element> small,
                    std::span<const Element> large, std::uint64_t &probes)
{
    std::uint64_t lo = 0, count = 0;
    for (const Element e : small) {
        const SearchResult r = lowerBound(large, lo, e);
        probes += r.probes;
        lo = r.pos;
        if (lo < large.size() && large[lo] == e) {
            ++count;
            ++lo;
        }
    }
    return count;
}

std::size_t
unionGallop(std::span<const Element> small,
            std::span<const Element> large, Element *out,
            std::uint64_t &probes)
{
    std::size_t o = 0;
    std::uint64_t copied = 0; // Position within `large`.
    for (const Element e : small) {
        const SearchResult r = lowerBound(large, copied, e);
        probes += r.probes;
        const std::uint64_t run = r.pos - copied;
        if (run) {
            std::memcpy(out + o, large.data() + copied,
                        run * sizeof(Element));
            o += run;
            copied = r.pos;
        }
        if (copied < large.size() && large[copied] == e)
            ++copied; // Present in both; emit once.
        out[o++] = e;
    }
    const std::uint64_t tail = large.size() - copied;
    if (tail)
        std::memcpy(out + o, large.data() + copied,
                    tail * sizeof(Element));
    return o + tail;
}

std::size_t
differenceGallop(std::span<const Element> a, std::span<const Element> b,
                 Element *out, std::uint64_t &probes)
{
    std::size_t o = 0;
    for (const Element e : a) {
        const SearchResult r = lowerBound(b, 0, e);
        probes += r.probes;
        if (r.pos >= b.size() || b[r.pos] != e)
            out[o++] = e;
    }
    return o;
}

// --- Word-wise dense-bitvector kernels ----------------------------------

namespace {

/**
 * Apply @p combine word-wise with a fused popcount reduction. Kept as
 * a plain loop on purpose: the compiler auto-vectorizes this form
 * (nibble-LUT popcount under AVX2) better than a manual unroll.
 */
template <typename Combine>
std::uint64_t
wordLoop(const std::uint64_t *a, const std::uint64_t *b,
         std::uint64_t *out, std::size_t n, Combine combine)
{
    std::uint64_t count = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t w = combine(a[i], b[i]);
        out[i] = w;
        count += static_cast<std::uint64_t>(std::popcount(w));
    }
    return count;
}

} // namespace

std::uint64_t
andWords(const std::uint64_t *a, const std::uint64_t *b,
         std::uint64_t *out, std::size_t n)
{
    return wordLoop(a, b, out, n,
                    [](std::uint64_t x, std::uint64_t y) { return x & y; });
}

std::uint64_t
orWords(const std::uint64_t *a, const std::uint64_t *b, std::uint64_t *out,
        std::size_t n)
{
    return wordLoop(a, b, out, n,
                    [](std::uint64_t x, std::uint64_t y) { return x | y; });
}

std::uint64_t
andNotWords(const std::uint64_t *a, const std::uint64_t *b,
            std::uint64_t *out, std::size_t n)
{
    return wordLoop(a, b, out, n, [](std::uint64_t x, std::uint64_t y) {
        return x & ~y;
    });
}

std::uint64_t
andCardWords(const std::uint64_t *a, const std::uint64_t *b, std::size_t n)
{
    std::uint64_t count = 0;
    for (std::size_t i = 0; i < n; ++i)
        count += static_cast<std::uint64_t>(std::popcount(a[i] & b[i]));
    return count;
}

// --- Scalar reference kernels -------------------------------------------

namespace ref {

std::size_t
intersect(std::span<const Element> a, std::span<const Element> b,
          Element *out)
{
    std::size_t i = 0, j = 0, o = 0;
    while (i < a.size() && j < b.size()) {
        if (a[i] < b[j]) {
            ++i;
        } else if (b[j] < a[i]) {
            ++j;
        } else {
            out[o++] = a[i];
            ++i;
            ++j;
        }
    }
    return o;
}

std::uint64_t
intersectCard(std::span<const Element> a, std::span<const Element> b)
{
    std::size_t i = 0, j = 0;
    std::uint64_t count = 0;
    while (i < a.size() && j < b.size()) {
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

std::size_t
setUnion(std::span<const Element> a, std::span<const Element> b,
         Element *out)
{
    std::size_t i = 0, j = 0, o = 0;
    while (i < a.size() && j < b.size()) {
        if (a[i] < b[j]) {
            out[o++] = a[i++];
        } else if (b[j] < a[i]) {
            out[o++] = b[j++];
        } else {
            out[o++] = a[i];
            ++i;
            ++j;
        }
    }
    for (; i < a.size(); ++i)
        out[o++] = a[i];
    for (; j < b.size(); ++j)
        out[o++] = b[j];
    return o;
}

std::size_t
difference(std::span<const Element> a, std::span<const Element> b,
           Element *out)
{
    std::size_t i = 0, j = 0, o = 0;
    while (i < a.size() && j < b.size()) {
        if (a[i] < b[j]) {
            out[o++] = a[i++];
        } else if (b[j] < a[i]) {
            ++j;
        } else {
            ++i;
            ++j;
        }
    }
    for (; i < a.size(); ++i)
        out[o++] = a[i];
    return o;
}

} // namespace ref

} // namespace sisa::sets::kernels
