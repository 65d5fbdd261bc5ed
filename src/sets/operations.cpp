#include "sets/operations.hpp"

#include <algorithm>
#include <memory>

#include "sets/kernels.hpp"
#include "support/logging.hpp"

namespace sisa::sets {

namespace {

using kernels::block_elems;
using kernels::countNotGreater;

/**
 * Uninitialized scratch for @p worst_case result elements plus the
 * vector-store slack the blocked kernels require. Deliberately not a
 * std::vector: value-initializing the worst-case buffer would add an
 * O(nA+nB) zero-fill pass to every operation; this way only the
 * actual result is ever touched (written by the kernel, then copied
 * once into the SortedArraySet).
 */
struct ResultBuffer
{
    explicit ResultBuffer(std::uint64_t worst_case)
        : data(std::make_unique_for_overwrite<Element[]>(worst_case +
                                                         block_elems))
    {
    }

    std::vector<Element>
    take(std::size_t size) const
    {
        return std::vector<Element>(data.get(), data.get() + size);
    }

    std::unique_ptr<Element[]> data;
};

/**
 * Streamed-element charge of a two-pointer merge that stops when one
 * input is exhausted: every element at most min(max A, max B) is
 * fetched from both inputs (formula M1 of the operations.hpp table).
 */
std::uint64_t
mergeConsumed(const SortedArraySet &a, const SortedArraySet &b)
{
    if (a.empty() || b.empty())
        return 0;
    const Element stop = std::min(a[a.size() - 1], b[b.size() - 1]);
    return countNotGreater(a.elements(), stop) +
           countNotGreater(b.elements(), stop);
}

} // namespace

SortedArraySet
intersectMerge(const SortedArraySet &a, const SortedArraySet &b,
               OpWork &work)
{
    const ResultBuffer buf(std::min(a.size(), b.size()));
    const std::size_t k =
        kernels::intersect(a.elements(), b.elements(), buf.data.get());
    work.streamedElements += mergeConsumed(a, b);
    work.outputElements += k;
    return SortedArraySet(buf.take(k));
}

SortedArraySet
intersectGallop(const SortedArraySet &a, const SortedArraySet &b,
                OpWork &work)
{
    const SortedArraySet &smaller = a.size() <= b.size() ? a : b;
    const SortedArraySet &larger = a.size() <= b.size() ? b : a;

    const ResultBuffer buf(smaller.size());
    const std::size_t k = kernels::intersectGallop(
        smaller.elements(), larger.elements(), buf.data.get(),
        work.probes);
    work.streamedElements += smaller.size();
    work.outputElements += k;
    return SortedArraySet(buf.take(k));
}

SortedArraySet
intersectSaDb(const SortedArraySet &a, const DenseBitset &b, OpWork &work)
{
    std::vector<Element> out;
    out.reserve(std::min<std::uint64_t>(a.size(), b.size()));
    for (Element e : a) {
        if (b.test(e))
            out.push_back(e);
    }
    work.streamedElements += a.size();
    work.probes += a.size();
    work.outputElements += out.size();
    return SortedArraySet(std::move(out));
}

DenseBitset
intersectDbDb(const DenseBitset &a, const DenseBitset &b, OpWork &work)
{
    DenseBitset out = a;
    out.andWith(b);
    work.bitvectorWords += a.numWords();
    work.outputElements += out.size();
    return out;
}

std::uint64_t
intersectCardMerge(const SortedArraySet &a, const SortedArraySet &b,
                   OpWork &work)
{
    const std::uint64_t count =
        kernels::intersectCard(a.elements(), b.elements());
    work.streamedElements += mergeConsumed(a, b);
    work.outputElements += count; // Logical result size (normalized).
    return count;
}

std::uint64_t
intersectCardGallop(const SortedArraySet &a, const SortedArraySet &b,
                    OpWork &work)
{
    const SortedArraySet &smaller = a.size() <= b.size() ? a : b;
    const SortedArraySet &larger = a.size() <= b.size() ? b : a;

    const std::uint64_t count = kernels::intersectCardGallop(
        smaller.elements(), larger.elements(), work.probes);
    work.streamedElements += smaller.size();
    work.outputElements += count;
    return count;
}

std::uint64_t
intersectCardSaDb(const SortedArraySet &a, const DenseBitset &b,
                  OpWork &work)
{
    std::uint64_t count = 0;
    for (Element e : a)
        count += b.test(e);
    work.streamedElements += a.size();
    work.probes += a.size();
    work.outputElements += count;
    return count;
}

std::uint64_t
intersectCardDbDb(const DenseBitset &a, const DenseBitset &b, OpWork &work)
{
    sisa_assert(a.universe() == b.universe(), "universe mismatch");
    const std::uint64_t count = kernels::andCardWords(
        a.words().data(), b.words().data(), a.numWords());
    work.bitvectorWords += a.numWords();
    work.outputElements += count;
    return count;
}

SortedArraySet
unionMerge(const SortedArraySet &a, const SortedArraySet &b, OpWork &work)
{
    // Unlike intersection, the union result is near worst-case sized,
    // so a zero-filled vector written in place beats scratch + copy.
    std::vector<Element> out(a.size() + b.size() + block_elems);
    const std::size_t u =
        kernels::setUnion(a.elements(), b.elements(), out.data());
    out.resize(u);
    work.streamedElements += a.size() + b.size();
    work.outputElements += u;
    return SortedArraySet(std::move(out));
}

SortedArraySet
unionGallop(const SortedArraySet &a, const SortedArraySet &b, OpWork &work)
{
    const SortedArraySet &smaller = a.size() <= b.size() ? a : b;
    const SortedArraySet &larger = a.size() <= b.size() ? b : a;

    std::vector<Element> out(smaller.size() + larger.size() +
                             block_elems);
    const std::size_t u = kernels::unionGallop(
        smaller.elements(), larger.elements(), out.data(), work.probes);
    out.resize(u);
    work.streamedElements += a.size() + b.size();
    work.outputElements += u;
    return SortedArraySet(std::move(out));
}

DenseBitset
unionSaDb(const SortedArraySet &a, const DenseBitset &b, OpWork &work)
{
    DenseBitset out = b;
    for (Element e : a)
        out.set(e);
    work.streamedElements += a.size();
    work.probes += a.size();
    work.bitvectorWords += b.numWords(); // The copy of B.
    work.outputElements += out.size();
    return out;
}

DenseBitset
unionDbDb(const DenseBitset &a, const DenseBitset &b, OpWork &work)
{
    DenseBitset out = a;
    out.orWith(b);
    work.bitvectorWords += a.numWords();
    work.outputElements += out.size();
    return out;
}

SortedArraySet
differenceMerge(const SortedArraySet &a, const SortedArraySet &b,
                OpWork &work)
{
    const ResultBuffer buf(a.size());
    const std::size_t d =
        kernels::difference(a.elements(), b.elements(), buf.data.get());
    // A is always consumed in full; B only up to A's maximum.
    work.streamedElements += a.size();
    if (!a.empty())
        work.streamedElements +=
            countNotGreater(b.elements(), a[a.size() - 1]);
    work.outputElements += d;
    return SortedArraySet(buf.take(d));
}

SortedArraySet
differenceGallop(const SortedArraySet &a, const SortedArraySet &b,
                 OpWork &work)
{
    const ResultBuffer buf(a.size());
    const std::size_t d = kernels::differenceGallop(
        a.elements(), b.elements(), buf.data.get(), work.probes);
    work.streamedElements += a.size();
    work.outputElements += d;
    return SortedArraySet(buf.take(d));
}

SortedArraySet
differenceSaDb(const SortedArraySet &a, const DenseBitset &b, OpWork &work)
{
    std::vector<Element> out;
    out.reserve(a.size());
    for (Element e : a) {
        if (!b.test(e))
            out.push_back(e);
    }
    work.streamedElements += a.size();
    work.probes += a.size();
    work.outputElements += out.size();
    return SortedArraySet(std::move(out));
}

DenseBitset
differenceDbSa(const DenseBitset &a, const SortedArraySet &b, OpWork &work)
{
    DenseBitset out = a;
    for (Element e : b)
        out.clear(e);
    work.streamedElements += b.size();
    work.probes += b.size();
    work.bitvectorWords += a.numWords(); // The copy of A.
    work.outputElements += out.size();
    return out;
}

DenseBitset
differenceDbDb(const DenseBitset &a, const DenseBitset &b, OpWork &work)
{
    DenseBitset out = a;
    out.andNotWith(b);
    work.bitvectorWords += a.numWords();
    work.outputElements += out.size();
    return out;
}

} // namespace sisa::sets
