#include "sets/dense_bitset.hpp"

#include "sets/kernels.hpp"
#include "support/bits.hpp"
#include "support/logging.hpp"

namespace sisa::sets {

DenseBitset::DenseBitset(Element universe)
    : universe_(universe), card_(0),
      words_(support::ceilDiv(universe, 64), 0)
{
}

DenseBitset
DenseBitset::fromSorted(std::span<const Element> elems, Element universe)
{
    DenseBitset db(universe);
    for (Element e : elems) {
        sisa_assert(e < universe, "element ", e, " outside universe ",
                    universe);
        db.words_[e >> 6] |= 1ULL << (e & 63);
    }
    db.card_ = elems.size();
    return db;
}

DenseBitset
DenseBitset::full(Element universe)
{
    DenseBitset db(universe);
    for (auto &word : db.words_)
        word = ~0ULL;
    // Mask the tail beyond the universe.
    const Element tail = universe & 63;
    if (tail != 0 && !db.words_.empty())
        db.words_.back() &= (1ULL << tail) - 1;
    db.card_ = universe;
    return db;
}

std::uint64_t
DenseBitset::andWith(const DenseBitset &other)
{
    sisa_assert(universe_ == other.universe_, "universe mismatch");
    card_ = kernels::andWords(words_.data(), other.words_.data(),
                              words_.data(), words_.size());
    return card_;
}

std::uint64_t
DenseBitset::orWith(const DenseBitset &other)
{
    sisa_assert(universe_ == other.universe_, "universe mismatch");
    card_ = kernels::orWords(words_.data(), other.words_.data(),
                             words_.data(), words_.size());
    return card_;
}

std::uint64_t
DenseBitset::andNotWith(const DenseBitset &other)
{
    sisa_assert(universe_ == other.universe_, "universe mismatch");
    card_ = kernels::andNotWords(words_.data(), other.words_.data(),
                                 words_.data(), words_.size());
    return card_;
}

SortedArraySet
DenseBitset::toSortedArray() const
{
    std::vector<Element> elems;
    elems.reserve(card_);
    collect(elems);
    return SortedArraySet(std::move(elems));
}

void
DenseBitset::collect(std::vector<Element> &out) const
{
    for (std::size_t w = 0; w < words_.size(); ++w) {
        std::uint64_t word = words_[w];
        while (word) {
            const unsigned bit =
                static_cast<unsigned>(std::countr_zero(word));
            out.push_back(static_cast<Element>((w << 6) + bit));
            word &= word - 1;
        }
    }
}

} // namespace sisa::sets
