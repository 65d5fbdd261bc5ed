/**
 * @file
 * Dense-bitvector (DB) set representation (Section 6.1 / Figure 4): an
 * n-bit vector where bit i set means vertex i is a member. DBs are the
 * representation SISA processes with in-situ bulk-bitwise PIM
 * (SISA-PUM, Ambit-style AND/OR/NOT over DRAM rows) and the
 * recommended representation for dynamic auxiliary sets, whose
 * add/remove operations take O(1).
 */

#ifndef SISA_SETS_DENSE_BITSET_HPP
#define SISA_SETS_DENSE_BITSET_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "sets/sorted_array.hpp"

namespace sisa::sets {

/**
 * Width of one DB storage word. Distinct from sets::word_bits (the
 * 32-bit SA *element* width): DB streams move 8-byte words, and cost
 * models must price them as such.
 */
inline constexpr std::uint32_t db_word_bits = 64;
inline constexpr std::uint32_t db_word_bytes = db_word_bits / 8;

/** 64-bit words needed for a bitvector over @p universe bits. */
constexpr std::uint64_t
dbWords(std::uint64_t universe)
{
    return (universe + db_word_bits - 1) / db_word_bits;
}

/** Fixed-universe bitvector with a cached cardinality. */
class DenseBitset
{
  public:
    DenseBitset() = default;

    /** Empty set over the universe {0, ..., universe-1}. */
    explicit DenseBitset(Element universe);

    /** Build from sorted unique elements. */
    static DenseBitset fromSorted(std::span<const Element> elems,
                                  Element universe);

    /** Build the full universe set. */
    static DenseBitset full(Element universe);

    Element universe() const { return universe_; }

    /** |A|, maintained incrementally (Section 6.2.3: O(1) cardinality). */
    std::uint64_t size() const { return card_; }
    bool empty() const { return card_ == 0; }

    /** O(1) membership test. */
    bool
    test(Element e) const
    {
        return (words_[e >> 6] >> (e & 63)) & 1u;
    }

    /** O(1) insert (Table 5 op 0x5: set bit). */
    void
    set(Element e)
    {
        std::uint64_t &word = words_[e >> 6];
        const std::uint64_t mask = 1ULL << (e & 63);
        card_ += !(word & mask);
        word |= mask;
    }

    /** O(1) remove (Table 5 op 0x6: clear bit). */
    void
    clear(Element e)
    {
        std::uint64_t &word = words_[e >> 6];
        const std::uint64_t mask = 1ULL << (e & 63);
        card_ -= !!(word & mask);
        word &= ~mask;
    }

    std::span<const std::uint64_t> words() const { return words_; }
    std::uint64_t numWords() const { return words_.size(); }

    /** In-place A &= B; returns the new cardinality. */
    std::uint64_t andWith(const DenseBitset &other);

    /** In-place A |= B; returns the new cardinality. */
    std::uint64_t orWith(const DenseBitset &other);

    /** In-place A &= ~B (set difference); returns the new cardinality. */
    std::uint64_t andNotWith(const DenseBitset &other);

    /** Convert to the sparse-array representation. */
    SortedArraySet toSortedArray() const;

    /** Enumerate members in increasing order into @p out. */
    void collect(std::vector<Element> &out) const;

    /** Storage footprint in bits: n (Section 6.1). */
    std::uint64_t storageBits() const { return universe_; }

    friend bool operator==(const DenseBitset &a, const DenseBitset &b)
    {
        return a.universe_ == b.universe_ && a.words_ == b.words_;
    }

  private:
    Element universe_ = 0;
    std::uint64_t card_ = 0;
    std::vector<std::uint64_t> words_;
};

} // namespace sisa::sets

#endif // SISA_SETS_DENSE_BITSET_HPP
