/**
 * @file
 * Synthetic address space for the memory-trace models. The cache
 * hierarchy is driven with synthetic virtual addresses rather than
 * host pointers so simulations are bit-reproducible across runs
 * (host ASLR would otherwise change cache-set mappings). Each logical
 * array (CSR offsets, adjacency, auxiliary buffers, ...) is allocated
 * a page-aligned region.
 */

#ifndef SISA_MEM_ADDRESS_SPACE_HPP
#define SISA_MEM_ADDRESS_SPACE_HPP

#include <cstdint>

namespace sisa::mem {

/** Synthetic virtual address. */
using Addr = std::uint64_t;

/** A page-aligned synthetic allocation. */
struct Region
{
    Addr base = 0;
    std::uint64_t bytes = 0;

    /** Address of element @p index with @p elem_bytes-wide elements. */
    Addr
    elem(std::uint64_t index, std::uint32_t elem_bytes) const
    {
        return base + index * elem_bytes;
    }
};

/** Bump allocator over a synthetic virtual address space. */
class AddressSpace
{
  public:
    /** Default start of a space, above every fixed region in use. */
    static constexpr Addr kDefaultBase = 0x10000000ULL;

    /** A space whose first region starts at @p base (page aligned). */
    explicit AddressSpace(Addr base = kDefaultBase)
        : base_(base), next_(base)
    {
    }

    /** Allocate @p bytes (page aligned). */
    Region allocate(std::uint64_t bytes);

    /** Total bytes allocated so far. */
    std::uint64_t allocated() const { return next_ - base_; }

    /** First address past every region allocated so far. */
    Addr end() const { return next_; }

  private:
    static constexpr std::uint64_t page_ = 4096;
    Addr base_;
    Addr next_;
};

} // namespace sisa::mem

#endif // SISA_MEM_ADDRESS_SPACE_HPP
