/**
 * @file
 * Small bit-manipulation and integer-math helpers shared across the
 * set representations and the memory timing models.
 */

#ifndef SISA_SUPPORT_BITS_HPP
#define SISA_SUPPORT_BITS_HPP

#include <bit>
#include <cstdint>

namespace sisa::support {

/** Ceiling division for unsigned integers. */
constexpr std::uint64_t
ceilDiv(std::uint64_t num, std::uint64_t den)
{
    return (num + den - 1) / den;
}

/** Round @p value up to the next multiple of @p align (a power of two). */
constexpr std::uint64_t
alignUp(std::uint64_t value, std::uint64_t align)
{
    return (value + align - 1) & ~(align - 1);
}

/** floor(log2(x)) for x > 0. */
constexpr unsigned
floorLog2(std::uint64_t x)
{
    return 63u - static_cast<unsigned>(std::countl_zero(x));
}

/** ceil(log2(x)) for x > 0; log2(1) == 0. */
constexpr unsigned
ceilLog2(std::uint64_t x)
{
    return x <= 1 ? 0 : floorLog2(x - 1) + 1;
}

/** True iff @p x is a power of two (x > 0). */
constexpr bool
isPowerOfTwo(std::uint64_t x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

} // namespace sisa::support

#endif // SISA_SUPPORT_BITS_HPP
