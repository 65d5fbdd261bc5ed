#include "mem/address_space.hpp"

#include "support/bits.hpp"

namespace sisa::mem {

Region
AddressSpace::allocate(std::uint64_t bytes)
{
    const Region region{next_, bytes};
    next_ += support::alignUp(bytes == 0 ? 1 : bytes, page_);
    return region;
}

} // namespace sisa::mem
