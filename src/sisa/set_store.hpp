/**
 * @file
 * Storage and metadata for SISA sets ("Life Cycle of a Set" and "Set
 * Metadata", Section 8.4). Sets live in (simulated) memory under
 * logical set ids; the Set Metadata (SM) structure maps each id to
 * its representation type, cardinality, and location, and is what the
 * SCU consults to pick instruction variants. The store is the
 * functional ground truth of the simulation; timing for SM accesses
 * is charged by the SCU through the SMB model.
 */

#ifndef SISA_SISA_SET_STORE_HPP
#define SISA_SISA_SET_STORE_HPP

#include <cstdint>
#include <memory>
#include <variant>
#include <vector>

#include "mem/address_space.hpp"
#include "sets/dense_bitset.hpp"
#include "sets/representation.hpp"
#include "sets/sorted_array.hpp"
#include "sisa/isa.hpp"

namespace sisa::isa {

using sets::DenseBitset;
using sets::Element;
using sets::SetRepr;
using sets::SortedArraySet;

/** One SM entry (Section 8.4: representation, size, location). */
struct SetMetadata
{
    SetRepr repr = SetRepr::SparseArray;
    std::uint64_t cardinality = 0;
    mem::Addr location = 0;
    bool live = false;
};

/**
 * Owns every SISA set and its metadata -- optionally on top of a
 * shared, read-only base store whose sets it reads in place.
 */
class SetStore
{
  public:
    /** @param universe Universe size n (DB width in bits). */
    explicit SetStore(Element universe);

    /**
     * A store over @p base: ids [0, base slots) are the base's sets,
     * read in place and never written (mutating or destroying one
     * panics). Only the base's metadata is copied. Slot count and
     * address cursor continue from the base, so every later id and
     * location equals what a private copy of the base would hand
     * out. The base must have no recycled slots and no base of its
     * own, and must not change while this store lives.
     */
    explicit SetStore(std::shared_ptr<const SetStore> base);

    /** The shared read-only base, or nullptr. */
    const SetStore *base() const { return base_.get(); }

    Element universe() const { return universe_; }

    /**
     * Memory footprint of one dense bitvector over this universe:
     * ceil(universe / 8) bytes. The single source of truth for DB
     * allocation sizes (previously three call sites disagreed about
     * rounding).
     */
    std::uint64_t denseBytes() const;

    /**
     * Memory footprint of @p id's payload as it moves between vaults
     * (interconnect transfers, migrations): 4 B per SA element,
     * denseBytes() for a DB. The single source of truth for operand
     * footprints in the cross-vault cost model.
     */
    std::uint64_t payloadBytes(SetId id) const;

    /** Create a set from sorted unique elements in @p repr. */
    SetId createFromSorted(std::vector<Element> elems, SetRepr repr);

    /** Create an empty set in @p repr. */
    SetId createEmpty(SetRepr repr);

    /** Create the full universe set as a DB (e.g., P = V in BK). */
    SetId createFull();

    /** Duplicate @p id (same representation). */
    SetId clone(SetId id);

    /** Destroy @p id; its slot is recycled. */
    void destroy(SetId id);

    /** Convert @p id to @p repr in place (no-op if already there). */
    void convert(SetId id, SetRepr repr);

    bool live(SetId id) const;
    const SetMetadata &metadata(SetId id) const;

    bool isDense(SetId id) const;
    std::uint64_t cardinality(SetId id) const;

    /** Access as SA; the set must be in SA representation. */
    const SortedArraySet &sa(SetId id) const;

    /** Access as DB; the set must be in DB representation. */
    const DenseBitset &db(SetId id) const;

    SortedArraySet &mutableSa(SetId id);
    DenseBitset &mutableDb(SetId id);

    /** Adopt @p set as a new stored set. */
    SetId adopt(SortedArraySet set);
    SetId adopt(DenseBitset set);

    /** O(1) membership against either representation. */
    bool member(SetId id, Element x) const;

    /** Insert @p x (A cup {x}). */
    void insert(SetId id, Element x);

    /** Remove @p x (A setminus {x}). */
    void remove(SetId id, Element x);

    /** Number of live sets. */
    std::uint64_t liveCount() const { return liveCount_; }

    /** Total storage of live sets in bits (Section 6.1 accounting). */
    std::uint64_t storageBits() const;

    /** Synthetic address of the SM entry for @p id (SMB indexing). */
    mem::Addr
    metadataAddr(SetId id) const
    {
        return sm_base_ + static_cast<mem::Addr>(id) * sm_entry_bytes;
    }

    /** Collect elements of @p id in sorted order. */
    std::vector<Element> elementsOf(SetId id) const;

  private:
    using Payload = std::variant<SortedArraySet, DenseBitset>;

    SetId allocateSlot();
    void refreshMetadata(SetId id);

    /** @p id's payload, in the base for ids below baseSlots_. */
    const Payload &
    payload(SetId id) const
    {
        return id < baseSlots_ ? base_->payloads_[id]
                               : payloads_[id - baseSlots_];
    }

    /** @p id's payload for writing; panics on a base id. */
    Payload &ownedPayload(SetId id);

    static constexpr mem::Addr sm_base_ = 0x0800000000ULL;
    static constexpr std::uint32_t sm_entry_bytes = 16;

    Element universe_;
    std::shared_ptr<const SetStore> base_;
    SetId baseSlots_ = 0; ///< Ids below this live in base_.
    /** Payloads of ids [baseSlots_, ...), indexed by id - baseSlots_. */
    std::vector<Payload> payloads_;
    std::vector<SetMetadata> metadata_;
    std::vector<SetId> freeList_;
    std::uint64_t liveCount_ = 0;
    mem::AddressSpace space_;
};

} // namespace sisa::isa

#endif // SISA_SISA_SET_STORE_HPP
