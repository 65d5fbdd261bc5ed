#include "sisa/set_store.hpp"

#include <utility>

#include "support/bits.hpp"
#include "support/logging.hpp"

namespace sisa::isa {

SetStore::SetStore(Element universe) : universe_(universe) {}

SetStore::SetStore(std::shared_ptr<const SetStore> base)
    : universe_(base->universe_), base_(std::move(base)),
      baseSlots_(static_cast<SetId>(base_->metadata_.size())),
      metadata_(base_->metadata_), liveCount_(base_->liveCount_),
      space_(base_->space_)
{
    sisa_assert(!base_->base_ && base_->freeList_.empty(),
                "a shared base must have no base and no free slots");
}

std::uint64_t
SetStore::denseBytes() const
{
    return support::ceilDiv(universe_, 8);
}

std::uint64_t
SetStore::payloadBytes(SetId id) const
{
    return isDense(id) ? denseBytes()
                       : cardinality(id) * sizeof(Element);
}

SetId
SetStore::allocateSlot()
{
    if (!freeList_.empty()) {
        const SetId id = freeList_.back();
        freeList_.pop_back();
        return id;
    }
    payloads_.emplace_back();
    metadata_.emplace_back();
    return static_cast<SetId>(metadata_.size() - 1);
}

SetStore::Payload &
SetStore::ownedPayload(SetId id)
{
    sisa_assert(id >= baseSlots_, "set ", id,
                " belongs to the read-only shared base");
    return payloads_[id - baseSlots_];
}

void
SetStore::refreshMetadata(SetId id)
{
    SetMetadata &md = metadata_[id];
    const Payload &p = payload(id);
    if (std::holds_alternative<SortedArraySet>(p)) {
        md.repr = SetRepr::SparseArray;
        md.cardinality = std::get<SortedArraySet>(p).size();
    } else {
        md.repr = SetRepr::DenseBitvector;
        md.cardinality = std::get<DenseBitset>(p).size();
    }
    md.live = true;
}

SetId
SetStore::createFromSorted(std::vector<Element> elems, SetRepr repr)
{
    const SetId id = allocateSlot();
    const std::uint64_t bytes =
        repr == SetRepr::SparseArray ? elems.size() * sizeof(Element)
                                     : denseBytes();
    if (repr == SetRepr::SparseArray) {
        ownedPayload(id) = SortedArraySet(std::move(elems));
    } else {
        ownedPayload(id) = DenseBitset::fromSorted(elems, universe_);
    }
    metadata_[id].location = space_.allocate(bytes).base;
    refreshMetadata(id);
    ++liveCount_;
    return id;
}

SetId
SetStore::createEmpty(SetRepr repr)
{
    return createFromSorted({}, repr);
}

SetId
SetStore::createFull()
{
    const SetId id = allocateSlot();
    ownedPayload(id) = DenseBitset::full(universe_);
    metadata_[id].location = space_.allocate(denseBytes()).base;
    refreshMetadata(id);
    ++liveCount_;
    return id;
}

SetId
SetStore::clone(SetId id)
{
    sisa_assert(live(id), "clone of a dead set ", id);
    const SetId copy = allocateSlot();
    ownedPayload(copy) = payload(id);
    metadata_[copy].location = metadata_[id].location;
    refreshMetadata(copy);
    ++liveCount_;
    return copy;
}

void
SetStore::destroy(SetId id)
{
    sisa_assert(live(id), "double destroy of set ", id);
    ownedPayload(id) = SortedArraySet();
    metadata_[id] = SetMetadata{};
    freeList_.push_back(id);
    --liveCount_;
}

void
SetStore::convert(SetId id, SetRepr repr)
{
    sisa_assert(live(id), "convert of a dead set ", id);
    Payload &p = ownedPayload(id);
    if (metadata_[id].repr == repr)
        return;
    if (repr == SetRepr::DenseBitvector) {
        p = DenseBitset::fromSorted(
            std::get<SortedArraySet>(p).elements(), universe_);
    } else {
        p = std::get<DenseBitset>(p).toSortedArray();
    }
    refreshMetadata(id);
}

bool
SetStore::live(SetId id) const
{
    return id < metadata_.size() && metadata_[id].live;
}

const SetMetadata &
SetStore::metadata(SetId id) const
{
    sisa_assert(live(id), "metadata of a dead set ", id);
    return metadata_[id];
}

bool
SetStore::isDense(SetId id) const
{
    return metadata(id).repr == SetRepr::DenseBitvector;
}

std::uint64_t
SetStore::cardinality(SetId id) const
{
    return metadata(id).cardinality;
}

const SortedArraySet &
SetStore::sa(SetId id) const
{
    sisa_assert(live(id) && !isDense(id), "set ", id, " is not an SA");
    return std::get<SortedArraySet>(payload(id));
}

const DenseBitset &
SetStore::db(SetId id) const
{
    sisa_assert(live(id) && isDense(id), "set ", id, " is not a DB");
    return std::get<DenseBitset>(payload(id));
}

SortedArraySet &
SetStore::mutableSa(SetId id)
{
    sisa_assert(live(id) && !isDense(id), "set ", id, " is not an SA");
    return std::get<SortedArraySet>(ownedPayload(id));
}

DenseBitset &
SetStore::mutableDb(SetId id)
{
    sisa_assert(live(id) && isDense(id), "set ", id, " is not a DB");
    return std::get<DenseBitset>(ownedPayload(id));
}

SetId
SetStore::adopt(SortedArraySet set)
{
    const SetId id = allocateSlot();
    metadata_[id].location =
        space_.allocate(set.size() * sizeof(Element)).base;
    ownedPayload(id) = std::move(set);
    refreshMetadata(id);
    ++liveCount_;
    return id;
}

SetId
SetStore::adopt(DenseBitset set)
{
    sisa_assert(set.universe() == universe_, "universe mismatch");
    const SetId id = allocateSlot();
    metadata_[id].location = space_.allocate(denseBytes()).base;
    ownedPayload(id) = std::move(set);
    refreshMetadata(id);
    ++liveCount_;
    return id;
}

bool
SetStore::member(SetId id, Element x) const
{
    if (isDense(id))
        return db(id).test(x);
    return sa(id).contains(x);
}

void
SetStore::insert(SetId id, Element x)
{
    sisa_assert(x < universe_, "element outside universe");
    if (isDense(id)) {
        mutableDb(id).set(x);
    } else {
        mutableSa(id).add(x);
    }
    refreshMetadata(id);
}

void
SetStore::remove(SetId id, Element x)
{
    if (isDense(id)) {
        mutableDb(id).clear(x);
    } else {
        mutableSa(id).remove(x);
    }
    refreshMetadata(id);
}

std::uint64_t
SetStore::storageBits() const
{
    std::uint64_t bits = 0;
    for (SetId id = 0; id < metadata_.size(); ++id) {
        if (!metadata_[id].live)
            continue;
        if (metadata_[id].repr == SetRepr::DenseBitvector) {
            bits += universe_;
        } else {
            bits += metadata_[id].cardinality * sets::word_bits;
        }
    }
    return bits;
}

std::vector<Element>
SetStore::elementsOf(SetId id) const
{
    if (isDense(id)) {
        std::vector<Element> out;
        out.reserve(db(id).size());
        db(id).collect(out);
        return out;
    }
    const auto span = sa(id).elements();
    return {span.begin(), span.end()};
}

} // namespace sisa::isa
