/**
 * @file
 * Cross-batch dependency scoreboard of the SCU's async dispatch
 * window (Scu::dispatchAsync).
 */

#ifndef SISA_SISA_DEPENDENCY_WINDOW_HPP
#define SISA_SISA_DEPENDENCY_WINDOW_HPP

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sisa/batch.hpp"
#include "sisa/isa.hpp"

namespace sisa::isa {

/**
 * Cross-batch dependency scoreboard for the SCU's async dispatch
 * window. The window is INCREMENTAL: it carries the unretired defs
 * (SetId -> modeled completion time) and last modeled reads of every
 * in-flight dispatch, and each new BatchRequest is joined against
 * that state directly, reading only each op's operands, in O(ops).
 * Times are virtual cycles relative to the window's opening
 * (Scu::dispatchAsync defines the clock).
 *
 *  - joinBatch() answers the RAW question for a whole batch:
 *    the earliest start of each op given its operands' pending defs.
 *  - defTime()/lastRead() answer the same for serial ops: readers
 *    stall to defTime, writers to max(defTime, lastRead) (WAR).
 *  - forget() drops an id on destroy, so a recycled id carries no
 *    stale edges (WAW discipline).
 *
 * Not thread-safe; owned by the dispatching thread like the window
 * itself.
 */
class DependencyWindow
{
  public:
    /**
     * Earliest virtual start time of each op of @p batch given the
     * pending defs: max(@p issue, defTime(op.a), defTime(op.b)).
     * Pure -- the caller records the resulting reads/defs once lane
     * assignment fixes the ops' actual end times.
     */
    std::vector<std::uint64_t>
    joinBatch(const BatchRequest &batch, std::uint64_t issue) const;

    /** Record that @p id's pending def completes at @p completion. */
    void noteDef(SetId id, std::uint64_t completion);

    /** Record a modeled read of @p id finishing at @p t. */
    void noteRead(SetId id, std::uint64_t t);

    /** Pending-def completion of @p id (0 = no pending def). */
    std::uint64_t defTime(SetId id) const;

    /** Latest modeled read of @p id (0 = never read in-window). */
    std::uint64_t lastRead(SetId id) const;

    /** Drop all state for @p id (destroyed / recycled). */
    void forget(SetId id);

    /** Reset to an empty window (drain). */
    void clear();

    std::size_t pendingDefs() const { return defs_.size(); }
    bool empty() const { return defs_.empty() && reads_.empty(); }

  private:
    std::unordered_map<SetId, std::uint64_t> defs_;
    std::unordered_map<SetId, std::uint64_t> reads_;
};

} // namespace sisa::isa

#endif // SISA_SISA_DEPENDENCY_WINDOW_HPP
