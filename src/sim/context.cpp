#include "sim/context.hpp"

#include <algorithm>
#include <deque>
#include <functional>
#include <mutex>

#include "support/logging.hpp"

namespace sisa::sim {

namespace {

/** Name <-> id tables behind one lock; names never move once added. */
struct CounterRegistry
{
    std::mutex mutex;
    std::map<std::string, CounterId, std::less<>> ids;
    std::deque<std::string> names;
};

CounterRegistry &
registry()
{
    static CounterRegistry instance;
    return instance;
}

} // namespace

CounterId
internCounter(std::string_view name)
{
    CounterRegistry &reg = registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    const auto it = reg.ids.find(name);
    if (it != reg.ids.end())
        return it->second;
    const auto id = static_cast<CounterId>(reg.names.size());
    reg.names.emplace_back(name);
    reg.ids.emplace(reg.names.back(), id);
    return id;
}

std::optional<CounterId>
findCounter(std::string_view name)
{
    CounterRegistry &reg = registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    const auto it = reg.ids.find(name);
    if (it == reg.ids.end())
        return std::nullopt;
    return it->second;
}

const std::string &
counterName(CounterId id)
{
    CounterRegistry &reg = registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    sisa_assert(id < reg.names.size(), "unknown counter id");
    return reg.names[id];
}

void
CounterSet::grow(CounterId id)
{
    // Room for every name registered so far: a fresh context grows
    // once, not once per new id it bumps.
    std::size_t registered = 0;
    {
        CounterRegistry &reg = registry();
        const std::lock_guard<std::mutex> lock(reg.mutex);
        registered = reg.names.size();
    }
    slots_.resize(std::max({std::size_t{id} + 1, 2 * slots_.size(),
                            registered}));
}

void
CounterSet::absorb(const CounterSet &other)
{
    if (other.slots_.size() > slots_.size())
        slots_.resize(other.slots_.size());
    for (std::size_t id = 0; id < other.slots_.size(); ++id) {
        if (other.slots_[id].touched) {
            slots_[id].value += other.slots_[id].value;
            slots_[id].touched = true;
        }
    }
}

void
CounterSet::clear()
{
    std::fill(slots_.begin(), slots_.end(), Slot{});
}

void
CounterSet::materialize(std::map<std::string, std::uint64_t> &out) const
{
    for (std::size_t id = 0; id < slots_.size(); ++id) {
        if (slots_[id].touched)
            out[counterName(static_cast<CounterId>(id))] =
                slots_[id].value;
    }
}

Range
blockRange(std::uint64_t total, std::uint32_t num_threads, ThreadId tid)
{
    sisa_assert(num_threads > 0 && tid < num_threads, "bad partition");
    const std::uint64_t chunk = total / num_threads;
    const std::uint64_t extra = total % num_threads;
    const std::uint64_t begin =
        tid * chunk + std::min<std::uint64_t>(tid, extra);
    const std::uint64_t size = chunk + (tid < extra ? 1 : 0);
    return {begin, begin + size};
}

SimContext::SimContext(std::uint32_t num_threads)
    : numThreads_(num_threads), busy_(num_threads, 0),
      stall_(num_threads, 0), patterns_(num_threads, 0)
{
    sisa_assert(num_threads >= 1, "need at least one simulated thread");
}

void
SimContext::reset(std::uint32_t num_threads)
{
    sisa_assert(num_threads >= 1, "need at least one simulated thread");
    numThreads_ = num_threads;
    busy_.assign(num_threads, 0);
    stall_.assign(num_threads, 0);
    patterns_.assign(num_threads, 0);
    patternCutoff_ = 0;
    traceEnabled_ = false;
    traces_.clear();
    counters_.clear();
    activeQuery_ = no_query;
    activeSlot_ = no_slot;
    liveSlices_ = 0;
    countersView_.clear();
    accountsView_.clear();
}

std::size_t
SimContext::findSlot(QueryId query) const
{
    for (std::size_t i = 0; i < liveSlices_; ++i) {
        if (slices_[i].query == query)
            return i;
    }
    return no_slot;
}

std::size_t
SimContext::sliceIndex(QueryId query)
{
    const std::size_t found = findSlot(query);
    if (found != no_slot)
        return found;
    // A new slice reuses storage a reset() left behind.
    if (liveSlices_ == slices_.size())
        slices_.emplace_back();
    QuerySlice &slice = slices_[liveSlices_];
    slice.query = query;
    slice.busy = 0;
    slice.stall = 0;
    slice.counters.clear();
    return liveSlices_++;
}

const QueryAccount &
SimContext::queryAccount(QueryId query) const
{
    static const QueryAccount empty{};
    const std::size_t slot = findSlot(query);
    if (slot == no_slot)
        return empty;
    const QuerySlice &slice = slices_[slot];
    QueryAccount &view = accountsView_[query];
    view.busy = slice.busy;
    view.stall = slice.stall;
    slice.counters.materialize(view.counters);
    return view;
}

const std::map<QueryId, QueryAccount> &
SimContext::queryAccounts() const
{
    for (std::size_t i = 0; i < liveSlices_; ++i)
        queryAccount(slices_[i].query);
    return accountsView_;
}

void
SimContext::absorbQueryAccounting(const SimContext &other)
{
    for (std::size_t i = 0; i < other.liveSlices_; ++i) {
        const QuerySlice &theirs = other.slices_[i];
        QuerySlice &mine = slices_[sliceIndex(theirs.query)];
        mine.busy += theirs.busy;
        mine.stall += theirs.stall;
        mine.counters.absorb(theirs.counters);
    }
}

Cycles
SimContext::threadCycles(ThreadId tid) const
{
    return busy_[tid] + stall_[tid];
}

Cycles
SimContext::makespan() const
{
    Cycles max_cycles = 0;
    for (ThreadId t = 0; t < numThreads_; ++t)
        max_cycles = std::max(max_cycles, threadCycles(t));
    return max_cycles;
}

Cycles
SimContext::totalCycles() const
{
    Cycles total = 0;
    for (ThreadId t = 0; t < numThreads_; ++t)
        total += threadCycles(t);
    return total;
}

double
SimContext::stalledFraction(ThreadId tid) const
{
    const Cycles span = makespan();
    if (span == 0)
        return 0.0;
    const Cycles idle = span - threadCycles(tid);
    return static_cast<double>(stall_[tid] + idle) /
           static_cast<double>(span);
}

void
SimContext::enableSetSizeTrace(std::uint64_t bin_width)
{
    traceEnabled_ = true;
    traces_.clear();
    traces_.reserve(numThreads_);
    for (ThreadId t = 0; t < numThreads_; ++t)
        traces_.emplace_back(bin_width);
}

void
SimContext::recordSetSize(ThreadId tid, std::uint64_t size)
{
    if (traceEnabled_)
        traces_[tid].add(size);
}

const support::Histogram &
SimContext::setSizeTrace(ThreadId tid) const
{
    sisa_assert(traceEnabled_, "set-size tracing is not enabled");
    return traces_[tid];
}

void
SimContext::setPatternCutoff(std::uint64_t per_thread)
{
    patternCutoff_ = per_thread;
}

bool
SimContext::countPattern(ThreadId tid)
{
    ++patterns_[tid];
    return patternCutoff_ == 0 || patterns_[tid] < patternCutoff_;
}

bool
SimContext::countPatterns(ThreadId tid, std::uint64_t k)
{
    std::uint64_t &count = patterns_[tid];
    if (patternCutoff_ == 0) {
        count += k;
        return true;
    }
    if (k != 0) {
        count += count >= patternCutoff_
                     ? 1
                     : std::min(k, patternCutoff_ - count);
    }
    return count < patternCutoff_;
}

bool
SimContext::cutoffReached(ThreadId tid) const
{
    return patternCutoff_ != 0 && patterns_[tid] >= patternCutoff_;
}

std::uint64_t
SimContext::totalPatterns() const
{
    std::uint64_t total = 0;
    for (std::uint64_t p : patterns_)
        total += p;
    return total;
}

void
SimContext::absorbCounters(const SimContext &other)
{
    counters_.absorb(other.counters_);
    for (std::size_t i = 0; i < other.liveSlices_; ++i) {
        const QuerySlice &theirs = other.slices_[i];
        slices_[sliceIndex(theirs.query)].counters.absorb(
            theirs.counters);
    }
}

std::uint64_t
SimContext::counter(std::string_view name) const
{
    const std::optional<CounterId> id = findCounter(name);
    return id ? counters_.get(*id) : 0;
}

const std::map<std::string, std::uint64_t> &
SimContext::counters() const
{
    counters_.materialize(countersView_);
    return countersView_;
}

} // namespace sisa::sim
