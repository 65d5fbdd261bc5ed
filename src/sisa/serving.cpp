#include "sisa/serving.hpp"

#include <algorithm>

#include "support/logging.hpp"

namespace sisa::isa {

const char *
schedPolicyName(SchedPolicy policy)
{
    switch (policy) {
    case SchedPolicy::Fcfs:
        return "fcfs";
    case SchedPolicy::Credit:
        return "credit";
    }
    return "?";
}

std::optional<SchedPolicy>
parseSchedPolicy(std::string_view name)
{
    if (name == "fcfs")
        return SchedPolicy::Fcfs;
    if (name == "credit")
        return SchedPolicy::Credit;
    return std::nullopt;
}

const char *
queryStateName(QueryState state)
{
    switch (state) {
    case QueryState::Pending:
        return "pending";
    case QueryState::Admitted:
        return "admitted";
    case QueryState::Running:
        return "running";
    case QueryState::Completed:
        return "completed";
    case QueryState::TimedOut:
        return "timed-out";
    case QueryState::Shed:
        return "shed";
    }
    return "?";
}

const char *
shedPolicyName(ShedPolicy policy)
{
    switch (policy) {
    case ShedPolicy::None:
        return "none";
    case ShedPolicy::Edf:
        return "edf";
    }
    return "?";
}

std::optional<ShedPolicy>
parseShedPolicy(std::string_view name)
{
    if (name == "none")
        return ShedPolicy::None;
    if (name == "edf")
        return ShedPolicy::Edf;
    return std::nullopt;
}

// --- ServingModel ----------------------------------------------------------

ServingModel::ServingModel(SchedPolicy policy, mem::Cycles quantum)
    : policy_(policy), quantum_(quantum)
{
    sisa_assert(quantum > 0, "credit quantum must be positive");
}

void
ServingModel::setOverload(ShedPolicy shed, std::size_t capacity,
                          std::uint32_t vaultWidth)
{
    sisa_assert(admitted_.empty() && lifecycle_.empty(),
                "setOverload() after the first decision");
    shed_ = shed;
    capacity_ = capacity;
    vaultWidth_ = vaultWidth;
}

sim::QueryId
ServingModel::enroll(const AdmissionSpec &spec)
{
    const auto id = static_cast<sim::QueryId>(queries_.size());
    Query q;
    q.spec = spec;
    q.issue = spec.arrival; // Own timeline starts at arrival.
    q.credit = static_cast<std::int64_t>(quantum_);
    queries_.push_back(q);
    return id;
}

bool
ServingModel::creditEligible(
    const std::vector<sim::QueryId> &waiting) const
{
    return std::any_of(waiting.begin(), waiting.end(),
                       [&](sim::QueryId q) {
                           return queries_[q].credit > 0;
                       });
}

mem::Cycles
ServingModel::readyPoint(const Query &q) const
{
    return std::max(q.spec.arrival, q.issue);
}

mem::Cycles
ServingModel::vaultFloor() const
{
    if (vaultWidth_ == 0)
        return 0;
    mem::Cycles floor = ~mem::Cycles{0};
    for (std::uint32_t v = 0; v < vaultWidth_; ++v)
        floor = std::min(floor, vaultClock(v));
    return floor;
}

std::size_t
ServingModel::liveAdmitted() const
{
    std::size_t live = 0;
    for (const Query &q : queries_) {
        if (q.state == QueryState::Admitted ||
            q.state == QueryState::Running)
            ++live;
    }
    return live;
}

void
ServingModel::transition(sim::QueryId query, QueryState state)
{
    queries_[query].state = state;
    lifecycle_.push_back({query, state});
}

std::optional<ServingModel::Decision>
ServingModel::admitArrival(sim::QueryId query)
{
    const bool full = shed_ != ShedPolicy::None && capacity_ != 0 &&
                      liveAdmitted() >= capacity_;
    if (!full) {
        transition(query, QueryState::Admitted);
        return std::nullopt;
    }
    // EDF victim: the latest deadline among the newcomer and the
    // not-yet-running queries (no deadline sorts last; ties shed the
    // newer enrollment).
    sim::QueryId victim = query;
    for (sim::QueryId q = 0; q < queries_.size(); ++q) {
        if (queries_[q].state != QueryState::Admitted)
            continue;
        if (queries_[q].spec.deadline >= queries_[victim].spec.deadline)
            victim = q;
    }
    if (victim != query)
        transition(query, QueryState::Admitted);
    queries_[victim].wake = QueryState::Shed;
    transition(victim, QueryState::Shed);
    return Decision{victim, QueryState::Shed};
}

ServingModel::Decision
ServingModel::decide(const std::vector<sim::QueryId> &waiting)
{
    sisa_assert(!waiting.empty(), "decide() with nobody parked");

    // 1. Warp the admission clock to the earliest ready point so the
    //    eligible set is never empty: virtual time, never host time.
    mem::Cycles earliest = ~mem::Cycles{0};
    for (const sim::QueryId q : waiting)
        earliest = std::min(earliest, readyPoint(queries_[q]));
    nowV_ = std::max(nowV_, earliest);

    // 2. Arrivals in (arrival, id) order through the bounded queue.
    //    A shed victim ends the sweep: its wake occupies the slot,
    //    and remaining arrivals re-enter at the next boundary.
    for (;;) {
        bool found = false;
        sim::QueryId next = 0;
        for (const sim::QueryId q : waiting) {
            const Query &cand = queries_[q];
            if (cand.state != QueryState::Pending ||
                cand.spec.arrival > nowV_)
                continue;
            if (!found ||
                cand.spec.arrival < queries_[next].spec.arrival) {
                next = q;
                found = true;
            }
        }
        if (!found)
            break;
        if (const auto shed = admitArrival(next))
            return *shed;
    }

    for (const sim::QueryId q : waiting) {
        Query &cand = queries_[q];
        if (cand.state != QueryState::Admitted &&
            cand.state != QueryState::Running)
            continue;
        // 3. Deadline enforcement: the query's own virtual position
        //    (issue point / vault tail) passed its deadline -- no
        //    later dispatch can complete it in time.
        if (cand.spec.deadline != no_deadline &&
            std::max(cand.issue, cand.tail) > cand.spec.deadline) {
            cand.wake = QueryState::TimedOut;
            transition(q, QueryState::TimedOut);
            return {q, QueryState::TimedOut};
        }
        // 4. EDF reachability: shed a not-yet-running query whose
        //    deadline is provably unreachable -- even dispatching at
        //    its ready point onto the earliest-free vault lane, the
        //    clock is already past the deadline.
        if (shed_ == ShedPolicy::Edf &&
            cand.state == QueryState::Admitted &&
            cand.spec.deadline != no_deadline &&
            std::max(readyPoint(cand), vaultFloor()) >
                cand.spec.deadline) {
            cand.wake = QueryState::Shed;
            transition(q, QueryState::Shed);
            return {q, QueryState::Shed};
        }
    }

    // 5. Grant: the policy picks among the arrived queries.
    eligibleScratch_.clear();
    for (const sim::QueryId q : waiting) {
        const Query &cand = queries_[q];
        if ((cand.state == QueryState::Admitted ||
             cand.state == QueryState::Running) &&
            cand.spec.arrival <= nowV_)
            eligibleScratch_.push_back(q);
    }
    sisa_assert(!eligibleScratch_.empty(),
                "admission clock warp left nobody eligible");
    const sim::QueryId winner = pick(eligibleScratch_);
    if (queries_[winner].state == QueryState::Admitted)
        transition(winner, QueryState::Running);
    return {winner, QueryState::Running};
}

sim::QueryId
ServingModel::pick(const std::vector<sim::QueryId> &waiting)
{
    sisa_assert(!waiting.empty(), "pick() from an empty waiting set");
    // FCFS: arrival order IS id order, and waiting is ascending.
    sim::QueryId winner = waiting.front();
    if (shed_ == ShedPolicy::Edf) {
        // Earliest deadline first (no deadline sorts last; ties
        // resolve by enrollment order). Overrides the base policy:
        // EDF admission ordering is what makes the shed decisions
        // consistent with the grant order.
        for (const sim::QueryId q : waiting) {
            if (queries_[q].spec.deadline <
                queries_[winner].spec.deadline)
                winner = q;
        }
    } else if (policy_ == SchedPolicy::Credit) {
        // Deficit round-robin: the cursor stays on a query while it
        // retains credit; exhausting it passes the turn. When no
        // waiting query has credit left, every live query refills by
        // the quantum (repeatedly, if a huge dispatch dug a deep
        // deficit) -- so long batches borrow turns they later repay --
        // and the turn passes to the NEXT query in round-robin order,
        // not back to the one whose exhaustion forced the refill.
        const auto n = static_cast<sim::QueryId>(queries_.size());
        sim::QueryId scan = cursor_;
        if (!creditEligible(waiting)) {
            do {
                for (Query &q : queries_) {
                    if (!q.done)
                        q.credit +=
                            static_cast<std::int64_t>(quantum_);
                }
            } while (!creditEligible(waiting));
            scan = (cursor_ + 1) % n;
        }
        for (sim::QueryId off = 0; off < n; ++off) {
            const sim::QueryId q = (scan + off) % n;
            if (queries_[q].credit > 0 &&
                std::binary_search(waiting.begin(), waiting.end(), q)) {
                winner = q;
                break;
            }
        }
        cursor_ = winner;
    }
    admitted_.push_back(winner);
    return winner;
}

void
ServingModel::charge(sim::QueryId query, const DispatchDemand &demand)
{
    Query &q = queries_[query];
    sisa_assert(!q.done, "charge() after finish()");
    const mem::Cycles start = q.issue;
    q.issue += demand.own;
    q.own += demand.own;
    if (policy_ == SchedPolicy::Credit)
        q.credit -= static_cast<std::int64_t>(demand.own);
    for (const auto &[vault, cycles] : demand.lanes) {
        if (vault >= vaultClock_.size())
            vaultClock_.resize(vault + 1, 0);
        const mem::Cycles begin = std::max(vaultClock_[vault], start);
        vaultClock_[vault] = begin + cycles;
        q.tail = std::max(q.tail, vaultClock_[vault]);
    }
}

void
ServingModel::finish(sim::QueryId query)
{
    Query &q = queries_[query];
    sisa_assert(!q.done, "finish() twice");
    q.done = true;
    q.completionAt = std::max(q.issue, q.tail);
    // A cancellation wake already logged its terminal verdict; a
    // normal retirement completes here.
    if (q.wake == QueryState::Running)
        transition(query, QueryState::Completed);
}

bool
ServingModel::finished(sim::QueryId query) const
{
    return queries_[query].done;
}

QueryState
ServingModel::state(sim::QueryId query) const
{
    return queries_[query].state;
}

QueryState
ServingModel::grantVerdict(sim::QueryId query) const
{
    return queries_[query].wake;
}

mem::Cycles
ServingModel::completion(sim::QueryId query) const
{
    const Query &q = queries_[query];
    sisa_assert(q.done, "completion() before finish()");
    return q.completionAt;
}

mem::Cycles
ServingModel::ownCycles(sim::QueryId query) const
{
    return queries_[query].own;
}

mem::Cycles
ServingModel::arrival(sim::QueryId query) const
{
    return queries_[query].spec.arrival;
}

mem::Cycles
ServingModel::deadline(sim::QueryId query) const
{
    return queries_[query].spec.deadline;
}

bool
ServingModel::deadlineMet(sim::QueryId query) const
{
    const Query &q = queries_[query];
    sisa_assert(q.done, "deadlineMet() before finish()");
    return q.state == QueryState::Completed &&
           (q.spec.deadline == no_deadline ||
            q.completionAt <= q.spec.deadline);
}

std::int64_t
ServingModel::credit(sim::QueryId query) const
{
    return queries_[query].credit;
}

mem::Cycles
ServingModel::vaultClock(std::uint32_t vault) const
{
    return vault < vaultClock_.size() ? vaultClock_[vault] : 0;
}

// --- QueryScheduler --------------------------------------------------------

QueryScheduler::QueryScheduler(SchedPolicy policy, mem::Cycles quantum)
    : model_(policy, quantum)
{
}

void
QueryScheduler::setOverload(ShedPolicy shed, std::size_t capacity,
                            std::uint32_t vaultWidth)
{
    const std::scoped_lock lock(mu_);
    model_.setOverload(shed, capacity, vaultWidth);
}

sim::QueryId
QueryScheduler::enroll(const AdmissionSpec &spec)
{
    const std::scoped_lock lock(mu_);
    const sim::QueryId id = model_.enroll(spec);
    states_.push_back(State::Running);
    wake_.emplace_back();
    ++unfinished_;
    return id;
}

void
QueryScheduler::maybeGrantLocked()
{
    if (grantOutstanding_ || waiting_ == 0 || waiting_ < unfinished_)
        return;
    // Every unfinished query is parked at admit(): the decision is a
    // pure function of policy state, independent of host timing.
    waitingScratch_.clear();
    for (sim::QueryId q = 0; q < states_.size(); ++q) {
        if (!model_.finished(q) && states_[q] == State::Waiting)
            waitingScratch_.push_back(q);
    }
    const ServingModel::Decision decision =
        model_.decide(waitingScratch_);
    states_[decision.query] = State::Granted;
    grantOutstanding_ = true;
    wake_[decision.query].notify_one();
}

QueryState
QueryScheduler::admit(sim::QueryId query)
{
    std::unique_lock lock(mu_);
    sisa_assert(states_[query] == State::Running,
                "admit() while already admitted");
    states_[query] = State::Waiting;
    ++waiting_;
    maybeGrantLocked();
    wake_[query].wait(lock,
                      [&] { return states_[query] == State::Granted; });
    --waiting_;
    // The slot stays held either way: a grantee until report(), a
    // cancellation wake until leave() -- so cancelled teardown never
    // overlaps a co-tenant's dispatch.
    return model_.grantVerdict(query);
}

void
QueryScheduler::report(sim::QueryId query, DispatchDemand demand)
{
    const std::scoped_lock lock(mu_);
    sisa_assert(states_[query] == State::Granted,
                "report() without a grant");
    model_.charge(query, demand);
    states_[query] = State::Running;
    grantOutstanding_ = false;
    maybeGrantLocked();
}

mem::Cycles
QueryScheduler::ownCycles(sim::QueryId query) const
{
    const std::scoped_lock lock(mu_);
    return model_.ownCycles(query);
}

void
QueryScheduler::leave(sim::QueryId query, DispatchDemand demand)
{
    const std::scoped_lock lock(mu_);
    sisa_assert(!model_.finished(query), "leave() twice");
    model_.charge(query, demand);
    model_.finish(query);
    --unfinished_;
    // A departing grant-holder (normal or cancelled) releases the
    // slot; a departing bystander may complete the "all parked"
    // condition.
    if (states_[query] == State::Granted)
        grantOutstanding_ = false;
    states_[query] = State::Running;
    maybeGrantLocked();
}

} // namespace sisa::isa
