/**
 * @file
 * Host-side worker pool backing the SCU's batched dispatch. The pool
 * owns a fixed set of std::thread workers. parallelFor() hands every
 * worker the same index range and blocks until all of them finish;
 * workers claim indices one at a time (self-scheduling), so a batch
 * of uneven operations balances itself across the pool.
 *
 * The pool is purely an execution vehicle for the host simulator: it
 * runs the functional half of a batch (Scu::preExecuteOutcomes),
 * which is pure per operation. All *modeled* accounting (per-vault
 * lane layout, cross-vault transfer charges, makespan, reduction)
 * happens afterwards on the dispatching thread in Scu::dispatch, so
 * modeled cycles, counters and results are invariant under the
 * worker count.
 *
 * SHARING. One pool may back several SCUs (Scu::adoptPool): the
 * serving layer's K query sessions dispatch into one set of host
 * workers instead of spawning K pools. The pool runs one parallelFor
 * at a time, so sharers must serialize their dispatches. The serving
 * layer's lockstep QueryScheduler (sisa/serving.hpp) guarantees
 * exactly that: at most one session holds the dispatch grant at a
 * time.
 */

#ifndef SISA_SISA_VAULT_POOL_HPP
#define SISA_SISA_VAULT_POOL_HPP

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sisa::isa {

/** Persistent worker threads for batched vault execution. */
class VaultWorkerPool
{
  public:
    /**
     * @param workers Number of host threads; clamped to >= 1. The
     *                caller decides the policy (hardware concurrency,
     *                config override, ...).
     */
    explicit VaultWorkerPool(std::uint32_t workers);

    ~VaultWorkerPool();

    VaultWorkerPool(const VaultWorkerPool &) = delete;
    VaultWorkerPool &operator=(const VaultWorkerPool &) = delete;

    std::uint32_t size() const
    {
        return static_cast<std::uint32_t>(threads_.size());
    }

    /**
     * Run @p body(i) for every i in [0, @p count) across the workers
     * and wait for all of them. Each index runs exactly once, on one
     * worker; its effects are visible to the caller on return. An
     * exception thrown by @p body stops that worker and is rethrown
     * here once every worker has finished (the lowest-numbered
     * failing worker's, if several threw).
     */
    void parallelFor(std::size_t count,
                     const std::function<void(std::size_t)> &body);

  private:
    void workerLoop(std::uint32_t index);

    std::vector<std::thread> threads_;
    std::mutex mutex_;
    std::condition_variable wake_;
    std::condition_variable done_;
    const std::function<void(std::uint32_t)> *job_ = nullptr;
    std::uint64_t generation_ = 0;
    std::uint32_t remaining_ = 0;
    bool shutdown_ = false;
    std::vector<std::exception_ptr> errors_;
};

} // namespace sisa::isa

#endif // SISA_SISA_VAULT_POOL_HPP
