#include "sisa/vault_pool.hpp"

#include <algorithm>
#include <atomic>

namespace sisa::isa {

VaultWorkerPool::VaultWorkerPool(std::uint32_t workers)
{
    const std::uint32_t count = std::max<std::uint32_t>(workers, 1);
    threads_.reserve(count);
    errors_.resize(count);
    for (std::uint32_t i = 0; i < count; ++i)
        threads_.emplace_back([this, i] { workerLoop(i); });
}

VaultWorkerPool::~VaultWorkerPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        shutdown_ = true;
    }
    wake_.notify_all();
    for (std::thread &t : threads_)
        t.join();
}

void
VaultWorkerPool::parallelFor(std::size_t count,
                             const std::function<void(std::size_t)> &body)
{
    std::atomic<std::size_t> next{0};
    const std::function<void(std::uint32_t)> job = [&](std::uint32_t) {
        for (std::size_t i = next++; i < count; i = next++)
            body(i);
    };
    std::unique_lock<std::mutex> lock(mutex_);
    job_ = &job;
    remaining_ = size();
    std::fill(errors_.begin(), errors_.end(), std::exception_ptr{});
    ++generation_;
    wake_.notify_all();
    done_.wait(lock, [this] { return remaining_ == 0; });
    job_ = nullptr;
    for (std::exception_ptr &err : errors_) {
        if (err)
            std::rethrow_exception(err);
    }
}

void
VaultWorkerPool::workerLoop(std::uint32_t index)
{
    std::uint64_t seen = 0;
    for (;;) {
        const std::function<void(std::uint32_t)> *job = nullptr;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock, [this, seen] {
                return shutdown_ || generation_ != seen;
            });
            if (shutdown_)
                return;
            seen = generation_;
            job = job_;
        }
        try {
            (*job)(index);
        } catch (...) {
            std::lock_guard<std::mutex> lock(mutex_);
            errors_[index] = std::current_exception();
        }
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (--remaining_ == 0)
                done_.notify_all();
        }
    }
}

} // namespace sisa::isa
