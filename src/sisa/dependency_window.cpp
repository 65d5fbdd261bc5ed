#include "sisa/dependency_window.hpp"

#include <algorithm>

namespace sisa::isa {

std::vector<std::uint64_t>
DependencyWindow::joinBatch(const BatchRequest &batch,
                            std::uint64_t issue) const
{
    std::vector<std::uint64_t> ready(batch.size(), issue);
    if (defs_.empty())
        return ready;
    const auto &ops = batch.ops;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        for (const SetId source : {ops[i].a, ops[i].b}) {
            if (source == invalid_set)
                continue;
            const auto it = defs_.find(source);
            if (it != defs_.end())
                ready[i] = std::max(ready[i], it->second);
        }
    }
    return ready;
}

void
DependencyWindow::noteDef(SetId id, std::uint64_t completion)
{
    defs_[id] = completion;
}

void
DependencyWindow::noteRead(SetId id, std::uint64_t t)
{
    std::uint64_t &last = reads_[id];
    last = std::max(last, t);
}

std::uint64_t
DependencyWindow::defTime(SetId id) const
{
    const auto it = defs_.find(id);
    return it != defs_.end() ? it->second : 0;
}

std::uint64_t
DependencyWindow::lastRead(SetId id) const
{
    const auto it = reads_.find(id);
    return it != reads_.end() ? it->second : 0;
}

void
DependencyWindow::forget(SetId id)
{
    defs_.erase(id);
    reads_.erase(id);
}

void
DependencyWindow::clear()
{
    defs_.clear();
    reads_.clear();
}

} // namespace sisa::isa
