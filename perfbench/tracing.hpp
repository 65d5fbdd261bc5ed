/**
 * @file
 * In-memory span recording for the benchmark's traced run, and the
 * forwarding SetEngine that opens one span per call into the wrapped
 * engine.
 *
 * A span is (name, start, end, parent, run id). Spans stay in memory
 * and are written out once, when the benchmark ends. A span's self
 * time is its duration minus the part of that interval its children
 * cover. Spans are recorded from the benchmark's own files only, at
 * the calls it makes into each layer; nothing inside the program is
 * instrumented.
 */

#ifndef SISA_PERFBENCH_TRACING_HPP
#define SISA_PERFBENCH_TRACING_HPP

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/set_engine.hpp"

namespace perfbench {

/** Monotonic host nanoseconds. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Span names; the engine-call kinds group into three layers. */
enum class SpanKind : std::uint8_t
{
    Generate,    ///< Graph generation (graph module).
    SetGraph,    ///< Orientation + set materialisation (core module).
    Algorithm,   ///< One algorithm call (algorithms module).
    Scenario,    ///< One serveMixedWorkload call (serve module).
    Batch,       ///< executeBatch / executeBatchAsync.
    BatchCollect,///< collectBatch / drainBatches.
    Serial,      ///< A single set operation or element operation.
    Lifecycle,   ///< create / createEmpty / createFull / clone / destroy.
    Session,     ///< bindSession / unbindSession.
};

inline const char *
spanName(SpanKind kind)
{
    switch (kind) {
      case SpanKind::Generate: return "graph.generate";
      case SpanKind::SetGraph: return "core.setgraph_build";
      case SpanKind::Algorithm: return "algorithms.run";
      case SpanKind::Scenario: return "serve.scenario";
      case SpanKind::Batch: return "core.batch";
      case SpanKind::BatchCollect: return "core.batch_collect";
      case SpanKind::Serial: return "core.serial";
      case SpanKind::Lifecycle: return "core.lifecycle";
      case SpanKind::Session: return "core.session";
    }
    return "?";
}

inline constexpr std::uint32_t no_parent = ~std::uint32_t{0};

struct Span
{
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::uint32_t parent = no_parent;
    std::uint32_t run = 0;
    SpanKind kind = SpanKind::Generate;
};

/**
 * Single-threaded span recorder. open() pushes a span as the child of
 * the innermost open span; close() ends it. The benchmark runs every
 * traced layer on one host thread (ScuConfig::batchWorkers is 1), so
 * a stack of open spans is the whole parent relation.
 */
class Tracer
{
  public:
    void setRun(std::uint32_t run) { run_ = run; }

    /** Drop every recorded span (no span may be open). */
    void clear() { spans_.clear(); }

    std::uint32_t
    open(SpanKind kind)
    {
        const auto id = static_cast<std::uint32_t>(spans_.size());
        spans_.push_back({nowNs(), 0,
                          stack_.empty() ? no_parent : stack_.back(),
                          run_, kind});
        stack_.push_back(id);
        return id;
    }

    void
    close(std::uint32_t id)
    {
        spans_[id].end = nowNs();
        stack_.pop_back();
    }

    const std::vector<Span> &spans() const { return spans_; }

    /**
     * Self seconds of span @p id: its duration minus the union of the
     * intervals its direct children cover.
     */
    double
    selfSeconds(std::uint32_t id) const
    {
        std::vector<std::pair<std::int64_t, std::int64_t>> covered;
        for (std::size_t i = id + 1; i < spans_.size(); ++i) {
            if (spans_[i].parent == id)
                covered.emplace_back(spans_[i].start, spans_[i].end);
        }
        std::sort(covered.begin(), covered.end());
        std::int64_t busy = 0;
        std::int64_t reach = spans_[id].start;
        for (const auto &[start, end] : covered) {
            const std::int64_t from = std::max(start, reach);
            if (end > from) {
                busy += end - from;
                reach = end;
            }
        }
        return 1e-9 * static_cast<double>(spans_[id].end -
                                          spans_[id].start - busy);
    }

    /** Write every span as CSV (times relative to the first span). */
    bool
    write(const std::string &path) const
    {
        std::FILE *out = std::fopen(path.c_str(), "w");
        if (!out)
            return false;
        const std::int64_t origin =
            spans_.empty() ? 0 : spans_.front().start;
        std::fprintf(out, "id,name,start_ns,end_ns,parent,run\n");
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::fprintf(out, "%zu,%s,%lld,%lld,%lld,%u\n", i,
                         spanName(s.kind),
                         static_cast<long long>(s.start - origin),
                         static_cast<long long>(s.end - origin),
                         s.parent == no_parent
                             ? -1LL
                             : static_cast<long long>(s.parent),
                         s.run);
        }
        return std::fclose(out) == 0;
    }

  private:
    std::vector<Span> spans_;
    std::vector<std::uint32_t> stack_;
    std::uint32_t run_ = 0;
};

/** RAII span. */
class Scope
{
  public:
    Scope(Tracer &tracer, SpanKind kind)
        : tracer_(tracer), id_(tracer.open(kind))
    {
    }
    ~Scope() { tracer_.close(id_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    std::uint32_t id() const { return id_; }

  private:
    Tracer &tracer_;
    std::uint32_t id_;
};

/**
 * Forwarding SetEngine: every virtual call goes to the wrapped engine
 * inside a span, so a traced run executes exactly the calls an
 * untraced one does. The async trio (executeBatchAsync, collectBatch,
 * drainBatches) is forwarded too; falling back to the base class's
 * immediate-degrade path would silently turn the wrapped SCU's
 * in-flight window off.
 */
class TracedEngine final : public sisa::core::SetEngine
{
  public:
    using SetId = sisa::core::SetId;
    using SisaOp = sisa::core::SisaOp;
    using Element = sisa::core::Element;
    using SetRepr = sisa::core::SetRepr;
    using Ctx = sisa::sim::SimContext;
    using Tid = sisa::sim::ThreadId;

    TracedEngine(sisa::core::SetEngine &inner, Tracer &tracer)
        : inner_(inner), tracer_(tracer)
    {
    }

    /** Operations carried by batch calls so far. */
    std::uint64_t batchOps() const { return batchOps_; }

    sisa::core::SetStore &store() override { return inner_.store(); }
    const sisa::core::SetStore &store() const override
    {
        return inner_.store();
    }
    const char *name() const override { return inner_.name(); }

    void
    bindSession(sisa::core::QuerySession &session) override
    {
        Scope s(tracer_, SpanKind::Session);
        SetEngine::bindSession(session);
        inner_.bindSession(session);
    }

    sisa::isa::DispatchDemand
    unbindSession() override
    {
        Scope s(tracer_, SpanKind::Session);
        sisa::isa::DispatchDemand tail = inner_.unbindSession();
        SetEngine::unbindSession();
        return tail;
    }

    SetId
    intersect(Ctx &ctx, Tid tid, SetId a, SetId b,
              SisaOp variant) override
    {
        Scope s(tracer_, SpanKind::Serial);
        return inner_.intersect(ctx, tid, a, b, variant);
    }

    SetId
    setUnion(Ctx &ctx, Tid tid, SetId a, SetId b,
             SisaOp variant) override
    {
        Scope s(tracer_, SpanKind::Serial);
        return inner_.setUnion(ctx, tid, a, b, variant);
    }

    SetId
    difference(Ctx &ctx, Tid tid, SetId a, SetId b,
               SisaOp variant) override
    {
        Scope s(tracer_, SpanKind::Serial);
        return inner_.difference(ctx, tid, a, b, variant);
    }

    std::uint64_t
    intersectCard(Ctx &ctx, Tid tid, SetId a, SetId b,
                  SisaOp variant) override
    {
        Scope s(tracer_, SpanKind::Serial);
        return inner_.intersectCard(ctx, tid, a, b, variant);
    }

    std::uint64_t
    unionCard(Ctx &ctx, Tid tid, SetId a, SetId b) override
    {
        Scope s(tracer_, SpanKind::Serial);
        return inner_.unionCard(ctx, tid, a, b);
    }

    sisa::core::BatchResult
    executeBatch(Ctx &ctx, Tid tid,
                 const sisa::core::BatchRequest &batch) override
    {
        Scope s(tracer_, SpanKind::Batch);
        batchOps_ += batch.size();
        return inner_.executeBatch(ctx, tid, batch);
    }

    sisa::core::BatchHandle
    executeBatchAsync(Ctx &ctx, Tid tid,
                      const sisa::core::BatchRequest &batch) override
    {
        Scope s(tracer_, SpanKind::Batch);
        batchOps_ += batch.size();
        return inner_.executeBatchAsync(ctx, tid, batch);
    }

    sisa::core::BatchResult
    collectBatch(Ctx &ctx, Tid tid,
                 sisa::core::BatchHandle handle) override
    {
        Scope s(tracer_, SpanKind::BatchCollect);
        return inner_.collectBatch(ctx, tid, handle);
    }

    void
    drainBatches(Ctx &ctx, Tid tid) override
    {
        Scope s(tracer_, SpanKind::BatchCollect);
        inner_.drainBatches(ctx, tid);
    }

    std::uint64_t
    cardinality(Ctx &ctx, Tid tid, SetId a) override
    {
        Scope s(tracer_, SpanKind::Serial);
        return inner_.cardinality(ctx, tid, a);
    }

    bool
    member(Ctx &ctx, Tid tid, SetId a, Element x) override
    {
        Scope s(tracer_, SpanKind::Serial);
        return inner_.member(ctx, tid, a, x);
    }

    void
    insert(Ctx &ctx, Tid tid, SetId a, Element x) override
    {
        Scope s(tracer_, SpanKind::Serial);
        inner_.insert(ctx, tid, a, x);
    }

    void
    remove(Ctx &ctx, Tid tid, SetId a, Element x) override
    {
        Scope s(tracer_, SpanKind::Serial);
        inner_.remove(ctx, tid, a, x);
    }

    SetId
    create(Ctx &ctx, Tid tid, std::vector<Element> elems,
           SetRepr repr) override
    {
        Scope s(tracer_, SpanKind::Lifecycle);
        return inner_.create(ctx, tid, std::move(elems), repr);
    }

    SetId
    createEmpty(Ctx &ctx, Tid tid, SetRepr repr) override
    {
        Scope s(tracer_, SpanKind::Lifecycle);
        return inner_.createEmpty(ctx, tid, repr);
    }

    SetId
    createFull(Ctx &ctx, Tid tid) override
    {
        Scope s(tracer_, SpanKind::Lifecycle);
        return inner_.createFull(ctx, tid);
    }

    SetId
    clone(Ctx &ctx, Tid tid, SetId a) override
    {
        Scope s(tracer_, SpanKind::Lifecycle);
        return inner_.clone(ctx, tid, a);
    }

    void
    destroy(Ctx &ctx, Tid tid, SetId a) override
    {
        Scope s(tracer_, SpanKind::Lifecycle);
        inner_.destroy(ctx, tid, a);
    }

    std::vector<Element>
    elements(Ctx &ctx, Tid tid, SetId a) override
    {
        Scope s(tracer_, SpanKind::Serial);
        return inner_.elements(ctx, tid, a);
    }

  private:
    sisa::core::SetEngine &inner_;
    Tracer &tracer_;
    std::uint64_t batchOps_ = 0;
};

} // namespace perfbench

#endif // SISA_PERFBENCH_TRACING_HPP
