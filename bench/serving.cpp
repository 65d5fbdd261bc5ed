/**
 * @file
 * Multi-tenant serving tail-latency bench: 100 co-tenant queries on
 * an rmat-9 graph -- one heavy batched k-clique straggler enrolled
 * first, one Bron-Kerbosch query, and 98 light triangle counts --
 * run once under FCFS and once under the Credit deficit-round-robin
 * scheduler (quantum 2000 cycles, far below the straggler's
 * appetite). Under FCFS the straggler holds the vaults until it
 * finishes, so every triangle count completes behind its multi-
 * million-cycle makespan (head-of-line blocking); Credit exhausts
 * its quantum and interleaves the light queries through, collapsing
 * the p50 and p99 of the per-query virtual completion distribution
 * by orders of magnitude. Rows (unit "cycles", speedup > 1 = Credit
 * wins):
 *
 *   serve_tail_rmat9_p50_cycles   scalar_ns=FCFS p50, vector_ns=Credit p50
 *   serve_tail_rmat9_p99_cycles   scalar_ns=FCFS p99, vector_ns=Credit p99
 *
 * Overload sweep (PR 10): 16 deadline-bearing triangle counts arrive
 * open-loop at 0.5x/1x/2x/4x of solo capacity (inter-arrival =
 * solo-completion / load-factor, deadline = arrival + 3x solo), run
 * once with no overload protection and once under shed=edf with a
 * bounded admission queue. EDF sheds provably-unreachable deadlines
 * before they waste vault time and grants earliest-deadline-first,
 * so past saturation it completes MORE queries within deadline than
 * admitting everything. Rows (unit "queries" unless noted):
 *
 *   serve_overload_rmat9_goodput_2x        scalar=no-shed goodput,
 *       vector=edf goodput at 2x load (gate: speedup <= 1, EDF wins)
 *   serve_overload_rmat9_shed_rate_{0p5x,1x,2x,4x}   scalar=offered
 *       queries, vector=edf survivors (gate: ratio monotone in load)
 *   serve_overload_rmat9_p99_cycles_2x     unit "cycles": p99
 *       completion of survivors, no-shed vs edf at 2x load
 *
 * Every printed row also shows the host seconds of the
 * serveMixedWorkload call behind each side (printed only; the JSON
 * rows stay modeled).
 *
 * With --kernels-json=FILE the rows are merged into an existing
 * BENCH_kernels.json written by bench_microbench --kernels-only:
 * stale serve_* rows are dropped and the fresh ones appended, so CI
 * runs the two binaries back to back and validates one file with
 * tools/check_bench_json.py (which requires both rows).
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "serve/scenario.hpp"
#include "support/stats.hpp"

using namespace sisa;

namespace {

/** serveMixedWorkload, timing the call on the host into @p host_s. */
serve::ScenarioReport
timedServe(const graph::Graph &graph, const serve::ScenarioConfig &config,
           double &host_s)
{
    const auto start = std::chrono::steady_clock::now();
    serve::ScenarioReport report =
        serve::serveMixedWorkload(graph, config);
    host_s = std::chrono::duration<double>(
                 std::chrono::steady_clock::now() - start)
                 .count();
    return report;
}

/** The mixed scenario: 1 batched straggler + 99 lighter queries. */
serve::ScenarioConfig
mixedWorkload(isa::SchedPolicy policy)
{
    serve::ScenarioConfig config;
    config.policy = policy;
    config.quantum = 2000; // Well below the straggler's appetite.
    // The straggler: a deep clique enumeration whose batched
    // dispatches occupy the shared vaults for ~2M modeled cycles.
    config.queries.push_back({.problem = "kcc-6", .cutoff = 20000});
    // Bron-Kerbosch runs serial set ops (no batched dispatches), so
    // it contends for nothing -- it seasons the mix and pins that
    // unbatched co-tenants pass through the scheduler unharmed.
    config.queries.push_back({.problem = "mc", .cutoff = 60});
    for (int i = 0; i < 98; ++i)
        config.queries.push_back({.problem = "tc", .cutoff = 500});
    return config;
}

std::vector<double>
completions(const graph::Graph &graph, isa::SchedPolicy policy,
            double &host_s)
{
    const serve::ScenarioReport report =
        timedServe(graph, mixedWorkload(policy), host_s);
    std::vector<double> out;
    out.reserve(report.queries.size());
    for (const serve::QueryReport &qr : report.queries)
        out.push_back(static_cast<double>(qr.completion));
    return out;
}

struct Row
{
    std::string name;
    std::uint64_t size;
    double fcfs;
    double credit;
    const char *unit = "cycles";
    double fcfsHostS = 0.0;   ///< Host seconds of the scalar side's call.
    double creditHostS = 0.0; ///< Host seconds of the vector side's call.
};

std::string
rowJson(const Row &r)
{
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "    {\"name\": \"%s\", \"size\": %llu, "
                  "\"unit\": \"%s\", "
                  "\"scalar_ns\": %.1f, \"vector_ns\": %.1f, "
                  "\"speedup\": %.3f}",
                  r.name.c_str(),
                  static_cast<unsigned long long>(r.size), r.unit,
                  r.fcfs, r.credit, r.fcfs / r.credit);
    return buf;
}

/**
 * One overload cell: 16 open-loop tc queries in two deadline
 * classes -- even arrivals are latency-critical (tight deadline,
 * rel_deadline/2 after arrival), odd arrivals are batch-tolerant
 * (4x looser). Under FCFS grant order a tight query stuck behind
 * earlier loose arrivals burns its slack in the queue and times
 * out; EDF grants it first and lets the loose deadlines absorb the
 * wait, which is where its goodput edge comes from.
 */
serve::ScenarioConfig
overloadWorkload(isa::ShedPolicy shed, double inter_arrival,
                 mem::Cycles rel_deadline)
{
    serve::ScenarioConfig config;
    config.policy = isa::SchedPolicy::Fcfs;
    config.shed = shed;
    config.admitCapacity = shed == isa::ShedPolicy::None ? 0 : 4;
    for (int i = 0; i < 16; ++i) {
        serve::QuerySpec spec;
        spec.problem = "tc";
        spec.cutoff = 500;
        spec.arrival =
            static_cast<mem::Cycles>(static_cast<double>(i) *
                                     inter_arrival);
        if (rel_deadline != isa::no_deadline)
            spec.deadline =
                spec.arrival + (i % 2 == 0 ? rel_deadline / 2
                                           : rel_deadline * 2);
        config.queries.push_back(std::move(spec));
    }
    return config;
}

struct OverloadOutcome
{
    double goodput = 0.0;   ///< Completed within deadline.
    double survivors = 0.0; ///< Completed at all.
    double p99 = 0.0;       ///< p99 completion of the survivors.
    double hostS = 0.0;     ///< Host seconds of the call.
};

OverloadOutcome
runOverload(const graph::Graph &graph, isa::ShedPolicy shed,
            double inter_arrival, mem::Cycles rel_deadline)
{
    OverloadOutcome out;
    const serve::ScenarioReport report = timedServe(
        graph, overloadWorkload(shed, inter_arrival, rel_deadline),
        out.hostS);
    std::vector<double> completions;
    std::vector<double> deadlines;
    for (const serve::QueryReport &qr : report.queries) {
        if (qr.state != isa::QueryState::Completed)
            continue;
        completions.push_back(static_cast<double>(qr.completion));
        deadlines.push_back(static_cast<double>(qr.deadline));
    }
    out.goodput = support::goodput(completions, deadlines, 0.0);
    out.survivors = static_cast<double>(completions.size());
    out.p99 = support::p99(completions);
    return out;
}

/**
 * Merge the rows into an existing BENCH_kernels.json: drop stale
 * serve_* rows, then splice the fresh ones in before the closing
 * bracket of the "benchmarks" array (comma-correct either way).
 */
int
mergeIntoKernelsJson(const std::string &path,
                     const std::vector<Row> &rows)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "cannot read %s (run bench_microbench "
                             "--kernels-only first)\n",
                     path.c_str());
        return 1;
    }
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);) {
        if (line.find("\"name\": \"serve_") == std::string::npos)
            lines.push_back(line);
    }
    in.close();

    std::size_t close = lines.size();
    for (std::size_t i = 0; i < lines.size(); ++i) {
        if (lines[i] == "  ]")
            close = i;
    }
    if (close == lines.size() || close == 0) {
        std::fprintf(stderr, "%s: no benchmarks array to merge into\n",
                     path.c_str());
        return 1;
    }
    // The (now) last row must carry a separating comma; it may have
    // lost it if the stale serve rows were at the tail.
    std::string &prev = lines[close - 1];
    if (!prev.empty() && prev.back() != ',' && prev.back() == '}')
        prev += ',';
    std::vector<std::string> merged(lines.begin(),
                                    lines.begin() +
                                        static_cast<std::ptrdiff_t>(
                                            close));
    for (std::size_t i = 0; i < rows.size(); ++i)
        merged.push_back(rowJson(rows[i]) +
                         (i + 1 < rows.size() ? "," : ""));
    merged.insert(merged.end(),
                  lines.begin() +
                      static_cast<std::ptrdiff_t>(close),
                  lines.end());

    std::ofstream out(path, std::ios::trunc);
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 1;
    }
    for (const std::string &line : merged)
        out << line << '\n';
    std::printf("merged %zu serve rows into %s\n", rows.size(),
                path.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--kernels-json=", 15) == 0) {
            json_path = argv[i] + 15;
        } else {
            std::fprintf(stderr,
                         "usage: %s [--kernels-json=FILE]\n", argv[0]);
            return 2;
        }
    }

    graph::RmatParams params;
    params.scale = 9;
    params.edgeFactor = 8;
    const graph::Graph g = graph::rmat(params, 42);
    std::printf("serving bench: %s, 1 kcc-6 + 1 mc + 98 tc\n",
                g.describe().c_str());

    double fcfs_s = 0.0;
    double credit_s = 0.0;
    const std::vector<double> fcfs =
        completions(g, isa::SchedPolicy::Fcfs, fcfs_s);
    const std::vector<double> credit =
        completions(g, isa::SchedPolicy::Credit, credit_s);

    std::vector<Row> rows = {
        {"serve_tail_rmat9_p50_cycles", g.numVertices(),
         support::p50(fcfs), support::p50(credit), "cycles", fcfs_s,
         credit_s},
        {"serve_tail_rmat9_p99_cycles", g.numVertices(),
         support::p99(fcfs), support::p99(credit), "cycles", fcfs_s,
         credit_s},
    };

    // Overload sweep. Capacity is set by the serialized resource --
    // shared vault-lane time -- not by solo completion (each session
    // has its own modeled core, so serial phases overlap across
    // queries). Calibrate per-query service time from a 16-query
    // burst makespan, offer arrivals at service/load, and give each
    // query a deadline of 3x its solo completion after arrival.
    serve::ScenarioConfig solo_config =
        overloadWorkload(isa::ShedPolicy::None, 0.0, isa::no_deadline);
    solo_config.queries.resize(1);
    const double solo = static_cast<double>(
        serve::serveMixedWorkload(g, solo_config)
            .queries[0]
            .completion);
    const double burst_makespan = static_cast<double>(
        serve::serveMixedWorkload(
            g, overloadWorkload(isa::ShedPolicy::None, 0.0,
                                isa::no_deadline))
            .makespan);
    const double service = burst_makespan / 16.0;
    const mem::Cycles rel_deadline =
        static_cast<mem::Cycles>(3.0 * solo);
    std::printf("overload sweep: solo tc %.0f cycles, per-query "
                "service %.0f cycles, deadline +%llu\n",
                solo, service,
                static_cast<unsigned long long>(rel_deadline));

    const struct
    {
        const char *tag;
        double load;
    } kLoads[] = {
        {"0p5x", 0.5}, {"1x", 1.0}, {"2x", 2.0}, {"4x", 4.0}};
    OverloadOutcome none2x;
    OverloadOutcome edf2x;
    for (const auto &[tag, load] : kLoads) {
        const double inter_arrival = service / load;
        const OverloadOutcome none = runOverload(
            g, isa::ShedPolicy::None, inter_arrival, rel_deadline);
        const OverloadOutcome edf = runOverload(
            g, isa::ShedPolicy::Edf, inter_arrival, rel_deadline);
        if (load == 2.0) {
            none2x = none;
            edf2x = edf;
        }
        rows.push_back({std::string("serve_overload_rmat9_"
                                    "shed_rate_") +
                            tag,
                        g.numVertices(), 16.0, edf.survivors,
                        "queries", none.hostS, edf.hostS});
        std::printf("  load %-4s goodput none=%2.0f edf=%2.0f, "
                    "edf survivors %2.0f/16, p99 none=%.0f edf=%.0f "
                    "cycles, host none=%.3f s edf=%.3f s\n",
                    tag, none.goodput, edf.goodput, edf.survivors,
                    none.p99, edf.p99, none.hostS, edf.hostS);
    }
    rows.push_back({"serve_overload_rmat9_goodput_2x",
                    g.numVertices(), none2x.goodput, edf2x.goodput,
                    "queries", none2x.hostS, edf2x.hostS});
    rows.push_back({"serve_overload_rmat9_p99_cycles_2x",
                    g.numVertices(), none2x.p99, edf2x.p99, "cycles",
                    none2x.hostS, edf2x.hostS});

    for (const Row &r : rows) {
        std::printf("  %-36s %12.0f %s -> %12.0f %s (%.2fx)  "
                    "host %.3f s -> %.3f s per call\n",
                    r.name.c_str(), r.fcfs, r.unit, r.credit, r.unit,
                    r.fcfs / r.credit, r.fcfsHostS, r.creditHostS);
    }

    if (!json_path.empty())
        return mergeIntoKernelsJson(json_path, rows);
    return 0;
}
