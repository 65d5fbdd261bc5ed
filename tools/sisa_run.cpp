/**
 * @file
 * Command-line driver over the evaluation harness: run any (problem,
 * dataset, mode) cell with chosen thread count and pattern cutoff,
 * and print the simulated outcome plus the hardware counters; under
 * serve=, run a comma list of problems as co-tenant queries.
 *
 *   sisa_run <problem> <dataset> <mode> [threads] [cutoff]
 *            [placement] [routing] [key=SPEC ...]
 *
 * Run it without arguments for the synopsis and one help line per
 * argument. The usage text is GENERATED from kPositionalDocs and
 * kKeyArgDocs below, and its problem names from the problem registry
 * (algorithms/problem.hpp): a new argument or problem shows up in the
 * help by adding one table entry, so the banner cannot drift from the
 * parser. README.md describes the placement, routing, async=, serve=,
 * deadline=, arrive= and shed= modes.
 *
 * Every argument is validated up front: unknown tokens, non-numeric
 * counts, unknown problems and serve lists, unknown datasets, and
 * unreadable/malformed graph files all print the usage and exit 2
 * instead of crashing mid-run.
 */

#include <charconv>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "graph/dataset_registry.hpp"
#include "graph/io.hpp"
#include "harness.hpp"
#include "serve/scenario.hpp"
#include "sisa/serving.hpp"
#include "support/stats.hpp"

using namespace sisa;
using namespace sisa::bench;
using algorithms::EntryPoint;
using algorithms::Problem;

namespace {

int
listDatasets()
{
    std::printf("%-20s %-6s %10s %12s %s\n", "name", "family", "n",
                "m", "note");
    for (const auto &spec : graph::allDatasets()) {
        std::printf("%-20s %-6s %10u %12llu %s\n", spec.name.c_str(),
                    spec.family.c_str(), spec.vertices,
                    static_cast<unsigned long long>(spec.edges),
                    spec.scaleNote.c_str());
    }
    return 0;
}

/** One documented argument: synopsis token + help line. */
struct ArgDoc
{
    const char *name;     ///< Help-line label ("dataset", "serve").
    const char *synopsis; ///< Synopsis token ("[async=SPEC]").
    std::string help;     ///< One-line description.
};

/** Positional arguments, in synopsis order. */
const ArgDoc kPositionalDocs[] = {
    {"problem", "<problem>",
     Problem::list(EntryPoint::Solo) +
         "; under serve=, a comma list of " +
         Problem::list(EntryPoint::Serve)},
    {"dataset", "<dataset>",
     "registry name (--list) or file:PATH (edge list)"},
    {"mode", "<mode>", "non-set | set-based | sisa"},
    {"threads", "[threads]", "modeled thread count (default 32)"},
    {"cutoff", "[cutoff]",
     "per-thread pattern cutoff (default per problem)"},
    {"placement", "[placement]",
     "hash | locality (sisa mode only)"},
    {"routing", "[routing]", "primary | balanced (sisa mode only)"},
};

/**
 * Order-flexible key=value specs, in synopsis order; they start at the
 * first token after [cutoff] that holds '='.
 */
const ArgDoc kKeyArgDocs[] = {
    {"async", "[async=SPEC]",
     "async=on[:DEPTH] | off (sisa mode only; default depth 8)"},
    {"serve", "[serve=SPEC]",
     "serve=fcfs | credit[:QUANTUM] (sisa mode only): run the problem "
     "comma list as co-tenant queries"},
    {"deadline", "[deadline=CYCLES]",
     "deadline=CYCLES (serve= only): cancel queries that cannot "
     "complete within CYCLES of their arrival"},
    {"arrive", "[arrive=SPEC]",
     "arrive=OFFSET | poisson:SEED:MEAN (serve= only): deterministic "
     "virtual arrival times (query i at i*OFFSET, or seeded "
     "exponential inter-arrivals)"},
    {"shed", "[shed=SPEC]",
     "shed=none | edf[:CAPACITY] (serve= only): admission-queue "
     "overload policy"},
};

int
usage(const char *argv0)
{
    std::string banner = std::string("usage: ") + argv0;
    for (const ArgDoc &doc : kPositionalDocs)
        banner += std::string(" ") + doc.synopsis;
    for (const ArgDoc &doc : kKeyArgDocs)
        banner += std::string(" ") + doc.synopsis;
    banner += std::string("\n       ") + argv0 + " --list\n";
    const auto helpLine = [&banner](const ArgDoc &doc) {
        banner += std::string("       ") + doc.name + ":";
        banner += std::string(10 - std::strlen(doc.name), ' ');
        banner += doc.help + "\n";
    };
    for (const ArgDoc &doc : kPositionalDocs)
        helpLine(doc);
    for (const ArgDoc &doc : kKeyArgDocs)
        helpLine(doc);
    std::fputs(banner.c_str(), stderr);
    return 2;
}

/**
 * Strict full-string numeric parse. The std::stoul calls this
 * replaces threw uncaught exceptions on "abc" (and accepted "12junk"
 * as 12): any non-numeric count argument now reports cleanly through
 * usage() instead of crashing.
 */
template <typename T>
bool
parseCount(const char *arg, T &out)
{
    const char *end = arg + std::strlen(arg);
    const auto [ptr, ec] = std::from_chars(arg, end, out);
    return ec == std::errc() && ptr == end && arg != end;
}

/** Lifecycle knobs of a serve= run (deadline/arrive/shed specs). */
struct ServeOptions
{
    isa::SchedPolicy policy = isa::SchedPolicy::Fcfs;
    mem::Cycles quantum = isa::ServingModel::default_quantum;
    /** Relative deadline (cycles after arrival); no_deadline = off. */
    mem::Cycles deadline = isa::no_deadline;
    bool poisson = false;       ///< arrive=poisson:SEED:MEAN given.
    mem::Cycles offset = 0;     ///< arrive=OFFSET (query i at i*OFFSET).
    std::uint64_t seed = 0;     ///< Poisson stream seed.
    std::uint64_t mean = 0;     ///< Poisson mean inter-arrival gap.
    isa::ShedPolicy shed = isa::ShedPolicy::None;
    std::uint32_t capacity = 0; ///< Admission bound (0 = unbounded).
};

/**
 * Parse the serve= problem comma list into one query per problem.
 * Runs with the other argument checks, before the graph is loaded;
 * an unknown or solo-only problem returns nullopt after naming it.
 */
std::optional<std::vector<serve::QuerySpec>>
parseServeList(const std::string &problems, bool cutoff_given,
               std::uint64_t cutoff)
{
    std::vector<serve::QuerySpec> queries;
    for (std::size_t start = 0; start <= problems.size();) {
        std::size_t comma = problems.find(',', start);
        if (comma == std::string::npos)
            comma = problems.size();
        serve::QuerySpec spec;
        spec.problem = problems.substr(start, comma - start);
        start = comma + 1;
        if (!Problem::parse(spec.problem, EntryPoint::Serve)) {
            std::fprintf(stderr, "unknown serve problem '%s' (%s)\n",
                         spec.problem.c_str(),
                         Problem::list(EntryPoint::Serve).c_str());
            return std::nullopt;
        }
        if (cutoff_given)
            spec.cutoff = cutoff;
        queries.push_back(std::move(spec));
    }
    return queries;
}

/**
 * serve= mode: run the parsed queries co-tenant, and print one row
 * per query -- the algorithm's value, the query's own modeled cycles,
 * its virtual completion under the admission policy, and its
 * lifecycle verdict -- plus completion percentiles and goodput over
 * the query population. Returns an exit code.
 */
int
runServe(const graph::Graph &g, std::vector<serve::QuerySpec> queries,
         const RunConfig &config, const ServeOptions &opts)
{
    serve::ScenarioConfig sc;
    sc.queries = std::move(queries);
    sc.policy = opts.policy;
    sc.quantum = opts.quantum;
    sc.shed = opts.shed;
    sc.admitCapacity = opts.capacity;
    sc.scu = config.scu;
    sc.placement = config.placement;
    sc.threads = config.threads;
    if (const std::optional<isa::Routing> routing =
            isa::parseRouting(config.routing))
        sc.scu.routing = *routing; // Validated with the argv.

    // Lifecycle contracts: arrival times first (explicit stride or
    // seeded open-loop), then deadlines relative to each arrival.
    if (opts.poisson) {
        const std::vector<mem::Cycles> arrivals =
            serve::poissonArrivals(opts.seed,
                                   static_cast<double>(opts.mean),
                                   sc.queries.size());
        for (std::size_t i = 0; i < sc.queries.size(); ++i)
            sc.queries[i].arrival = arrivals[i];
    } else if (opts.offset != 0) {
        for (std::size_t i = 0; i < sc.queries.size(); ++i)
            sc.queries[i].arrival =
                static_cast<mem::Cycles>(i) * opts.offset;
    }
    if (opts.deadline != isa::no_deadline) {
        for (serve::QuerySpec &spec : sc.queries)
            spec.deadline = spec.arrival + opts.deadline;
    }

    std::printf("serving %zu queries, policy=%s quantum=%llu, T=%u, "
                "placement=%s, routing=%s, shed=%s\n",
                sc.queries.size(), isa::schedPolicyName(opts.policy),
                static_cast<unsigned long long>(opts.quantum),
                config.threads,
                config.placement.empty() ? "hash"
                                         : config.placement.c_str(),
                config.routing.empty() ? "primary"
                                       : config.routing.c_str(),
                isa::shedPolicyName(opts.shed));

    const serve::ScenarioReport report =
        serve::serveMixedWorkload(g, sc);
    std::vector<double> completions;
    std::vector<double> deadlines;
    std::size_t survivors = 0;
    for (const serve::QueryReport &qr : report.queries) {
        std::printf("query %u: problem=%-6s state=%-9s value=%llu "
                    "own_cycles=%llu completion=%llu arrival=%llu "
                    "deadline_met=%d\n",
                    qr.id, qr.problem.c_str(),
                    isa::queryStateName(qr.state),
                    static_cast<unsigned long long>(qr.value),
                    static_cast<unsigned long long>(qr.ownCycles),
                    static_cast<unsigned long long>(qr.completion),
                    static_cast<unsigned long long>(qr.arrival),
                    qr.deadlineMet ? 1 : 0);
        if (qr.state != isa::QueryState::Completed)
            continue;
        ++survivors;
        completions.push_back(static_cast<double>(qr.completion));
        if (qr.deadline != isa::no_deadline)
            deadlines.push_back(static_cast<double>(qr.deadline));
    }
    std::printf("serve makespan:    %llu\n",
                static_cast<unsigned long long>(report.makespan));
    std::printf("completed %zu/%zu queries\n", survivors,
                report.queries.size());
    std::printf("completion p50=%.0f p95=%.0f p99=%.0f\n",
                support::p50(completions), support::p95(completions),
                support::p99(completions));
    if (deadlines.size() == completions.size() &&
        !deadlines.empty()) {
        std::printf(
            "deadline hit ratio=%.3f goodput=%.0f queries\n",
            support::deadlineHitRatio(completions, deadlines),
            support::goodput(completions, deadlines, 0.0));
    }
    std::printf("admission grants:  %zu\n",
                report.admissionLog.size());
    std::printf("lifecycle events:  %zu\n",
                report.lifecycleLog.size());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc == 2 && std::strcmp(argv[1], "--list") == 0)
        return listDatasets();
    if (argc < 4)
        return usage(argv[0]);

    const std::string problem = argv[1];
    const std::string dataset = argv[2];
    const std::string mode_name = argv[3];

    Mode mode;
    if (mode_name == "non-set") {
        mode = Mode::NonSet;
    } else if (mode_name == "set-based") {
        mode = Mode::SetBased;
    } else if (mode_name == "sisa") {
        mode = Mode::Sisa;
    } else {
        return usage(argv[0]);
    }

    RunConfig config;
    config.threads = 32;
    if (argc > 4 && !parseCount(argv[4], config.threads)) {
        std::fprintf(stderr, "invalid thread count '%s'\n", argv[4]);
        return usage(argv[0]);
    }
    const bool cutoff_given = argc > 5;
    if (cutoff_given && !parseCount(argv[5], config.cutoff)) {
        std::fprintf(stderr, "invalid pattern cutoff '%s'\n", argv[5]);
        return usage(argv[0]);
    }
    // Placement and routing are positional; the first token holding
    // '=' starts the key=value specs, so a spec may follow [cutoff].
    int first_spec = 6;
    const auto positional = [&](int i) {
        return i < argc && std::strchr(argv[i], '=') == nullptr;
    };
    if (positional(6)) {
        first_spec = 7;
        config.placement = argv[6];
        if (!isa::parsePlacement(config.placement)) {
            std::fprintf(stderr, "unknown placement '%s' (%s)\n",
                         argv[6], isa::placementNames().data());
            return usage(argv[0]);
        }
        if (mode != Mode::Sisa) {
            std::fprintf(stderr,
                         "placement is only meaningful in sisa mode\n");
            return usage(argv[0]);
        }
    }
    if (first_spec == 7 && positional(7)) {
        first_spec = 8;
        config.routing = argv[7];
        if (!isa::parseRouting(config.routing)) {
            std::fprintf(stderr, "unknown routing '%s' (%s)\n", argv[7],
                         isa::routingNames().data());
            return usage(argv[0]);
        }
        if (mode != Mode::Sisa) {
            std::fprintf(stderr,
                         "routing is only meaningful in sisa mode\n");
            return usage(argv[0]);
        }
    }
    // Trailing arguments are order-flexible key=value specs.
    bool have_async = false;
    bool have_serve = false;
    bool have_deadline = false;
    bool have_arrive = false;
    bool have_shed = false;
    ServeOptions serve_opts;
    for (int i = first_spec; i < argc; ++i) {
        const std::string spec = argv[i];
        if (spec.rfind("async=", 0) == 0) {
            if (have_async) {
                std::fprintf(stderr, "duplicate async= spec\n");
                return usage(argv[0]);
            }
            have_async = true;
            if (mode != Mode::Sisa) {
                std::fprintf(
                    stderr,
                    "async is only meaningful in sisa mode\n");
                return usage(argv[0]);
            }
            const std::string value = spec.substr(6);
            if (value == "off") {
                config.scu.asyncDepth = 0;
            } else if (value == "on") {
                config.scu.asyncDepth = 8;
            } else if (value.rfind("on:", 0) == 0) {
                std::uint32_t depth = 0;
                if (!parseCount(value.c_str() + 3, depth) ||
                    depth == 0) {
                    std::fprintf(stderr,
                                 "bad async depth '%s' (positive "
                                 "integer)\n",
                                 value.c_str() + 3);
                    return usage(argv[0]);
                }
                config.scu.asyncDepth = depth;
            } else {
                std::fprintf(stderr,
                             "bad async spec '%s' (on[:DEPTH] | "
                             "off)\n",
                             value.c_str());
                return usage(argv[0]);
            }
        } else if (spec.rfind("serve=", 0) == 0) {
            if (have_serve) {
                std::fprintf(stderr, "duplicate serve= spec\n");
                return usage(argv[0]);
            }
            have_serve = true;
            if (mode != Mode::Sisa) {
                std::fprintf(
                    stderr,
                    "serve is only meaningful in sisa mode\n");
                return usage(argv[0]);
            }
            std::string value = spec.substr(6);
            const std::size_t colon = value.find(':');
            if (colon != std::string::npos) {
                if (!parseCount(value.c_str() + colon + 1,
                                serve_opts.quantum) ||
                    serve_opts.quantum == 0) {
                    std::fprintf(stderr,
                                 "bad serve quantum '%s' (positive "
                                 "integer)\n",
                                 value.c_str() + colon + 1);
                    return usage(argv[0]);
                }
                value.resize(colon);
            }
            const auto policy = isa::parseSchedPolicy(value);
            if (!policy) {
                std::fprintf(stderr,
                             "bad serve policy '%s' (fcfs | "
                             "credit[:QUANTUM])\n",
                             value.c_str());
                return usage(argv[0]);
            }
            if (colon != std::string::npos &&
                *policy != isa::SchedPolicy::Credit) {
                std::fprintf(stderr, "a serve quantum is only "
                                     "meaningful with credit\n");
                return usage(argv[0]);
            }
            serve_opts.policy = *policy;
        } else if (spec.rfind("deadline=", 0) == 0) {
            if (have_deadline) {
                std::fprintf(stderr, "duplicate deadline= spec\n");
                return usage(argv[0]);
            }
            have_deadline = true;
            if (!parseCount(spec.c_str() + 9, serve_opts.deadline) ||
                serve_opts.deadline == 0) {
                std::fprintf(stderr,
                             "bad deadline '%s' (positive cycle "
                             "count)\n",
                             spec.c_str() + 9);
                return usage(argv[0]);
            }
        } else if (spec.rfind("arrive=", 0) == 0) {
            if (have_arrive) {
                std::fprintf(stderr, "duplicate arrive= spec\n");
                return usage(argv[0]);
            }
            have_arrive = true;
            const std::string value = spec.substr(7);
            if (value.rfind("poisson:", 0) == 0) {
                serve_opts.poisson = true;
                const std::string rest = value.substr(8);
                const std::size_t colon = rest.find(':');
                if (colon == std::string::npos ||
                    !parseCount(rest.substr(0, colon).c_str(),
                                serve_opts.seed) ||
                    !parseCount(rest.c_str() + colon + 1,
                                serve_opts.mean)) {
                    std::fprintf(stderr,
                                 "bad poisson arrival spec '%s' "
                                 "(poisson:SEED:MEAN)\n",
                                 value.c_str());
                    return usage(argv[0]);
                }
                if (serve_opts.mean == 0) {
                    std::fprintf(stderr,
                                 "poisson mean inter-arrival must "
                                 "be positive\n");
                    return usage(argv[0]);
                }
            } else if (!parseCount(value.c_str(),
                                   serve_opts.offset)) {
                std::fprintf(stderr,
                             "bad arrival offset '%s' (non-negative "
                             "cycle count or poisson:SEED:MEAN)\n",
                             value.c_str());
                return usage(argv[0]);
            }
        } else if (spec.rfind("shed=", 0) == 0) {
            if (have_shed) {
                std::fprintf(stderr, "duplicate shed= spec\n");
                return usage(argv[0]);
            }
            have_shed = true;
            std::string value = spec.substr(5);
            const std::size_t colon = value.find(':');
            if (colon != std::string::npos) {
                if (!parseCount(value.c_str() + colon + 1,
                                serve_opts.capacity) ||
                    serve_opts.capacity == 0) {
                    std::fprintf(stderr,
                                 "bad shed capacity '%s' (positive "
                                 "integer)\n",
                                 value.c_str() + colon + 1);
                    return usage(argv[0]);
                }
                value.resize(colon);
            }
            const auto shed = isa::parseShedPolicy(value);
            if (!shed) {
                std::fprintf(stderr,
                             "bad shed policy '%s' (none | "
                             "edf[:CAPACITY])\n",
                             value.c_str());
                return usage(argv[0]);
            }
            if (colon != std::string::npos &&
                *shed != isa::ShedPolicy::Edf) {
                std::fprintf(stderr, "a shed capacity is only "
                                     "meaningful with edf\n");
                return usage(argv[0]);
            }
            serve_opts.shed = *shed;
        } else {
            std::fprintf(stderr, "unexpected argument '%s'\n",
                         argv[i]);
            return usage(argv[0]);
        }
    }
    if ((have_deadline || have_arrive || have_shed) && !have_serve) {
        std::fprintf(stderr, "deadline=, arrive=, and shed= are "
                             "serve= mode arguments\n");
        return usage(argv[0]);
    }
    std::vector<serve::QuerySpec> queries;
    if (have_serve) {
        auto parsed = parseServeList(problem, cutoff_given, config.cutoff);
        if (!parsed)
            return usage(argv[0]);
        queries = std::move(*parsed);
    } else {
        const std::optional<Problem> parsed =
            Problem::parse(problem, EntryPoint::Solo);
        if (!parsed) {
            std::fprintf(stderr, "unknown problem '%s' (%s)\n",
                         problem.c_str(),
                         Problem::list(EntryPoint::Solo).c_str());
            return usage(argv[0]);
        }
        if (!cutoff_given)
            config.cutoff = parsed->defaultCutoff();
    }

    graph::Graph g;
    if (dataset.rfind("file:", 0) == 0) {
        try {
            g = graph::readEdgeListFile(dataset.substr(5));
        } catch (const graph::GraphIoError &e) {
            std::fprintf(stderr, "cannot load '%s': %s\n",
                         dataset.c_str(), e.what());
            return usage(argv[0]);
        }
    } else {
        const graph::DatasetSpec *spec =
            graph::findDatasetOrNull(dataset);
        if (!spec) {
            std::fprintf(stderr,
                         "unknown dataset '%s' (see --list)\n",
                         dataset.c_str());
            return usage(argv[0]);
        }
        g = graph::makeDataset(*spec);
    }
    std::printf("dataset: %s\n", g.describe().c_str());
    if (have_serve) {
        return runServe(g, std::move(queries), config, serve_opts);
    }
    std::printf("running %s in %s mode, T=%u, cutoff=%llu, "
                "placement=%s, routing=%s\n",
                problem.c_str(), modeName(mode), config.threads,
                static_cast<unsigned long long>(config.cutoff),
                mode != Mode::Sisa ? "n/a"
                : config.placement.empty() ? "hash"
                                           : config.placement.c_str(),
                mode != Mode::Sisa ? "n/a"
                : config.routing.empty() ? "primary"
                                         : config.routing.c_str());

    const RunOutcome outcome = runProblem(problem, g, mode, config);

    std::printf("\ncycles (makespan): %llu\n",
                static_cast<unsigned long long>(outcome.cycles));
    std::printf("result value:      %llu\n",
                static_cast<unsigned long long>(outcome.value));
    std::printf("patterns reported: %llu\n",
                static_cast<unsigned long long>(outcome.patterns));
    std::printf("\ncounters:\n");
    for (const auto &[name, value] : outcome.ctx->counters()) {
        std::printf("  %-24s %llu\n", name.c_str(),
                    static_cast<unsigned long long>(value));
    }
    return 0;
}
