/**
 * @file
 * Static SISA program verification (hazard and dataflow analysis).
 * The paper's programs compile into streams of set instructions whose
 * operands (SetIds) form an explicit dataflow; this analyzer decodes
 * such a stream -- a serial program of encoded words, a BatchRequest,
 * or a hand-built Program -- WITHOUT executing it, builds the SetId
 * def/use dependency graph, and emits severity-graded diagnostics
 * with op index, encoded word, and a machine-readable kind.
 *
 * Detected classes:
 *  - intra-batch RAW/WAR/WAW hazards: two parallel lanes touching the
 *    same destination, or a lane reading a SetId another lane in the
 *    same dispatch group writes;
 *  - use-before-definition and use-after-free/release (a DeleteSet'd
 *    id consumed later, double destroys, dead store operands);
 *  - destination-aliases-operand and duplicate destinations;
 *  - out-of-range vault and universe references;
 *  - metadata-only-op misuse (encoded operand flags claiming operands
 *    the op never touches);
 *  - redundant duplicate scalar ops wasting dispatch lanes.
 *
 * The DependencyGraph built over the same def/use edges is exposed as
 * a reusable artifact (topological levels = maximal independent issue
 * sets) for the async dependency-aware dispatch work: an op's level
 * is the earliest wave in which every operand it consumes is ready.
 *
 * Integration points: ScuConfig.analyze verifies every dispatchBatch
 * statically before execution (scu.analysis_* counters; strict mode
 * hard-fails on ERROR diagnostics); `sisa_run ... analyze=trace`
 * replays a recorded instruction trace through the analyzer offline.
 * The analyzer never charges modeled cycles -- it is host-side
 * tooling, and with analyze off the dispatch path is untouched.
 */

#ifndef SISA_SISA_ANALYSIS_HPP
#define SISA_SISA_ANALYSIS_HPP

#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sisa/batch.hpp"
#include "sisa/encoding.hpp"
#include "sisa/isa.hpp"
#include "sisa/set_store.hpp"

namespace sisa::isa::analysis {

/** Machine-readable diagnostic classes. */
enum class DiagKind : std::uint8_t
{
    /** Word does not decode as a SISA instruction. */
    UnknownInstruction,
    /** Operand id never defined (and not live in the store). */
    UseBeforeDef,
    /** Operand id consumed after a DeleteSet released it. */
    UseAfterFree,
    /** Parallel lane reads an id an earlier lane in the group writes. */
    RawHazard,
    /** Parallel lane writes an id an earlier lane in the group reads. */
    WarHazard,
    /** Two parallel lanes write (or release) the same id. */
    WawHazard,
    /** Two ops in one group materialize into the same destination. */
    DuplicateDestination,
    /** A materializing op's destination aliases one of its operands. */
    DestAliasesOperand,
    /** An operand resolves to a vault outside the configured range. */
    VaultOutOfRange,
    /** An element immediate lies outside the store universe. */
    UniverseOutOfRange,
    /** Encoded xd/xs1/xs2 flags claim operands the op never touches. */
    MetadataOnlyMisuse,
    /** Identical scalar op issued twice in one group (wasted lane). */
    RedundantOp,
};

/** Number of diagnostic kinds (array sizing / iteration). */
inline constexpr std::size_t num_diag_kinds = 12;

enum class Severity : std::uint8_t { Info, Warning, Error };

/** Fixed severity grade of each diagnostic kind. */
Severity diagSeverity(DiagKind kind);

/** Stable kebab-case identifier (JSON reports, CLI output). */
std::string_view diagKindName(DiagKind kind);

std::string_view severityName(Severity severity);

/** One finding, anchored to an op index in the analyzed program. */
struct Diagnostic
{
    DiagKind kind = DiagKind::UnknownInstruction;
    Severity severity = Severity::Error;
    std::uint32_t op = 0;   ///< Index into the analyzed program.
    std::uint32_t word = 0; ///< Encoded instruction word of that op.
    SetId id = invalid_set; ///< Primary set id involved (or invalid).
    /** Other op of a pairwise hazard; UINT32_MAX when standalone. */
    std::uint32_t otherOp = UINT32_MAX;
    std::string message;
};

/** Aggregated outcome of one analysis. */
struct Report
{
    std::vector<Diagnostic> diagnostics;
    std::uint64_t instructions = 0; ///< Ops analyzed.

    std::uint32_t errors = 0;
    std::uint32_t warnings = 0;
    std::uint32_t infos = 0;

    bool hasErrors() const { return errors > 0; }
    bool clean() const { return diagnostics.empty(); }

    /** Findings of @p kind (test pins). */
    std::uint32_t count(DiagKind kind) const;

    /** Human-readable multi-line report. */
    std::string toString() const;

    /**
     * Machine-readable JSON report (schema
     * "sisa-analysis-report-v1"; validated by
     * tools/check_bench_json.py --analysis).
     */
    std::string toJson() const;
};

/** Strict-mode rejection: the verifier found ERROR diagnostics. */
class AnalysisError : public std::runtime_error
{
  public:
    explicit AnalysisError(Report report);
    const Report &report() const { return report_; }

  private:
    Report report_;
};

/**
 * One operation of an analyzable program, with its def/use sets made
 * explicit: `dest` is the id the op defines (materializing ops) or
 * mutates in place (insert/remove/convert), `a`/`b` are the ids it
 * reads, and `group` marks parallel-dispatch membership -- ops
 * sharing a group id issue concurrently with NO ordering among them
 * (the dispatchBatch contract), so any def/use overlap inside a
 * group is a hazard rather than a dependency.
 */
struct ProgramOp
{
    SisaOp op = SisaOp::IntersectAuto;
    SetId dest = invalid_set; ///< Defined / mutated id (or invalid).
    SetId a = invalid_set;    ///< First source (or invalid).
    SetId b = invalid_set;    ///< Second source (or invalid).
    Element element = 0;      ///< Immediate for insert/remove/member.
    bool hasElement = false;
    std::uint32_t group = 0; ///< Parallel group id.
    std::uint32_t word = 0;  ///< Encoded form (diagnostic anchor).
    bool decoded = true;     ///< False: word failed to decode.

    /** Does the op write `dest` in place (reading it first)? */
    bool mutatesInPlace() const;
    /** Does the op release `a` (DeleteSet)? */
    bool releases() const { return op == SisaOp::DeleteSet; }
};

/**
 * An analyzable SISA program: a sequence of ProgramOps in issue
 * order, partitioned into serial steps and parallel groups. Build
 * one from a recorded instruction stream (fromWords), from a batch
 * about to dispatch (fromBatch), or by hand for seeded-hazard tests
 * and for the async-dispatch planner.
 */
class Program
{
  public:
    Program() = default;

    /**
     * Decode an encoded instruction stream (InstructionTrace::words)
     * into a serial register-level program: rd/rs1/rs2 register
     * numbers stand in for set ids, exactly as the trace's
     * round-robin register allocator folded them. Register reuse is
     * renaming, not a hazard, so liveness checks that need real ids
     * (use-before-def against a store) are skipped downstream
     * (registerLevel()). Undecodable words become placeholder ops
     * that analyze() reports as UnknownInstruction.
     */
    static Program fromWords(std::span<const std::uint32_t> words);

    /**
     * Lift a BatchRequest into one parallel group. Destinations stay
     * invalid -- dispatchBatch allocates result ids at adoption, so a
     * batch op defines nothing the analyzer can name -- which makes
     * operand liveness, range, and duplicate-scalar-op checks the
     * active diagnostics, mirroring exactly what the batch contract
     * in sisa/batch.hpp assumes.
     */
    static Program fromBatch(const BatchRequest &batch);

    // --- Hand-building (tests, planners) ---------------------------------

    /** Append one op as its own serial step. */
    void serial(ProgramOp op);

    /**
     * Open a parallel group: ops appended through add() share it
     * until endGroup(). Groups model one dispatchBatch.
     */
    void beginGroup();
    void add(ProgramOp op);
    void endGroup();

    const std::vector<ProgramOp> &ops() const { return ops_; }
    std::size_t size() const { return ops_.size(); }
    bool registerLevel() const { return registerLevel_; }

  private:
    std::vector<ProgramOp> ops_;
    std::uint32_t nextGroup_ = 0;
    bool inGroup_ = false;
    bool registerLevel_ = false;
};

/**
 * Store/hardware context the analyzer may consult. All fields are
 * optional: without a store, liveness and universe checks are
 * skipped; without a vault count, vault-range checks are skipped.
 */
struct AnalysisContext
{
    /** Liveness + universe ground truth (nullptr = skip). */
    const SetStore *store = nullptr;
    /** Configured vault count (0 = skip vault checks). */
    std::uint32_t vaults = 0;
    /**
     * Operand id -> vault resolver (placement policy + overlay).
     * Null with vaults > 0 falls back to id % vaults.
     */
    std::function<std::uint32_t(SetId)> vaultOf;

    std::uint32_t resolveVault(SetId id) const;
};

/** Run every check over @p program. Pure; never touches payloads. */
Report analyze(const Program &program, const AnalysisContext &ctx = {});

/**
 * The SetId def/use dependency DAG of a program, the reusable
 * artifact async dependency-aware dispatch consumes. Nodes are op
 * indices; an edge i -> j (i earlier) exists when j must wait for i:
 * RAW (i defines an id j reads), WAR (j overwrites an id i reads),
 * or WAW (both write the same id; releases count as writes). Ops in
 * the same parallel group never depend on each other (hazards there
 * are analyze()'s findings, not ordering edges).
 *
 * levelOf(op) is the op's topological depth -- the earliest issue
 * wave in which all its inputs are ready -- and levels() groups op
 * indices by that depth: every level is an independent op set whose
 * members may issue concurrently once the previous level retired.
 */
class DependencyGraph
{
  public:
    explicit DependencyGraph(const Program &program);

    std::size_t size() const { return succ_.size(); }
    const std::vector<std::uint32_t> &
    successors(std::uint32_t op) const
    {
        return succ_[op];
    }
    const std::vector<std::uint32_t> &
    predecessors(std::uint32_t op) const
    {
        return pred_[op];
    }
    std::uint32_t levelOf(std::uint32_t op) const { return level_[op]; }
    /** Number of issue waves (0 for an empty program). */
    std::uint32_t depth() const;
    /** Per-level independent op sets, in issue order inside a level. */
    const std::vector<std::vector<std::uint32_t>> &levels() const
    {
        return levels_;
    }
    std::uint64_t edgeCount() const { return edges_; }

  private:
    std::vector<std::vector<std::uint32_t>> succ_;
    std::vector<std::vector<std::uint32_t>> pred_;
    std::vector<std::uint32_t> level_;
    std::vector<std::vector<std::uint32_t>> levels_;
    std::uint64_t edges_ = 0;
};

/**
 * Cross-batch dependency scoreboard for the SCU's async dispatch
 * window. Where DependencyGraph rebuilds the full def/use DAG of one
 * program, the window is INCREMENTAL: it carries the unretired defs
 * (SetId -> modeled completion time) and last modeled reads of every
 * in-flight dispatch, and each new BatchRequest is joined against
 * that state directly, reading only each op's operands, in O(ops)
 * instead of re-running the O(window) graph construction per
 * dispatch. Times are virtual cycles relative to the window's
 * opening (Scu::dispatchAsync defines the clock).
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

} // namespace sisa::isa::analysis

#endif // SISA_SISA_ANALYSIS_HPP
