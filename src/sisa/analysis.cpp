#include "sisa/analysis.hpp"

#include <algorithm>
#include <array>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "support/logging.hpp"

namespace sisa::isa::analysis {

// --- Kind / severity tables -------------------------------------------------

Severity
diagSeverity(DiagKind kind)
{
    switch (kind) {
      case DiagKind::UnknownInstruction:
      case DiagKind::UseBeforeDef:
      case DiagKind::UseAfterFree:
      case DiagKind::RawHazard:
      case DiagKind::WarHazard:
      case DiagKind::WawHazard:
      case DiagKind::DuplicateDestination:
      case DiagKind::DestAliasesOperand:
      case DiagKind::VaultOutOfRange:
      case DiagKind::UniverseOutOfRange:
        return Severity::Error;
      case DiagKind::MetadataOnlyMisuse:
        return Severity::Warning;
      case DiagKind::RedundantOp:
        return Severity::Info;
    }
    return Severity::Error;
}

std::string_view
diagKindName(DiagKind kind)
{
    switch (kind) {
      case DiagKind::UnknownInstruction: return "unknown-instruction";
      case DiagKind::UseBeforeDef: return "use-before-def";
      case DiagKind::UseAfterFree: return "use-after-free";
      case DiagKind::RawHazard: return "raw-hazard";
      case DiagKind::WarHazard: return "war-hazard";
      case DiagKind::WawHazard: return "waw-hazard";
      case DiagKind::DuplicateDestination:
        return "duplicate-destination";
      case DiagKind::DestAliasesOperand:
        return "dest-aliases-operand";
      case DiagKind::VaultOutOfRange: return "vault-out-of-range";
      case DiagKind::UniverseOutOfRange:
        return "universe-out-of-range";
      case DiagKind::MetadataOnlyMisuse:
        return "metadata-only-misuse";
      case DiagKind::RedundantOp: return "redundant-op";
    }
    return "unknown";
}

std::string_view
severityName(Severity severity)
{
    switch (severity) {
      case Severity::Info: return "info";
      case Severity::Warning: return "warning";
      case Severity::Error: return "error";
    }
    return "error";
}

// --- Report -----------------------------------------------------------------

std::uint32_t
Report::count(DiagKind kind) const
{
    std::uint32_t n = 0;
    for (const Diagnostic &diag : diagnostics)
        n += diag.kind == kind ? 1 : 0;
    return n;
}

std::string
Report::toString() const
{
    std::string out = "analyzed " + std::to_string(instructions) +
                      " instruction(s): " + std::to_string(errors) +
                      " error(s), " + std::to_string(warnings) +
                      " warning(s), " + std::to_string(infos) +
                      " info(s)\n";
    for (const Diagnostic &diag : diagnostics) {
        out += "  [";
        out += severityName(diag.severity);
        out += "] op ";
        out += std::to_string(diag.op);
        out += " <";
        out += diagKindName(diag.kind);
        out += ">: ";
        out += diag.message;
        out += '\n';
    }
    return out;
}

namespace {

/** Minimal JSON string escaping (messages contain no exotica). */
std::string
jsonEscape(std::string_view text)
{
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (c == '\n') {
            out += "\\n";
        } else {
            out += c;
        }
    }
    return out;
}

} // namespace

std::string
Report::toJson() const
{
    std::string out = "{\n  \"schema\": \"sisa-analysis-report-v1\",\n";
    out += "  \"instructions\": " + std::to_string(instructions) +
           ",\n";
    out += "  \"errors\": " + std::to_string(errors) + ",\n";
    out += "  \"warnings\": " + std::to_string(warnings) + ",\n";
    out += "  \"infos\": " + std::to_string(infos) + ",\n";
    out += "  \"diagnostics\": [";
    for (std::size_t i = 0; i < diagnostics.size(); ++i) {
        const Diagnostic &diag = diagnostics[i];
        out += i ? ",\n    {" : "\n    {";
        out += "\"kind\": \"";
        out += diagKindName(diag.kind);
        out += "\", \"severity\": \"";
        out += severityName(diag.severity);
        out += "\", \"op\": " + std::to_string(diag.op);
        out += ", \"word\": " + std::to_string(diag.word);
        out += ", \"message\": \"" + jsonEscape(diag.message) + "\"}";
    }
    out += diagnostics.empty() ? "]\n}\n" : "\n  ]\n}\n";
    return out;
}

AnalysisError::AnalysisError(Report report)
    : std::runtime_error("SISA static analysis rejected the program: " +
                         std::to_string(report.errors) +
                         " error(s); first: " +
                         (report.diagnostics.empty()
                              ? std::string("<none>")
                              : report.diagnostics.front().message)),
      report_(std::move(report))
{
}

// --- ProgramOp semantics ----------------------------------------------------

bool
ProgramOp::mutatesInPlace() const
{
    switch (op) {
      case SisaOp::InsertElement:
      case SisaOp::RemoveElement:
      case SisaOp::ConvertRepr:
        return true;
      default:
        return false;
    }
}

namespace {

/** Does @p op read a second source operand? */
bool
usesTwoSources(SisaOp op)
{
    switch (op) {
      case SisaOp::Cardinality:
      case SisaOp::Member:
      case SisaOp::CreateSet:
      case SisaOp::DeleteSet:
      case SisaOp::CloneSet:
      case SisaOp::ConvertRepr:
      case SisaOp::InsertElement:
      case SisaOp::RemoveElement:
        return false;
      default:
        return true;
    }
}

/** Does @p op read any source set at all? */
bool
usesSource(SisaOp op)
{
    return op != SisaOp::CreateSet;
}

std::string
opLabel(const ProgramOp &op, std::uint32_t index)
{
    std::string label(sisaOpName(op.op));
    label += " (op ";
    label += std::to_string(index);
    label += ")";
    return label;
}

} // namespace

// --- Program construction ---------------------------------------------------

void
Program::serial(ProgramOp op)
{
    sisa_assert(!inGroup_, "serial op inside an open parallel group");
    op.group = nextGroup_++;
    ops_.push_back(op);
}

void
Program::beginGroup()
{
    sisa_assert(!inGroup_, "parallel groups do not nest");
    inGroup_ = true;
}

void
Program::add(ProgramOp op)
{
    sisa_assert(inGroup_, "add() outside beginGroup()/endGroup()");
    op.group = nextGroup_;
    ops_.push_back(op);
}

void
Program::endGroup()
{
    sisa_assert(inGroup_, "endGroup() without beginGroup()");
    inGroup_ = false;
    ++nextGroup_;
}

Program
Program::fromWords(std::span<const std::uint32_t> words)
{
    Program program;
    program.registerLevel_ = true;
    program.ops_.reserve(words.size());
    for (const std::uint32_t word : words) {
        ProgramOp op;
        op.word = word;
        const auto inst = decode(word);
        if (!inst) {
            op.decoded = false;
            program.serial(op);
            continue;
        }
        op.op = inst->op;
        // Reconstruct the def/use sets from the encoded operands: rd
        // is the defined id for set/scalar producers, the in-place
        // target for insert/remove/convert; rs1/rs2 are reads where
        // the xs flags claim them.
        if (inst->xs1)
            op.a = inst->rs1;
        if (inst->xs2 && usesTwoSources(inst->op))
            op.b = inst->rs2;
        if (producesSet(inst->op))
            op.dest = inst->rd;
        else if (op.mutatesInPlace())
            op.dest = inst->xs1 ? inst->rs1 : inst->rd;
        program.serial(op);
    }
    return program;
}

namespace {

/** The SisaOp a batch entry would trace as (Scu::dispatchBatch). */
SisaOp
batchTracedOp(const BatchOp &op)
{
    if (op.kind == BatchOpKind::IntersectCard)
        return SisaOp::IntersectCard;
    if (op.kind == BatchOpKind::UnionCard)
        return SisaOp::UnionCard;
    return op.variant;
}

/** Fold a set id onto the 32 architectural registers (trace rule). */
std::uint8_t
regOf(SetId id)
{
    return id == invalid_set ? 0
                             : static_cast<std::uint8_t>(id % 32);
}

} // namespace

Program
Program::fromBatch(const BatchRequest &batch)
{
    Program program;
    program.ops_.reserve(batch.size());
    program.beginGroup();
    for (const BatchOp &bop : batch.ops) {
        ProgramOp op;
        op.op = batchTracedOp(bop);
        op.a = bop.a;
        op.b = bop.b;
        // Destinations stay invalid: result ids are allocated at
        // adoption, after the batch proves hazard-free. Synthesize
        // the encoded word the trace would record (rd unknown -> 0).
        SisaInst inst;
        inst.op = op.op;
        inst.rd = 0;
        inst.rs1 = regOf(bop.a);
        inst.rs2 = regOf(bop.b);
        inst.xd = producesSet(op.op) || producesScalar(op.op);
        inst.xs1 = bop.a != invalid_set;
        inst.xs2 = bop.b != invalid_set;
        op.word = encode(inst);
        program.add(op);
    }
    program.endGroup();
    return program;
}

// --- The analyzer -----------------------------------------------------------

std::uint32_t
AnalysisContext::resolveVault(SetId id) const
{
    if (vaultOf)
        return vaultOf(id);
    return vaults ? id % vaults : 0;
}

namespace {

/** Serial liveness of one id as the walk saw it last. */
enum class Life : std::uint8_t
{
    Unknown, ///< Never touched by the program (store decides).
    Live,    ///< Defined (or redefined) earlier in the program.
    Dead,    ///< Released by an earlier DeleteSet.
};

struct Walker
{
    const Program &program;
    const AnalysisContext &ctx;
    Report report;
    std::unordered_map<SetId, Life> life;

    explicit Walker(const Program &p, const AnalysisContext &c)
        : program(p), ctx(c)
    {
    }

    void
    emit(DiagKind kind, std::uint32_t op_index, SetId id,
         std::string message, std::uint32_t other = UINT32_MAX)
    {
        Diagnostic diag;
        diag.kind = kind;
        diag.severity = diagSeverity(kind);
        diag.op = op_index;
        diag.word = program.ops()[op_index].word;
        diag.id = id;
        diag.otherOp = other;
        diag.message = std::move(message);
        switch (diag.severity) {
          case Severity::Error: ++report.errors; break;
          case Severity::Warning: ++report.warnings; break;
          case Severity::Info: ++report.infos; break;
        }
        report.diagnostics.push_back(std::move(diag));
    }

    Life
    lifeOf(SetId id) const
    {
        const auto it = life.find(id);
        return it == life.end() ? Life::Unknown : it->second;
    }

    /** Liveness check for a consumed operand. */
    void
    checkUse(std::uint32_t i, SetId id)
    {
        const ProgramOp &op = program.ops()[i];
        if (id == invalid_set) {
            if (usesSource(op.op)) {
                emit(DiagKind::UseBeforeDef, i, id,
                     opLabel(op, i) +
                         " consumes an invalid set id operand");
            }
            return;
        }
        switch (lifeOf(id)) {
          case Life::Dead:
            emit(DiagKind::UseAfterFree, i, id,
                 opLabel(op, i) + " reads set " + std::to_string(id) +
                     " after it was released");
            return;
          case Life::Live:
            break;
          case Life::Unknown:
            // Ids the program never defined must pre-exist. Register
            // streams cannot say (registers held sets before the
            // trace attached); with a store, liveness is decidable.
            if (!program.registerLevel() && ctx.store &&
                !ctx.store->live(id)) {
                emit(DiagKind::UseBeforeDef, i, id,
                     opLabel(op, i) + " reads set " +
                         std::to_string(id) +
                         " which is neither live in the store nor "
                         "defined earlier in the program");
                return;
            }
            break;
        }
        if (ctx.vaults) {
            const std::uint32_t vault = ctx.resolveVault(id);
            if (vault >= ctx.vaults) {
                emit(DiagKind::VaultOutOfRange, i, id,
                     opLabel(op, i) + " operand set " +
                         std::to_string(id) +
                         " resolves to vault " + std::to_string(vault) +
                         " of " + std::to_string(ctx.vaults));
            }
        }
    }

    /** Per-op structural checks (no cross-op state). */
    void
    checkStructure(std::uint32_t i)
    {
        const ProgramOp &op = program.ops()[i];
        if (!op.decoded) {
            emit(DiagKind::UnknownInstruction, i, invalid_set,
                 "word 0x" + toHex(op.word) +
                     " does not decode as a SISA instruction");
            return;
        }
        // Destination aliasing: a materializing op streaming into one
        // of its own inputs would clobber the input mid-operation
        // (SISA results are always fresh sets). In-place ops define
        // dest == a by design.
        if (op.dest != invalid_set && !op.mutatesInPlace() &&
            (op.dest == op.a || op.dest == op.b)) {
            emit(DiagKind::DestAliasesOperand, i, op.dest,
                 opLabel(op, i) + " destination set " +
                     std::to_string(op.dest) +
                     " aliases one of its source operands");
        }
        // Element immediates must fall inside the store universe.
        if (op.hasElement && ctx.store &&
            op.element >= ctx.store->universe()) {
            emit(DiagKind::UniverseOutOfRange, i, op.dest,
                 opLabel(op, i) + " element " +
                     std::to_string(op.element) +
                     " lies outside universe " +
                     std::to_string(ctx.store->universe()));
        }
        // Encoded operand flags vs. what the op actually touches:
        // claiming a destination for an op that produces neither a
        // set nor a scalar, or a second source for a single-source
        // op, marks a miscompiled metadata-only instruction.
        if (op.word) {
            const auto inst = decode(op.word);
            if (inst) {
                const bool writes_rd = producesSet(inst->op) ||
                                       producesScalar(inst->op);
                if (inst->xd && !writes_rd) {
                    emit(DiagKind::MetadataOnlyMisuse, i, op.dest,
                         opLabel(op, i) +
                             " encodes xd although it writes no "
                             "destination register");
                } else if (inst->xs2 && !usesTwoSources(inst->op)) {
                    emit(DiagKind::MetadataOnlyMisuse, i, op.dest,
                         opLabel(op, i) +
                             " encodes xs2 although it reads a "
                             "single source");
                }
            }
        }
    }

    static std::string
    toHex(std::uint32_t word)
    {
        static constexpr char digits[] = "0123456789abcdef";
        std::string out;
        for (int shift = 28; shift >= 0; shift -= 4)
            out += digits[(word >> shift) & 0xf];
        return out;
    }

    /**
     * Intra-group hazard detection over [begin, end): the ops of one
     * parallel dispatch are unordered, so any write shared with
     * another lane's read or write is a hazard. Pair reporting is
     * deterministic: the later op (request order) carries the
     * diagnostic, the earlier one is otherOp.
     */
    void
    checkGroupHazards(std::uint32_t begin, std::uint32_t end)
    {
        if (end - begin < 2)
            return;
        // id -> first op in the group reading / writing it.
        std::unordered_map<SetId, std::uint32_t> reads, writes, dests;
        std::unordered_map<std::uint64_t, std::uint32_t> scalarOps;
        // One diagnostic per conflicting (earlier op, later op, set)
        // triple. Checks run strongest-first (write/write, then WAR,
        // then RAW), so a pair of in-place mutators -- which read AND
        // write the same set -- reports once as a WAW, not as a
        // WAW+WAR+RAW fan over the same two lanes.
        std::set<std::array<std::uint64_t, 3>> pairSeen;
        const auto emitPair = [&](DiagKind kind, std::uint32_t at,
                                  SetId id, std::string message,
                                  std::uint32_t other) {
            if (pairSeen
                    .insert({other, at, static_cast<std::uint64_t>(id)})
                    .second)
                emit(kind, at, id, std::move(message), other);
        };
        for (std::uint32_t i = begin; i < end; ++i) {
            const ProgramOp &op = program.ops()[i];
            if (!op.decoded)
                continue;
            const SetId written =
                op.releases() ? op.a : op.dest;
            // Writer vs. earlier readers (WAR) and writers (WAW /
            // duplicate destination / concurrent release).
            if (written != invalid_set) {
                if (const auto it = writes.find(written);
                    it != writes.end()) {
                    const ProgramOp &first = program.ops()[it->second];
                    const bool both_materialize =
                        !op.mutatesInPlace() && !op.releases() &&
                        !first.mutatesInPlace() && !first.releases();
                    if (both_materialize) {
                        emitPair(DiagKind::DuplicateDestination, i,
                             written,
                             opLabel(op, i) + " and " +
                                 opLabel(first, it->second) +
                                 " both materialize into set " +
                                 std::to_string(written) +
                                 " in one dispatch",
                             it->second);
                    } else {
                        emitPair(DiagKind::WawHazard, i, written,
                             opLabel(op, i) + " and " +
                                 opLabel(first, it->second) +
                                 " both write set " +
                                 std::to_string(written) +
                                 " in one dispatch",
                             it->second);
                    }
                } else {
                    writes.emplace(written, i);
                }
                if (const auto it = reads.find(written);
                    it != reads.end() && it->second != i) {
                    emitPair(DiagKind::WarHazard, i, written,
                         opLabel(op, i) + " writes set " +
                             std::to_string(written) + " which " +
                             opLabel(program.ops()[it->second],
                                     it->second) +
                             " reads in the same dispatch",
                         it->second);
                }
            }
            // Reader vs. earlier writers (RAW). A release read by a
            // parallel lane is a use-after-free race, not an
            // ordering hazard.
            for (const SetId source : {op.a, op.b}) {
                if (source == invalid_set)
                    continue;
                if (op.releases() && source == op.a)
                    continue; // The release IS the write, handled above.
                const auto it = writes.find(source);
                if (it != writes.end() && it->second != i) {
                    const ProgramOp &writer =
                        program.ops()[it->second];
                    if (writer.releases()) {
                        emitPair(DiagKind::UseAfterFree, i, source,
                             opLabel(op, i) + " reads set " +
                                 std::to_string(source) + " which " +
                                 opLabel(writer, it->second) +
                                 " releases in the same dispatch",
                             it->second);
                    } else {
                        emitPair(DiagKind::RawHazard, i, source,
                             opLabel(op, i) + " reads set " +
                                 std::to_string(source) + " which " +
                                 opLabel(writer, it->second) +
                                 " writes in the same dispatch",
                             it->second);
                    }
                }
            }
            for (const SetId source : {op.a, op.b}) {
                if (source != invalid_set)
                    reads.emplace(source, i);
            }
            // Identical scalar ops in one group duplicate work into
            // two lanes; results are equal, one dispatch slot wasted.
            if (producesScalar(op.op) && op.a != invalid_set) {
                const std::uint64_t key =
                    (static_cast<std::uint64_t>(op.op) << 56) ^
                    (static_cast<std::uint64_t>(op.a) << 28) ^
                    static_cast<std::uint64_t>(
                        op.b == invalid_set ? 0x0fffffffu
                                            : op.b);
                if (const auto [it, fresh] = scalarOps.emplace(key, i);
                    !fresh) {
                    emit(DiagKind::RedundantOp, i, op.a,
                         opLabel(op, i) + " duplicates " +
                             opLabel(program.ops()[it->second],
                                     it->second) +
                             " in the same dispatch (wasted lane)",
                         it->second);
                }
            }
        }
    }

    /** Commit a group's defs/kills to the serial liveness state. */
    void
    commitGroup(std::uint32_t begin, std::uint32_t end)
    {
        for (std::uint32_t i = begin; i < end; ++i) {
            const ProgramOp &op = program.ops()[i];
            if (!op.decoded)
                continue;
            if (op.releases()) {
                // Register-level streams fold many ids onto one
                // register: a delete of id X must not poison later
                // reads of id Y folded to the same register, so
                // free-tracking runs only over real set ids.
                if (op.a != invalid_set && !program.registerLevel())
                    life[op.a] = Life::Dead;
            } else if (op.dest != invalid_set) {
                life[op.dest] = Life::Live;
            }
        }
    }

    Report
    run()
    {
        const auto &ops = program.ops();
        report.instructions = ops.size();
        std::uint32_t begin = 0;
        while (begin < ops.size()) {
            std::uint32_t end = begin + 1;
            while (end < ops.size() &&
                   ops[end].group == ops[begin].group)
                ++end;
            // Every op in the group sees the PRE-group liveness
            // state: lanes are unordered, so no lane may rely on a
            // sibling's definition or release.
            for (std::uint32_t i = begin; i < end; ++i) {
                const ProgramOp &op = ops[i];
                checkStructure(i);
                if (!op.decoded)
                    continue;
                if (op.a != invalid_set || usesSource(op.op))
                    checkUse(i, op.a);
                if (op.b != invalid_set)
                    checkUse(i, op.b);
                // In-place mutation reads its target too; liveness
                // was just checked through op.a (dest == a).
            }
            checkGroupHazards(begin, end);
            commitGroup(begin, end);
            begin = end;
        }
        return std::move(report);
    }
};

} // namespace

Report
analyze(const Program &program, const AnalysisContext &ctx)
{
    Walker walker(program, ctx);
    return walker.run();
}

// --- Dependency graph -------------------------------------------------------

DependencyGraph::DependencyGraph(const Program &program)
{
    const auto &ops = program.ops();
    const auto n = static_cast<std::uint32_t>(ops.size());
    succ_.resize(n);
    pred_.resize(n);
    level_.assign(n, 0);

    // Last writer and readers-since-last-write per id, at GROUP
    // granularity: ops inside one parallel group are unordered
    // siblings and never depend on each other (intra-group overlap
    // is a hazard analyze() reports, not an ordering edge).
    struct IdState
    {
        std::uint32_t lastWriter = UINT32_MAX;
        std::vector<std::uint32_t> readersSince;
    };
    std::unordered_map<SetId, IdState> state;

    const auto addEdge = [&](std::uint32_t from, std::uint32_t to) {
        if (from == to)
            return;
        // Dedup against the most recent edge (sources are visited in
        // order, so duplicates cluster).
        if (!succ_[from].empty() && succ_[from].back() == to)
            return;
        succ_[from].push_back(to);
        pred_[to].push_back(from);
        ++edges_;
    };

    std::uint32_t begin = 0;
    while (begin < n) {
        std::uint32_t end = begin + 1;
        while (end < n && ops[end].group == ops[begin].group)
            ++end;
        // RAW/WAW/WAR edges from state BEFORE this group.
        for (std::uint32_t i = begin; i < end; ++i) {
            const ProgramOp &op = ops[i];
            if (!op.decoded)
                continue;
            for (const SetId source : {op.a, op.b}) {
                if (source == invalid_set)
                    continue;
                const auto it = state.find(source);
                if (it != state.end() &&
                    it->second.lastWriter != UINT32_MAX &&
                    it->second.lastWriter < begin)
                    addEdge(it->second.lastWriter, i); // RAW.
            }
            const SetId written = op.releases() ? op.a : op.dest;
            if (written != invalid_set) {
                const auto it = state.find(written);
                if (it != state.end()) {
                    if (it->second.lastWriter != UINT32_MAX &&
                        it->second.lastWriter < begin)
                        addEdge(it->second.lastWriter, i); // WAW.
                    for (const std::uint32_t reader :
                         it->second.readersSince) {
                        if (reader < begin)
                            addEdge(reader, i); // WAR.
                    }
                }
            }
        }
        // Commit the group's reads and writes.
        for (std::uint32_t i = begin; i < end; ++i) {
            const ProgramOp &op = ops[i];
            if (!op.decoded)
                continue;
            for (const SetId source : {op.a, op.b}) {
                if (source != invalid_set)
                    state[source].readersSince.push_back(i);
            }
        }
        for (std::uint32_t i = begin; i < end; ++i) {
            const ProgramOp &op = ops[i];
            if (!op.decoded)
                continue;
            const SetId written = op.releases() ? op.a : op.dest;
            if (written != invalid_set) {
                IdState &id_state = state[written];
                id_state.lastWriter = i;
                id_state.readersSince.clear();
            }
        }
        begin = end;
    }

    // Topological levels: ops are indexed in issue order and every
    // edge points forward, so one sweep settles all levels.
    std::uint32_t depth = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
        std::uint32_t level = 0;
        for (const std::uint32_t p : pred_[i])
            level = std::max(level, level_[p] + 1);
        level_[i] = level;
        depth = std::max(depth, level + 1);
    }
    levels_.resize(depth);
    for (std::uint32_t i = 0; i < n; ++i)
        levels_[level_[i]].push_back(i);
}

std::uint32_t
DependencyGraph::depth() const
{
    return static_cast<std::uint32_t>(levels_.size());
}

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

} // namespace sisa::isa::analysis
