/**
 * @file
 * Deterministic fault injection for the SCU/vault execution stack.
 * Real PIM substrates (HMC/HBM logic layers, UPMEM-class DPUs) suffer
 * transient op faults, stalled lanes, and whole-vault failures; this
 * layer lets the simulator model them without giving up bit-exact
 * reproducibility. Four fault channels are injected at chosen
 * dispatch/op coordinates:
 *
 *  - transient op-result corruption: a vault computes and ships a
 *    result whose payload checksum no longer matches -- the SCU
 *    detects the mismatch on adoption and re-executes the op after an
 *    exponential cycle backoff (bounded by maxRetries);
 *  - interconnect transfer drops: a remote-operand transfer is lost
 *    and retransmitted, paying the full interconnect charge plus
 *    backoff per attempt;
 *  - lane stalls: a vault lane loses stallCycles of progress once
 *    (modeled as a memory stall on the lane);
 *  - permanent vault failures: from the given dispatch on, the vault
 *    is dead. The SCU's heartbeat watchdog times out, the vault is
 *    quarantined, resident sets are emergency-migrated off it, and
 *    the dead lanes' operations re-route and re-execute elsewhere
 *    (see Scu::dispatchBatch).
 *
 * Every decision is a pure splitmix64-style hash over (seed, fault
 * channel, coordinates): stateless, thread-safe, and independent of
 * the order in which operations ask. Recoverable
 * campaigns therefore produce final results bit-identical to the
 * fault-free run -- faults move cycles and the recovery counters
 * (scu.retries, scu.quarantines, setops.recovery_bytes), never
 * functional results.
 */

#ifndef SISA_SISA_FAULTS_HPP
#define SISA_SISA_FAULTS_HPP

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "mem/pim.hpp"
#include "sisa/isa.hpp"

namespace sisa::isa {

/** Inject result corruption at one exact (dispatch, op) coordinate. */
struct CorruptionPoint
{
    std::uint64_t dispatch = 0; ///< dispatchBatch sequence number.
    std::uint32_t op = 0;       ///< Op index within the batch.
    std::uint32_t attempts = 1; ///< Corrupt this many attempts in a row.
};

/** Permanently fail @p vault at the start of @p dispatch. */
struct VaultFailurePoint
{
    std::uint64_t dispatch = 0;
    std::uint32_t vault = 0;
};

/** Fault model configuration (ScuConfig.faults). */
struct FaultConfig
{
    /**
     * Master switch. Disabled (the default) is guaranteed zero
     * overhead: the SCU installs no injector, performs no checksum
     * work, and charges cycles identical to a build without the
     * fault layer (guarded by the golden-trace pin).
     */
    bool enabled = false;
    /** Seed of every probabilistic channel. */
    std::uint64_t seed = 0;
    /** Per-(dispatch, op, attempt) result corruption probability. */
    double corruptRate = 0.0;
    /** Per-(dispatch, op) lane stall probability. */
    double stallRate = 0.0;
    /** Cycles one injected lane stall costs. */
    mem::Cycles stallCycles = 256;
    /** Per-(dispatch, vault, operand, attempt) transfer drop rate. */
    double dropRate = 0.0;
    /** Retry budget per op / per transfer before giving up. */
    std::uint32_t maxRetries = 4;
    /** Retry backoff: attempt k waits retryBackoffBase << k cycles. */
    mem::Cycles retryBackoffBase = 32;
    /** Cycles until the watchdog declares a silent vault dead. */
    mem::Cycles heartbeatTimeout = 1024;
    /**
     * Verify payload checksums: each remote operand after its
     * transfer and each executed result on adoption pays a
     * word-stream charge (mem::pnmStreamBytesCycles over its
     * footprint; counter scu.checksum_verifies). Required for
     * corruption detection.
     */
    bool verifyChecksums = true;
    /** Targeted corruptions (exactly reproducible, for cycle pins). */
    std::vector<CorruptionPoint> corruptAt;
    /** Scheduled permanent vault failures. */
    std::vector<VaultFailurePoint> vaultFailures;
};

/** A fault survived every recovery attempt the model allows. */
class UnrecoverableFaultError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * The injector: pure coordinate-hash decisions over a FaultConfig.
 * Const and stateless after construction: the answers do not depend
 * on which operation asks first.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(FaultConfig config);

    const FaultConfig &config() const { return config_; }

    /** Is attempt @p attempt of op @p op in @p dispatch corrupted? */
    bool corruptsResult(std::uint64_t dispatch, std::uint32_t op,
                        std::uint32_t attempt) const;

    /**
     * Is attempt @p attempt of @p operand's transfer into @p vault
     * during @p dispatch dropped on the interconnect?
     */
    bool dropsTransfer(std::uint64_t dispatch, std::uint32_t vault,
                       SetId operand, std::uint32_t attempt) const;

    /** Injected stall cycles for op @p op of @p dispatch (0 = none). */
    mem::Cycles stallCycles(std::uint64_t dispatch,
                            std::uint32_t op) const;

    /** Append the vaults that permanently fail at @p dispatch. */
    void failuresAt(std::uint64_t dispatch,
                    std::vector<std::uint32_t> &out) const;

    /** Cycle backoff before retry attempt @p attempt (exponential). */
    mem::Cycles
    backoff(std::uint32_t attempt) const
    {
        return config_.retryBackoffBase
               << std::min<std::uint32_t>(attempt, 20);
    }

  private:
    double uniform(std::uint64_t channel, std::uint64_t c0,
                   std::uint64_t c1, std::uint64_t c2) const;

    FaultConfig config_;
};

/**
 * Parse a comma-separated "key=value" fault spec (the sisa_run
 * `faults=` argument). Keys: seed, corrupt, stall, stall-cycles,
 * drop, retries, backoff, timeout, verify (0/1), fail=D@V
 * (repeatable: vault V dies at dispatch D), corrupt-at=D:OP[:N]
 * (repeatable). Returns nullopt and fills @p error on bad input.
 */
std::optional<FaultConfig> parseFaultSpec(std::string_view spec,
                                          std::string *error = nullptr);

/**
 * FNV-1a checksums over payload words -- the integrity code both the
 * SetStore (stored payloads) and the SCU (op results in flight) use,
 * so a stored set and a bit-identical computed result always agree.
 */
std::uint64_t fnvChecksum32(const std::uint32_t *data, std::size_t n);
std::uint64_t fnvChecksum64(const std::uint64_t *data, std::size_t n);

} // namespace sisa::isa

#endif // SISA_SISA_FAULTS_HPP
