/**
 * @file
 * The SISA instruction set (Section 6, Table 5). Each instruction is
 * one set operation variant: the Table 5 rows carry the opcodes the
 * paper assigns (0x0 - 0x6); the remaining instructions fill the
 * custom-opcode space the paper reserves ("the number of SISA
 * instructions is less than 20, leaving space for potential new
 * variants"). Instructions operate on logical set ids held in
 * registers; the Auto variants delegate the merge-vs-galloping and
 * PUM-vs-PNM decisions to the SISA Controller Unit (Section 8.2).
 */

#ifndef SISA_SISA_ISA_HPP
#define SISA_SISA_ISA_HPP

#include <cstdint>
#include <string_view>

namespace sisa::isa {

/** Logical id of a SISA set (Section 6.3.4). */
using SetId = std::uint32_t;

/** Sentinel for "no set". */
inline constexpr SetId invalid_set = static_cast<SetId>(-1);

/**
 * SISA operation identifiers. Values double as the funct7 field of
 * the RISC-V encoding (Figure 5); 0x00 - 0x06 match Table 5 verbatim.
 */
enum class SisaOp : std::uint8_t
{
    // --- Table 5 ---------------------------------------------------------
    IntersectMerge = 0x00,  ///< SA cap SA, merge: O(|A| + |B|).
    IntersectGallop = 0x01, ///< SA cap SA, galloping: O(min log max).
    IntersectAuto = 0x02,   ///< SA cap SA, SCU picks merge/galloping.
    IntersectSaDb = 0x03,   ///< SA cap DB: O(|A|) probes.
    IntersectDbDb = 0x04,   ///< DB cap DB: in-situ bitwise AND.
    InsertElement = 0x05,   ///< A cup {x}: set bit / SA insert.
    RemoveElement = 0x06,   ///< A setminus {x}: clear bit / SA remove.

    // --- Union / difference variants (Section 6.2.2) ---------------------
    UnionMerge = 0x07,
    UnionGallop = 0x08,
    UnionAuto = 0x09,
    DifferenceMerge = 0x0a,
    DifferenceGallop = 0x0b,
    DifferenceAuto = 0x0c,

    // --- Fused cardinalities (Section 6.2.3) -----------------------------
    IntersectCard = 0x0d, ///< |A cap B| without materialization.
    UnionCard = 0x0e,     ///< |A cup B| without materialization.

    // --- Bookkeeping ------------------------------------------------------
    Cardinality = 0x0f, ///< |A| (O(1): metadata lookup).
    Member = 0x10,      ///< x in A.
    CreateSet = 0x11,
    DeleteSet = 0x12,
    CloneSet = 0x13,
    ConvertRepr = 0x14, ///< Switch SA <-> DB representation.
};

/** Number of defined SISA operations. */
inline constexpr std::uint8_t num_sisa_ops = 0x15;

/** Human-readable mnemonic for an operation. */
std::string_view sisaOpName(SisaOp op);

/** True for ops producing a new set (writing a set id to rd). */
constexpr bool
producesSet(SisaOp op)
{
    switch (op) {
      case SisaOp::IntersectMerge:
      case SisaOp::IntersectGallop:
      case SisaOp::IntersectAuto:
      case SisaOp::IntersectSaDb:
      case SisaOp::IntersectDbDb:
      case SisaOp::UnionMerge:
      case SisaOp::UnionGallop:
      case SisaOp::UnionAuto:
      case SisaOp::DifferenceMerge:
      case SisaOp::DifferenceGallop:
      case SisaOp::DifferenceAuto:
      case SisaOp::CreateSet:
      case SisaOp::CloneSet:
      case SisaOp::ConvertRepr:
        return true;
      default:
        return false;
    }
}

/** True for ops producing a scalar (cardinality / membership). */
constexpr bool
producesScalar(SisaOp op)
{
    switch (op) {
      case SisaOp::IntersectCard:
      case SisaOp::UnionCard:
      case SisaOp::Cardinality:
      case SisaOp::Member:
        return true;
      default:
        return false;
    }
}

/**
 * A decoded SISA instruction: operation plus register operands
 * (Figure 5: rs1/rs2 hold input set ids, rd receives the output).
 */
struct SisaInst
{
    SisaOp op = SisaOp::IntersectAuto;
    std::uint8_t rd = 0;  ///< Destination register (5 bits).
    std::uint8_t rs1 = 0; ///< First source register (5 bits).
    std::uint8_t rs2 = 0; ///< Second source register (5 bits).
    bool xd = true;       ///< Instruction writes rd.
    bool xs1 = true;      ///< Instruction reads rs1.
    bool xs2 = true;      ///< Instruction reads rs2.

    friend bool operator==(const SisaInst &, const SisaInst &) = default;
};

} // namespace sisa::isa

#endif // SISA_SISA_ISA_HPP
