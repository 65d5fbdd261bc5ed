#include "sisa/encoding.hpp"

#include "support/logging.hpp"

namespace sisa::isa {

std::string_view
sisaOpName(SisaOp op)
{
    switch (op) {
      case SisaOp::IntersectMerge: return "sisa.and.mg";
      case SisaOp::IntersectGallop: return "sisa.and.gl";
      case SisaOp::IntersectAuto: return "sisa.and";
      case SisaOp::IntersectSaDb: return "sisa.and.sd";
      case SisaOp::IntersectDbDb: return "sisa.and.dd";
      case SisaOp::InsertElement: return "sisa.ins";
      case SisaOp::RemoveElement: return "sisa.rem";
      case SisaOp::UnionMerge: return "sisa.or.mg";
      case SisaOp::UnionGallop: return "sisa.or.gl";
      case SisaOp::UnionAuto: return "sisa.or";
      case SisaOp::DifferenceMerge: return "sisa.diff.mg";
      case SisaOp::DifferenceGallop: return "sisa.diff.gl";
      case SisaOp::DifferenceAuto: return "sisa.diff";
      case SisaOp::IntersectCard: return "sisa.andc";
      case SisaOp::UnionCard: return "sisa.orc";
      case SisaOp::Cardinality: return "sisa.card";
      case SisaOp::Member: return "sisa.mem";
      case SisaOp::CreateSet: return "sisa.new";
      case SisaOp::DeleteSet: return "sisa.del";
      case SisaOp::CloneSet: return "sisa.clone";
      case SisaOp::ConvertRepr: return "sisa.conv";
    }
    return "sisa.???";
}

std::uint32_t
encode(const SisaInst &inst)
{
    sisa_assert(inst.rd < 32 && inst.rs1 < 32 && inst.rs2 < 32,
                "register fields are 5 bits wide");
    const auto funct7 = static_cast<std::uint32_t>(inst.op);
    sisa_assert(funct7 < 128, "funct7 is 7 bits wide");

    std::uint32_t word = sisa_opcode;            // bits [6..0]
    word |= std::uint32_t{inst.rd} << 7;         // bits [11..7]
    word |= std::uint32_t{inst.xs2} << 12;       // bit 12
    word |= std::uint32_t{inst.xs1} << 13;       // bit 13
    word |= std::uint32_t{inst.xd} << 14;        // bit 14
    word |= std::uint32_t{inst.rs1} << 15;       // bits [19..15]
    word |= std::uint32_t{inst.rs2} << 20;       // bits [24..20]
    word |= funct7 << 25;                        // bits [31..25]
    return word;
}

std::optional<SisaInst>
decode(std::uint32_t word)
{
    if (!isSisaWord(word))
        return std::nullopt;
    const std::uint32_t funct7 = word >> 25;
    if (funct7 >= num_sisa_ops)
        return std::nullopt;

    SisaInst inst;
    inst.op = static_cast<SisaOp>(funct7);
    inst.rd = (word >> 7) & 0x1f;
    inst.xs2 = (word >> 12) & 1;
    inst.xs1 = (word >> 13) & 1;
    inst.xd = (word >> 14) & 1;
    inst.rs1 = (word >> 15) & 0x1f;
    inst.rs2 = (word >> 20) & 0x1f;
    return inst;
}

} // namespace sisa::isa
