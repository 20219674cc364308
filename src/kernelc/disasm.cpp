#include "kernelc/disasm.hpp"

#include <bit>
#include <cstring>
#include <iomanip>
#include <sstream>

namespace skelcl::kc {

const char* batchFallbackName(BatchFallback reason) {
  switch (reason) {
    case BatchFallback::None: return "";
    case BatchFallback::NotTier2: return "not tier 2";
    case BatchFallback::Disabled: return "SKELCL_KC_BATCH=0";
    case BatchFallback::FrameMemory: return "frame memory";
    case BatchFallback::Call: return "call";
    case BatchFallback::Barrier: return "barrier";
    case BatchFallback::AtomicResultUsed: return "atomic result used";
    case BatchFallback::AtomicTargetAliased: return "atomic target aliased";
    case BatchFallback::SingleItem: return "single item";
  }
  return "?";
}

namespace {

/// A register-form instruction's operation and operands: "op x y", each
/// operand "stack", "s<slot>" or the constant (a double for a kFloatOperands
/// op, an integer otherwise).
void printReg(std::ostream& os, const Insn& insn) {
  const Op op = regOp(insn.c);
  os << " " << opName(op);
  if (op == Op::PtrAdd) os << " sz=" << regElemSize(insn.c);
  const auto operand = [&](Src src, std::int32_t slot) {
    if (src == Src::Stack) {
      os << " stack";
    } else if (src == Src::Slot) {
      os << " s" << slot;
    } else if (opInfo(op).flags & kFloatOperands) {
      os << " " << std::bit_cast<double>(insn.imm);
    } else {
      os << " " << insn.imm;
    }
  };
  operand(regX(insn.c), insn.b);
  operand(regY(insn.c), insn.k);
}

/// One instruction line: index, mnemonic, operands, weight annotation.
void printInsn(std::ostream& os, std::size_t index, const Insn& insn) {
  os << std::setw(5) << index << "  " << opName(insn.op);
  switch (opInfo(insn.op).operands) {
    case Operands::None: break;
    case Operands::Imm: os << " " << insn.imm; break;
    case Operands::FImm: os << " " << insn.fimm; break;
    case Operands::PoolInt: os << " [" << insn.a << "]=" << insn.imm; break;
    case Operands::PoolFloat: os << " [" << insn.a << "]=" << insn.fimm; break;
    case Operands::Num:
    case Operands::SlotRead:
    case Operands::SlotWrite:
    case Operands::Target: os << " " << insn.a; break;
    case Operands::Builtin: os << " " << insn.a << " argc=" << insn.b; break;
    case Operands::PtrImm: os << " " << insn.a << " +" << insn.imm; break;
    case Operands::ElemSize: os << " sz=" << insn.a; break;
    case Operands::SlotElem:
      os << " ptr=s" << insn.a << " idx=s" << insn.b << " sz=" << insn.imm;
      break;
    case Operands::Tee: os << " s" << insn.a; break;
    case Operands::IncSlot: os << " s" << insn.a << " +" << insn.imm; break;
    case Operands::Slot2: os << " s" << insn.a << " s" << insn.b; break;
    case Operands::SlotBytes: os << " s" << insn.a << " bytes=" << insn.b; break;
    case Operands::CmpTarget:
      os << " " << insn.a << " (" << opName(static_cast<Op>(insn.b)) << ")";
      break;
    case Operands::Reg: printReg(os, insn); break;
    case Operands::RegSlot:
      printReg(os, insn);
      os << " -> s" << insn.a;
      break;
    case Operands::RegTarget:
      os << " " << insn.a;
      printReg(os, insn);
      break;
  }
  // Weight 0 marks code the rewrite pass synthesized (struct field loads,
  // inlined-argument binding and zeroing); its cost is charged elsewhere.
  if (insn.weight != 1) os << "  ;w=" << static_cast<int>(insn.weight);
  os << "\n";
}

/// The Insn view of a packed instruction: what the encoder moved out of
/// place (see Operands) goes back, and a pool push shows its index in `a`
/// and the pool entry as its immediate.
Insn unpack(const PackedInsn& p, const std::vector<std::uint64_t>& pool) {
  Insn insn{p.op, p.a, p.b, 0, 0.0, p.weight};
  switch (opInfo(p.op).operands) {
    case Operands::Imm: insn.imm = p.a; break;
    case Operands::PoolInt:
      insn.a = p.k;
      insn.imm = static_cast<std::int64_t>(pool[static_cast<std::size_t>(p.k)]);
      break;
    case Operands::PoolFloat:
      insn.a = p.k;
      std::memcpy(&insn.fimm, &pool[static_cast<std::size_t>(p.k)], sizeof insn.fimm);
      break;
    case Operands::PtrImm:
    case Operands::IncSlot: insn.imm = p.b; break;
    case Operands::SlotElem: insn.imm = p.c; break;
    case Operands::CmpTarget: insn.b = p.c; break;
    case Operands::Reg:
    case Operands::RegSlot:
    case Operands::RegTarget:
      insn.c = p.c;
      insn.k = p.k;
      if (regX(p.c) == Src::Const || regY(p.c) == Src::Const) {
        const std::int32_t k = regX(p.c) == Src::Const ? p.b : p.k;
        insn.imm = static_cast<std::int64_t>(pool[static_cast<std::size_t>(k)]);
      }
      break;
    default: break;
  }
  return insn;
}

}  // namespace

std::string disassemble(const FunctionCode& fn) {
  std::ostringstream os;
  os << (fn.isKernel ? "kernel " : "function ") << fn.name << " (slots=" << fn.numSlots
     << ", frame=" << fn.frameBytes << "B)\n";
  for (std::size_t i = 0; i < fn.code.size(); ++i) printInsn(os, i, fn.code[i]);
  return os.str();
}

std::string disassemblePacked(const FunctionCode& fn) {
  std::ostringstream os;
  os << (fn.isKernel ? "kernel " : "function ") << fn.name << " (slots=" << fn.numSlots
     << ", frame=" << fn.frameBytes << "B, maxstack=" << fn.maxStack
     << ", pool=" << fn.pool.size() << ")\n";
  for (std::size_t i = 0; i < fn.packed.size(); ++i) {
    printInsn(os, i, unpack(fn.packed[i], fn.pool));
  }
  return os.str();
}

}  // namespace skelcl::kc
