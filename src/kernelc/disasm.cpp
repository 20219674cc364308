#include "kernelc/disasm.hpp"

#include <cstring>
#include <iomanip>
#include <sstream>

namespace skelcl::kc {

const char* opName(Op op) {
  switch (op) {
    case Op::PushI: return "push.i";
    case Op::PushF: return "push.f";
    case Op::LoadSlot: return "load.slot";
    case Op::StoreSlot: return "store.slot";
    case Op::LeaFrame: return "lea.frame";
    case Op::LoadI32: return "load.i32";
    case Op::LoadU32: return "load.u32";
    case Op::LoadF32: return "load.f32";
    case Op::LoadF64: return "load.f64";
    case Op::LoadI64: return "load.i64";
    case Op::StoreI32: return "store.i32";
    case Op::StoreI64: return "store.i64";
    case Op::StoreF32: return "store.f32";
    case Op::StoreF64: return "store.f64";
    case Op::MemCopy: return "memcopy";
    case Op::PtrAdd: return "ptradd";
    case Op::AddI: return "add.i";
    case Op::SubI: return "sub.i";
    case Op::MulI: return "mul.i";
    case Op::DivI: return "div.i";
    case Op::RemI: return "rem.i";
    case Op::NegI: return "neg.i";
    case Op::DivU: return "div.u";
    case Op::RemU: return "rem.u";
    case Op::AndI: return "and.i";
    case Op::OrI: return "or.i";
    case Op::XorI: return "xor.i";
    case Op::ShlI: return "shl.i";
    case Op::ShrI: return "shr.i";
    case Op::ShrU: return "shr.u";
    case Op::NotI: return "not.i";
    case Op::AddL: return "add.l";
    case Op::SubL: return "sub.l";
    case Op::MulL: return "mul.l";
    case Op::DivL: return "div.l";
    case Op::RemL: return "rem.l";
    case Op::NegL: return "neg.l";
    case Op::DivUL: return "div.ul";
    case Op::RemUL: return "rem.ul";
    case Op::AndL: return "and.l";
    case Op::OrL: return "or.l";
    case Op::XorL: return "xor.l";
    case Op::ShlL: return "shl.l";
    case Op::ShrL: return "shr.l";
    case Op::ShrUL: return "shr.ul";
    case Op::NotL: return "not.l";
    case Op::AddF32: return "add.f32";
    case Op::SubF32: return "sub.f32";
    case Op::MulF32: return "mul.f32";
    case Op::DivF32: return "div.f32";
    case Op::NegF32: return "neg.f32";
    case Op::AddF64: return "add.f64";
    case Op::SubF64: return "sub.f64";
    case Op::MulF64: return "mul.f64";
    case Op::DivF64: return "div.f64";
    case Op::NegF64: return "neg.f64";
    case Op::EqI: return "eq.i";
    case Op::NeI: return "ne.i";
    case Op::LtI: return "lt.i";
    case Op::LeI: return "le.i";
    case Op::GtI: return "gt.i";
    case Op::GeI: return "ge.i";
    case Op::LtU: return "lt.u";
    case Op::LeU: return "le.u";
    case Op::GtU: return "gt.u";
    case Op::GeU: return "ge.u";
    case Op::LtUL: return "lt.ul";
    case Op::LeUL: return "le.ul";
    case Op::GtUL: return "gt.ul";
    case Op::GeUL: return "ge.ul";
    case Op::EqF: return "eq.f";
    case Op::NeF: return "ne.f";
    case Op::LtF: return "lt.f";
    case Op::LeF: return "le.f";
    case Op::GtF: return "gt.f";
    case Op::GeF: return "ge.f";
    case Op::EqP: return "eq.p";
    case Op::NeP: return "ne.p";
    case Op::LNot: return "lnot";
    case Op::I2F32: return "cvt.i.f32";
    case Op::I2F64: return "cvt.i.f64";
    case Op::U2F32: return "cvt.u.f32";
    case Op::U2F64: return "cvt.u.f64";
    case Op::UL2F32: return "cvt.ul.f32";
    case Op::UL2F64: return "cvt.ul.f64";
    case Op::F2I: return "cvt.f.i";
    case Op::F2U: return "cvt.f.u";
    case Op::F2L: return "cvt.f.l";
    case Op::F2UL: return "cvt.f.ul";
    case Op::F64toF32: return "cvt.f64.f32";
    case Op::I2U: return "cvt.i.u";
    case Op::U2I: return "cvt.u.i";
    case Op::BoolNorm: return "boolnorm";
    case Op::Jmp: return "jmp";
    case Op::Jz: return "jz";
    case Op::Jnz: return "jnz";
    case Op::CallFn: return "call";
    case Op::CallBuiltin: return "call.builtin";
    case Op::Ret: return "ret";
    case Op::RetVoid: return "ret.void";
    case Op::Dup: return "dup";
    case Op::Drop: return "drop";
    case Op::Trap: return "trap";
    case Op::PtrAddImm: return "ptradd.imm";
    case Op::LoadElemI32: return "loadelem.i32";
    case Op::LoadElemU32: return "loadelem.u32";
    case Op::LoadElemF32: return "loadelem.f32";
    case Op::LoadElemF64: return "loadelem.f64";
    case Op::LoadElemI64: return "loadelem.i64";
    case Op::LoadSlotElemI32: return "loadslotelem.i32";
    case Op::LoadSlotElemU32: return "loadslotelem.u32";
    case Op::LoadSlotElemF32: return "loadslotelem.f32";
    case Op::LoadSlotElemF64: return "loadslotelem.f64";
    case Op::LoadSlotElemI64: return "loadslotelem.i64";
    case Op::TeeStoreI32: return "teestore.i32";
    case Op::TeeStoreI64: return "teestore.i64";
    case Op::TeeStoreF32: return "teestore.f32";
    case Op::TeeStoreF64: return "teestore.f64";
    case Op::IncSlotI: return "incslot.i";
    case Op::LoadSlot2: return "load.slot2";
    case Op::CmpJz: return "cmp.jz";
    case Op::CmpJnz: return "cmp.jnz";
    case Op::StoreSlotChecked: return "store.slot.checked";
    case Op::PushCI: return "push.ci";
    case Op::PushCF: return "push.cf";
  }
  return "?";
}

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

std::string disassemble(const FunctionCode& fn) {
  std::ostringstream os;
  os << (fn.isKernel ? "kernel " : "function ") << fn.name << " (slots=" << fn.numSlots
     << ", frame=" << fn.frameBytes << "B)\n";
  for (std::size_t i = 0; i < fn.code.size(); ++i) {
    const Insn& insn = fn.code[i];
    os << std::setw(5) << i << "  " << opName(insn.op);
    switch (insn.op) {
      case Op::PushI:
        os << " " << insn.imm;
        break;
      case Op::PushF:
        os << " " << insn.fimm;
        break;
      case Op::LoadSlot:
      case Op::StoreSlot:
      case Op::LeaFrame:
      case Op::MemCopy:
      case Op::PtrAdd:
      case Op::Jmp:
      case Op::Jz:
      case Op::Jnz:
      case Op::CallFn:
        os << " " << insn.a;
        break;
      case Op::CallBuiltin:
        os << " " << insn.a << " argc=" << insn.b;
        break;
      case Op::PtrAddImm:
        os << " " << insn.a << " +" << insn.imm;
        break;
      case Op::LoadElemI32:
      case Op::LoadElemU32:
      case Op::LoadElemF32:
      case Op::LoadElemF64:
      case Op::LoadElemI64:
        os << " sz=" << insn.a;
        break;
      case Op::LoadSlotElemI32:
      case Op::LoadSlotElemU32:
      case Op::LoadSlotElemF32:
      case Op::LoadSlotElemF64:
      case Op::LoadSlotElemI64:
        os << " ptr=s" << insn.a << " idx=s" << insn.b << " sz=" << insn.imm;
        break;
      case Op::TeeStoreI32:
      case Op::TeeStoreI64:
      case Op::TeeStoreF32:
      case Op::TeeStoreF64:
        os << " s" << insn.a;
        break;
      case Op::IncSlotI:
        os << " s" << insn.a << " +" << insn.imm;
        break;
      case Op::LoadSlot2:
        os << " s" << insn.a << " s" << insn.b;
        break;
      case Op::StoreSlotChecked:
        os << " s" << insn.a << " bytes=" << insn.b;
        break;
      case Op::CmpJz:
      case Op::CmpJnz:
        os << " " << insn.a << " (" << opName(static_cast<Op>(insn.b)) << ")";
        break;
      default:
        break;
    }
    // Weight 0 marks code the rewrite pass synthesized (hoisted / tracking
    // instructions, inlined-argument binding); its cost is charged elsewhere.
    if (insn.weight == 0) os << "  ;hoisted";
    if (insn.weight > 1) os << "  ;w=" << static_cast<int>(insn.weight);
    os << "\n";
  }
  return os.str();
}

std::string disassemblePacked(const FunctionCode& fn) {
  std::ostringstream os;
  os << (fn.isKernel ? "kernel " : "function ") << fn.name << " (slots=" << fn.numSlots
     << ", frame=" << fn.frameBytes << "B, maxstack=" << fn.maxStack
     << ", pool=" << fn.pool.size() << ")\n";
  for (std::size_t i = 0; i < fn.packed.size(); ++i) {
    const PackedInsn& insn = fn.packed[i];
    os << std::setw(5) << i << "  " << opName(insn.op);
    switch (insn.op) {
      case Op::PushI:
        os << " " << insn.a;
        break;
      case Op::PushCI: {
        os << " [" << insn.k << "]="
           << static_cast<std::int64_t>(fn.pool[static_cast<std::size_t>(insn.k)]);
        break;
      }
      case Op::PushCF: {
        double v;
        std::memcpy(&v, &fn.pool[static_cast<std::size_t>(insn.k)], sizeof v);
        os << " [" << insn.k << "]=" << v;
        break;
      }
      case Op::LoadSlot:
      case Op::StoreSlot:
      case Op::LeaFrame:
      case Op::MemCopy:
      case Op::PtrAdd:
      case Op::Jmp:
      case Op::Jz:
      case Op::Jnz:
      case Op::CallFn:
        os << " " << insn.a;
        break;
      case Op::CallBuiltin:
        os << " " << insn.a << " argc=" << insn.b;
        break;
      case Op::PtrAddImm:
        os << " " << insn.a << " +" << insn.b;
        break;
      case Op::LoadElemI32:
      case Op::LoadElemU32:
      case Op::LoadElemF32:
      case Op::LoadElemF64:
      case Op::LoadElemI64:
        os << " sz=" << insn.a;
        break;
      case Op::LoadSlotElemI32:
      case Op::LoadSlotElemU32:
      case Op::LoadSlotElemF32:
      case Op::LoadSlotElemF64:
      case Op::LoadSlotElemI64:
        os << " ptr=s" << insn.a << " idx=s" << insn.b << " sz=" << insn.c;
        break;
      case Op::TeeStoreI32:
      case Op::TeeStoreI64:
      case Op::TeeStoreF32:
      case Op::TeeStoreF64:
        os << " s" << insn.a;
        break;
      case Op::IncSlotI:
        os << " s" << insn.a << " +" << insn.b;
        break;
      case Op::LoadSlot2:
        os << " s" << insn.a << " s" << insn.b;
        break;
      case Op::StoreSlotChecked:
        os << " s" << insn.a << " bytes=" << insn.b;
        break;
      case Op::CmpJz:
      case Op::CmpJnz:
        os << " " << insn.a << " (" << opName(static_cast<Op>(insn.c)) << ")";
        break;
      default:
        break;
    }
    if (insn.weight == 0) os << "  ;hoisted";
    if (insn.weight > 1) os << "  ;w=" << static_cast<int>(insn.weight);
    os << "\n";
  }
  return os.str();
}

}  // namespace skelcl::kc
