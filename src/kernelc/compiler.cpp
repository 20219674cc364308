#include "kernelc/compiler.hpp"

#include "base/error.hpp"
#include "kernelc/builtins.hpp"
#include "kernelc/value.hpp"

#include <optional>

namespace skelcl::kc {

namespace {
bool isF32(TypeId t) { return t == types::Float; }
bool isF64(TypeId t) { return t == types::Double; }
bool isFloating(TypeId t) { return isF32(t) || isF64(t); }

// ---------------------------------------------------------------------------
// Constant folding
//
// Pure expressions over literals are evaluated at compile time with exactly
// the VM's semantics (32-bit wrap-around integers, float re-rounding), so a
// folded program is observably identical to an unfolded one — except for the
// instruction count, which drives the simulated kernel time the same way a
// real driver compiler's optimizer would.
// ---------------------------------------------------------------------------

struct Folded {
  bool isFloat = false;
  double f = 0.0;
  std::int64_t i = 0;
};

std::optional<Folded> tryFold(const Expr& expr, const TypeTable& types);

std::optional<Folded> foldBinary(const Binary& bin, const TypeTable& types) {
  // Short-circuit operators and pointer arithmetic are lowered with jumps /
  // PtrAdd; don't fold them here.
  if (bin.op == BinaryOp::LAnd || bin.op == BinaryOp::LOr) return std::nullopt;
  if (!types.isArithmetic(bin.operandType)) return std::nullopt;

  const auto lhs = tryFold(*bin.lhs, types);
  const auto rhs = tryFold(*bin.rhs, types);
  if (!lhs || !rhs) return std::nullopt;

  const bool f32 = bin.operandType == types::Float;
  const bool f64 = bin.operandType == types::Double;
  const bool uns = bin.operandType == types::Uint;

  Folded out;
  if (f32 || f64) {
    const double a = lhs->f;
    const double b = rhs->f;
    auto roundIf = [&](double v) { return f32 ? static_cast<double>(static_cast<float>(v)) : v; };
    switch (bin.op) {
      case BinaryOp::Add: out.f = roundIf((f32 ? float(a) + float(b) : a + b)); break;
      case BinaryOp::Sub: out.f = roundIf((f32 ? float(a) - float(b) : a - b)); break;
      case BinaryOp::Mul: out.f = roundIf((f32 ? float(a) * float(b) : a * b)); break;
      case BinaryOp::Div: out.f = roundIf((f32 ? float(a) / float(b) : a / b)); break;
      case BinaryOp::Eq: out.i = a == b; return out;
      case BinaryOp::Ne: out.i = a != b; return out;
      case BinaryOp::Lt: out.i = a < b; return out;
      case BinaryOp::Le: out.i = a <= b; return out;
      case BinaryOp::Gt: out.i = a > b; return out;
      case BinaryOp::Ge: out.i = a >= b; return out;
      default: return std::nullopt;
    }
    out.isFloat = true;
    return out;
  }

  const std::int64_t a = lhs->i;
  const std::int64_t b = rhs->i;

  if (bin.operandType == types::Long || bin.operandType == types::Ulong) {
    // 64-bit semantics: compute in uint64 (wrap-around) and reinterpret.
    const bool unsL = bin.operandType == types::Ulong;
    const auto ua64 = static_cast<std::uint64_t>(a);
    const auto ub64 = static_cast<std::uint64_t>(b);
    switch (bin.op) {
      case BinaryOp::Add: out.i = static_cast<std::int64_t>(ua64 + ub64); break;
      case BinaryOp::Sub: out.i = static_cast<std::int64_t>(ua64 - ub64); break;
      case BinaryOp::Mul: out.i = static_cast<std::int64_t>(ua64 * ub64); break;
      case BinaryOp::Div:
        if (b == 0) return std::nullopt;  // preserve the runtime fault
        if (!unsL && b == -1) return std::nullopt;  // INT64_MIN / -1 overflow
        out.i = unsL ? static_cast<std::int64_t>(ua64 / ub64) : a / b;
        break;
      case BinaryOp::Rem:
        if (b == 0) return std::nullopt;
        if (!unsL && b == -1) return std::nullopt;
        out.i = unsL ? static_cast<std::int64_t>(ua64 % ub64) : a % b;
        break;
      case BinaryOp::BitAnd: out.i = a & b; break;
      case BinaryOp::BitOr: out.i = a | b; break;
      case BinaryOp::BitXor: out.i = a ^ b; break;
      case BinaryOp::Shl: out.i = static_cast<std::int64_t>(ua64 << (ub64 & 63u)); break;
      case BinaryOp::Shr:
        out.i = unsL ? static_cast<std::int64_t>(ua64 >> (ub64 & 63u)) : (a >> (ub64 & 63u));
        break;
      case BinaryOp::Eq: out.i = a == b; break;
      case BinaryOp::Ne: out.i = a != b; break;
      case BinaryOp::Lt: out.i = unsL ? (ua64 < ub64) : (a < b); break;
      case BinaryOp::Le: out.i = unsL ? (ua64 <= ub64) : (a <= b); break;
      case BinaryOp::Gt: out.i = unsL ? (ua64 > ub64) : (a > b); break;
      case BinaryOp::Ge: out.i = unsL ? (ua64 >= ub64) : (a >= b); break;
      default: return std::nullopt;
    }
    return out;
  }

  const auto ua = static_cast<std::uint32_t>(a);
  const auto ub = static_cast<std::uint32_t>(b);
  switch (bin.op) {
    case BinaryOp::Add: out.i = static_cast<std::int32_t>(a + b); break;
    case BinaryOp::Sub: out.i = static_cast<std::int32_t>(a - b); break;
    case BinaryOp::Mul: out.i = static_cast<std::int32_t>(a * b); break;
    case BinaryOp::Div:
      if (b == 0) return std::nullopt;  // preserve the runtime fault
      out.i = uns ? static_cast<std::int64_t>(ua / ub) : static_cast<std::int32_t>(a / b);
      break;
    case BinaryOp::Rem:
      if (b == 0) return std::nullopt;
      out.i = uns ? static_cast<std::int64_t>(ua % ub) : static_cast<std::int32_t>(a % b);
      break;
    case BinaryOp::BitAnd: out.i = static_cast<std::int32_t>(a & b); break;
    case BinaryOp::BitOr: out.i = static_cast<std::int32_t>(a | b); break;
    case BinaryOp::BitXor: out.i = static_cast<std::int32_t>(a ^ b); break;
    case BinaryOp::Shl: out.i = static_cast<std::int32_t>(ua << (ub & 31u)); break;
    case BinaryOp::Shr:
      out.i = uns ? static_cast<std::int64_t>(ua >> (ub & 31u))
                  : static_cast<std::int64_t>(static_cast<std::int32_t>(a) >> (ub & 31u));
      break;
    case BinaryOp::Eq: out.i = a == b; break;
    case BinaryOp::Ne: out.i = a != b; break;
    case BinaryOp::Lt: out.i = uns ? (ua < ub) : (a < b); break;
    case BinaryOp::Le: out.i = uns ? (ua <= ub) : (a <= b); break;
    case BinaryOp::Gt: out.i = uns ? (ua > ub) : (a > b); break;
    case BinaryOp::Ge: out.i = uns ? (ua >= ub) : (a >= b); break;
    default: return std::nullopt;
  }
  if (uns) out.i = static_cast<std::int64_t>(static_cast<std::uint32_t>(out.i));
  return out;
}

std::optional<Folded> tryFold(const Expr& expr, const TypeTable& types) {
  switch (expr.kind) {
    case ExprKind::IntLit: {
      Folded out;
      out.i = static_cast<std::int64_t>(static_cast<const IntLit&>(expr).value);
      return out;
    }
    case ExprKind::FloatLit: {
      const auto& lit = static_cast<const FloatLit&>(expr);
      Folded out;
      out.isFloat = true;
      out.f = lit.isFloat32 ? static_cast<double>(static_cast<float>(lit.value)) : lit.value;
      return out;
    }
    case ExprKind::BoolLit: {
      Folded out;
      out.i = static_cast<const BoolLit&>(expr).value ? 1 : 0;
      return out;
    }
    case ExprKind::SizeofType: {
      Folded out;
      out.i = static_cast<std::int64_t>(static_cast<const SizeofType&>(expr).size);
      return out;
    }
    case ExprKind::Unary: {
      const auto& u = static_cast<const Unary&>(expr);
      if (u.op != UnaryOp::Plus && u.op != UnaryOp::Minus && u.op != UnaryOp::Not &&
          u.op != UnaryOp::BitNot) {
        return std::nullopt;
      }
      const auto inner = tryFold(*u.operand, types);
      if (!inner) return std::nullopt;
      Folded out = *inner;
      switch (u.op) {
        case UnaryOp::Plus: break;
        case UnaryOp::Minus:
          if (out.isFloat) {
            out.f = expr.type == types::Float
                        ? static_cast<double>(-static_cast<float>(out.f))
                        : -out.f;
          } else if (expr.type == types::Long || expr.type == types::Ulong) {
            out.i = static_cast<std::int64_t>(-static_cast<std::uint64_t>(out.i));
          } else {
            out.i = static_cast<std::int32_t>(-out.i);
          }
          break;
        case UnaryOp::Not:
          out.i = (out.isFloat ? out.f == 0.0 : out.i == 0) ? 1 : 0;
          out.isFloat = false;
          out.f = 0.0;
          break;
        case UnaryOp::BitNot:
          out.i = (expr.type == types::Long || expr.type == types::Ulong)
                      ? ~out.i
                      : static_cast<std::int32_t>(~out.i);
          break;
        default: break;
      }
      return out;
    }
    case ExprKind::Binary:
      return foldBinary(static_cast<const Binary&>(expr), types);
    case ExprKind::Cast: {
      const auto& cast = static_cast<const Cast&>(expr);
      if (!types.isArithmetic(cast.type)) return std::nullopt;
      const auto inner = tryFold(*cast.operand, types);
      if (!inner) return std::nullopt;
      Folded out;
      const TypeId from = cast.operand->type;
      const TypeId to = cast.type;
      const bool fromFloat = inner->isFloat;
      if (to == types::Float || to == types::Double) {
        double v;
        if (fromFloat) {
          v = inner->f;
        } else if (from == types::Uint) {
          v = static_cast<double>(static_cast<std::uint32_t>(inner->i));
        } else {
          v = static_cast<double>(inner->i);
        }
        out.isFloat = true;
        out.f = to == types::Float ? static_cast<double>(static_cast<float>(v)) : v;
      } else {
        std::int64_t v;
        if (fromFloat) {
          if (to == types::Bool) {
            v = inner->f != 0.0;  // as the VM's NeF against 0.0: NaN is true
          } else if (to == types::Uint) {
            v = floatToInt<std::uint32_t>(inner->f);
          } else if (to == types::Ulong) {
            v = floatToInt<std::uint64_t>(inner->f);
          } else if (to == types::Long) {
            v = floatToInt<std::int64_t>(inner->f);
          } else {
            v = floatToInt<std::int32_t>(inner->f);
          }
        } else {
          v = inner->i;
        }
        if (to == types::Uint) {
          v = static_cast<std::int64_t>(static_cast<std::uint32_t>(v));
        } else if (to == types::Bool) {
          v = v != 0;
        } else if (to == types::Long || to == types::Ulong) {
          // full 64-bit slot; from==Uint views the source as unsigned 32
          if (!fromFloat && from == types::Uint) {
            v = static_cast<std::int64_t>(static_cast<std::uint32_t>(v));
          }
        } else {
          v = static_cast<std::int32_t>(v);
        }
        out.i = v;
      }
      return out;
    }
    case ExprKind::Ternary: {
      const auto& t = static_cast<const Ternary&>(expr);
      if (!types.isArithmetic(expr.type)) return std::nullopt;
      const auto cond = tryFold(*t.cond, types);
      if (!cond) return std::nullopt;
      const bool taken = cond->isFloat ? cond->f != 0.0 : cond->i != 0;
      // Only fold if the *taken* branch folds; the untaken branch is dead.
      return tryFold(taken ? *t.thenExpr : *t.elseExpr, types);
    }
    default:
      return std::nullopt;
  }
}
}  // namespace

std::vector<FunctionCode> Compiler::run() {
  std::vector<FunctionCode> result;
  result.reserve(functions_.size());
  for (const FunctionDecl* fn : functions_) {
    result.push_back(compileFunction(*fn));
  }
  return result;
}

FunctionCode Compiler::compileFunction(const FunctionDecl& decl) {
  FunctionCode fc;
  fc.name = decl.name;
  fc.isKernel = decl.isKernel;
  fc.returnType = decl.returnType;
  for (const auto& p : decl.params) fc.paramTypes.push_back(p.type);
  fc.numSlots = decl.numSlots;
  fc.frameBytes = decl.frameBytes;

  current_ = &fc;
  scratch_ = -1;
  loops_.clear();

  genBlock(*decl.body);

  // Implicit epilogue: void functions return; non-void functions trap if
  // control falls off the end.
  if (decl.returnType == types::Void) {
    emit(Op::RetVoid);
  } else {
    emit(Op::Trap);
  }

  current_ = nullptr;
  return fc;
}

// ---------------------------------------------------------------------------
// Emission helpers
// ---------------------------------------------------------------------------

std::size_t Compiler::emit(Op op, std::int32_t a, std::int32_t b, std::int64_t imm,
                           double fimm) {
  current_->code.push_back(Insn{op, a, b, imm, fimm});
  return current_->code.size() - 1;
}

std::size_t Compiler::emitJumpPlaceholder(Op op) { return emit(op, -1); }

void Compiler::patchJump(std::size_t insnIndex) {
  current_->code[insnIndex].a = static_cast<std::int32_t>(current_->code.size());
}

int Compiler::scratchSlot() {
  if (scratch_ < 0) scratch_ = current_->numSlots++;
  return scratch_;
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

void Compiler::genBlock(const Block& block) {
  for (const auto& stmt : block.statements) genStmt(*stmt);
}

void Compiler::genDecl(const DeclStmt& decl) {
  for (const auto& var : decl.vars) {
    if (!var.init) continue;
    if (types_.isStruct(var.type)) {
      emit(Op::LeaFrame, static_cast<std::int32_t>(var.frameOffset));
      genAddr(*var.init);
      emit(Op::MemCopy, static_cast<std::int32_t>(types_.sizeOf(var.type)));
    } else if (var.home == VarHome::Slot) {
      genValue(*var.init);
      emit(Op::StoreSlot, var.slot);
    } else {
      emit(Op::LeaFrame, static_cast<std::int32_t>(var.frameOffset));
      genValue(*var.init);
      genStore(var.type);
    }
  }
}

void Compiler::genStmt(const Stmt& stmt) {
  switch (stmt.kind) {
    case StmtKind::Block:
      genBlock(static_cast<const Block&>(stmt));
      return;
    case StmtKind::Decl:
      genDecl(static_cast<const DeclStmt&>(stmt));
      return;
    case StmtKind::If: {
      const auto& s = static_cast<const IfStmt&>(stmt);
      genCond(*s.cond);
      const std::size_t toElse = emitJumpPlaceholder(Op::Jz);
      genStmt(*s.thenStmt);
      if (s.elseStmt) {
        const std::size_t toEnd = emitJumpPlaceholder(Op::Jmp);
        patchJump(toElse);
        genStmt(*s.elseStmt);
        patchJump(toEnd);
      } else {
        patchJump(toElse);
      }
      return;
    }
    case StmtKind::While: {
      const auto& s = static_cast<const WhileStmt&>(stmt);
      const std::size_t condPos = current_->code.size();
      genCond(*s.cond);
      const std::size_t toEnd = emitJumpPlaceholder(Op::Jz);
      loops_.emplace_back();
      genStmt(*s.body);
      LoopContext loop = std::move(loops_.back());
      loops_.pop_back();
      for (std::size_t j : loop.continueJumps) {
        current_->code[j].a = static_cast<std::int32_t>(condPos);
      }
      emit(Op::Jmp, static_cast<std::int32_t>(condPos));
      patchJump(toEnd);
      for (std::size_t j : loop.breakJumps) patchJump(j);
      return;
    }
    case StmtKind::DoWhile: {
      const auto& s = static_cast<const DoWhileStmt&>(stmt);
      const std::size_t bodyPos = current_->code.size();
      loops_.emplace_back();
      genStmt(*s.body);
      LoopContext loop = std::move(loops_.back());
      loops_.pop_back();
      const std::size_t condPos = current_->code.size();
      for (std::size_t j : loop.continueJumps) {
        current_->code[j].a = static_cast<std::int32_t>(condPos);
      }
      genCond(*s.cond);
      emit(Op::Jnz, static_cast<std::int32_t>(bodyPos));
      for (std::size_t j : loop.breakJumps) patchJump(j);
      return;
    }
    case StmtKind::For: {
      const auto& s = static_cast<const ForStmt&>(stmt);
      genStmt(*s.init);
      const std::size_t condPos = current_->code.size();
      std::size_t toEnd = 0;
      bool hasCond = s.cond != nullptr;
      if (hasCond) {
        genCond(*s.cond);
        toEnd = emitJumpPlaceholder(Op::Jz);
      }
      loops_.emplace_back();
      genStmt(*s.body);
      LoopContext loop = std::move(loops_.back());
      loops_.pop_back();
      const std::size_t stepPos = current_->code.size();
      for (std::size_t j : loop.continueJumps) {
        current_->code[j].a = static_cast<std::int32_t>(stepPos);
      }
      if (s.step) {
        genValue(*s.step);
        if (s.step->type != types::Void) emit(Op::Drop);
      }
      emit(Op::Jmp, static_cast<std::int32_t>(condPos));
      if (hasCond) patchJump(toEnd);
      for (std::size_t j : loop.breakJumps) patchJump(j);
      return;
    }
    case StmtKind::Break: {
      SKELCL_CHECK(!loops_.empty(), "break outside loop slipped past sema");
      loops_.back().breakJumps.push_back(emitJumpPlaceholder(Op::Jmp));
      return;
    }
    case StmtKind::Continue: {
      SKELCL_CHECK(!loops_.empty(), "continue outside loop slipped past sema");
      loops_.back().continueJumps.push_back(emitJumpPlaceholder(Op::Jmp));
      return;
    }
    case StmtKind::Return: {
      const auto& s = static_cast<const ReturnStmt&>(stmt);
      if (s.value) {
        genValue(*s.value);
        emit(Op::Ret);
      } else {
        emit(Op::RetVoid);
      }
      return;
    }
    case StmtKind::ExprStmt: {
      const auto& s = static_cast<const ExprStmt&>(stmt);
      genValue(*s.expr);
      if (s.expr->type != types::Void) emit(Op::Drop);
      return;
    }
    case StmtKind::Empty:
      return;
  }
}

// ---------------------------------------------------------------------------
// Loads / stores / conversions
// ---------------------------------------------------------------------------

void Compiler::genLoad(TypeId type) {
  if (type == types::Int || type == types::Bool) {
    emit(Op::LoadI32);
  } else if (type == types::Uint) {
    emit(Op::LoadU32);
  } else if (type == types::Float) {
    emit(Op::LoadF32);
  } else if (type == types::Double) {
    emit(Op::LoadF64);
  } else if (type == types::Long || type == types::Ulong) {
    emit(Op::LoadI64);
  } else {
    SKELCL_CHECK(false, "cannot load type " + types_.name(type));
  }
}

void Compiler::genStore(TypeId type) {
  if (type == types::Long || type == types::Ulong) {
    emit(Op::StoreI64);
  } else if (types_.isInteger(type)) {
    emit(Op::StoreI32);
  } else if (type == types::Float) {
    emit(Op::StoreF32);
  } else if (type == types::Double) {
    emit(Op::StoreF64);
  } else {
    SKELCL_CHECK(false, "cannot store type " + types_.name(type));
  }
}

void Compiler::genConversion(TypeId from, TypeId to) {
  if (from == to) return;
  if (types_.isPointer(from) && types_.isPointer(to)) return;  // reinterpret

  // integer literal 0 -> null pointer: the zero slot already is a null Ptr
  if (types_.isPointer(to)) return;

  if (from == types::Int || from == types::Bool) {
    if (to == types::Float) { emit(Op::I2F32); return; }
    if (to == types::Double) { emit(Op::I2F64); return; }
    if (to == types::Uint) { emit(Op::I2U); return; }
    if (to == types::Long) return;   // slot already holds the sign-extended value
    if (to == types::Ulong) return;  // two's-complement reinterpretation
    if (to == types::Int || to == types::Bool) {
      if (to == types::Bool) emit(Op::BoolNorm);
      return;
    }
  }
  if (from == types::Uint) {
    if (to == types::Float) { emit(Op::U2F32); return; }
    if (to == types::Double) { emit(Op::U2F64); return; }
    if (to == types::Int) { emit(Op::U2I); return; }
    if (to == types::Long || to == types::Ulong) return;  // slot is zero-extended
    if (to == types::Bool) { emit(Op::BoolNorm); return; }
  }
  if (from == types::Long) {
    if (to == types::Float) { emit(Op::I2F32); return; }   // full-width int64 source
    if (to == types::Double) { emit(Op::I2F64); return; }
    if (to == types::Ulong) return;  // reinterpretation
    if (to == types::Int) { emit(Op::U2I); return; }   // truncate + sign-extend low 32
    if (to == types::Uint) { emit(Op::I2U); return; }  // truncate to low 32
    if (to == types::Bool) { emit(Op::BoolNorm); return; }
  }
  if (from == types::Ulong) {
    if (to == types::Float) { emit(Op::UL2F32); return; }
    if (to == types::Double) { emit(Op::UL2F64); return; }
    if (to == types::Long) return;  // reinterpretation
    if (to == types::Int) { emit(Op::U2I); return; }
    if (to == types::Uint) { emit(Op::I2U); return; }
    if (to == types::Bool) { emit(Op::BoolNorm); return; }
  }
  if (from == types::Float) {
    if (to == types::Double) return;  // exact widening (already a double slot)
    if (to == types::Int) { emit(Op::F2I); return; }
    if (to == types::Uint) { emit(Op::F2U); return; }
    if (to == types::Long) { emit(Op::F2L); return; }
    if (to == types::Ulong) { emit(Op::F2UL); return; }
    if (to == types::Bool) { emit(Op::PushF, 0, 0, 0, 0.0); emit(Op::NeF); return; }
  }
  if (from == types::Double) {
    if (to == types::Float) { emit(Op::F64toF32); return; }
    if (to == types::Int) { emit(Op::F2I); return; }
    if (to == types::Uint) { emit(Op::F2U); return; }
    if (to == types::Long) { emit(Op::F2L); return; }
    if (to == types::Ulong) { emit(Op::F2UL); return; }
    if (to == types::Bool) { emit(Op::PushF, 0, 0, 0, 0.0); emit(Op::NeF); return; }
  }
  SKELCL_CHECK(false, "no conversion from " + types_.name(from) + " to " + types_.name(to));
}

void Compiler::genBinaryOp(BinaryOp op, TypeId operandType) {
  const bool f32 = isF32(operandType);
  const bool f64 = isF64(operandType);
  const bool uns = operandType == types::Uint;
  const bool lng = operandType == types::Long;
  const bool unl = operandType == types::Ulong;

  if (lng || unl) {
    switch (op) {
      case BinaryOp::Add: emit(Op::AddL); return;
      case BinaryOp::Sub: emit(Op::SubL); return;
      case BinaryOp::Mul: emit(Op::MulL); return;
      case BinaryOp::Div: emit(unl ? Op::DivUL : Op::DivL); return;
      case BinaryOp::Rem: emit(unl ? Op::RemUL : Op::RemL); return;
      case BinaryOp::BitAnd: emit(Op::AndL); return;
      case BinaryOp::BitOr: emit(Op::OrL); return;
      case BinaryOp::BitXor: emit(Op::XorL); return;
      case BinaryOp::Shl: emit(Op::ShlL); return;
      case BinaryOp::Shr: emit(unl ? Op::ShrUL : Op::ShrL); return;
      // Eq/Ne and signed ordering work on the full 64-bit slot already.
      case BinaryOp::Eq: emit(Op::EqI); return;
      case BinaryOp::Ne: emit(Op::NeI); return;
      case BinaryOp::Lt: emit(unl ? Op::LtUL : Op::LtI); return;
      case BinaryOp::Le: emit(unl ? Op::LeUL : Op::LeI); return;
      case BinaryOp::Gt: emit(unl ? Op::GtUL : Op::GtI); return;
      case BinaryOp::Ge: emit(unl ? Op::GeUL : Op::GeI); return;
      case BinaryOp::LAnd:
      case BinaryOp::LOr:
        SKELCL_CHECK(false, "logical operators are lowered with jumps, not genBinaryOp");
    }
  }

  switch (op) {
    case BinaryOp::Add: emit(f32 ? Op::AddF32 : f64 ? Op::AddF64 : Op::AddI); return;
    case BinaryOp::Sub: emit(f32 ? Op::SubF32 : f64 ? Op::SubF64 : Op::SubI); return;
    case BinaryOp::Mul: emit(f32 ? Op::MulF32 : f64 ? Op::MulF64 : Op::MulI); return;
    case BinaryOp::Div:
      emit(f32 ? Op::DivF32 : f64 ? Op::DivF64 : uns ? Op::DivU : Op::DivI);
      return;
    case BinaryOp::Rem: emit(uns ? Op::RemU : Op::RemI); return;
    case BinaryOp::BitAnd: emit(Op::AndI); return;
    case BinaryOp::BitOr: emit(Op::OrI); return;
    case BinaryOp::BitXor: emit(Op::XorI); return;
    case BinaryOp::Shl: emit(Op::ShlI); return;
    case BinaryOp::Shr: emit(uns ? Op::ShrU : Op::ShrI); return;
    case BinaryOp::Eq:
      emit(isFloating(operandType) ? Op::EqF
           : types_.isPointer(operandType) ? Op::EqP : Op::EqI);
      return;
    case BinaryOp::Ne:
      emit(isFloating(operandType) ? Op::NeF
           : types_.isPointer(operandType) ? Op::NeP : Op::NeI);
      return;
    case BinaryOp::Lt: emit(isFloating(operandType) ? Op::LtF : uns ? Op::LtU : Op::LtI); return;
    case BinaryOp::Le: emit(isFloating(operandType) ? Op::LeF : uns ? Op::LeU : Op::LeI); return;
    case BinaryOp::Gt: emit(isFloating(operandType) ? Op::GtF : uns ? Op::GtU : Op::GtI); return;
    case BinaryOp::Ge: emit(isFloating(operandType) ? Op::GeF : uns ? Op::GeU : Op::GeI); return;
    case BinaryOp::LAnd:
    case BinaryOp::LOr:
      SKELCL_CHECK(false, "logical operators are lowered with jumps, not genBinaryOp");
  }
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

void Compiler::genCond(const Expr& expr) {
  genValue(expr);
  if (isFloating(expr.type)) {
    emit(Op::PushF, 0, 0, 0, 0.0);
    emit(Op::NeF);
  }
  // integers / bools are used directly; pointers are rejected by sema
}

void Compiler::genAddr(const Expr& expr) {
  switch (expr.kind) {
    case ExprKind::VarRef: {
      const auto& ref = static_cast<const VarRef&>(expr);
      SKELCL_CHECK(ref.home == VarHome::FrameMemory,
                   "address of a register variable slipped past sema");
      emit(Op::LeaFrame, static_cast<std::int32_t>(ref.frameOffset));
      return;
    }
    case ExprKind::Unary: {
      const auto& u = static_cast<const Unary&>(expr);
      SKELCL_CHECK(u.op == UnaryOp::Deref, "not an addressable unary expression");
      genValue(*u.operand);
      return;
    }
    case ExprKind::Index: {
      const auto& idx = static_cast<const Index&>(expr);
      genValue(*idx.base);
      genValue(*idx.index);
      emit(Op::PtrAdd, static_cast<std::int32_t>(types_.sizeOf(expr.type)));
      return;
    }
    case ExprKind::Member: {
      const auto& m = static_cast<const Member&>(expr);
      if (m.isArrow) {
        genValue(*m.base);
      } else {
        genAddr(*m.base);
      }
      if (m.fieldOffset != 0) {
        emit(Op::PushI, 0, 0, static_cast<std::int64_t>(m.fieldOffset));
        emit(Op::PtrAdd, 1);
      }
      return;
    }
    default:
      SKELCL_CHECK(false, "expression is not addressable");
  }
}

void Compiler::genIncDec(const Unary& unary) {
  const bool isInc = unary.op == UnaryOp::PreInc || unary.op == UnaryOp::PostInc;
  const bool isPost = unary.op == UnaryOp::PostInc || unary.op == UnaryOp::PostDec;
  const TypeId t = unary.operand->type;

  auto emitDelta = [&] {
    if (types_.isPointer(t)) {
      emit(Op::PushI, 0, 0, isInc ? 1 : -1);
      emit(Op::PtrAdd, static_cast<std::int32_t>(types_.sizeOf(types_.pointee(t))));
    } else if (isFloating(t)) {
      emit(Op::PushF, 0, 0, 0, 1.0);
      emit(isF32(t) ? (isInc ? Op::AddF32 : Op::SubF32) : (isInc ? Op::AddF64 : Op::SubF64));
    } else if (t == types::Long || t == types::Ulong) {
      emit(Op::PushI, 0, 0, 1);
      emit(isInc ? Op::AddL : Op::SubL);
    } else {
      emit(Op::PushI, 0, 0, 1);
      emit(isInc ? Op::AddI : Op::SubI);
    }
  };

  const auto& target = *unary.operand;
  if (target.kind == ExprKind::VarRef &&
      static_cast<const VarRef&>(target).home == VarHome::Slot) {
    const int slot = static_cast<const VarRef&>(target).slot;
    emit(Op::LoadSlot, slot);
    if (isPost) emit(Op::Dup);          // [old, old]
    emitDelta();                        // [old, new] (post) / [new]
    if (isPost) {
      emit(Op::StoreSlot, slot);        // [old]
    } else {
      emit(Op::Dup);                    // [new, new]
      emit(Op::StoreSlot, slot);        // [new]
    }
    return;
  }

  // memory lvalue
  const int sc = scratchSlot();
  genAddr(target);                      // [p]
  emit(Op::Dup);                        // [p, p]
  genLoad(t);                           // [p, old]
  if (isPost) {
    emit(Op::StoreSlot, sc);            // [p]         sc = old
    emit(Op::LoadSlot, sc);             // [p, old]
    emitDelta();                        // [p, new]
    genStore(t);                        // []
    emit(Op::LoadSlot, sc);             // [old]
  } else {
    emitDelta();                        // [p, new]
    emit(Op::StoreSlot, sc);            // [p]         sc = new
    emit(Op::LoadSlot, sc);             // [p, new]
    genStore(t);                        // []
    emit(Op::LoadSlot, sc);             // [new]
  }
}

void Compiler::genAssign(const Assign& assign) {
  const Expr& lhs = *assign.lhs;
  const TypeId lhsType = lhs.type;

  // Struct assignment: memcpy, yields void.
  if (types_.isStruct(lhsType)) {
    genAddr(lhs);
    genAddr(*assign.rhs);
    emit(Op::MemCopy, static_cast<std::int32_t>(types_.sizeOf(lhsType)));
    return;
  }

  const bool slotTarget = lhs.kind == ExprKind::VarRef &&
                          static_cast<const VarRef&>(lhs).home == VarHome::Slot;

  if (slotTarget) {
    const int slot = static_cast<const VarRef&>(lhs).slot;
    if (!assign.isCompound) {
      genValue(*assign.rhs);
      emit(Op::Dup);
      emit(Op::StoreSlot, slot);
      return;
    }
    if (types_.isPointer(lhsType)) {  // p += n / p -= n
      emit(Op::LoadSlot, slot);
      genValue(*assign.rhs);
      if (assign.compoundOp == BinaryOp::Sub) emit(Op::NegI);
      emit(Op::PtrAdd, static_cast<std::int32_t>(types_.sizeOf(types_.pointee(lhsType))));
      emit(Op::Dup);
      emit(Op::StoreSlot, slot);
      return;
    }
    const TypeId common = assign.rhs->type;  // sema coerced rhs to the common type
    emit(Op::LoadSlot, slot);
    genConversion(lhsType, common);
    genValue(*assign.rhs);
    genBinaryOp(assign.compoundOp, common);
    genConversion(common, lhsType);
    emit(Op::Dup);
    emit(Op::StoreSlot, slot);
    return;
  }

  // memory lvalue
  const int sc = scratchSlot();
  genAddr(lhs);  // [p]
  if (!assign.isCompound) {
    genValue(*assign.rhs);     // [p, v]
    emit(Op::StoreSlot, sc);   // [p]
    emit(Op::LoadSlot, sc);    // [p, v]
    genStore(lhsType);         // []
    emit(Op::LoadSlot, sc);    // [v]
    return;
  }
  if (types_.isPointer(lhsType)) {
    emit(Op::Dup);             // [p, p]
    genLoad(lhsType);          // [p, old]  -- pointer loads unsupported
    SKELCL_CHECK(false, "compound pointer assignment through memory is not supported");
  }
  emit(Op::Dup);               // [p, p]
  genLoad(lhsType);            // [p, old]
  const TypeId common = assign.rhs->type;
  genConversion(lhsType, common);
  genValue(*assign.rhs);       // [p, old', v]
  genBinaryOp(assign.compoundOp, common);  // [p, res]
  genConversion(common, lhsType);
  emit(Op::StoreSlot, sc);     // [p]
  emit(Op::LoadSlot, sc);      // [p, res]
  genStore(lhsType);           // []
  emit(Op::LoadSlot, sc);      // [res]
}

void Compiler::genUnary(const Unary& unary) {
  switch (unary.op) {
    case UnaryOp::Plus:
      genValue(*unary.operand);
      return;
    case UnaryOp::Minus:
      genValue(*unary.operand);
      emit(isF32(unary.type)   ? Op::NegF32
           : isF64(unary.type) ? Op::NegF64
           : (unary.type == types::Long || unary.type == types::Ulong) ? Op::NegL
                                                                       : Op::NegI);
      return;
    case UnaryOp::Not:
      genCond(*unary.operand);
      emit(Op::LNot);
      return;
    case UnaryOp::BitNot:
      genValue(*unary.operand);
      emit((unary.type == types::Long || unary.type == types::Ulong) ? Op::NotL : Op::NotI);
      return;
    case UnaryOp::Deref:
      genValue(*unary.operand);
      genLoad(unary.type);
      return;
    case UnaryOp::AddrOf:
      genAddr(*unary.operand);
      return;
    case UnaryOp::PreInc:
    case UnaryOp::PreDec:
    case UnaryOp::PostInc:
    case UnaryOp::PostDec:
      genIncDec(unary);
      return;
  }
}

void Compiler::genValue(const Expr& expr) {
  // Constant folding: pure literal expressions collapse to one push.
  if (expr.kind != ExprKind::IntLit && expr.kind != ExprKind::FloatLit &&
      expr.kind != ExprKind::BoolLit) {
    if (const auto folded = tryFold(expr, types_)) {
      if (folded->isFloat) {
        emit(Op::PushF, 0, 0, 0, folded->f);
      } else {
        emit(Op::PushI, 0, 0, folded->i);
      }
      return;
    }
  }

  switch (expr.kind) {
    case ExprKind::IntLit: {
      const auto& lit = static_cast<const IntLit&>(expr);
      emit(Op::PushI, 0, 0, static_cast<std::int64_t>(lit.value));
      return;
    }
    case ExprKind::FloatLit: {
      const auto& lit = static_cast<const FloatLit&>(expr);
      const double v = lit.isFloat32 ? static_cast<double>(static_cast<float>(lit.value))
                                     : lit.value;
      emit(Op::PushF, 0, 0, 0, v);
      return;
    }
    case ExprKind::BoolLit:
      emit(Op::PushI, 0, 0, static_cast<const BoolLit&>(expr).value ? 1 : 0);
      return;
    case ExprKind::VarRef: {
      const auto& ref = static_cast<const VarRef&>(expr);
      if (ref.isArray) {
        emit(Op::LeaFrame, static_cast<std::int32_t>(ref.frameOffset));  // decay
        return;
      }
      if (ref.home == VarHome::Slot) {
        emit(Op::LoadSlot, ref.slot);
        return;
      }
      emit(Op::LeaFrame, static_cast<std::int32_t>(ref.frameOffset));
      genLoad(expr.type);
      return;
    }
    case ExprKind::Unary:
      genUnary(static_cast<const Unary&>(expr));
      return;
    case ExprKind::Binary: {
      const auto& bin = static_cast<const Binary&>(expr);
      if (bin.op == BinaryOp::LAnd || bin.op == BinaryOp::LOr) {
        // short-circuit evaluation producing int 0/1
        genCond(*bin.lhs);
        const Op shortOp = bin.op == BinaryOp::LAnd ? Op::Jz : Op::Jnz;
        const std::size_t toShort = emitJumpPlaceholder(shortOp);
        genCond(*bin.rhs);
        emit(Op::BoolNorm);
        const std::size_t toEnd = emitJumpPlaceholder(Op::Jmp);
        patchJump(toShort);
        emit(Op::PushI, 0, 0, bin.op == BinaryOp::LAnd ? 0 : 1);
        patchJump(toEnd);
        return;
      }
      if (types_.isPointer(bin.operandType) &&
          (bin.op == BinaryOp::Add || bin.op == BinaryOp::Sub)) {
        // pointer +/- integer
        const bool ptrOnLeft = types_.isPointer(bin.lhs->type);
        const Expr& ptrSide = ptrOnLeft ? *bin.lhs : *bin.rhs;
        const Expr& intSide = ptrOnLeft ? *bin.rhs : *bin.lhs;
        genValue(ptrSide);
        genValue(intSide);
        if (bin.op == BinaryOp::Sub) emit(Op::NegI);
        emit(Op::PtrAdd,
             static_cast<std::int32_t>(types_.sizeOf(types_.pointee(bin.operandType))));
        return;
      }
      genValue(*bin.lhs);
      genValue(*bin.rhs);
      genBinaryOp(bin.op, bin.operandType);
      return;
    }
    case ExprKind::Assign:
      genAssign(static_cast<const Assign&>(expr));
      return;
    case ExprKind::Ternary: {
      const auto& t = static_cast<const Ternary&>(expr);
      genCond(*t.cond);
      const std::size_t toElse = emitJumpPlaceholder(Op::Jz);
      genValue(*t.thenExpr);
      const std::size_t toEnd = emitJumpPlaceholder(Op::Jmp);
      patchJump(toElse);
      genValue(*t.elseExpr);
      patchJump(toEnd);
      return;
    }
    case ExprKind::Call: {
      const auto& call = static_cast<const Call&>(expr);
      for (const auto& arg : call.args) genValue(*arg);
      if (call.functionIndex >= 0) {
        emit(Op::CallFn, call.functionIndex);
      } else {
        emit(Op::CallBuiltin, call.builtinId, static_cast<std::int32_t>(call.args.size()));
      }
      return;
    }
    case ExprKind::Index:
    case ExprKind::Member:
      genAddr(expr);
      genLoad(expr.type);
      return;
    case ExprKind::Cast: {
      const auto& cast = static_cast<const Cast&>(expr);
      genValue(*cast.operand);
      genConversion(cast.operand->type, cast.type);
      return;
    }
    case ExprKind::SizeofType:
      emit(Op::PushI, 0, 0,
           static_cast<std::int64_t>(static_cast<const SizeofType&>(expr).size));
      return;
  }
}

}  // namespace skelcl::kc
