#include "kernelc/sema.hpp"

#include <algorithm>
#include <limits>

#include "kernelc/builtins.hpp"

namespace skelcl::kc {

namespace {

/// Stops per-function analysis after a diagnostic has been recorded.
struct FunctionAbort {};

/// Walk every expression in a statement tree, calling `fn` on each node
/// (parents before children).
template <typename Fn>
void walkExprs(Expr* expr, const Fn& fn) {
  if (expr == nullptr) return;
  fn(*expr);
  switch (expr->kind) {
    case ExprKind::IntLit:
    case ExprKind::FloatLit:
    case ExprKind::BoolLit:
    case ExprKind::VarRef:
    case ExprKind::SizeofType:
      return;
    case ExprKind::Unary:
      walkExprs(static_cast<Unary*>(expr)->operand.get(), fn);
      return;
    case ExprKind::Binary: {
      auto* b = static_cast<Binary*>(expr);
      walkExprs(b->lhs.get(), fn);
      walkExprs(b->rhs.get(), fn);
      return;
    }
    case ExprKind::Assign: {
      auto* a = static_cast<Assign*>(expr);
      walkExprs(a->lhs.get(), fn);
      walkExprs(a->rhs.get(), fn);
      return;
    }
    case ExprKind::Ternary: {
      auto* t = static_cast<Ternary*>(expr);
      walkExprs(t->cond.get(), fn);
      walkExprs(t->thenExpr.get(), fn);
      walkExprs(t->elseExpr.get(), fn);
      return;
    }
    case ExprKind::Call: {
      auto* c = static_cast<Call*>(expr);
      for (auto& arg : c->args) walkExprs(arg.get(), fn);
      return;
    }
    case ExprKind::Index: {
      auto* i = static_cast<Index*>(expr);
      walkExprs(i->base.get(), fn);
      walkExprs(i->index.get(), fn);
      return;
    }
    case ExprKind::Member:
      walkExprs(static_cast<Member*>(expr)->base.get(), fn);
      return;
    case ExprKind::Cast:
      walkExprs(static_cast<Cast*>(expr)->operand.get(), fn);
      return;
  }
}

template <typename Fn>
void walkStmtExprs(Stmt* stmt, const Fn& fn) {
  if (stmt == nullptr) return;
  switch (stmt->kind) {
    case StmtKind::Block:
      for (auto& s : static_cast<Block*>(stmt)->statements) walkStmtExprs(s.get(), fn);
      return;
    case StmtKind::Decl:
      for (auto& v : static_cast<DeclStmt*>(stmt)->vars) walkExprs(v.init.get(), fn);
      return;
    case StmtKind::If: {
      auto* s = static_cast<IfStmt*>(stmt);
      walkExprs(s->cond.get(), fn);
      walkStmtExprs(s->thenStmt.get(), fn);
      walkStmtExprs(s->elseStmt.get(), fn);
      return;
    }
    case StmtKind::While: {
      auto* s = static_cast<WhileStmt*>(stmt);
      walkExprs(s->cond.get(), fn);
      walkStmtExprs(s->body.get(), fn);
      return;
    }
    case StmtKind::DoWhile: {
      auto* s = static_cast<DoWhileStmt*>(stmt);
      walkStmtExprs(s->body.get(), fn);
      walkExprs(s->cond.get(), fn);
      return;
    }
    case StmtKind::For: {
      auto* s = static_cast<ForStmt*>(stmt);
      walkStmtExprs(s->init.get(), fn);
      walkExprs(s->cond.get(), fn);
      walkExprs(s->step.get(), fn);
      walkStmtExprs(s->body.get(), fn);
      return;
    }
    case StmtKind::Return:
      walkExprs(static_cast<ReturnStmt*>(stmt)->value.get(), fn);
      return;
    case StmtKind::ExprStmt:
      walkExprs(static_cast<ExprStmt*>(stmt)->expr.get(), fn);
      return;
    case StmtKind::Break:
    case StmtKind::Continue:
    case StmtKind::Empty:
      return;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

TypeTable Sema::run() {
  for (const auto& def : builtinTable()) builtinNames_.insert(def.name);

  // Pass 1: structs (source order) and function signatures.
  for (auto& decl : program_.decls) {
    try {
      if (decl.structDecl) {
        declareStruct(*decl.structDecl);
      } else {
        collectFunction(*decl.functionDecl);
      }
    } catch (const FunctionAbort&) {
      // diagnostic already recorded; continue with the next declaration
    }
  }

  // Pass 2: function bodies.
  for (auto& decl : program_.decls) {
    if (!decl.functionDecl || decl.functionDecl->functionIndex < 0) continue;
    try {
      analyzeFunction(*decl.functionDecl);
    } catch (const FunctionAbort&) {
    }
  }

  if (!diags_.empty()) throw CompileError(std::move(diags_));
  return std::move(types_);
}

void Sema::fail(SourceLoc loc, const std::string& message) {
  diags_.push_back(Diagnostic{loc, message});
  throw FunctionAbort{};
}

TypeId Sema::resolve(const TypeSpec& spec, bool allowVoid) {
  TypeId base;
  if (spec.isStruct) {
    base = types_.findStruct(spec.structName);
    if (base == types::Invalid) {
      fail(spec.loc, "unknown struct '" + spec.structName + "'");
    }
  } else {
    switch (spec.scalar) {
      case Scalar::Void: base = types::Void; break;
      case Scalar::Bool: base = types::Bool; break;
      case Scalar::Int: base = types::Int; break;
      case Scalar::Uint: base = types::Uint; break;
      case Scalar::Float: base = types::Float; break;
      case Scalar::Double: base = types::Double; break;
      case Scalar::Long: base = types::Long; break;
      case Scalar::Ulong: base = types::Ulong; break;
      default: base = types::Invalid; break;
    }
  }
  for (int i = 0; i < spec.pointerDepth; ++i) {
    if (base == types::Void) fail(spec.loc, "pointers to void are not supported");
    if (base == types::Bool) fail(spec.loc, "pointers to bool are not supported");
    base = types_.pointerTo(base);
  }
  if (base == types::Void && !allowVoid) fail(spec.loc, "variable of type void");
  return base;
}

void Sema::declareStruct(StructDecl& decl) {
  std::vector<std::pair<std::string, TypeId>> fields;
  for (const auto& f : decl.fields) {
    const TypeId t = resolve(f.spec);
    if (types_.isPointer(t)) {
      fail(f.loc, "pointer members are not allowed in device structs");
    }
    if (t == types::Bool) fail(f.loc, "bool members are not allowed in device structs");
    for (const auto& field : fields) {
      if (field.first == f.name) {
        fail(f.loc, "duplicate member '" + f.name + "' in struct '" + decl.name + "'");
      }
    }
    fields.emplace_back(f.name, t);
  }
  if (types_.findStruct(decl.name) != types::Invalid) {
    fail(decl.loc, "duplicate struct '" + decl.name + "'");
  }
  types_.addStruct(decl.name, fields);
}

void Sema::collectFunction(FunctionDecl& decl) {
  if (builtinNames_.count(decl.name) > 0) {
    fail(decl.loc, "'" + decl.name + "' shadows a builtin function");
  }
  if (functionByName_.count(decl.name) > 0) {
    fail(decl.loc, "redefinition of function '" + decl.name + "'");
  }
  decl.returnType = resolve(decl.retSpec, /*allowVoid=*/true);
  if (decl.isKernel && decl.returnType != types::Void) {
    fail(decl.loc, "kernel functions must return void");
  }
  if (types_.isStruct(decl.returnType)) {
    fail(decl.loc, "returning structs by value is not supported; return through a pointer");
  }
  for (auto& param : decl.params) {
    param.type = resolve(param.spec);
    if (types_.isStruct(param.type)) {
      fail(param.loc, "struct parameters must be passed by pointer");
    }
  }
  decl.functionIndex = static_cast<int>(functions_.size());
  functions_.push_back(&decl);
  functionByName_[decl.name] = decl.functionIndex;
}

void Sema::analyzeFunction(FunctionDecl& decl) {
  current_ = &decl;
  scopes_.clear();
  nextSlot_ = 0;
  frameSize_ = 0;
  loopDepth_ = 0;

  // Pre-pass: which names have their address taken?  Those locals must live
  // in frame memory rather than a register slot.
  addressTaken_.clear();
  walkStmtExprs(decl.body.get(), [this](Expr& e) {
    if (e.kind != ExprKind::Unary) return;
    auto& u = static_cast<Unary&>(e);
    if (u.op == UnaryOp::AddrOf && u.operand->kind == ExprKind::VarRef) {
      addressTaken_.insert(static_cast<VarRef&>(*u.operand).name);
    }
  });

  pushScope();
  for (auto& param : decl.params) {
    if (addressTaken_.count(param.name) > 0) {
      fail(param.loc,
           "taking the address of parameter '" + param.name +
               "' is not supported; copy it into a local first");
    }
    Symbol sym;
    sym.type = param.type;
    sym.home = VarHome::Slot;
    sym.slot = allocSlot();
    param.slot = sym.slot;
    declare(param.loc, param.name, sym);
  }
  analyzeBlock(*decl.body);
  popScope();

  decl.numSlots = nextSlot_;
  decl.frameBytes = frameSize_;
  current_ = nullptr;
}

// ---------------------------------------------------------------------------
// Scopes and allocation
// ---------------------------------------------------------------------------

void Sema::pushScope() { scopes_.emplace_back(); }
void Sema::popScope() { scopes_.pop_back(); }

Sema::Symbol& Sema::declare(SourceLoc loc, const std::string& name, Symbol sym) {
  auto& scope = scopes_.back();
  if (scope.count(name) > 0) {
    fail(loc, "redeclaration of '" + name + "' in the same scope");
  }
  return scope.emplace(name, sym).first->second;
}

const Sema::Symbol* Sema::lookup(const std::string& name) const {
  for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
    const auto found = it->find(name);
    if (found != it->end()) return &found->second;
  }
  return nullptr;
}

int Sema::allocSlot() { return nextSlot_++; }

std::uint32_t Sema::allocFrame(std::uint32_t size, std::uint32_t align) {
  frameSize_ = (frameSize_ + align - 1) / align * align;
  const std::uint32_t offset = frameSize_;
  frameSize_ += size;
  return offset;
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

void Sema::analyzeBlock(Block& block) {
  pushScope();
  for (auto& stmt : block.statements) analyzeStmt(*stmt);
  popScope();
}

void Sema::analyzeDecl(DeclStmt& decl) {
  for (auto& var : decl.vars) {
    var.type = resolve(decl.spec);
    Symbol sym;
    sym.type = var.type;

    if (var.arraySize >= 0) {
      if (var.arraySize <= 0) fail(var.loc, "array size must be positive");
      if (types_.isPointer(var.type)) fail(var.loc, "arrays of pointers are not supported");
      sym.isArray = true;
      sym.home = VarHome::FrameMemory;
      sym.frameOffset = allocFrame(
          types_.sizeOf(var.type) * static_cast<std::uint32_t>(var.arraySize),
          types_.alignOf(var.type));
      if (var.init) fail(var.loc, "array initializers are not supported");
    } else if (types_.isStruct(var.type) || addressTaken_.count(var.name) > 0) {
      sym.home = VarHome::FrameMemory;
      sym.frameOffset = allocFrame(types_.sizeOf(var.type), types_.alignOf(var.type));
    } else {
      sym.home = VarHome::Slot;
      sym.slot = allocSlot();
    }

    var.home = sym.home;
    var.slot = sym.slot;
    var.frameOffset = sym.frameOffset;

    if (var.init) {
      const TypeId initType = analyzeExpr(*var.init);
      if (types_.isStruct(var.type)) {
        if (initType != var.type) {
          fail(var.loc, "cannot initialize " + types_.name(var.type) + " from " +
                            types_.name(initType));
        }
      } else {
        coerce(var.init, var.type, "initializer");
      }
    }

    declare(var.loc, var.name, sym);
  }
}

void Sema::checkCondition(Expr& cond) {
  const TypeId t = cond.type;
  if (!types_.isArithmetic(t)) {
    fail(cond.loc, "condition must have arithmetic type, got " + types_.name(t));
  }
}

void Sema::analyzeStmt(Stmt& stmt) {
  switch (stmt.kind) {
    case StmtKind::Block:
      analyzeBlock(static_cast<Block&>(stmt));
      return;
    case StmtKind::Decl:
      analyzeDecl(static_cast<DeclStmt&>(stmt));
      return;
    case StmtKind::If: {
      auto& s = static_cast<IfStmt&>(stmt);
      analyzeExpr(*s.cond);
      checkCondition(*s.cond);
      analyzeStmt(*s.thenStmt);
      if (s.elseStmt) analyzeStmt(*s.elseStmt);
      return;
    }
    case StmtKind::While: {
      auto& s = static_cast<WhileStmt&>(stmt);
      analyzeExpr(*s.cond);
      checkCondition(*s.cond);
      ++loopDepth_;
      analyzeStmt(*s.body);
      --loopDepth_;
      return;
    }
    case StmtKind::DoWhile: {
      auto& s = static_cast<DoWhileStmt&>(stmt);
      ++loopDepth_;
      analyzeStmt(*s.body);
      --loopDepth_;
      analyzeExpr(*s.cond);
      checkCondition(*s.cond);
      return;
    }
    case StmtKind::For: {
      auto& s = static_cast<ForStmt&>(stmt);
      pushScope();  // the for-init declaration scopes over cond/step/body
      analyzeStmt(*s.init);
      if (s.cond) {
        analyzeExpr(*s.cond);
        checkCondition(*s.cond);
      }
      if (s.step) analyzeExpr(*s.step);
      ++loopDepth_;
      analyzeStmt(*s.body);
      --loopDepth_;
      popScope();
      return;
    }
    case StmtKind::Break:
      if (loopDepth_ == 0) fail(stmt.loc, "'break' outside of a loop");
      return;
    case StmtKind::Continue:
      if (loopDepth_ == 0) fail(stmt.loc, "'continue' outside of a loop");
      return;
    case StmtKind::Return: {
      auto& s = static_cast<ReturnStmt&>(stmt);
      const TypeId expected = current_->returnType;
      if (expected == types::Void) {
        if (s.value) fail(s.loc, "void function must not return a value");
      } else {
        if (!s.value) fail(s.loc, "non-void function must return a value");
        analyzeExpr(*s.value);
        coerce(s.value, expected, "return value");
      }
      return;
    }
    case StmtKind::ExprStmt:
      analyzeExpr(*static_cast<ExprStmt&>(stmt).expr);
      return;
    case StmtKind::Empty:
      return;
  }
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

namespace {
TypeId promoted(TypeId t) { return t == types::Bool ? types::Int : t; }
}  // namespace

void Sema::coerce(ExprPtr& expr, TypeId target, const char* what) {
  const TypeId source = expr->type;
  if (source == target) return;

  const bool bothArithmetic = types_.isArithmetic(source) && types_.isArithmetic(target);
  const bool nullToPointer = types_.isPointer(target) && expr->kind == ExprKind::IntLit &&
                             static_cast<IntLit&>(*expr).value == 0;
  if (!bothArithmetic && !nullToPointer) {
    fail(expr->loc, std::string("cannot convert ") + what + " from " +
                        types_.name(source) + " to " + types_.name(target));
  }

  auto cast = std::make_unique<Cast>(expr->loc, TypeSpec{}, std::move(expr));
  cast->isImplicit = true;
  cast->type = target;
  cast->isLValue = false;
  expr = std::move(cast);
}

TypeId Sema::typeFromBType(BType b) {
  switch (b) {
    case BType::Void: return types::Void;
    case BType::Int: return types::Int;
    case BType::Uint: return types::Uint;
    case BType::Float: return types::Float;
    case BType::Double: return types::Double;
    case BType::PtrInt: return types_.pointerTo(types::Int);
    case BType::PtrUint: return types_.pointerTo(types::Uint);
    case BType::PtrFloat: return types_.pointerTo(types::Float);
    case BType::PtrDouble: return types_.pointerTo(types::Double);
  }
  return types::Invalid;
}

TypeId Sema::analyzeExpr(Expr& expr) {
  switch (expr.kind) {
    case ExprKind::IntLit: {
      auto& lit = static_cast<IntLit&>(expr);
      const bool fitsInt = lit.value <= static_cast<std::uint64_t>(
                                            std::numeric_limits<std::int32_t>::max());
      const bool fitsUint = lit.value <= std::numeric_limits<std::uint32_t>::max();
      if (lit.isLong || !fitsUint) {
        expr.type = lit.isUnsigned ? types::Ulong : types::Long;
      } else {
        expr.type = (lit.isUnsigned || !fitsInt) ? types::Uint : types::Int;
      }
      break;
    }
    case ExprKind::FloatLit:
      expr.type = static_cast<FloatLit&>(expr).isFloat32 ? types::Float : types::Double;
      break;
    case ExprKind::BoolLit:
      expr.type = types::Bool;
      break;
    case ExprKind::VarRef:
      expr.type = analyzeVarRef(static_cast<VarRef&>(expr));
      break;
    case ExprKind::Unary:
      expr.type = analyzeUnary(static_cast<Unary&>(expr));
      break;
    case ExprKind::Binary:
      expr.type = analyzeBinary(static_cast<Binary&>(expr));
      break;
    case ExprKind::Assign:
      expr.type = analyzeAssign(static_cast<Assign&>(expr));
      break;
    case ExprKind::Ternary:
      expr.type = analyzeTernary(static_cast<Ternary&>(expr));
      break;
    case ExprKind::Call:
      expr.type = analyzeCall(static_cast<Call&>(expr));
      break;
    case ExprKind::Index:
      expr.type = analyzeIndex(static_cast<Index&>(expr));
      break;
    case ExprKind::Member:
      expr.type = analyzeMember(static_cast<Member&>(expr));
      break;
    case ExprKind::Cast:
      expr.type = analyzeCast(static_cast<Cast&>(expr));
      break;
    case ExprKind::SizeofType: {
      auto& so = static_cast<SizeofType&>(expr);
      so.size = types_.sizeOf(resolve(so.target));
      expr.type = types::Uint;
      break;
    }
  }
  return expr.type;
}

TypeId Sema::analyzeVarRef(VarRef& ref) {
  const Symbol* sym = lookup(ref.name);
  if (sym == nullptr) fail(ref.loc, "use of undeclared identifier '" + ref.name + "'");
  ref.home = sym->home;
  ref.slot = sym->slot;
  ref.frameOffset = sym->frameOffset;
  ref.isArray = sym->isArray;
  if (sym->isArray) {
    ref.elementType = sym->type;
    ref.isLValue = false;  // the array name itself decays; elements are lvalues
    return types_.pointerTo(sym->type);
  }
  ref.isLValue = true;
  return sym->type;
}

TypeId Sema::analyzeUnary(Unary& unary) {
  const TypeId operand = analyzeExpr(*unary.operand);
  switch (unary.op) {
    case UnaryOp::Plus:
    case UnaryOp::Minus:
      if (!types_.isArithmetic(operand)) {
        fail(unary.loc, "unary +/- requires an arithmetic operand");
      }
      unary.isLValue = false;
      return promoted(operand);
    case UnaryOp::Not:
      if (!types_.isArithmetic(operand)) fail(unary.loc, "'!' requires an arithmetic operand");
      return types::Int;
    case UnaryOp::BitNot:
      if (!types_.isInteger(operand)) fail(unary.loc, "'~' requires an integer operand");
      return promoted(operand);
    case UnaryOp::Deref: {
      if (!types_.isPointer(operand)) fail(unary.loc, "cannot dereference a non-pointer");
      unary.isLValue = true;
      return types_.pointee(operand);
    }
    case UnaryOp::AddrOf: {
      const Expr& target = *unary.operand;
      const bool addressable =
          target.isLValue &&
          (target.kind == ExprKind::VarRef || target.kind == ExprKind::Index ||
           target.kind == ExprKind::Member ||
           (target.kind == ExprKind::Unary &&
            static_cast<const Unary&>(target).op == UnaryOp::Deref));
      if (!addressable) fail(unary.loc, "cannot take the address of this expression");
      return types_.pointerTo(operand);
    }
    case UnaryOp::PreInc:
    case UnaryOp::PreDec:
    case UnaryOp::PostInc:
    case UnaryOp::PostDec: {
      if (!unary.operand->isLValue) fail(unary.loc, "++/-- requires an lvalue");
      if (!types_.isArithmetic(operand) && !types_.isPointer(operand)) {
        fail(unary.loc, "++/-- requires an arithmetic or pointer operand");
      }
      if (operand == types::Bool) fail(unary.loc, "++/-- on bool is not supported");
      return operand;
    }
  }
  return types::Invalid;
}

TypeId Sema::analyzeBinary(Binary& binary) {
  const TypeId lhs = analyzeExpr(*binary.lhs);
  const TypeId rhs = analyzeExpr(*binary.rhs);

  const bool lhsPtr = types_.isPointer(lhs);
  const bool rhsPtr = types_.isPointer(rhs);

  switch (binary.op) {
    case BinaryOp::Add:
    case BinaryOp::Sub: {
      if (lhsPtr && types_.isInteger(rhs)) {
        coerce(binary.rhs, types::Int, "pointer offset");
        binary.operandType = lhs;
        return lhs;
      }
      if (binary.op == BinaryOp::Add && rhsPtr && types_.isInteger(lhs)) {
        coerce(binary.lhs, types::Int, "pointer offset");
        binary.operandType = rhs;
        return rhs;
      }
      if (lhsPtr || rhsPtr) {
        fail(binary.loc, "unsupported pointer arithmetic (pointer difference is not available)");
      }
      [[fallthrough]];
    }
    case BinaryOp::Mul:
    case BinaryOp::Div: {
      if (!types_.isArithmetic(lhs) || !types_.isArithmetic(rhs)) {
        fail(binary.loc, "arithmetic operator requires arithmetic operands");
      }
      const TypeId common = types_.arithmeticCommonType(lhs, rhs);
      coerce(binary.lhs, common, "operand");
      coerce(binary.rhs, common, "operand");
      binary.operandType = common;
      return common;
    }
    case BinaryOp::Rem:
    case BinaryOp::BitAnd:
    case BinaryOp::BitOr:
    case BinaryOp::BitXor: {
      if (!types_.isInteger(lhs) || !types_.isInteger(rhs)) {
        fail(binary.loc, "integer operator requires integer operands");
      }
      const TypeId common = types_.arithmeticCommonType(lhs, rhs);
      coerce(binary.lhs, common, "operand");
      coerce(binary.rhs, common, "operand");
      binary.operandType = common;
      return common;
    }
    case BinaryOp::Shl:
    case BinaryOp::Shr: {
      if (!types_.isInteger(lhs) || !types_.isInteger(rhs)) {
        fail(binary.loc, "shift requires integer operands");
      }
      const TypeId resultType = promoted(lhs);
      coerce(binary.lhs, resultType, "operand");
      coerce(binary.rhs, types::Int, "shift amount");
      binary.operandType = resultType;
      return resultType;
    }
    case BinaryOp::LAnd:
    case BinaryOp::LOr: {
      checkCondition(*binary.lhs);
      checkCondition(*binary.rhs);
      binary.operandType = types::Int;
      return types::Int;
    }
    case BinaryOp::Eq:
    case BinaryOp::Ne: {
      if (lhsPtr || rhsPtr) {
        // allow ptr == ptr (same type) and ptr == 0
        if (lhsPtr && !rhsPtr) coerce(binary.rhs, lhs, "pointer comparison");
        if (rhsPtr && !lhsPtr) coerce(binary.lhs, rhs, "pointer comparison");
        if (binary.lhs->type != binary.rhs->type) {
          fail(binary.loc, "comparison of incompatible pointer types");
        }
        binary.operandType = binary.lhs->type;
        return types::Int;
      }
      [[fallthrough]];
    }
    case BinaryOp::Lt:
    case BinaryOp::Le:
    case BinaryOp::Gt:
    case BinaryOp::Ge: {
      if (!types_.isArithmetic(lhs) || !types_.isArithmetic(rhs)) {
        fail(binary.loc, "relational operator requires arithmetic operands");
      }
      const TypeId common = types_.arithmeticCommonType(lhs, rhs);
      coerce(binary.lhs, common, "operand");
      coerce(binary.rhs, common, "operand");
      binary.operandType = common;
      return types::Int;
    }
  }
  return types::Invalid;
}

TypeId Sema::analyzeAssign(Assign& assign) {
  const TypeId lhs = analyzeExpr(*assign.lhs);
  analyzeExpr(*assign.rhs);

  if (!assign.lhs->isLValue) fail(assign.loc, "left side of assignment is not an lvalue");

  if (types_.isStruct(lhs)) {
    if (assign.isCompound) fail(assign.loc, "compound assignment on structs is not supported");
    if (assign.rhs->type != lhs) {
      fail(assign.loc, "cannot assign " + types_.name(assign.rhs->type) + " to " +
                           types_.name(lhs));
    }
    return types::Void;  // struct assignment is not chainable
  }

  if (assign.isCompound) {
    if (types_.isPointer(lhs)) {
      if ((assign.compoundOp != BinaryOp::Add && assign.compoundOp != BinaryOp::Sub) ||
          !types_.isInteger(assign.rhs->type)) {
        fail(assign.loc, "only += / -= with an integer offset are supported on pointers");
      }
      coerce(assign.rhs, types::Int, "pointer offset");
      return lhs;
    }
    if (!types_.isArithmetic(lhs) || !types_.isArithmetic(assign.rhs->type)) {
      fail(assign.loc, "compound assignment requires arithmetic operands");
    }
    const bool integerOnly =
        assign.compoundOp == BinaryOp::Rem || assign.compoundOp == BinaryOp::BitAnd ||
        assign.compoundOp == BinaryOp::BitOr || assign.compoundOp == BinaryOp::BitXor ||
        assign.compoundOp == BinaryOp::Shl || assign.compoundOp == BinaryOp::Shr;
    if (integerOnly && (!types_.isInteger(lhs) || !types_.isInteger(assign.rhs->type))) {
      fail(assign.loc, "integer compound assignment requires integer operands");
    }
    // The right side is evaluated in the common type; the compiler converts
    // the result back to the lhs type.
    const TypeId common = types_.arithmeticCommonType(lhs, assign.rhs->type);
    coerce(assign.rhs, common, "operand");
    return lhs;
  }

  coerce(assign.rhs, lhs, "assigned value");
  return lhs;
}

TypeId Sema::analyzeTernary(Ternary& ternary) {
  analyzeExpr(*ternary.cond);
  checkCondition(*ternary.cond);
  const TypeId a = analyzeExpr(*ternary.thenExpr);
  const TypeId b = analyzeExpr(*ternary.elseExpr);
  if (types_.isArithmetic(a) && types_.isArithmetic(b)) {
    const TypeId common = types_.arithmeticCommonType(a, b);
    coerce(ternary.thenExpr, common, "conditional branch");
    coerce(ternary.elseExpr, common, "conditional branch");
    return common;
  }
  if (a == b) return a;  // matching pointer (or struct rvalue) types
  fail(ternary.loc, "incompatible types in conditional expression: " + types_.name(a) +
                        " vs " + types_.name(b));
}

TypeId Sema::analyzeCall(Call& call) {
  for (auto& arg : call.args) analyzeExpr(*arg);

  // User functions take priority only if the name is not a builtin (sema
  // rejects shadowing at collection time, so no ambiguity exists).
  const auto fnIt = functionByName_.find(call.name);
  if (fnIt != functionByName_.end()) {
    FunctionDecl& fn = *functions_[static_cast<std::size_t>(fnIt->second)];
    if (fn.isKernel) fail(call.loc, "kernels cannot be called from device code");
    if (call.args.size() != fn.params.size()) {
      fail(call.loc, "call to '" + call.name + "' expects " +
                         std::to_string(fn.params.size()) + " arguments, got " +
                         std::to_string(call.args.size()));
    }
    for (std::size_t i = 0; i < call.args.size(); ++i) {
      const TypeId want = fn.params[i].type;
      if (types_.isPointer(want)) {
        if (call.args[i]->type != want &&
            !(call.args[i]->kind == ExprKind::IntLit &&
              static_cast<IntLit&>(*call.args[i]).value == 0)) {
          fail(call.args[i]->loc,
               "argument " + std::to_string(i + 1) + " of '" + call.name + "': expected " +
                   types_.name(want) + ", got " + types_.name(call.args[i]->type));
        }
        if (call.args[i]->type != want) coerce(call.args[i], want, "argument");
      } else {
        coerce(call.args[i], want, "argument");
      }
    }
    call.functionIndex = fn.functionIndex;
    return fn.returnType;
  }

  // Builtin overload resolution: exact match scores 2 per argument,
  // arithmetic-convertible scores 1; highest total wins, first entry on ties.
  const auto& table = builtinTable();
  int bestId = -1;
  int bestScore = -1;
  for (std::size_t id = 0; id < table.size(); ++id) {
    const BuiltinDef& def = table[id];
    if (call.name != def.name || def.params.size() != call.args.size()) continue;
    int score = 0;
    bool viable = true;
    for (std::size_t i = 0; i < call.args.size(); ++i) {
      const TypeId want = typeFromBType(def.params[i]);
      const TypeId have = call.args[i]->type;
      if (have == want) {
        score += 2;
      } else if (types_.isArithmetic(want) && types_.isArithmetic(have)) {
        score += 1;
      } else {
        viable = false;
        break;
      }
    }
    if (viable && score > bestScore) {
      bestScore = score;
      bestId = static_cast<int>(id);
    }
  }
  if (bestId < 0) {
    fail(call.loc, "unknown function '" + call.name + "' (no matching builtin overload)");
  }
  const BuiltinDef& def = table[static_cast<std::size_t>(bestId)];
  for (std::size_t i = 0; i < call.args.size(); ++i) {
    coerce(call.args[i], typeFromBType(def.params[i]), "argument");
  }
  call.builtinId = bestId;
  return typeFromBType(def.ret);
}

TypeId Sema::analyzeIndex(Index& index) {
  const TypeId base = analyzeExpr(*index.base);
  if (!types_.isPointer(base)) fail(index.loc, "subscripted value is not a pointer or array");
  analyzeExpr(*index.index);
  if (!types_.isInteger(index.index->type)) {
    fail(index.index->loc, "array subscript must be an integer");
  }
  coerce(index.index, types::Int, "subscript");
  index.isLValue = true;
  return types_.pointee(base);
}

TypeId Sema::analyzeMember(Member& member) {
  const TypeId base = analyzeExpr(*member.base);
  TypeId structType;
  if (member.isArrow) {
    if (!types_.isPointer(base) || !types_.isStruct(types_.pointee(base))) {
      fail(member.loc, "'->' requires a pointer to a struct");
    }
    structType = types_.pointee(base);
  } else {
    if (!types_.isStruct(base)) fail(member.loc, "'.' requires a struct value");
    if (!member.base->isLValue) fail(member.loc, "member access on a temporary struct");
    structType = base;
  }
  const StructLayout& layout = types_.structLayout(structType);
  const StructField* field = layout.find(member.field);
  if (field == nullptr) {
    fail(member.loc, "no member '" + member.field + "' in " + types_.name(structType));
  }
  member.fieldOffset = field->offset;
  member.isLValue = true;
  return field->type;
}

TypeId Sema::analyzeCast(Cast& cast) {
  const TypeId source = analyzeExpr(*cast.operand);
  const TypeId target = resolve(cast.target);
  cast.isLValue = false;

  const bool arithmeticCast = types_.isArithmetic(source) && types_.isArithmetic(target);
  const bool pointerCast = types_.isPointer(source) && types_.isPointer(target);
  const bool nullCast = types_.isPointer(target) && cast.operand->kind == ExprKind::IntLit &&
                        static_cast<IntLit&>(*cast.operand).value == 0;
  if (!arithmeticCast && !pointerCast && !nullCast) {
    fail(cast.loc,
         "invalid cast from " + types_.name(source) + " to " + types_.name(target));
  }
  return target;
}

}  // namespace skelcl::kc
