// Disassembler tests: stable, readable bytecode dumps (the `kcc -d` tool and
// debugging of generated skeleton programs rely on them).
#include <gtest/gtest.h>

#include <cstring>

#include "kernelc/disasm.hpp"
#include "kernelc/program.hpp"

using namespace skelcl::kc;

namespace {

// The goldens below document the compiler's naive instruction selection, so
// they compile at tier 0 (no rewrite or peephole pass).
std::string dump(const std::string& source, const std::string& fn) {
  const auto program = compileProgram(source, CompileOptions{0});
  const int idx = program->findFunction(fn);
  EXPECT_GE(idx, 0);
  return disassemble(program->functions[static_cast<std::size_t>(idx)]);
}

std::string dumpOptimized(const std::string& source, const std::string& fn, bool packed) {
  const auto program = compileProgram(source, CompileOptions{1});
  const int idx = program->findFunction(fn);
  EXPECT_GE(idx, 0);
  const FunctionCode& code = program->functions[static_cast<std::size_t>(idx)];
  return packed ? disassemblePacked(code) : disassemble(code);
}

TEST(KernelcDisasm, SimpleFunctionGolden) {
  const std::string text = dump("int f(int a, int b) { return a + b; }", "f");
  // header + 4 instructions
  EXPECT_NE(text.find("function f (slots=2, frame=0B)"), std::string::npos);
  EXPECT_NE(text.find("load.slot 0"), std::string::npos);
  EXPECT_NE(text.find("load.slot 1"), std::string::npos);
  EXPECT_NE(text.find("add.i"), std::string::npos);
  EXPECT_NE(text.find("ret"), std::string::npos);
}

TEST(KernelcDisasm, KernelHeaderAndFrame) {
  const std::string text =
      dump("__kernel void k(__global float* p) { float tmp[4]; p[0] = tmp[0]; }", "k");
  EXPECT_NE(text.find("kernel k"), std::string::npos);
  EXPECT_NE(text.find("frame=16B"), std::string::npos);
  EXPECT_NE(text.find("lea.frame"), std::string::npos);
}

TEST(KernelcDisasm, JumpTargetsPrinted) {
  const std::string text = dump("int f(int n) { while (n > 0) --n; return n; }", "f");
  EXPECT_NE(text.find("jz "), std::string::npos);
  EXPECT_NE(text.find("jmp "), std::string::npos);
}

TEST(KernelcDisasm, BuiltinCallsNameAndArity) {
  const std::string text = dump("float f(float x) { return sqrt(x); }", "f");
  EXPECT_NE(text.find("call.builtin"), std::string::npos);
  EXPECT_NE(text.find("argc=1"), std::string::npos);
}

TEST(KernelcDisasm, FloatOpsDistinctFromDouble) {
  const std::string f32 = dump("float f(float a) { return a * a; }", "f");
  const std::string f64 = dump("double f(double a) { return a * a; }", "f");
  EXPECT_NE(f32.find("mul.f32"), std::string::npos);
  EXPECT_NE(f64.find("mul.f64"), std::string::npos);
}

TEST(KernelcDisasm, EveryOpcodeHasAName) {
  for (int op = 0; op < kOpCount; ++op) {
    EXPECT_STRNE(opName(static_cast<Op>(op)), "?") << "opcode " << op;
  }
}

// One instruction of every opcode, with distinct operand fields so the dump
// shows which field each opcode prints; the weights cycle through 0, 1 and
// 3.  The packed form carries every opcode but PushF (the encoder pools it
// as PushCF), with a two-entry constant pool and LtU as the fused comparison.
// The register rows compare a slot with a constant: in the packed form the
// constant is pool entry 0.
FunctionCode everyOpcode() {
  const std::uint8_t weights[] = {0, 1, 3};
  const std::uint16_t reg = regC(Op::LtU, Src::Slot, Src::Const);
  FunctionCode fn;
  fn.name = "all";
  for (int op = 0; op < kOpCount; ++op) {
    Insn insn;
    insn.op = static_cast<Op>(op);
    insn.a = 3;
    insn.b = static_cast<std::int32_t>(Op::LtU);
    insn.imm = -11;
    insn.fimm = 2.5;
    insn.weight = weights[op % 3];
    insn.c = reg;
    insn.k = 7;
    fn.code.push_back(insn);
    if (insn.op == Op::PushF) continue;
    fn.packed.push_back(PackedInsn{insn.op, insn.weight,
                                   isRegisterForm(insn.op) ? reg
                                                           : static_cast<std::uint16_t>(Op::LtU),
                                   3, 7, insn.op == Op::PushCF ? 1 : 0});
  }
  const double f = 0.375;
  std::uint64_t bits = 0;
  std::memcpy(&bits, &f, sizeof bits);
  fn.pool = {static_cast<std::uint64_t>(std::int64_t{-1234567890123}), bits};
  return fn;
}

TEST(KernelcDisasm, EveryOpcodeGolden) {
  EXPECT_EQ(disassemble(everyOpcode()), R"(function all (slots=0, frame=0B)
    0  push.i -11  ;w=0
    1  push.f 2.5
    2  load.slot 3  ;w=3
    3  store.slot 3  ;w=0
    4  lea.frame 3
    5  load.i32  ;w=3
    6  load.u32  ;w=0
    7  load.f32
    8  load.f64  ;w=3
    9  load.i64  ;w=0
   10  store.i32
   11  store.f32  ;w=3
   12  store.f64  ;w=0
   13  store.i64
   14  memcopy 3  ;w=3
   15  ptradd 3  ;w=0
   16  add.i
   17  sub.i  ;w=3
   18  mul.i  ;w=0
   19  div.i
   20  rem.i  ;w=3
   21  neg.i  ;w=0
   22  div.u
   23  rem.u  ;w=3
   24  and.i  ;w=0
   25  or.i
   26  xor.i  ;w=3
   27  shl.i  ;w=0
   28  shr.i
   29  shr.u  ;w=3
   30  not.i  ;w=0
   31  add.l
   32  sub.l  ;w=3
   33  mul.l  ;w=0
   34  div.l
   35  rem.l  ;w=3
   36  neg.l  ;w=0
   37  div.ul
   38  rem.ul  ;w=3
   39  and.l  ;w=0
   40  or.l
   41  xor.l  ;w=3
   42  shl.l  ;w=0
   43  shr.l
   44  shr.ul  ;w=3
   45  not.l  ;w=0
   46  add.f32
   47  sub.f32  ;w=3
   48  mul.f32  ;w=0
   49  div.f32
   50  neg.f32  ;w=3
   51  add.f64  ;w=0
   52  sub.f64
   53  mul.f64  ;w=3
   54  div.f64  ;w=0
   55  neg.f64
   56  eq.i  ;w=3
   57  ne.i  ;w=0
   58  lt.i
   59  le.i  ;w=3
   60  gt.i  ;w=0
   61  ge.i
   62  lt.u  ;w=3
   63  le.u  ;w=0
   64  gt.u
   65  ge.u  ;w=3
   66  lt.ul  ;w=0
   67  le.ul
   68  gt.ul  ;w=3
   69  ge.ul  ;w=0
   70  eq.f
   71  ne.f  ;w=3
   72  lt.f  ;w=0
   73  le.f
   74  gt.f  ;w=3
   75  ge.f  ;w=0
   76  eq.p
   77  ne.p  ;w=3
   78  lnot  ;w=0
   79  cvt.i.f32
   80  cvt.i.f64  ;w=3
   81  cvt.u.f32  ;w=0
   82  cvt.u.f64
   83  cvt.ul.f32  ;w=3
   84  cvt.ul.f64  ;w=0
   85  cvt.f.i
   86  cvt.f.u  ;w=3
   87  cvt.f.l  ;w=0
   88  cvt.f.ul
   89  cvt.f64.f32  ;w=3
   90  cvt.i.u  ;w=0
   91  cvt.u.i
   92  boolnorm  ;w=3
   93  jmp 3  ;w=0
   94  jz 3
   95  jnz 3  ;w=3
   96  call 3  ;w=0
   97  call.builtin 3 argc=62
   98  ret  ;w=3
   99  ret.void  ;w=0
  100  dup
  101  drop  ;w=3
  102  trap  ;w=0
  103  ptradd.imm 3 +-11
  104  loadelem.i32 sz=3  ;w=3
  105  loadelem.u32 sz=3  ;w=0
  106  loadelem.f32 sz=3
  107  loadelem.f64 sz=3  ;w=3
  108  loadelem.i64 sz=3  ;w=0
  109  loadslotelem.i32 ptr=s3 idx=s62 sz=-11
  110  loadslotelem.u32 ptr=s3 idx=s62 sz=-11  ;w=3
  111  loadslotelem.f32 ptr=s3 idx=s62 sz=-11  ;w=0
  112  loadslotelem.f64 ptr=s3 idx=s62 sz=-11
  113  loadslotelem.i64 ptr=s3 idx=s62 sz=-11  ;w=3
  114  teestore.i32 s3  ;w=0
  115  teestore.i64 s3
  116  teestore.f32 s3  ;w=3
  117  teestore.f64 s3  ;w=0
  118  incslot.i s3 +-11
  119  load.slot2 s3 s62  ;w=3
  120  cmp.jz 3 (lt.u)  ;w=0
  121  cmp.jnz 3 (lt.u)
  122  store.slot.checked s3 bytes=62  ;w=3
  123  push.ci [3]=-11  ;w=0
  124  push.cf [3]=2.5
  125  reg lt.u s62 -11  ;w=3
  126  reg.store lt.u s62 -11 -> s3  ;w=0
  127  reg.jz 3 lt.u s62 -11
  128  reg.jnz 3 lt.u s62 -11  ;w=3
)");
}

TEST(KernelcDisasm, EveryPackedOpcodeGolden) {
  EXPECT_EQ(disassemblePacked(everyOpcode()), R"(function all (slots=0, frame=0B, maxstack=0, pool=2)
    0  push.i 3  ;w=0
    1  load.slot 3  ;w=3
    2  store.slot 3  ;w=0
    3  lea.frame 3
    4  load.i32  ;w=3
    5  load.u32  ;w=0
    6  load.f32
    7  load.f64  ;w=3
    8  load.i64  ;w=0
    9  store.i32
   10  store.f32  ;w=3
   11  store.f64  ;w=0
   12  store.i64
   13  memcopy 3  ;w=3
   14  ptradd 3  ;w=0
   15  add.i
   16  sub.i  ;w=3
   17  mul.i  ;w=0
   18  div.i
   19  rem.i  ;w=3
   20  neg.i  ;w=0
   21  div.u
   22  rem.u  ;w=3
   23  and.i  ;w=0
   24  or.i
   25  xor.i  ;w=3
   26  shl.i  ;w=0
   27  shr.i
   28  shr.u  ;w=3
   29  not.i  ;w=0
   30  add.l
   31  sub.l  ;w=3
   32  mul.l  ;w=0
   33  div.l
   34  rem.l  ;w=3
   35  neg.l  ;w=0
   36  div.ul
   37  rem.ul  ;w=3
   38  and.l  ;w=0
   39  or.l
   40  xor.l  ;w=3
   41  shl.l  ;w=0
   42  shr.l
   43  shr.ul  ;w=3
   44  not.l  ;w=0
   45  add.f32
   46  sub.f32  ;w=3
   47  mul.f32  ;w=0
   48  div.f32
   49  neg.f32  ;w=3
   50  add.f64  ;w=0
   51  sub.f64
   52  mul.f64  ;w=3
   53  div.f64  ;w=0
   54  neg.f64
   55  eq.i  ;w=3
   56  ne.i  ;w=0
   57  lt.i
   58  le.i  ;w=3
   59  gt.i  ;w=0
   60  ge.i
   61  lt.u  ;w=3
   62  le.u  ;w=0
   63  gt.u
   64  ge.u  ;w=3
   65  lt.ul  ;w=0
   66  le.ul
   67  gt.ul  ;w=3
   68  ge.ul  ;w=0
   69  eq.f
   70  ne.f  ;w=3
   71  lt.f  ;w=0
   72  le.f
   73  gt.f  ;w=3
   74  ge.f  ;w=0
   75  eq.p
   76  ne.p  ;w=3
   77  lnot  ;w=0
   78  cvt.i.f32
   79  cvt.i.f64  ;w=3
   80  cvt.u.f32  ;w=0
   81  cvt.u.f64
   82  cvt.ul.f32  ;w=3
   83  cvt.ul.f64  ;w=0
   84  cvt.f.i
   85  cvt.f.u  ;w=3
   86  cvt.f.l  ;w=0
   87  cvt.f.ul
   88  cvt.f64.f32  ;w=3
   89  cvt.i.u  ;w=0
   90  cvt.u.i
   91  boolnorm  ;w=3
   92  jmp 3  ;w=0
   93  jz 3
   94  jnz 3  ;w=3
   95  call 3  ;w=0
   96  call.builtin 3 argc=7
   97  ret  ;w=3
   98  ret.void  ;w=0
   99  dup
  100  drop  ;w=3
  101  trap  ;w=0
  102  ptradd.imm 3 +7
  103  loadelem.i32 sz=3  ;w=3
  104  loadelem.u32 sz=3  ;w=0
  105  loadelem.f32 sz=3
  106  loadelem.f64 sz=3  ;w=3
  107  loadelem.i64 sz=3  ;w=0
  108  loadslotelem.i32 ptr=s3 idx=s7 sz=62
  109  loadslotelem.u32 ptr=s3 idx=s7 sz=62  ;w=3
  110  loadslotelem.f32 ptr=s3 idx=s7 sz=62  ;w=0
  111  loadslotelem.f64 ptr=s3 idx=s7 sz=62
  112  loadslotelem.i64 ptr=s3 idx=s7 sz=62  ;w=3
  113  teestore.i32 s3  ;w=0
  114  teestore.i64 s3
  115  teestore.f32 s3  ;w=3
  116  teestore.f64 s3  ;w=0
  117  incslot.i s3 +7
  118  load.slot2 s3 s7  ;w=3
  119  cmp.jz 3 (lt.u)  ;w=0
  120  cmp.jnz 3 (lt.u)
  121  store.slot.checked s3 bytes=7  ;w=3
  122  push.ci [0]=-1234567890123  ;w=0
  123  push.cf [1]=0.375
  124  reg lt.u s7 -1234567890123  ;w=3
  125  reg.store lt.u s7 -1234567890123 -> s3  ;w=0
  126  reg.jz 3 lt.u s7 -1234567890123
  127  reg.jnz 3 lt.u s7 -1234567890123  ;w=3
)");
}

TEST(KernelcDisasm, SuperinstructionsCarryWeights) {
  // a + b fuses the two operand loads; the weight suffix documents how many
  // naive instructions the fused one retires.
  const std::string text =
      dumpOptimized("int f(int a, int b) { return a + b; }", "f", /*packed=*/false);
  EXPECT_NE(text.find("load.slot2 s0 s1"), std::string::npos);
  EXPECT_NE(text.find(";w=2"), std::string::npos);
}

TEST(KernelcDisasm, PackedDumpShowsHeaderAndPool) {
  const std::string text = dumpOptimized(
      "double f(double x) { return x * 3.25; }", "f", /*packed=*/true);
  EXPECT_NE(text.find("maxstack="), std::string::npos);
  EXPECT_NE(text.find("pool=1"), std::string::npos);
  EXPECT_NE(text.find("push.cf [0]=3.25"), std::string::npos);
}

TEST(KernelcDisasm, PackedDumpFusedBranch) {
  const std::string text = dumpOptimized(
      "int f(int n) { int s = 0; for (int i = 0; i < n; ++i) s = s + i; return s; }",
      "f", /*packed=*/true);
  EXPECT_NE(text.find("cmp.j"), std::string::npos);  // fused compare-and-branch
  EXPECT_NE(text.find("incslot.i"), std::string::npos);
}

}  // namespace
