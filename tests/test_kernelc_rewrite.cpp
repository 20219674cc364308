// Unit tests for the tier-2 rewrite pass's struct scalar replacement
// (kernelc/rewrite.hpp) on hand-written Insn IR: the rule is checked against
// the *exact* expected output stream — opcodes, operands and weights — and
// then executed, the naive input on the reference interpreter and the
// rewritten output through the packed pipeline, requiring identical results
// and identical retired-instruction counts.  The weight rules under test
// (docs/VM.md): synthesized field loads retire 0, each replacement carries
// its window's summed weight, so the static weight sum — and the dynamic
// retired count on every control-flow path, faults included — is exactly
// what the unrewritten program reports.
//
// Inputs use only naive opcodes: the reference interpreter rejects
// superinstructions, and the compiler never feeds the rewrite pass anything
// else (it runs before peephole).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "kernelc/diagnostics.hpp"
#include "kernelc/disasm.hpp"
#include "kernelc/encode.hpp"
#include "kernelc/rewrite.hpp"
#include "kernelc/types.hpp"
#include "kernelc/vm.hpp"

using namespace skelcl::kc;

namespace {

Insn ins(Op op, std::int32_t a = 0, std::int32_t b = 0, std::int64_t imm = 0,
         int weight = 1) {
  Insn insn;
  insn.op = op;
  insn.a = a;
  insn.b = b;
  insn.imm = imm;
  insn.weight = static_cast<std::uint8_t>(weight);
  return insn;
}

void expectCode(const FunctionCode& fn, const std::vector<Insn>& want) {
  ASSERT_EQ(fn.code.size(), want.size()) << disassemble(fn);
  for (std::size_t i = 0; i < want.size(); ++i) {
    const Insn& g = fn.code[i];
    const Insn& w = want[i];
    EXPECT_EQ(opName(g.op), opName(w.op)) << "at " << i << "\n" << disassemble(fn);
    EXPECT_EQ(g.a, w.a) << "operand a at " << i << "\n" << disassemble(fn);
    EXPECT_EQ(g.b, w.b) << "operand b at " << i << "\n" << disassemble(fn);
    EXPECT_EQ(g.imm, w.imm) << "imm at " << i << "\n" << disassemble(fn);
    EXPECT_EQ(g.fimm, w.fimm) << "fimm at " << i << "\n" << disassemble(fn);
    EXPECT_EQ(int{g.weight}, int{w.weight}) << "weight at " << i << "\n"
                                            << disassemble(fn);
  }
}

int staticWeightSum(const FunctionCode& fn) {
  int sum = 0;
  for (const Insn& insn : fn.code) sum += insn.weight;
  return sum;
}

/// Wrap one function in a runnable program.  `optimize` runs the encoder and
/// marks the program tier 2, so the packed pipeline executes it as the
/// tier-2 pipeline would; otherwise the reference interpreter runs it.
std::unique_ptr<CompiledProgram> makeProgram(FunctionCode fn, bool optimize) {
  auto program = std::make_unique<CompiledProgram>();
  program->functions.push_back(std::move(fn));
  if (optimize) {
    finalizeFunctions(program->functions);
    program->tier = 2;
  }
  return program;
}

// --- R0: struct scalar replacement -------------------------------------------

/// `float e(Event* ev, int i) { Event e = ev[i]; return e.x + e.z; }` with
/// `typedef struct { float x, y, z; } Event;` — slots: 0 = ev, 1 = i; the
/// struct lives in frame bytes [0, 12).
FunctionCode copyThenReadFields() {
  FunctionCode fn;
  fn.name.append("e");  // not `= "e"`: GCC 12 -Wrestrict misfires on that at -O3
  fn.returnType = types::Float;
  fn.paramTypes = {types::Int, types::Int};  // Ptr slots marshal raw
  fn.numSlots = 2;
  fn.frameBytes = 12;
  fn.code = {
      ins(Op::LeaFrame, 0),     //  0: Event e = ev[i];
      ins(Op::LoadSlot, 0),     //  1
      ins(Op::LoadSlot, 1),     //  2
      ins(Op::PtrAdd, 12),      //  3
      ins(Op::MemCopy, 12),     //  4
      ins(Op::LeaFrame, 0),     //  5: e.x
      ins(Op::LoadF32),         //  6
      ins(Op::LeaFrame, 0),     //  7: e.z
      ins(Op::PushI, 0, 0, 8),  //  8
      ins(Op::PtrAdd, 1),       //  9
      ins(Op::LoadF32),         // 10
      ins(Op::AddF32),          // 11
      ins(Op::Ret),             // 12
  };
  return fn;
}

TEST(KernelcRewrite, StructScalarReplacementExactStream) {
  FunctionCode fn = copyThenReadFields();
  const int weightBefore = staticWeightSum(fn);
  EXPECT_EQ(rewriteOptimize(fn), 1);
  EXPECT_EQ(fn.frameBytes, 0u);  // frame-free now: inlinable and batchable
  EXPECT_EQ(fn.numSlots, 5);     // base pointer, then x and z
  EXPECT_EQ(staticWeightSum(fn), weightBefore);

  // The copy keeps its source computation (the first instruction also
  // retires the LeaFrame), checks the 12 bytes where MemCopy read them,
  // and loads the two read fields at weight 0; each read is one LoadSlot
  // carrying its window.
  expectCode(fn, {
      ins(Op::LoadSlot, 0, 0, 0, 2),          //  0: was LeaFrame + LoadSlot ev
      ins(Op::LoadSlot, 1),                   //  1
      ins(Op::PtrAdd, 12),                    //  2
      ins(Op::StoreSlotChecked, 2, 12),       //  3: was MemCopy 12
      ins(Op::LoadSlot, 2, 0, 0, 0),          //  4: x = *(base + 0)
      ins(Op::LoadF32, 0, 0, 0, 0),           //  5
      ins(Op::StoreSlot, 3, 0, 0, 0),         //  6
      ins(Op::LoadSlot, 2, 0, 0, 0),          //  7: z = *(base + 8)
      ins(Op::PushI, 0, 0, 8, 0),             //  8
      ins(Op::PtrAdd, 1, 0, 0, 0),            //  9
      ins(Op::LoadF32, 0, 0, 0, 0),           // 10
      ins(Op::StoreSlot, 4, 0, 0, 0),         // 11
      ins(Op::LoadSlot, 3, 0, 0, 2),          // 12: e.x
      ins(Op::LoadSlot, 4, 0, 0, 4),          // 13: e.z
      ins(Op::AddF32),                        // 14
      ins(Op::Ret),                           // 15
  });
}

TEST(KernelcRewrite, StructScalarReplacementExecutesIdentically) {
  FunctionCode rewritten = copyThenReadFields();
  ASSERT_EQ(rewriteOptimize(rewritten), 1);

  std::vector<float> events = {1.f, 2.f, 3.f, 10.f, 20.f, 30.f};
  const std::vector<MemRegion> regions{MemRegion{reinterpret_cast<std::byte*>(events.data()),
                                                 events.size() * sizeof(float)}};
  Ptr p;
  p.region = 1;
  const std::vector<Slot> args{Slot::fromPtr(p), Slot::fromInt(1)};
  const auto ref = makeProgram(copyThenReadFields(), false);
  const auto opt = makeProgram(std::move(rewritten), true);
  Vm vmRef(*ref, regions);
  Vm vmOpt(*opt, regions);
  EXPECT_EQ(vmRef.callFunction(0, args).f, 40.0);  // events[1].x + events[1].z
  EXPECT_EQ(vmOpt.callFunction(0, args).f, 40.0);
  EXPECT_EQ(vmRef.instructionsExecuted(), 13u);
  EXPECT_EQ(vmOpt.instructionsExecuted(), 13u);
}

TEST(KernelcRewrite, StructWhoseAddressEscapesStaysInFrame) {
  // `Event e = ev[i]; float* y = &e.y; return *y + e.x;` — slot 2 = y.
  FunctionCode fn = copyThenReadFields();
  fn.numSlots = 3;
  fn.code = {
      ins(Op::LeaFrame, 0),     //  0: Event e = ev[i];
      ins(Op::LoadSlot, 0),     //  1
      ins(Op::LoadSlot, 1),     //  2
      ins(Op::PtrAdd, 12),      //  3
      ins(Op::MemCopy, 12),     //  4
      ins(Op::LeaFrame, 0),     //  5: y = &e.y
      ins(Op::PushI, 0, 0, 4),  //  6
      ins(Op::PtrAdd, 1),       //  7
      ins(Op::StoreSlot, 2),    //  8
      ins(Op::LoadSlot, 2),     //  9: *y
      ins(Op::LoadF32),         // 10
      ins(Op::LeaFrame, 0),     // 11: e.x
      ins(Op::LoadF32),         // 12
      ins(Op::AddF32),          // 13
      ins(Op::Ret),             // 14
  };
  const std::vector<Insn> before = fn.code;
  EXPECT_EQ(rewriteOptimize(fn), 0);
  EXPECT_EQ(fn.frameBytes, 12u);
  expectCode(fn, before);
}

TEST(KernelcRewrite, OutOfRangeStructCopyFaultsOnTheSameWorkItem) {
  // `__kernel void k(Event* ev, float* out) { int g = get_global_id(0);
  //  Event e = ev[g]; out[g] = e.y; }` over 6 items with 4 events: the
  // copy of work-item 4 reads past the buffer.  Slot 2 = g.
  FunctionCode fn;
  fn.name = "k";
  fn.isKernel = true;
  fn.paramTypes = {types::Int, types::Int};
  fn.numSlots = 3;
  fn.frameBytes = 12;
  fn.code = {
      ins(Op::PushI, 0, 0, 0),      //  0: g = get_global_id(0)
      ins(Op::CallBuiltin, 0, 1),   //  1
      ins(Op::StoreSlot, 2),        //  2
      ins(Op::LeaFrame, 0),         //  3: Event e = ev[g];
      ins(Op::LoadSlot, 0),         //  4
      ins(Op::LoadSlot, 2),         //  5
      ins(Op::PtrAdd, 12),          //  6
      ins(Op::MemCopy, 12),         //  7
      ins(Op::LoadSlot, 1),         //  8: out[g] = e.y
      ins(Op::LoadSlot, 2),         //  9
      ins(Op::PtrAdd, 4),           // 10
      ins(Op::LeaFrame, 0),         // 11
      ins(Op::PushI, 0, 0, 4),      // 12
      ins(Op::PtrAdd, 1),           // 13
      ins(Op::LoadF32),             // 14
      ins(Op::StoreF32),            // 15
      ins(Op::RetVoid),             // 16
  };
  FunctionCode rewritten = fn;
  ASSERT_EQ(rewriteOptimize(rewritten), 1);
  EXPECT_EQ(rewritten.frameBytes, 0u);

  std::vector<float> events(12, 1.0f);
  std::vector<float> out(6, 0.0f);
  const std::vector<MemRegion> regions{
      MemRegion{reinterpret_cast<std::byte*>(events.data()), events.size() * sizeof(float)},
      MemRegion{reinterpret_cast<std::byte*>(out.data()), out.size() * sizeof(float)}};
  Ptr ev;
  ev.region = 1;
  Ptr dst;
  dst.region = 2;
  const std::vector<Slot> args{Slot::fromPtr(ev), Slot::fromPtr(dst)};
  const auto perItem = [&](const CompiledProgram& program, std::uint64_t& retired) {
    Vm vm(program, regions);
    std::string message;
    try {
      for (std::int64_t g = 0; g < 6; ++g) vm.runKernel(0, args, g, 6);
    } catch (const VmError& e) {
      message = e.what();
    }
    retired = vm.instructionsExecuted();
    return message;
  };
  const auto ref = makeProgram(fn, false);
  const auto opt = makeProgram(rewritten, true);
  std::uint64_t refRetired = 0;
  std::uint64_t optRetired = 0;
  const std::string want = perItem(*ref, refRetired);
  EXPECT_NE(want.find("work-item 4)"), std::string::npos) << want;
  EXPECT_NE(want.find("out-of-bounds access at offset 48 + 12 bytes"), std::string::npos)
      << want;
  EXPECT_EQ(perItem(*opt, optRetired), want);
  EXPECT_EQ(optRetired, refRetired);  // 4 items x 17, then 8 up to the copy
  EXPECT_EQ(refRetired, 4u * 17u + 8u);

  ASSERT_TRUE(opt->functions[0].batchable);
  Vm batched(*opt, regions);
  try {
    batched.runKernelBatch(0, args, 0, 6, 6);
    ADD_FAILURE() << "the batched copy did not fault";
  } catch (const VmError& e) {
    EXPECT_EQ(std::string(e.what()), want);
  }
}

}  // namespace
