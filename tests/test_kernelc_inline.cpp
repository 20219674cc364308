// Tests for tier-2 call inlining (inlineCalls in kernelc/rewrite.hpp,
// docs/VM.md).  Hand-written Insn IR pins the exact inlined stream for each
// shape — nested calls, a zero-parameter callee, an early return inside a
// loop, a void callee, a local read before it is written — and then runs
// the program with and without inlining on the fast interpreter, requiring
// identical results and identical retired-instruction counts (the call's
// weight moves onto the first instruction of the inlined block, each Ret's
// onto the Jmp that replaces it).  Recursive and frame-carrying callees must
// stay calls.  One test pins the tier-2 register-form listing and retired
// count of cluster_mix's 64-step map loop and of an OSEM Siddon step, and
// one which `&&`/`||` conditions short-circuit threading rewrites.  The
// last test drives every skeleton through the runtime —
// OSEM's step-1 map included — and requires each generated kernel to run on
// the batched interpreter.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/skelcl.hpp"
#include "kernelc/builtins.hpp"
#include "kernelc/disasm.hpp"
#include "kernelc/encode.hpp"
#include "kernelc/program.hpp"
#include "kernelc/rewrite.hpp"
#include "kernelc/vm.hpp"
#include "ocl/queue.hpp"
#include "osem/osem.hpp"
#include "osem/osem_kernels.hpp"

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

Insn insF(Op op, double fimm, int weight = 1) {
  Insn insn;
  insn.op = op;
  insn.fimm = fimm;
  insn.weight = static_cast<std::uint8_t>(weight);
  return insn;
}

FunctionCode function(const char* name, TypeId ret, std::vector<TypeId> params, int slots,
                      std::vector<Insn> code, bool kernel = false) {
  FunctionCode fn;
  fn.name = name;
  fn.isKernel = kernel;
  fn.returnType = ret;
  fn.paramTypes = std::move(params);
  fn.numSlots = slots;
  fn.code = std::move(code);
  return fn;
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
    EXPECT_EQ(int{g.weight}, int{w.weight}) << "weight at " << i << "\n" << disassemble(fn);
  }
}

bool hasCall(const FunctionCode& fn) {
  return std::any_of(fn.code.begin(), fn.code.end(),
                     [](const Insn& insn) { return insn.op == Op::CallFn; });
}

/// The same functions as two runnable programs: `plain` encoded the tier-1
/// way (calls kept), `inlined` with inlineCalls applied before encoding.
struct Programs {
  CompiledProgram plain;
  CompiledProgram inlined;
  int applied = 0;
};

std::unique_ptr<Programs> build(std::vector<FunctionCode> fns) {
  auto p = std::make_unique<Programs>();
  p->plain.functions = fns;
  finalizeFunctions(p->plain.functions);
  p->plain.tier = 1;
  p->inlined.functions = std::move(fns);
  p->applied = inlineCalls(p->inlined.functions);
  finalizeFunctions(p->inlined.functions);
  p->inlined.tier = 2;
  return p;
}

/// Call function `fn` on both programs: results must match, and both must
/// retire exactly `count` instructions.  Returns the result.
std::int64_t callBoth(const Programs& p, int fn, std::vector<Slot> args,
                      std::uint64_t count) {
  Vm plain(p.plain, {});
  Vm inlined(p.inlined, {});
  const std::int64_t want = plain.callFunction(fn, args).i;
  EXPECT_EQ(inlined.callFunction(fn, args).i, want);
  EXPECT_EQ(plain.instructionsExecuted(), count);
  EXPECT_EQ(inlined.instructionsExecuted(), count);
  return want;
}

// --- nested calls -----------------------------------------------------------

TEST(KernelcInline, NestedCallsInlineInnermostFirst) {
  // g(x) = x * 3;  f(x) = g(x) + 1;  h(x) = f(x) * 2
  const auto p = build({
      function("g", types::Int, {types::Int}, 1,
               {ins(Op::LoadSlot, 0), ins(Op::PushI, 0, 0, 3), ins(Op::MulI), ins(Op::Ret),
                ins(Op::Trap)}),
      function("f", types::Int, {types::Int}, 1,
               {ins(Op::LoadSlot, 0), ins(Op::CallFn, 0), ins(Op::PushI, 0, 0, 1),
                ins(Op::AddI), ins(Op::Ret), ins(Op::Trap)}),
      function("h", types::Int, {types::Int}, 1,
               {ins(Op::LoadSlot, 0), ins(Op::CallFn, 1), ins(Op::PushI, 0, 0, 2),
                ins(Op::MulI), ins(Op::Ret), ins(Op::Trap)}),
  });
  // g goes into f in the first sweep; f, now call-free, into h in the second.
  EXPECT_EQ(p->applied, 2);
  EXPECT_FALSE(hasCall(p->inlined.functions[1]));
  const FunctionCode& h = p->inlined.functions[2];
  EXPECT_EQ(h.numSlots, 3);  // h's x, then f's region (f's x, g's x)
  expectCode(h, {
      ins(Op::LoadSlot, 0),     //  0
      ins(Op::StoreSlot, 1),    //  1: bind f's x; carries h's call weight
      ins(Op::LoadSlot, 1),     //  2
      ins(Op::StoreSlot, 2),    //  3: bind g's x; carries f's call weight
      ins(Op::LoadSlot, 2),     //  4
      ins(Op::PushI, 0, 0, 3),  //  5
      ins(Op::MulI),            //  6
      ins(Op::Jmp, 9),          //  7: g's ret
      ins(Op::Trap),            //  8
      ins(Op::PushI, 0, 0, 1),  //  9
      ins(Op::AddI),            // 10
      ins(Op::Jmp, 13),         // 11: f's ret
      ins(Op::Trap),            // 12
      ins(Op::PushI, 0, 0, 2),  // 13
      ins(Op::MulI),            // 14
      ins(Op::Ret),             // 15
      ins(Op::Trap),            // 16
  });
  // h 2 + f 2 + g 4 + f 3 + h 3 retired on both.
  EXPECT_EQ(callBoth(*p, 2, {Slot::fromInt(5)}, 14), 32);
}

// --- zero-parameter callee --------------------------------------------------

TEST(KernelcInline, ZeroParameterCalleeChargesTheCallOnAJump) {
  const auto p = build({
      function("seven", types::Int, {}, 0,
               {ins(Op::PushI, 0, 0, 7), ins(Op::Ret), ins(Op::Trap)}),
      function("f", types::Int, {types::Int}, 1,
               {ins(Op::LoadSlot, 0), ins(Op::CallFn, 0), ins(Op::AddI), ins(Op::Ret),
                ins(Op::Trap)}),
  });
  EXPECT_EQ(p->applied, 1);
  const FunctionCode& f = p->inlined.functions[1];
  EXPECT_EQ(f.numSlots, 1);
  // Nothing to bind or zero: a jump to the body carries the call's weight.
  expectCode(f, {
      ins(Op::LoadSlot, 0),     // 0
      ins(Op::Jmp, 2),          // 1: was CallFn
      ins(Op::PushI, 0, 0, 7),  // 2
      ins(Op::Jmp, 5),          // 3: was Ret
      ins(Op::Trap),            // 4
      ins(Op::AddI),            // 5
      ins(Op::Ret),             // 6
      ins(Op::Trap),            // 7
  });
  EXPECT_EQ(callBoth(*p, 1, {Slot::fromInt(4)}, 6), 11);
}

// --- early return inside a loop ---------------------------------------------

TEST(KernelcInline, EarlyReturnInsideLoopJumpsPastTheBlock) {
  // firstOver(limit): for (i = 0; i < 100; i = i + 1) if (i * i > limit)
  // return i; return -1;      f(x) = firstOver(x) + 1000
  const auto p = build({
      function("firstOver", types::Int, {types::Int}, 2,
               {
                   ins(Op::PushI, 0, 0, 0),    //  0: i = 0
                   ins(Op::StoreSlot, 1),      //  1
                   ins(Op::LoadSlot, 1),       //  2: head: exit unless i < 100
                   ins(Op::PushI, 0, 0, 100),  //  3
                   ins(Op::LtI),               //  4
                   ins(Op::Jz, 19),            //  5
                   ins(Op::LoadSlot, 1),       //  6: if (i * i > limit)
                   ins(Op::LoadSlot, 1),       //  7
                   ins(Op::MulI),              //  8
                   ins(Op::LoadSlot, 0),       //  9
                   ins(Op::GtI),               // 10
                   ins(Op::Jz, 14),            // 11
                   ins(Op::LoadSlot, 1),       // 12:   return i
                   ins(Op::Ret),               // 13
                   ins(Op::LoadSlot, 1),       // 14: i = i + 1
                   ins(Op::PushI, 0, 0, 1),    // 15
                   ins(Op::AddI),              // 16
                   ins(Op::StoreSlot, 1),      // 17
                   ins(Op::Jmp, 2),            // 18
                   ins(Op::PushI, 0, 0, -1),   // 19: return -1
                   ins(Op::Ret),               // 20
                   ins(Op::Trap),              // 21
               }),
      function("f", types::Int, {types::Int}, 1,
               {ins(Op::LoadSlot, 0), ins(Op::CallFn, 0), ins(Op::PushI, 0, 0, 1000),
                ins(Op::AddI), ins(Op::Ret), ins(Op::Trap)}),
  });
  EXPECT_EQ(p->applied, 1);
  const FunctionCode& f = p->inlined.functions[1];
  EXPECT_EQ(f.numSlots, 3);
  // i is written before it is read, so nothing is zeroed.  Both returns
  // jump to the instruction after the block; the loop's own branches move
  // with the body.
  expectCode(f, {
      ins(Op::LoadSlot, 0),        //  0
      ins(Op::StoreSlot, 1),       //  1: bind limit
      ins(Op::PushI, 0, 0, 0),     //  2
      ins(Op::StoreSlot, 2),       //  3
      ins(Op::LoadSlot, 2),        //  4: loop head
      ins(Op::PushI, 0, 0, 100),   //  5
      ins(Op::LtI),                //  6
      ins(Op::Jz, 21),             //  7
      ins(Op::LoadSlot, 2),        //  8
      ins(Op::LoadSlot, 2),        //  9
      ins(Op::MulI),               // 10
      ins(Op::LoadSlot, 1),        // 11
      ins(Op::GtI),                // 12
      ins(Op::Jz, 16),             // 13
      ins(Op::LoadSlot, 2),        // 14
      ins(Op::Jmp, 24),            // 15: return i
      ins(Op::LoadSlot, 2),        // 16
      ins(Op::PushI, 0, 0, 1),     // 17
      ins(Op::AddI),               // 18
      ins(Op::StoreSlot, 2),       // 19
      ins(Op::Jmp, 4),             // 20
      ins(Op::PushI, 0, 0, -1),    // 21
      ins(Op::Jmp, 24),            // 22: return -1
      ins(Op::Trap),               // 23
      ins(Op::PushI, 0, 0, 1000),  // 24
      ins(Op::AddI),               // 25
      ins(Op::Ret),                // 26
      ins(Op::Trap),               // 27
  });
  // limit 10: 2 + 2 before the loop, 4 full iterations of 15, the
  // returning one (12), and 3 after.
  EXPECT_EQ(callBoth(*p, 1, {Slot::fromInt(10)}, 79), 1004);
  // No i*i exceeds the limit: 100 iterations, the failing test (4) and
  // `return -1` (2).
  EXPECT_EQ(callBoth(*p, 1, {Slot::fromInt(100000)}, 1513), 999);
}

// --- void callee: the kernel becomes batchable ------------------------------

int builtinId(const char* name) {
  const auto& table = builtinTable();
  for (std::size_t i = 0; i < table.size(); ++i) {
    if (std::string(table[i].name) == name) return static_cast<int>(i);
  }
  ADD_FAILURE() << "no builtin " << name;
  return -1;
}

TEST(KernelcInline, VoidCalleeInlinesAndTheKernelBatches) {
  // put(p, i, v) { p[i] = v; }
  // __kernel k(out) { int gid = get_global_id(0); put(out, gid, gid * 0.5f); }
  const int gidFn = builtinId("get_global_id");
  const auto p = build({
      function("put", types::Void, {types::Int, types::Int, types::Float}, 3,
               {ins(Op::LoadSlot, 0), ins(Op::LoadSlot, 1), ins(Op::PtrAdd, 4),
                ins(Op::LoadSlot, 2), ins(Op::StoreF32), ins(Op::RetVoid)}),
      function("k", types::Void, {types::Int}, 2,
               {ins(Op::PushI, 0, 0, 0), ins(Op::CallBuiltin, gidFn, 1), ins(Op::StoreSlot, 1),
                ins(Op::LoadSlot, 0), ins(Op::LoadSlot, 1), ins(Op::LoadSlot, 1),
                ins(Op::I2F32), insF(Op::PushF, 0.5), ins(Op::MulF32), ins(Op::CallFn, 0),
                ins(Op::RetVoid)},
               /*kernel=*/true),
  });
  EXPECT_EQ(p->applied, 1);
  const FunctionCode& k = p->inlined.functions[1];
  EXPECT_EQ(k.numSlots, 5);
  expectCode(k, {
      ins(Op::PushI, 0, 0, 0),            //  0
      ins(Op::CallBuiltin, gidFn, 1),     //  1
      ins(Op::StoreSlot, 1),              //  2
      ins(Op::LoadSlot, 0),               //  3
      ins(Op::LoadSlot, 1),               //  4
      ins(Op::LoadSlot, 1),               //  5
      ins(Op::I2F32),                     //  6
      insF(Op::PushF, 0.5),               //  7
      ins(Op::MulF32),                    //  8
      ins(Op::StoreSlot, 4),              //  9: bind v (the last argument first)
      ins(Op::StoreSlot, 3, 0, 0, 0),     // 10: bind i
      ins(Op::StoreSlot, 2, 0, 0, 0),     // 11: bind p
      ins(Op::LoadSlot, 2),               // 12
      ins(Op::LoadSlot, 3),               // 13
      ins(Op::PtrAdd, 4),                 // 14
      ins(Op::LoadSlot, 4),               // 15
      ins(Op::StoreF32),                  // 16
      ins(Op::Jmp, 18),                   // 17: was RetVoid
      ins(Op::RetVoid),                   // 18
  });
  EXPECT_FALSE(p->plain.functions[1].batchable);
  EXPECT_TRUE(k.batchable);

  // Per item on the un-inlined program vs batched on the inlined one.
  constexpr std::int64_t kItems = 64;
  std::vector<float> seq(kItems, -1.0f);
  std::vector<float> bat(kItems, -1.0f);
  Ptr ptr;
  ptr.region = 1;
  const std::vector<Slot> args{Slot::fromPtr(ptr)};
  Vm vmSeq(p->plain, {MemRegion{reinterpret_cast<std::byte*>(seq.data()),
                                seq.size() * sizeof(float)}});
  Vm vmBat(p->inlined, {MemRegion{reinterpret_cast<std::byte*>(bat.data()),
                                  bat.size() * sizeof(float)}});
  for (std::int64_t gid = 0; gid < kItems; ++gid) vmSeq.runKernel(1, args, gid, kItems);
  vmBat.runKernelBatch(1, args, 0, kItems, kItems);
  EXPECT_EQ(seq, bat);
  EXPECT_EQ(seq[10], 5.0f);
  // 9 + call 1 + put 6 + ret.void 1 per item on both.
  EXPECT_EQ(vmSeq.instructionsExecuted(), 17u * kItems);
  EXPECT_EQ(vmBat.instructionsExecuted(), 17u * kItems);
}

// --- a local read before it is written --------------------------------------

/// The inlined block of count(n) { int c; if (n > 0) c = n; return c + 1; }
/// at caller index `at`, with the region at slot 1.
std::vector<Insn> countBlock(std::int32_t at) {
  return {
      ins(Op::StoreSlot, 1),           // bind n; carries the call weight
      ins(Op::PushI, 0, 0, 0, 0),      // zero c: the Jz path reads it unwritten
      ins(Op::StoreSlot, 2, 0, 0, 0),
      ins(Op::LoadSlot, 1),
      ins(Op::PushI, 0, 0, 0),
      ins(Op::GtI),
      ins(Op::Jz, at + 9),
      ins(Op::LoadSlot, 1),
      ins(Op::StoreSlot, 2),
      ins(Op::LoadSlot, 2),
      ins(Op::PushI, 0, 0, 1),
      ins(Op::AddI),
      ins(Op::Jmp, at + 14),           // was Ret
      ins(Op::Trap),
  };
}

TEST(KernelcInline, LocalReadBeforeWriteIsZeroedOnEveryEntry) {
  // c reads 0 when n <= 0 because the VM zeroes locals on every call.
  // f(a) = count(a) * 100 + count(-1)
  const auto p = build({
      function("count", types::Int, {types::Int}, 2,
               {
                   ins(Op::LoadSlot, 0),     //  0
                   ins(Op::PushI, 0, 0, 0),  //  1
                   ins(Op::GtI),             //  2
                   ins(Op::Jz, 6),           //  3
                   ins(Op::LoadSlot, 0),     //  4: c = n
                   ins(Op::StoreSlot, 1),    //  5
                   ins(Op::LoadSlot, 1),     //  6: return c + 1
                   ins(Op::PushI, 0, 0, 1),  //  7
                   ins(Op::AddI),            //  8
                   ins(Op::Ret),             //  9
                   ins(Op::Trap),            // 10
               }),
      function("f", types::Int, {types::Int}, 1,
               {ins(Op::LoadSlot, 0), ins(Op::CallFn, 0), ins(Op::PushI, 0, 0, 100),
                ins(Op::MulI), ins(Op::PushI, 0, 0, -1), ins(Op::CallFn, 0), ins(Op::AddI),
                ins(Op::Ret), ins(Op::Trap)}),
  });
  EXPECT_EQ(p->applied, 2);
  const FunctionCode& f = p->inlined.functions[1];
  // Both call sites share one slot region; the zeroing keeps the first
  // call's c = 5 from leaking into the second call.
  EXPECT_EQ(f.numSlots, 3);
  std::vector<Insn> want{ins(Op::LoadSlot, 0)};
  for (const Insn& insn : countBlock(1)) want.push_back(insn);
  want.push_back(ins(Op::PushI, 0, 0, 100));
  want.push_back(ins(Op::MulI));
  want.push_back(ins(Op::PushI, 0, 0, -1));
  for (const Insn& insn : countBlock(18)) want.push_back(insn);
  want.push_back(ins(Op::AddI));
  want.push_back(ins(Op::Ret));
  want.push_back(ins(Op::Trap));
  expectCode(f, want);
  // count(5) * 100 + count(-1) = 600 + 1; retired 2 + 10 + 3 + 1 + 8 + 2.
  EXPECT_EQ(callBoth(*p, 1, {Slot::fromInt(5)}, 26), 601);
}

// --- callees that must stay calls -------------------------------------------

TEST(KernelcInline, RecursiveAndFrameCalleesStayCalls) {
  const std::string src = R"(
    int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }
    int twice(int n) { return fib(n) * 2; }
    float pair(float a, float b) { float t[2]; t[0] = a; t[1] = b; return t[0] + t[1]; }
    __kernel void k(__global float* out) {
      int i = get_global_id(0);
      out[i] = pair((float)i, 1.0f);
    }
  )";
  const auto tier1 = compileProgram(src, CompileOptions{1});
  const auto tier2 = compileProgram(src, CompileOptions{2});
  const auto& fns = tier2->functions;
  EXPECT_TRUE(hasCall(fns[static_cast<std::size_t>(tier2->findFunction("fib"))]));
  EXPECT_TRUE(hasCall(fns[static_cast<std::size_t>(tier2->findFunction("twice"))]));
  const FunctionCode& k = fns[static_cast<std::size_t>(tier2->findKernel("k"))];
  EXPECT_TRUE(hasCall(k));
  EXPECT_FALSE(k.batchable);

  Vm vm1(*tier1, {});
  Vm vm2(*tier2, {});
  const std::vector<Slot> args{Slot::fromInt(10)};
  EXPECT_EQ(vm1.callFunction(tier1->findFunction("twice"), args).i, 110);
  EXPECT_EQ(vm2.callFunction(tier2->findFunction("twice"), args).i, 110);
  EXPECT_EQ(vm1.instructionsExecuted(), vm2.instructionsExecuted());
}

// --- whole programs from source ---------------------------------------------

TEST(KernelcInline, SourceKernelMatchesTierOneBatchedAndPerItem) {
  // Helpers calling helpers, a loop with an early return, a void helper
  // writing through a pointer, and a local only written inside the loop.
  const std::string src = R"(
    float sq(float x) { return x * x; }
    float poly(float x) { return sq(x) * 0.5f + sq(x + 1.0f); }
    int steps(int n) {
      int k;
      for (int i = 0; i < 40; ++i) { if (i * 3 > n) return i; k = i; }
      return k;
    }
    void put(__global float* p, int i, float v) { p[i] = v; }
    __kernel void k(__global float* out, int n) {
      int gid = get_global_id(0);
      if (gid < n) put(out, gid, poly((float)gid) + (float)steps(gid * 7 % 150));
    }
  )";
  const auto tier1 = compileProgram(src, CompileOptions{1});
  const auto tier2 = compileProgram(src, CompileOptions{2});
  const int k = tier2->findKernel("k");
  ASSERT_GE(k, 0);
  EXPECT_FALSE(tier1->functions[static_cast<std::size_t>(k)].batchable);
  EXPECT_TRUE(tier2->functions[static_cast<std::size_t>(k)].batchable);

  constexpr std::int64_t kItems = 300;
  std::vector<float> ref(kItems, 0.0f), seq(kItems, 0.0f), bat(kItems, 0.0f);
  const auto region = [](std::vector<float>& v) {
    return std::vector<MemRegion>{
        MemRegion{reinterpret_cast<std::byte*>(v.data()), v.size() * sizeof(float)}};
  };
  Ptr ptr;
  ptr.region = 1;
  const std::vector<Slot> args{Slot::fromPtr(ptr), Slot::fromInt(kItems - 3)};
  Vm vmRef(*tier1, region(ref));
  Vm vmSeq(*tier2, region(seq));
  Vm vmBat(*tier2, region(bat));
  for (std::int64_t gid = 0; gid < kItems; ++gid) {
    vmRef.runKernel(k, args, gid, kItems);
    vmSeq.runKernel(k, args, gid, kItems);
  }
  for (std::int64_t gid = 0; gid < kItems; gid += Vm::kBatchLanes) {
    vmBat.runKernelBatch(k, args, gid, std::min<std::int64_t>(Vm::kBatchLanes, kItems - gid),
                         kItems);
  }
  EXPECT_EQ(ref, seq);
  EXPECT_EQ(ref, bat);
  EXPECT_EQ(vmSeq.instructionsExecuted(), vmRef.instructionsExecuted());
  EXPECT_EQ(vmBat.instructionsExecuted(), vmRef.instructionsExecuted());
}

// --- the register form of the hot loops ---------------------------------------

/// Lines [from, to] of `fn`'s packed listing.
std::string packedLines(const FunctionCode& fn, std::size_t from, std::size_t to) {
  const std::string text = disassemblePacked(fn);
  std::string out;
  std::size_t line = 0;
  for (std::size_t at = text.find('\n') + 1; at < text.size(); ++line) {  // after the header
    const std::size_t end = text.find('\n', at);
    if (line >= from && line <= to) out += text.substr(at, end + 1 - at);
    at = end + 1;
  }
  return out;
}

TEST(KernelcInline, HotLoopsLowerToPinnedRegisterForm) {
  // cluster_mix's 64-step map kernel as SkelCL generates it: the loop is
  // five dispatches per step, where the stack form took nine.
  const std::string mapSrc =
      "float skelcl_s0_func(float x) { float s = x;"
      " for (int i = 0; i < 64; ++i) s = s * 0.5f + 1.0f; return s; }\n"
      "__kernel void skelcl_fused(__global float* skelcl_in, __global float* skelcl_out, "
      "int skelcl_n, int skelcl_base) {\n"
      "  int skelcl_i = get_global_id(0);\n"
      "  if (skelcl_i < skelcl_n) skelcl_out[skelcl_i] = skelcl_s0_func(skelcl_in[skelcl_i]);\n"
      "}\n";
  const auto map = compileProgram(mapSrc, CompileOptions{2});
  const FunctionCode& mapFn =
      map->functions[static_cast<std::size_t>(map->findKernel("skelcl_fused"))];
  EXPECT_EQ(packedLines(mapFn, 11, 15), R"(   11  reg.jz 16 lt.i s8 64  ;w=4
   12  reg mul.f32 s7 0.5  ;w=3
   13  reg.store add.f32 stack 1 -> s7  ;w=5
   14  incslot.i s8 +1  ;w=6
   15  jmp 11
)");
  std::vector<float> in(4, 3.0f), out(4, 0.0f);
  const std::vector<MemRegion> mapRegions{
      MemRegion{reinterpret_cast<std::byte*>(in.data()), in.size() * 4},
      MemRegion{reinterpret_cast<std::byte*>(out.data()), out.size() * 4}};
  Ptr inPtr;
  inPtr.region = 1;
  Ptr outPtr;
  outPtr.region = 2;
  const std::vector<Slot> mapArgs{Slot::fromPtr(inPtr), Slot::fromPtr(outPtr), Slot::fromInt(4),
                                  Slot::fromInt(0)};
  const auto mapTier1 = compileProgram(mapSrc, CompileOptions{1});
  for (const CompiledProgram* program : {mapTier1.get(), map.get()}) {
    Vm vm(*program, mapRegions);
    vm.runKernel(program->findKernel("skelcl_fused"), mapArgs, 0, 4);
    EXPECT_EQ(vm.instructionsExecuted(), 1247u) << "tier " << program->tier;
  }

  // One Siddon step of OSEM's step 1: the back-projection march, whose
  // loop holds the atomic add.
  const auto siddon = compileProgram(skelcl::osem::rawKernelsSource(), CompileOptions{2});
  const int step1 = siddon->findKernel("osem_step1");
  const FunctionCode& osemFn = siddon->functions[static_cast<std::size_t>(step1)];
  std::size_t atomicPc = 0;
  for (std::size_t pc = 0; pc < osemFn.packed.size(); ++pc) {
    const PackedInsn& insn = osemFn.packed[pc];
    if (insn.op == Op::CallBuiltin &&
        builtinTable()[static_cast<std::size_t>(insn.a)].atomic != AtomicOp::None) {
      atomicPc = pc;
    }
  }
  std::size_t head = 0;
  std::size_t backEdge = 0;
  for (std::size_t pc = atomicPc; pc < osemFn.packed.size() && backEdge == 0; ++pc) {
    const PackedInsn& insn = osemFn.packed[pc];
    if (insn.op == Op::Jmp && static_cast<std::size_t>(insn.a) <= atomicPc) {
      head = static_cast<std::size_t>(insn.a);
      backEdge = pc;
    }
  }
  ASSERT_GT(backEdge, 0u);
  // Each `||` that breaks out of the march branches on its second
  // comparison directly and shares the pad after the back-edge (707); the
  // `&&` that picks the x step does too, with its pad (691) before the
  // else arm (short-circuit threading).  The loop-invariant `mode == 1` is
  // one reg.jz per step (670).
  EXPECT_EQ(packedLines(osemFn, head, backEdge + 1), R"(  655  load.slot2 s64 s65  ;w=2
  656  load.slot 66
  657  call.builtin 39 argc=2
  658  call.builtin 39 argc=2
  659  store.slot 72
  660  reg.jz 663 gt.f s72 s41  ;w=4
  661  load.slot 41
  662  store.slot 72  ;w=3
  663  reg sub.f32 s72 s70  ;w=3
  664  reg.store mul.f32 stack s51 -> s73  ;w=3
  665  reg.jz 681 gt.f s73 0  ;w=4
  666  reg mul.i s57 s26  ;w=3
  667  reg add.i stack s56  ;w=2
  668  reg mul.i stack s25  ;w=2
  669  reg.store add.i stack s55 -> s74  ;w=3
  670  reg.jz 676 eq.i s30 1  ;w=4
  671  reg ptradd sz=4 s24 s74  ;w=3
  672  reg div.f32 s73 s29  ;w=3
  673  call.builtin 61 argc=2
  674  drop
  675  jmp 681
  676  load.slot2 s71 s23  ;w=2
  677  load.slot 74
  678  loadelem.f32 sz=4  ;w=2
  679  reg mul.f32 stack s73  ;w=2
  680  reg.store add.f32 stack stack -> s71  ;w=4
  681  reg.jz 683 ge.f s72 s41  ;w=4
  682  jmp 708
  683  reg.jz 691 le.f s64 s65  ;w=4
  684  reg.jz 692 le.f s64 s66  ;w=6
  685  reg.store add.i s55 s58 -> s55  ;w=6
  686  reg.jnz 707 lt.i s55 0  ;w=4
  687  reg.jz 689 ge.i s55 s25  ;w=6
  688  jmp 708
  689  reg.store add.f32 s64 s61 -> s64  ;w=6
  690  jmp 704
  691  jmp 692  ;w=2
  692  reg.jz 699 le.f s65 s66  ;w=4
  693  reg.store add.i s56 s59 -> s56  ;w=6
  694  reg.jnz 707 lt.i s56 0  ;w=4
  695  reg.jz 697 ge.i s56 s26  ;w=6
  696  jmp 708
  697  reg.store add.f32 s65 s62 -> s65  ;w=6
  698  jmp 704
  699  reg.store add.i s57 s60 -> s57  ;w=6
  700  reg.jnz 707 lt.i s57 0  ;w=4
  701  reg.jz 703 ge.i s57 s27  ;w=6
  702  jmp 708
  703  reg.store add.f32 s66 s63 -> s66  ;w=6
  704  load.slot 72
  705  store.slot 70  ;w=3
  706  jmp 655
  707  jmp 708  ;w=3
)");

  skelcl::osem::OsemConfig cfg;
  cfg.volume.nx = cfg.volume.ny = cfg.volume.nz = 12;
  cfg.eventsPerSubset = 64;
  cfg.numSubsets = 1;
  const skelcl::osem::OsemData data = skelcl::osem::OsemData::generate(cfg);
  const skelcl::osem::VolumeSpec& vol = data.volume();
  std::vector<skelcl::osem::Event> events(data.events.begin(), data.events.begin() + 64);
  std::vector<float> f(static_cast<std::size_t>(vol.voxels()), 1.0f);
  const auto osemTier1 = compileProgram(skelcl::osem::rawKernelsSource(), CompileOptions{1});
  std::vector<std::vector<float>> images;
  for (const CompiledProgram* program : {osemTier1.get(), siddon.get()}) {
    std::vector<float> c(f.size(), 0.0f);
    const std::vector<MemRegion> regions{
        MemRegion{reinterpret_cast<std::byte*>(events.data()),
                  events.size() * sizeof(skelcl::osem::Event)},
        MemRegion{reinterpret_cast<std::byte*>(f.data()), f.size() * 4},
        MemRegion{reinterpret_cast<std::byte*>(c.data()), c.size() * 4}};
    std::vector<Slot> args;
    for (const std::int32_t region : {1, 0, 2, 3}) {
      Ptr p;
      p.region = region;
      args.push_back(region == 0 ? Slot::fromInt(64) : Slot::fromPtr(p));
    }
    for (const int extent : {vol.nx, vol.ny, vol.nz}) args.push_back(Slot::fromInt(extent));
    args.push_back(Slot::fromFloat(vol.voxel));
    Vm vm(*program, regions);
    for (std::int64_t gid = 0; gid < 64; ++gid) vm.runKernel(step1, args, gid, 64);
    EXPECT_EQ(vm.instructionsExecuted(), 270940u) << "tier " << program->tier;
    images.push_back(c);
  }
  EXPECT_EQ(images[0], images[1]);
}

// --- short-circuit threading ---------------------------------------------------

/// Kernel `k` on locals x and y with `body` in the middle.
std::string shortCircuitKernel(const std::string& body) {
  return "__kernel void k(__global int* a, __global int* out) {\n"
         "  int gid = get_global_id(0);\n"
         "  int x = a[gid];\n"
         "  int y = a[gid + 1];\n"
         "  int r = 0;\n" +
         body + "\n  out[gid] = r + x + y;\n}\n";
}

TEST(KernelcInline, ShortCircuitWindowsThreadWhereTheirPadHasAPlace) {
  // A window threads when the value its push.i would give sends control to
  // a pc (or through unconditional jmps to one) whose predecessor cannot
  // fall through; a threaded condition leaves no boolnorm behind.  A value
  // that is stored, or consumed by anything but jz/jnz, keeps its bool.
  struct Shape {
    const char* body;
    int boolnorms;  ///< left at tier 2; tier 1 has one per `&&`/`||`
  };
  const Shape shapes[] = {
      {"if (x < y && y < 30) r = 1; else r = 2;", 0},  // pad before the else arm
      {"if (x < y || y < 30) r = 1; else r = 2;", 1},  // 1 falls into the then arm
      {"if (x < y && y < 30) r = 1;", 1},              // 0 goes to the join, reached by falling
      {"if (x < y || y < 30) r = 1;", 1},
      {"while (x < y && y < 30) y = y + 1;", 0},        // pad after the back-edge
      {"while (y < x || y < 30) y = y + 1;", 1},
      {"do y = y + 1; while (x < y && y < 30);", 1},    // jnz: 0 falls out of the loop
      {"do y = y + 1; while (y < x || y < 30);", 1},
      {"for (;;) { if (x < y || y < 30) break; y = y + 1; }", 0},  // through the break's jmp
      {"for (;;) { if (x < y && y > 30) break; y = y + 1; }", 0},  // after the break
      // The inner pad threads through the outer one.
      {"if (x < y && y < 30 && x > 3) r = 1; else r = 2;", 0},
      // The inner `&&` feeds a boolnorm, and the `||`'s second operand is no
      // single comparison.
      {"if (x < y || y < 20 && x > 30) r = 1; else r = 2;", 2},
      {"int t = x < y && y < 30; r = t;", 1},
      {"r = !(x < y && y < 30);", 1},
  };
  for (const Shape& shape : shapes) {
    SCOPED_TRACE(shape.body);
    const std::string src = shortCircuitKernel(shape.body);
    const auto tier2 = compileProgram(src, CompileOptions{2});
    const FunctionCode& fn = tier2->functions[static_cast<std::size_t>(tier2->findKernel("k"))];
    EXPECT_EQ(std::count_if(fn.code.begin(), fn.code.end(),
                            [](const Insn& insn) { return insn.op == Op::BoolNorm; }),
              shape.boolnorms)
        << disassemblePacked(fn);
    // Retired counts per path: every item against tier 1.
    const auto tier1 = compileProgram(src, CompileOptions{1});
    std::vector<std::int32_t> in;
    for (std::int32_t i = 0; i < 65; ++i) in.push_back((i * 13) % 41);
    std::vector<std::vector<std::int32_t>> outs;
    std::vector<std::uint64_t> counts;
    for (const CompiledProgram* program : {tier1.get(), tier2.get()}) {
      std::vector<std::int32_t> out(64, 0);
      const std::vector<MemRegion> regions{
          MemRegion{reinterpret_cast<std::byte*>(in.data()), in.size() * 4},
          MemRegion{reinterpret_cast<std::byte*>(out.data()), out.size() * 4}};
      Ptr inPtr;
      inPtr.region = 1;
      Ptr outPtr;
      outPtr.region = 2;
      Vm vm(*program, regions);
      for (std::int64_t gid = 0; gid < 64; ++gid) {
        vm.runKernel(program->findKernel("k"), std::vector<Slot>{Slot::fromPtr(inPtr),
                                                                 Slot::fromPtr(outPtr)},
                     gid, 64);
      }
      outs.push_back(out);
      counts.push_back(vm.instructionsExecuted());
    }
    EXPECT_EQ(outs[0], outs[1]);
    EXPECT_EQ(counts[0], counts[1]);
  }

  // The if/else `&&`: the first comparison goes to the pad before the else
  // arm, the second is a reg.jz carrying reg, boolnorm, jmp and jz (3 + 1 +
  // 1 + 1), and the pad carries push.i and jz.
  const auto program = compileProgram(shortCircuitKernel(shapes[0].body), CompileOptions{2});
  EXPECT_EQ(packedLines(program->functions[static_cast<std::size_t>(program->findKernel("k"))],
                        11, 18),
            R"(   11  reg.jz 16 lt.i s3 s4  ;w=4
   12  reg.jz 17 lt.i s4 30  ;w=6
   13  push.i 1
   14  store.slot 5  ;w=3
   15  jmp 19
   16  jmp 17  ;w=2
   17  push.i 2
   18  store.slot 5  ;w=3
)");
}

// --- every skeleton template batches ----------------------------------------

/// Pins the default pipeline to tier 2 with batching on for one test,
/// whatever the `_noopt`/`_rewrite` ctest reruns put in the environment.
class Tier2Environment {
 public:
  Tier2Environment() : opt_(get("SKELCL_KC_OPT")), batch_(get("SKELCL_KC_BATCH")) {
    setenv("SKELCL_KC_OPT", "2", 1);
    unsetenv("SKELCL_KC_BATCH");
  }
  ~Tier2Environment() {
    restore("SKELCL_KC_OPT", opt_);
    restore("SKELCL_KC_BATCH", batch_);
  }
  Tier2Environment(const Tier2Environment&) = delete;
  Tier2Environment& operator=(const Tier2Environment&) = delete;

 private:
  static std::optional<std::string> get(const char* name) {
    const char* v = std::getenv(name);
    return v != nullptr ? std::optional<std::string>(v) : std::nullopt;
  }
  static void restore(const char* name, const std::optional<std::string>& v) {
    if (v) {
      setenv(name, v->c_str(), 1);
    } else {
      unsetenv(name);
    }
  }
  std::optional<std::string> opt_;
  std::optional<std::string> batch_;
};

/// kernel name -> {launches, launches on the batched interpreter}
std::map<std::string, std::pair<int, int>> g_launches;

void recordLaunch(const skelcl::ocl::CommandInfo& info, const skelcl::ocl::Event&) {
  if (info.kind != skelcl::ocl::CommandInfo::Kind::Kernel) return;
  auto& [launches, batched] = g_launches[info.kernelName];
  ++launches;
  if (info.batched) ++batched;
}

TEST(KernelcInline, EverySkeletonTemplateRunsBatched) {
  using namespace skelcl;
  const Tier2Environment env;
  init(sim::SystemConfig::teslaS1070(2));
  g_launches.clear();
  ocl::setCommandHook(&recordLaunch);

  const char* const kUnary = "float func(float x) { return x + 1.0f; }";
  const char* const kBinary = "float func(float a, float b) { return a + b; }";
  std::vector<float> host(600);
  for (std::size_t i = 0; i < host.size(); ++i) host[i] = static_cast<float>(i % 9);
  const auto prefix = [&](std::size_t n) {
    return std::vector<float>(host.begin(), host.begin() + static_cast<std::ptrdiff_t>(n));
  };
  Vector<float> v(host);
  Vector<float> w(host);

  Map<float(float)> map(kUnary);
  Zip<float(float, float)> zip(kBinary);
  Map<int(Index)> index("int func(int i) { return 2 * i; }");
  Reduce<float> reduce(kBinary);
  Scan<float> scan(kBinary);
  Pipeline<float> chain;
  chain.map(kUnary).zip(w, kBinary);
  MapOverlap<float(float)> stencil1(
      "float func(__global float* in, int i) { return in[i - 1] + in[i + 1]; }", 1,
      Padding::Neutral, 0.0f);
  MapOverlap<float(float)> stencil2(
      "float func(__global float* m, int i, int s) { return m[i - s] + m[i + s]; }", 1,
      Padding::Clamp);
  MapPairs<float(float, float)> pairs(kBinary);

  (void)map(v).toStdVector();
  (void)zip(v, w).toStdVector();
  (void)index(IndexVector(600)).toStdVector();
  (void)reduce(v);
  (void)scan(v).toStdVector();
  (void)chain(v).toStdVector();
  (void)chain.reduce(kBinary, v);
  (void)stencil1(v).toStdVector();
  (void)stencil2(Matrix<float>(20, 30, host)).toStdVector();
  (void)pairs(Vector<float>(prefix(12)), Vector<float>(prefix(7))).toStdVector();

  // OSEM's step 1 (Listing 3): a struct element copied whole and read by
  // field, two marches inlined, and the scatter's atomics deferred.
  osem::registerOsemKernelTypes();
  osem::OsemConfig cfg;
  cfg.volume.nx = cfg.volume.ny = cfg.volume.nz = 8;
  cfg.eventsPerSubset = 300;
  cfg.numSubsets = 1;
  const osem::OsemData data = osem::OsemData::generate(cfg);
  const osem::VolumeSpec& vol = data.volume();
  Map<int(Index)> step1(osem::step1UserFunctionSource());
  Vector<osem::Event> events(data.events);
  IndexVector indices(data.subsetSize());
  events.setDistribution(Distribution::block());
  indices.setDistribution(Distribution::block());
  Vector<float> image(vol.voxels());
  std::fill(image.begin(), image.end(), 1.0f);
  image.setDistribution(Distribution::copy());
  Vector<float> error(vol.voxels());
  error.setDistribution(Distribution::copy(kBinary));
  (void)step1(indices, events, events.offsets(), events.sizes(), image, error, vol.nx, vol.ny,
              vol.nz, vol.voxel)
      .toStdVector();

  ocl::setCommandHook(nullptr);
  terminate();

  for (const char* name :
       {"skelcl_fused", "skelcl_reduce", "skelcl_scan_chunks", "skelcl_scan_add",
        "skelcl_fused_reduce", "skelcl_overlap", "skelcl_mo_pack", "skelcl_overlap2",
        "skelcl_pairs"}) {
    const auto it = g_launches.find(name);
    ASSERT_NE(it, g_launches.end()) << name << " never launched";
    EXPECT_EQ(it->second.second, it->second.first) << name << " ran per item";
  }
}

}  // namespace
