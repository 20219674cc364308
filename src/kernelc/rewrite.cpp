#include "kernelc/rewrite.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <vector>

#include "base/error.hpp"
#include "kernelc/encode.hpp"

namespace skelcl::kc {

namespace {

bool fitsI32(std::int64_t v) {
  return v >= std::numeric_limits<std::int32_t>::min() &&
         v <= std::numeric_limits<std::int32_t>::max();
}

Insn make(Op op, std::int32_t a, std::int32_t b, std::int64_t imm, std::uint8_t weight) {
  Insn insn;
  insn.op = op;
  insn.a = a;
  insn.b = b;
  insn.imm = imm;
  insn.weight = weight;
  return insn;
}

// ---------------------------------------------------------------------------
// Edit engine: struct scalar replacement and call inlining express their
// changes as edits, each replacing a window of the original instruction
// stream, applied in one rebuild that remaps branch targets.  A branch to a
// window's first instruction lands on its replacement.
// ---------------------------------------------------------------------------

struct Edit {
  std::size_t pos;         ///< original index of the window's first instruction
  std::size_t remove = 0;  ///< original instructions the window spans
  std::vector<Insn> add;   ///< its replacement; branches in it target indices in it
};

void applyEdits(FunctionCode& fn, std::vector<Edit> edits) {
  const std::vector<Insn>& code = fn.code;
  const std::size_t n = code.size();
  std::sort(edits.begin(), edits.end(),
            [](const Edit& x, const Edit& y) { return x.pos < y.pos; });

  // New index of every original position; -1 marks the interior of a
  // replaced window, which must never be a branch target.
  std::vector<std::int64_t> moved(n + 1, -1);
  std::size_t size = 0;
  for (std::size_t i = 0, e = 0; i < n;) {
    moved[i] = static_cast<std::int64_t>(size);
    if (e < edits.size() && edits[e].pos == i) {
      size += edits[e].add.size();
      i += edits[e].remove;
      ++e;
    } else {
      size += 1;
      i += 1;
    }
  }
  moved[n] = static_cast<std::int64_t>(size);

  std::vector<Insn> out;
  out.reserve(size);
  for (std::size_t i = 0, e = 0; i < n;) {
    if (e < edits.size() && edits[e].pos == i) {
      const Edit& edit = edits[e++];
      const auto at = static_cast<std::int32_t>(out.size());
      for (Insn insn : edit.add) {
        if (isBranch(insn.op)) insn.a += at;
        out.push_back(insn);
      }
      i += edit.remove;
      continue;
    }
    Insn insn = code[i++];
    if (isBranch(insn.op)) {
      const std::int64_t target = moved[static_cast<std::size_t>(insn.a)];
      SKELCL_CHECK(target >= 0, "rewrite: branch target landed inside a replaced window");
      insn.a = static_cast<std::int32_t>(target);
    }
    out.push_back(insn);
  }
  fn.code = std::move(out);
}

// ---------------------------------------------------------------------------
// R0: struct scalar replacement.  A struct local that is only ever copied in
// whole and read field by field,
//     LeaFrame o; <src>; MemCopy sz               (Event e = events[i];)
//     LeaFrame o; [PushI k; PtrAdd 1;] Load<T>     (e.x1, e.y1, ...)
// moves from frame memory to one slot per field read.  The copy becomes
//     <src>; StoreSlotChecked base, sz; per field: LoadSlot base;
//     [PushI k; PtrAdd 1;] Load<T>; StoreSlot field
// where <src> keeps its instructions (the first one also carries LeaFrame's
// weight), StoreSlotChecked carries MemCopy's and faults exactly where the
// copy would (same work-item, same message), and the field loads retire 0.
// Each read becomes LoadSlot field with its window's summed weight.  Slots
// start zeroed like frame memory, so a read before the first copy still
// sees 0.  A function left without frame accesses drops its frame, which
// makes it inlinable (and its kernel batchable).
// ---------------------------------------------------------------------------

/// Bytes a typed load reads; 0 for any other opcode.
std::uint32_t loadBytes(Op op) {
  switch (op) {
    case Op::LoadI32: case Op::LoadU32: case Op::LoadF32: return 4;
    case Op::LoadF64: case Op::LoadI64: return 8;
    default: return 0;
  }
}

/// If the LeaFrame at `p` is the destination of a whole copy — a
/// straight-line, branch-target-free window computing the source pointer
/// and then MemCopy — set `q` to the MemCopy.  The window may not address
/// frame memory itself.
bool copyDestination(const std::vector<Insn>& code, const std::vector<bool>& target,
                     std::size_t p, std::size_t& q) {
  int depth = 0;  // values above the LeaFrame's pointer
  for (std::size_t j = p + 1; j < code.size(); ++j) {
    if (target[j] || code[j].op == Op::LeaFrame) return false;
    if (code[j].op == Op::MemCopy) {
      q = j;
      return depth == 1;
    }
    if (!(opInfo(code[j].op).flags & (kPure | kStraight))) return false;
    const StackEffect e = stackEffect(code[j], {});  // calls no function
    if (e.pops > depth) return false;
    depth += e.pushes - e.pops;
  }
  return false;
}

bool scalarReplaceStructs(FunctionCode& fn) {
  if (fn.frameBytes == 0) return false;
  const std::vector<Insn>& code = fn.code;
  const std::size_t n = code.size();
  const std::vector<bool> target = branchTargets(code);

  struct Window {
    std::size_t pos;  ///< the LeaFrame
    std::size_t end;  ///< one past the window
  };
  struct Object {
    std::vector<Window> copies;
    std::vector<Window> reads;
    std::map<std::int64_t, Op> fields;  ///< byte offset -> load
    std::uint32_t bytes = 0;
    bool ok = true;
  };
  std::map<std::int32_t, Object> objects;  // by frame offset
  for (std::size_t p = 0; p < n; ++p) {
    if (code[p].op != Op::LeaFrame) continue;
    Object& obj = objects[code[p].a];
    std::int64_t field = -1;
    std::size_t len = 0;
    if (p + 1 < n && loadBytes(code[p + 1].op) != 0 && !target[p + 1]) {
      field = 0;
      len = 2;
    } else if (p + 3 < n && code[p + 1].op == Op::PushI && code[p + 2].op == Op::PtrAdd &&
               code[p + 2].a == 1 && loadBytes(code[p + 3].op) != 0 && !target[p + 1] &&
               !target[p + 2] && !target[p + 3] && code[p + 1].imm >= 0 &&
               fitsI32(code[p + 1].imm)) {
      field = code[p + 1].imm;
      len = 4;
    }
    if (field >= 0) {
      const Op load = code[p + len - 1].op;
      const auto [it, fresh] = obj.fields.emplace(field, load);
      int w = 0;
      for (std::size_t j = p; j < p + len; ++j) w += code[j].weight;
      if ((!fresh && it->second != load) || w > 255) obj.ok = false;
      obj.reads.push_back({p, p + len});
      continue;
    }
    std::size_t q = 0;
    if (copyDestination(code, target, p, q) &&
        (obj.bytes == 0 || obj.bytes == static_cast<std::uint32_t>(code[q].a)) &&
        code[p].weight + code[p + 1].weight <= 255) {
      obj.bytes = static_cast<std::uint32_t>(code[q].a);
      obj.copies.push_back({p, q + 1});
      continue;
    }
    obj.ok = false;  // the address escapes: keep the object in memory
  }

  // Fields must lie inside the copied bytes without overlapping, and no
  // other frame object may start inside this one.
  for (auto& [offset, obj] : objects) {
    if (obj.copies.empty()) obj.ok = false;
    std::int64_t covered = 0;
    for (const auto& [field, load] : obj.fields) {
      if (field < covered) obj.ok = false;
      covered = field + loadBytes(load);
    }
    if (covered > obj.bytes) obj.ok = false;
    for (const auto& [other, unused] : objects) {
      if (other > offset && other < offset + static_cast<std::int64_t>(obj.bytes)) {
        obj.ok = false;
      }
    }
  }

  std::vector<Edit> edits;
  for (auto& [offset, obj] : objects) {
    if (!obj.ok) continue;
    const std::int32_t base = fn.numSlots++;
    std::map<std::int64_t, std::int32_t> slotOf;
    for (const auto& [field, load] : obj.fields) slotOf[field] = fn.numSlots++;
    for (const Window& c : obj.copies) {
      Edit rep;
      rep.pos = c.pos;
      rep.remove = c.end - c.pos;
      rep.add.assign(code.begin() + static_cast<std::ptrdiff_t>(c.pos + 1),
                     code.begin() + static_cast<std::ptrdiff_t>(c.end - 1));
      rep.add.front().weight = static_cast<std::uint8_t>(rep.add.front().weight +
                                                         code[c.pos].weight);
      rep.add.push_back(make(Op::StoreSlotChecked, base, static_cast<std::int32_t>(obj.bytes),
                             0, code[c.end - 1].weight));
      for (const auto& [field, load] : obj.fields) {
        rep.add.push_back(make(Op::LoadSlot, base, 0, 0, 0));
        if (field != 0) {
          rep.add.push_back(make(Op::PushI, 0, 0, field, 0));
          rep.add.push_back(make(Op::PtrAdd, 1, 0, 0, 0));
        }
        rep.add.push_back(make(load, 0, 0, 0, 0));
        rep.add.push_back(make(Op::StoreSlot, slotOf[field], 0, 0, 0));
      }
      edits.push_back(std::move(rep));
    }
    for (const Window& r : obj.reads) {
      int w = 0;
      for (std::size_t j = r.pos; j < r.end; ++j) w += code[j].weight;
      const std::int64_t field = r.end - r.pos == 2 ? 0 : code[r.pos + 1].imm;
      Edit rep;
      rep.pos = r.pos;
      rep.remove = r.end - r.pos;
      rep.add.push_back(make(Op::LoadSlot, slotOf[field], 0, 0, static_cast<std::uint8_t>(w)));
      edits.push_back(std::move(rep));
    }
  }
  if (edits.empty()) return false;
  applyEdits(fn, std::move(edits));
  if (std::none_of(fn.code.begin(), fn.code.end(), [](const Insn& insn) {
        return insn.op == Op::LeaFrame || insn.op == Op::MemCopy;
      })) {
    fn.frameBytes = 0;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Call inlining.  A CallFn whose callee qualifies (inlinable) becomes the
// callee's body, moved to caller slots past the caller's own:
//     StoreSlot a(n-1) ... StoreSlot a0   bind the arguments (the last one
//                                         is on top of the stack)
//     PushI 0; StoreSlot s                zero each local some path reads
//                                         before writing: the VM zeroes a
//                                         frame's locals on every call
//     <callee body>                       each Ret/RetVoid a Jmp past the block
// The block's first instruction carries the CallFn's weight (a Jmp to the
// body when there is nothing to bind or zero), each Jmp its Ret's, and the
// binding and zeroing code retires 0, so every path, faults included,
// retires exactly what the call did.
//
// Blocks never run interleaved (callee bodies contain no calls) and each
// one re-binds or re-zeroes every slot it reads before writing, so all call
// sites inlined into one caller in one sweep share a single slot region.
// ---------------------------------------------------------------------------

/// Caps a caller's inlined size: a chain of helpers each calling the next
/// several times grows exponentially.  Call sites past the cap stay calls.
constexpr std::size_t kMaxInlinedCode = std::size_t{1} << 16;

/// Move every slot operand of `insn` up by `base` (stack-form IR: the
/// register form is lowered after inlining).
void shiftSlots(Insn& insn, std::int32_t base) {
  const SlotUse use = slotUse(insn);
  if (use.reads == 2) insn.b += base;
  if (use.reads >= 1 || use.write >= 0) insn.a += base;
}

/// Locals of `fn` that some path from entry may read before writing them
/// (forward must-assigned dataflow; the parameters start assigned).
std::vector<std::int32_t> localsReadBeforeWritten(const FunctionCode& fn) {
  const std::vector<Insn>& code = fn.code;
  const std::size_t n = code.size();
  const auto slots = static_cast<std::size_t>(fn.numSlots);
  std::vector<std::vector<bool>> assigned(n);  // before each pc, once reached
  std::vector<bool> reached(n, false);
  std::vector<std::size_t> work;
  const auto flow = [&](std::size_t pc, const std::vector<bool>& state) {
    if (pc >= n) return;
    if (!reached[pc]) {
      reached[pc] = true;
      assigned[pc] = state;
      work.push_back(pc);
      return;
    }
    bool shrank = false;
    for (std::size_t s = 0; s < slots; ++s) {
      if (assigned[pc][s] && !state[s]) {
        assigned[pc][s] = false;
        shrank = true;
      }
    }
    if (shrank) work.push_back(pc);
  };
  std::vector<bool> entry(slots, false);
  for (std::size_t p = 0; p < fn.paramTypes.size() && p < slots; ++p) entry[p] = true;
  flow(0, entry);
  while (!work.empty()) {
    const std::size_t pc = work.back();
    work.pop_back();
    std::vector<bool> after = assigned[pc];
    const int w = slotUse(code[pc]).write;
    if (w >= 0) after[static_cast<std::size_t>(w)] = true;
    forEachSuccessor(code, pc, [&](std::size_t next) { flow(next, after); });
  }

  std::vector<bool> zero(slots, false);
  for (std::size_t pc = 0; pc < n; ++pc) {
    if (!reached[pc]) continue;
    const SlotUse use = slotUse(code[pc]);
    for (int r = 0; r < use.reads; ++r) {
      const auto s = static_cast<std::size_t>(use.read[r]);
      if (!assigned[pc][s]) zero[s] = true;
    }
  }
  std::vector<std::int32_t> out;
  for (std::size_t s = 0; s < slots; ++s) {
    if (zero[s]) out.push_back(static_cast<std::int32_t>(s));
  }
  return out;
}

/// A callee may be inlined when it is not a kernel, owns no frame memory,
/// and makes no calls — so a recursive function never inlines, and a helper
/// qualifies once its own callees are inlined — and when each return leaves
/// exactly its value on the operand stack (or nothing, for RetVoid), which
/// the Jmp replacing it must hand over as the call would have.
bool inlinable(const FunctionCode& callee, const std::vector<FunctionCode>& fns) {
  if (callee.isKernel || callee.frameBytes != 0 || callee.code.empty()) return false;
  for (const Insn& insn : callee.code) {
    if (insn.op == Op::CallFn || insn.op == Op::LeaFrame || insn.op == Op::MemCopy) {
      return false;
    }
  }
  const std::vector<int> height = stackHeights(callee, fns);
  for (std::size_t pc = 0; pc < callee.code.size(); ++pc) {
    if (height[pc] < 0) continue;  // unreachable: its Jmp never runs
    const OpInfo& info = opInfo(callee.code[pc].op);
    if ((info.flags & kReturns) && height[pc] != info.pops) return false;
  }
  return true;
}

/// The block replacing `call`, with block-relative branch targets.
std::vector<Insn> inlineBlock(const Insn& call, const FunctionCode& callee,
                              const std::vector<std::int32_t>& zeroed, std::int32_t base) {
  std::vector<Insn> block;
  for (auto p = static_cast<std::int32_t>(callee.paramTypes.size()) - 1; p >= 0; --p) {
    block.push_back(make(Op::StoreSlot, base + p, 0, 0, 0));
  }
  for (const std::int32_t s : zeroed) {
    block.push_back(make(Op::PushI, 0, 0, 0, 0));
    block.push_back(make(Op::StoreSlot, base + s, 0, 0, 0));
  }
  if (block.empty()) block.push_back(make(Op::Jmp, 1, 0, 0, 0));
  block.front().weight = call.weight;

  const auto body = static_cast<std::int32_t>(block.size());
  const auto end = body + static_cast<std::int32_t>(callee.code.size());
  for (Insn insn : callee.code) {
    if (opInfo(insn.op).flags & kReturns) {
      insn = make(Op::Jmp, end, 0, 0, insn.weight);
    } else {
      if (isBranch(insn.op)) insn.a += body;
      shiftSlots(insn, base);
    }
    block.push_back(insn);
  }
  return block;
}

}  // namespace

int inlineCalls(std::vector<FunctionCode>& fns) {
  int inlined = 0;
  // Inlining a call-free body adds no calls, so every sweep that inlines
  // anything removes calls for good: sweep until no call site qualifies.
  for (;;) {
    std::vector<bool> ok(fns.size(), false);
    std::vector<std::vector<std::int32_t>> zeroed(fns.size());
    for (std::size_t f = 0; f < fns.size(); ++f) {
      ok[f] = inlinable(fns[f], fns);
      if (ok[f]) zeroed[f] = localsReadBeforeWritten(fns[f]);
    }
    int sweep = 0;
    for (FunctionCode& fn : fns) {
      // Qualifying callees contain no calls, so `fn` is never one of them.
      const std::int32_t base = fn.numSlots;
      std::int32_t region = 0;
      std::size_t size = fn.code.size();
      std::vector<Edit> edits;
      for (std::size_t m = 0; m < fn.code.size(); ++m) {
        const Insn& call = fn.code[m];
        if (call.op != Op::CallFn || !ok[static_cast<std::size_t>(call.a)]) continue;
        const FunctionCode& callee = fns[static_cast<std::size_t>(call.a)];
        Edit edit;
        edit.pos = m;
        edit.remove = 1;
        edit.add = inlineBlock(call, callee, zeroed[static_cast<std::size_t>(call.a)], base);
        if (size + edit.add.size() > kMaxInlinedCode) continue;
        size += edit.add.size() - 1;
        region = std::max(region, callee.numSlots);
        edits.push_back(std::move(edit));
      }
      if (edits.empty()) continue;
      sweep += static_cast<int>(edits.size());
      fn.numSlots = base + region;
      applyEdits(fn, std::move(edits));
    }
    if (sweep == 0) return inlined;
    inlined += sweep;
  }
}

int rewriteOptimize(FunctionCode& fn) {
  // Sweep until the rule stops applying: an object kept in memory because
  // another started inside it qualifies once that one is replaced.  Every
  // sweep removes a copy's LeaFrame and adds none, so this ends.
  int applied = 0;
  while (scalarReplaceStructs(fn)) ++applied;
  return applied;
}

}  // namespace skelcl::kc
