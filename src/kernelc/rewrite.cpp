#include "kernelc/rewrite.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <vector>

#include "base/error.hpp"
#include "kernelc/builtins.hpp"
#include "kernelc/encode.hpp"

namespace skelcl::kc {

namespace {

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

std::int32_t t32(std::int64_t v) { return static_cast<std::int32_t>(v); }

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

/// Pure, never-faulting operations the hoister may duplicate into a
/// preheader: the kPure opcodes (no integer division, which faults, and no
/// memory access; PtrAdd is one, as pointer arithmetic wraps and faults
/// happen at the access), and builtins without observable side effects or
/// pointer parameters.
bool pureOp(const Insn& insn) {
  if (insn.op != Op::CallBuiltin) return opInfo(insn.op).flags & kPure;
  const auto& table = builtinTable();
  if (insn.a < 0 || static_cast<std::size_t>(insn.a) >= table.size()) return false;
  const BuiltinDef& def = table[static_cast<std::size_t>(insn.a)];
  if (std::strcmp(def.name, "barrier") == 0 || def.atomic != AtomicOp::None) return false;
  return std::none_of(def.params.begin(), def.params.end(), [](BType p) {
    return p == BType::PtrInt || p == BType::PtrUint || p == BType::PtrFloat ||
           p == BType::PtrDouble;
  });
}

/// A natural loop, identified by a backward branch: body is [head, back].
struct Loop {
  std::size_t head;
  std::size_t back;
};

/// Innermost well-formed natural loops.  A loop qualifies when no other
/// backward branch nests inside it and no branch from outside its body
/// targets the body's interior (so the rewrite may treat [head, back] as a
/// single-entry region with `head` the only way in).
std::vector<Loop> innermostLoops(const std::vector<Insn>& code) {
  std::vector<Loop> all;
  for (std::size_t i = 0; i < code.size(); ++i) {
    if (isBranch(code[i].op) && static_cast<std::size_t>(code[i].a) <= i) {
      all.push_back({static_cast<std::size_t>(code[i].a), i});
    }
  }
  std::vector<Loop> out;
  for (const Loop& loop : all) {
    bool innermost = true;
    for (const Loop& other : all) {
      if (other.head == loop.head && other.back == loop.back) continue;
      if (other.head >= loop.head && other.back <= loop.back) {
        innermost = false;
        break;
      }
    }
    if (!innermost) continue;
    bool wellFormed = true;
    for (std::size_t i = 0; i < code.size() && wellFormed; ++i) {
      if (!isBranch(code[i].op)) continue;
      const auto t = static_cast<std::size_t>(code[i].a);
      if (t > loop.head && t <= loop.back && (i < loop.head || i > loop.back)) {
        wellFormed = false;
      }
    }
    if (wellFormed) out.push_back(loop);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Edit engine: every rule is expressed as insert/replace edits against the
// original instruction stream, applied in one rebuild with branch-target
// remapping.  Branches to a Preheader edit's position are origin-dependent:
// jumps from inside [loopLo, loopHi] skip the inserted block (the hoisted
// values are still valid), everything else — including fall-through — runs
// it, so re-entering the loop recomputes hoisted state.
// ---------------------------------------------------------------------------

struct Edit {
  enum Kind { Preheader = 0, Append = 1, Replace = 2 };
  std::size_t pos;           ///< original index the edit anchors at
  Kind kind;
  std::size_t remove = 0;    ///< original instructions consumed (Replace only)
  std::vector<Insn> add;
  bool relocate = false;     ///< branches in `add` target indices within `add`
};

void applyEdits(FunctionCode& fn, std::vector<Edit> edits, std::size_t preheaderPos,
                std::size_t loopLo, std::size_t loopHi) {
  const std::vector<Insn>& code = fn.code;
  const std::size_t n = code.size();
  std::sort(edits.begin(), edits.end(), [](const Edit& x, const Edit& y) {
    return x.pos != y.pos ? x.pos < y.pos : x.kind < y.kind;
  });

  // Pass 1: new index of every original position.  `before` is where an
  // arbitrary branch to the position lands; `after` is where in-loop
  // branches land when the position hosts a Preheader edit.  -1 marks the
  // interior of a replaced window (must never be a branch target).
  std::vector<std::int64_t> before(n + 1, -1);
  std::vector<std::int64_t> after(n + 1, -1);
  {
    std::size_t cur = 0;
    std::size_t e = 0;
    std::size_t i = 0;
    while (i <= n) {
      std::size_t outside = cur;
      std::size_t inside = kNpos;
      bool replaced = false;
      std::size_t removed = 0;
      while (e < edits.size() && edits[e].pos == i) {
        const Edit& ed = edits[e];
        if (ed.kind == Edit::Preheader) {
          cur += ed.add.size();
          inside = cur;
        } else if (ed.kind == Edit::Append) {
          cur += ed.add.size();
          outside = cur;  // all branches (and nobody else) skip the block
          if (inside != kNpos) inside = cur;
        } else {
          replaced = true;
          removed = ed.remove;
          cur += ed.add.size();
        }
        ++e;
      }
      before[i] = static_cast<std::int64_t>(outside);
      after[i] = static_cast<std::int64_t>(inside == kNpos ? outside : inside);
      if (i == n) break;
      if (replaced) {
        i += removed;  // interior positions keep -1
      } else {
        cur += 1;
        i += 1;
      }
    }
  }

  // Pass 2: remap branch targets on a scratch copy (the branch's *original*
  // index decides the in-loop test for preheader targets).
  std::vector<Insn> src = code;
  for (std::size_t i = 0; i < n; ++i) {
    Insn& insn = src[i];
    if (!isBranch(insn.op)) continue;
    const auto t = static_cast<std::size_t>(insn.a);
    const bool fromLoop = i >= loopLo && i <= loopHi;
    const std::int64_t mapped =
        (t == preheaderPos && fromLoop) ? after[t] : before[t];
    SKELCL_CHECK(mapped >= 0, "rewrite: branch target landed inside a replaced window");
    insn.a = static_cast<std::int32_t>(mapped);
  }

  // Pass 3: emit.
  std::vector<Insn> out;
  out.reserve(n + 8);
  std::size_t e = 0;
  std::size_t i = 0;
  while (i <= n) {
    bool replaced = false;
    std::size_t removed = 0;
    while (e < edits.size() && edits[e].pos == i) {
      const auto at = static_cast<std::int32_t>(out.size());
      for (Insn add : edits[e].add) {
        if (edits[e].relocate && isBranch(add.op)) add.a += at;
        out.push_back(add);
      }
      if (edits[e].kind == Edit::Replace) {
        replaced = true;
        removed = edits[e].remove;
      }
      ++e;
    }
    if (i == n) break;
    if (replaced) {
      i += removed;
    } else {
      out.push_back(src[i]);
      i += 1;
    }
  }
  fn.code = std::move(out);
}

// ---------------------------------------------------------------------------
// R3: pointer-bias fusion.  p[i +/- k] compiles to
//     LoadSlot p; LoadSlot i; PushI k; AddI|SubI; PtrAdd sz; Load<T>
// Precompute p' = p +/- k*sz once at function entry (PtrAddImm wraps mod
// 2^32 and never faults, so this is exact and safe even when p' is
// transiently out of bounds) and rewrite the window to
//     LoadSlot p'; LoadSlot i; PtrAdd sz; Load<T>
// which the peephole pass fuses into a single LoadSlotElem.  LoadSlot p'
// carries the three removed instructions' weight.
// ---------------------------------------------------------------------------

bool isTypedLoad(Op op) {
  return op == Op::LoadI32 || op == Op::LoadU32 || op == Op::LoadF32 ||
         op == Op::LoadF64 || op == Op::LoadI64;
}

bool fusePointerBias(FunctionCode& fn) {
  const std::vector<Insn>& code = fn.code;
  const std::size_t n = code.size();
  if (n < 6) return false;
  const std::vector<bool> target = branchTargets(code);

  std::vector<bool> written(static_cast<std::size_t>(fn.numSlots), false);
  for (const Insn& insn : code) {
    const int s = slotUse(insn).write;
    if (s >= 0) written[static_cast<std::size_t>(s)] = true;
  }

  for (std::size_t m = 0; m + 6 <= n; ++m) {
    if (code[m].op != Op::LoadSlot || code[m + 1].op != Op::LoadSlot ||
        code[m + 2].op != Op::PushI ||
        (code[m + 3].op != Op::AddI && code[m + 3].op != Op::SubI) ||
        code[m + 4].op != Op::PtrAdd || !isTypedLoad(code[m + 5].op)) {
      continue;
    }
    const std::int32_t p = code[m].a;
    if (written[static_cast<std::size_t>(p)]) continue;
    const std::int64_t k = code[m + 2].imm;
    const std::int64_t bias = code[m + 3].op == Op::AddI ? k : -k;
    if (!fitsI32(k) || !fitsI32(bias)) continue;
    bool clear = true;
    int wsum = 0;
    for (std::size_t j = m; j < m + 6; ++j) {
      if (j > m && target[j]) clear = false;
      wsum += code[j].weight;
    }
    // Replacement weights: LoadSlot p' absorbs LoadSlot p + PushI + AddI.
    const int carried = code[m].weight + code[m + 2].weight + code[m + 3].weight;
    if (!clear || wsum > 255 || carried > 255) continue;

    const std::int32_t pBiased = fn.numSlots++;
    Edit entry;
    entry.pos = 0;
    entry.kind = Edit::Preheader;  // loopLo/hi = npos: every branch to 0 reruns
    entry.add.push_back(make(Op::LoadSlot, p, 0, 0, 0));
    entry.add.push_back(make(Op::PtrAddImm, code[m + 4].a, 0, bias, 0));
    entry.add.push_back(make(Op::StoreSlot, pBiased, 0, 0, 0));

    Edit rep;
    rep.pos = m;
    rep.kind = Edit::Replace;
    rep.remove = 6;
    rep.add.push_back(make(Op::LoadSlot, pBiased, 0, 0,
                           static_cast<std::uint8_t>(carried)));
    rep.add.push_back(code[m + 1]);  // LoadSlot i (weight preserved)
    rep.add.push_back(code[m + 4]);  // PtrAdd sz
    rep.add.push_back(code[m + 5]);  // Load<T>

    applyEdits(fn, {entry, rep}, 0, kNpos, kNpos);
    return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// R2: strength reduction.  Inside an innermost loop whose slot i has exactly
// one write — a canonical increment i += d — every multiply window
//     LoadSlot i; PushI C; MulI     (or PushI C; LoadSlot i; MulI)
// becomes LoadSlot j of a fresh slot j that tracks t32(i*C): initialized in
// the preheader by the same three operations (weight 0) and bumped by
// IncSlotI j, t32(d*C) right after the increment (weight 0).  Exact because
// (i+d)*C == i*C + d*C mod 2^32.  The LoadSlot j replacement carries the
// window's summed weight.
// ---------------------------------------------------------------------------

struct IncWindow {
  std::size_t begin = kNpos;
  std::size_t end = kNpos;  ///< one past the window
  std::int64_t delta = 0;
};

/// Match the canonical increment statement writing `slot` at position q
/// (the naive post-inc/pre-inc/bare-assign shapes the peephole pass also
/// recognizes, plus an IncSlotI from an earlier rewrite iteration).
bool matchIncrement(const std::vector<Insn>& code, std::size_t q, std::int32_t slot,
                    IncWindow& out) {
  const auto at = [&](std::size_t i) { return code[i]; };
  if (code[q].op == Op::IncSlotI) {
    out = {q, q + 1, code[q].imm};
    return true;
  }
  if (code[q].op != Op::StoreSlot) return false;
  // post-inc: LoadSlot s; Dup; PushI d; AddI; StoreSlot s; Drop
  if (q >= 4 && q + 2 <= code.size() && at(q - 4).op == Op::LoadSlot &&
      at(q - 4).a == slot && at(q - 3).op == Op::Dup && at(q - 2).op == Op::PushI &&
      at(q - 1).op == Op::AddI && at(q + 1).op == Op::Drop) {
    out = {q - 4, q + 2, at(q - 2).imm};
    return true;
  }
  // pre-inc: LoadSlot s; PushI d; AddI; Dup; StoreSlot s; Drop
  if (q >= 4 && q + 2 <= code.size() && at(q - 4).op == Op::LoadSlot &&
      at(q - 4).a == slot && at(q - 3).op == Op::PushI && at(q - 2).op == Op::AddI &&
      at(q - 1).op == Op::Dup && at(q + 1).op == Op::Drop) {
    out = {q - 4, q + 2, at(q - 3).imm};
    return true;
  }
  // bare: LoadSlot s; PushI d; AddI; StoreSlot s
  if (q >= 3 && at(q - 3).op == Op::LoadSlot && at(q - 3).a == slot &&
      at(q - 2).op == Op::PushI && at(q - 1).op == Op::AddI) {
    out = {q - 3, q + 1, at(q - 2).imm};
    return true;
  }
  return false;
}

bool strengthReduce(FunctionCode& fn) {
  const std::vector<Insn>& code = fn.code;
  const std::size_t n = code.size();
  const std::vector<bool> target = branchTargets(code);

  for (const Loop& loop : innermostLoops(code)) {
    // Writes per slot inside the body.
    std::vector<int> writes(static_cast<std::size_t>(fn.numSlots), 0);
    std::vector<std::size_t> writePos(static_cast<std::size_t>(fn.numSlots), kNpos);
    for (std::size_t i = loop.head; i <= loop.back; ++i) {
      const int s = slotUse(code[i]).write;
      if (s >= 0) {
        writes[static_cast<std::size_t>(s)] += 1;
        writePos[static_cast<std::size_t>(s)] = i;
      }
    }

    for (std::size_t m = loop.head; m + 3 <= loop.back + 1; ++m) {
      std::int32_t indSlot = -1;
      std::int64_t factor = 0;
      if (code[m].op == Op::LoadSlot && code[m + 1].op == Op::PushI &&
          code[m + 2].op == Op::MulI) {
        indSlot = code[m].a;
        factor = code[m + 1].imm;
      } else if (code[m].op == Op::PushI && code[m + 1].op == Op::LoadSlot &&
                 code[m + 2].op == Op::MulI) {
        indSlot = code[m + 1].a;
        factor = code[m].imm;
      } else {
        continue;
      }
      if (writes[static_cast<std::size_t>(indSlot)] != 1 || !fitsI32(factor)) continue;
      IncWindow inc;
      if (!matchIncrement(code, writePos[static_cast<std::size_t>(indSlot)], indSlot, inc)) {
        continue;
      }
      if (inc.begin < loop.head || inc.end > loop.back + 1 || !fitsI32(inc.delta)) continue;
      bool ok = true;
      for (std::size_t j = inc.begin + 1; j < inc.end; ++j) {
        if (target[j]) ok = false;  // jumps into the middle of the increment
      }
      if (!ok) continue;

      // Collect every multiply window of this (slot, factor) pair in the
      // body: disjoint from the increment window and from each other.  Each
      // replacement carries its own window's summed weight.
      std::vector<std::pair<std::size_t, int>> windows;  // (pos, weight)
      for (std::size_t w = loop.head; w + 3 <= loop.back + 1;) {
        const bool formA = code[w].op == Op::LoadSlot && code[w].a == indSlot &&
                           code[w + 1].op == Op::PushI && code[w + 1].imm == factor &&
                           code[w + 2].op == Op::MulI;
        const bool formB = code[w].op == Op::PushI && code[w].imm == factor &&
                           code[w + 1].op == Op::LoadSlot && code[w + 1].a == indSlot &&
                           code[w + 2].op == Op::MulI;
        const bool overlapsInc = w < inc.end && w + 3 > inc.begin;
        const bool interiorTarget = target[w + 1] || target[w + 2];
        if ((formA || formB) && !overlapsInc && !interiorTarget) {
          const int wsum = code[w].weight + code[w + 1].weight + code[w + 2].weight;
          if (wsum <= 255) {
            windows.push_back({w, wsum});
            w += 3;
            continue;
          }
        }
        ++w;
      }
      if (windows.empty()) continue;

      const std::int32_t tracked = fn.numSlots++;
      std::vector<Edit> edits;
      Edit pre;
      pre.pos = loop.head;
      pre.kind = Edit::Preheader;
      pre.add.push_back(make(Op::LoadSlot, indSlot, 0, 0, 0));
      pre.add.push_back(make(Op::PushI, 0, 0, factor, 0));
      pre.add.push_back(make(Op::MulI, 0, 0, 0, 0));
      pre.add.push_back(make(Op::StoreSlot, tracked, 0, 0, 0));
      edits.push_back(std::move(pre));

      Edit bump;
      bump.pos = inc.end;
      bump.kind = Edit::Append;
      bump.add.push_back(make(Op::IncSlotI, tracked, 0, t32(inc.delta * factor), 0));
      edits.push_back(std::move(bump));

      for (const auto& [w, wsum] : windows) {
        Edit rep;
        rep.pos = w;
        rep.kind = Edit::Replace;
        rep.remove = 3;
        rep.add.push_back(make(Op::LoadSlot, tracked, 0, 0,
                               static_cast<std::uint8_t>(wsum)));
        edits.push_back(std::move(rep));
      }
      applyEdits(fn, std::move(edits), loop.head, loop.head, loop.back);
      return true;
    }
  }
  (void)n;
  return false;
}

// ---------------------------------------------------------------------------
// R1: loop-invariant hoisting.  The longest pure window inside an innermost
// loop that reads only loop-invariant slots, never dips into the pre-window
// stack, and nets exactly one pushed value moves to a preheader (weight 0)
// that stores into a fresh slot; the window becomes LoadSlot of that slot,
// carrying the window's summed weight.  Branches from inside the loop to its
// head skip the preheader; entering the loop from anywhere else runs it.
// ---------------------------------------------------------------------------

bool hoistLoopInvariant(FunctionCode& fn) {
  const std::vector<Insn>& code = fn.code;
  const std::vector<bool> target = branchTargets(code);

  for (const Loop& loop : innermostLoops(code)) {
    std::vector<bool> written(static_cast<std::size_t>(fn.numSlots), false);
    for (std::size_t i = loop.head; i <= loop.back; ++i) {
      const int s = slotUse(code[i]).write;
      if (s >= 0) written[static_cast<std::size_t>(s)] = true;
    }

    for (std::size_t w = loop.head; w <= loop.back; ++w) {
      int height = 0;
      int weight = 0;
      std::size_t end = 0;  // one past the chosen window; 0 = none found
      int endWeight = 0;
      std::size_t j = w;
      while (j <= loop.back) {
        if (j > w && target[j]) break;
        if (!pureOp(code[j])) break;
        if (code[j].op == Op::LoadSlot &&
            written[static_cast<std::size_t>(code[j].a)]) {
          break;
        }
        const StackEffect e = stackEffect(code[j], {});  // calls no function
        if (height < e.pops) break;  // would consume pre-window stack
        height += e.pushes - e.pops;
        weight += code[j].weight;
        if (weight > 255) break;
        ++j;
        if (height == 1 && j - w >= 2) {
          end = j;
          endWeight = weight;
        }
      }
      if (end == 0) continue;

      const std::int32_t hoisted = fn.numSlots++;
      Edit pre;
      pre.pos = loop.head;
      pre.kind = Edit::Preheader;
      for (std::size_t i = w; i < end; ++i) {
        Insn copy = code[i];
        copy.weight = 0;
        pre.add.push_back(copy);
      }
      pre.add.push_back(make(Op::StoreSlot, hoisted, 0, 0, 0));

      Edit rep;
      rep.pos = w;
      rep.kind = Edit::Replace;
      rep.remove = end - w;
      rep.add.push_back(make(Op::LoadSlot, hoisted, 0, 0,
                             static_cast<std::uint8_t>(endWeight)));

      applyEdits(fn, {std::move(pre), std::move(rep)}, loop.head, loop.head, loop.back);
      return true;
    }
  }
  return false;
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

std::uint32_t loadBytes(Op load) {
  return load == Op::LoadF64 || load == Op::LoadI64 ? 8 : 4;
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
    if (p + 1 < n && isTypedLoad(code[p + 1].op) && !target[p + 1]) {
      field = 0;
      len = 2;
    } else if (p + 3 < n && code[p + 1].op == Op::PushI && code[p + 2].op == Op::PtrAdd &&
               code[p + 2].a == 1 && isTypedLoad(code[p + 3].op) && !target[p + 1] &&
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
      rep.kind = Edit::Replace;
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
      rep.kind = Edit::Replace;
      rep.remove = r.end - r.pos;
      rep.add.push_back(make(Op::LoadSlot, slotOf[field], 0, 0, static_cast<std::uint8_t>(w)));
      edits.push_back(std::move(rep));
    }
  }
  if (edits.empty()) return false;
  applyEdits(fn, std::move(edits), kNpos, kNpos, kNpos);
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
        edit.kind = Edit::Replace;
        edit.remove = 1;
        edit.relocate = true;
        edit.add = inlineBlock(call, callee, zeroed[static_cast<std::size_t>(call.a)], base);
        if (size + edit.add.size() > kMaxInlinedCode) continue;
        size += edit.add.size() - 1;
        region = std::max(region, callee.numSlots);
        edits.push_back(std::move(edit));
      }
      if (edits.empty()) continue;
      sweep += static_cast<int>(edits.size());
      fn.numSlots = base + region;
      applyEdits(fn, std::move(edits), kNpos, kNpos, kNpos);
    }
    if (sweep == 0) return inlined;
    inlined += sweep;
  }
}

int rewriteOptimize(FunctionCode& fn) {
  int applied = 0;
  // One transformation per iteration (each is a full rebuild); every rule
  // strictly shrinks its remaining opportunities, the cap is a backstop.
  while (applied < 64) {
    if (scalarReplaceStructs(fn)) { ++applied; continue; }
    if (fusePointerBias(fn)) { ++applied; continue; }
    if (strengthReduce(fn)) { ++applied; continue; }
    if (hoistLoopInvariant(fn)) { ++applied; continue; }
    break;
  }
  return applied;
}

}  // namespace skelcl::kc
