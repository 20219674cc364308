// Work-group-batched execution (tier 2, docs/VM.md): the dispatch loop is
// inverted — one opcode decode drives every live work-item ("lane") of a
// group through the operation before moving to the next instruction, over
// lane-strided slot/stack arenas.  Straight-line and uniformly-looping
// bodies run as tight, auto-vectorizable inner loops; divergent branches
// split the group into lane subsets, and subsets reconverge.
//
// Two representation choices make the inner loops vectorize:
//
//  * Typed column views.  GCC assigns no vector type to accesses through the
//    Slot union, so every hot loop reads/writes the columns through
//    std::int64_t* / double* / std::uint64_t* views instead (Slot is an
//    8-byte union of exactly those representations).  The build compiles
//    this file with -fno-strict-aliasing, which makes the views
//    well-defined; -ffp-contract=off keeps float results bit-identical to
//    the scalar tiers.
//
//  * Dense groups.  A group whose lanes are a contiguous physical range
//    [laneOff, laneOff+cnt) runs unit-stride loops with no index
//    indirection.
//
// Lane loops never re-dispatch per lane on what is the same for the whole
// dispatch (docs/VM.md, "Lane loops"):
//
//  * A fused compare-branch switches on its comparison once and runs one
//    typed loop counting the lanes where it holds; only a branch that
//    splits the group also writes the per-lane results.  A lane list
//    evaluates and partitions in that one loop (splitOnCompare).
//  * A load or store writes each lane's raw pointer word to a scratch
//    column and checks the group at once: one region, every offset in
//    bounds.  A group that passes runs an unchecked loop, a contiguous one
//    when the offsets step by exactly the element size; a group that fails
//    takes the per-lane resolveLane loop, so a fault names the same
//    work-item with the same message.  PtrAdd is a 64-bit add on the
//    offset word.
//  * A builtin with a column kind (BuiltinDef::column) runs as one lane loop
//    calling the same std:: function as its table entry (fmin and fmax
//    select inline where that function would return the same bits:
//    minMaxLanes); others are called through the table once per lane.
//  * Binary arithmetic, comparisons and ptradd run one typed loop per op
//    (arithLanes, compareLanes) on whatever columns hold the operands: the
//    top two stack columns in the stack form, slot, stack or constant
//    columns in the tier-2 register form (docs/VM.md, "Register form").
//    32-bit division divides in double precision, which is exact, unless a
//    lane needs the integer loop (divideInDouble).
//
// Divergence and reconvergence.  The scheduler always runs the group with
// the lowest pc; a divergent branch makes two groups (fall-through and
// taken) and parks the higher one.  How a split is represented depends on
// the kernel's column count (slots plus stack depth):
//
//  * Compaction (few columns).  A divergent branch physically partitions
//    the group's segment of every column a lane may still read differently
//    (the branch's split slots, FunctionCode::splitSlots, plus the stack
//    below the branch) so stay-lanes keep the front and taken-lanes become
//    a contiguous group behind them; work-item identity moves with the lane
//    in laneGid.  Every group stays dense.  Groups never merge: merging two
//    segments would re-partition them at the next divergent branch.
//
//  * Lane lists (many columns, Vm::kLaneListColumns).  No data moves: a
//    group is a list of physical lanes, a split divides the list in the
//    pass that evaluates its condition, and groups that reach the same pc
//    merge by concatenating their lists, so a divergent loop body — OSEM's
//    Siddon march — reconverges every iteration instead of decaying to one
//    lane per dispatch.  A group parked where another waits merges with it
//    on the spot, so at most one group waits per pc.  A group holding the
//    whole batch runs dense.  A merged group keeps one retired count;
//    laneBase holds each lane's offset from it, so the instruction budget
//    stays per work-item.
//
// Invariants relied on:
//  - The encoder's computeMaxStack proves the operand-stack height at each
//    pc is unique, so one `sp` per group is exact, and groups that meet at a
//    pc have the same height.  Each lane's stack values live in its own
//    column position, which compaction permutes with the same mask.
//  - Retired counts: `instructions_` advances by weight x live-lane-count per
//    instruction, which equals the sum over lanes of the sequential count —
//    bit-identical accounting on every control path.
//  - Batchability (FunctionCode::batchable) excludes everything whose
//    cross-item ordering is observable, so interleaving lanes is safe.  It
//    also excludes frame memory and calls, so regions_ is immutable for the
//    whole batch and the bounds-check fast path below may cache it.
//    Atomics are the exception batchability allows: their results are
//    dropped and no load or store reaches their buffers, so each lane logs
//    them (bounds-checked on the spot) and finishBatchAtomics applies the
//    log in work-item order, as sequential execution would.
//
// Divergence and faults: when several work-items of one batch would fault,
// the reporting lane may differ from sequential execution; the fault itself
// and all data written before it are the same class of partial state
// sequential execution leaves behind.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <limits>
#include <memory>
#include <type_traits>

#include "kernelc/diagnostics.hpp"
#include "kernelc/vm.hpp"

namespace skelcl::kc {

namespace {

static_assert(sizeof(Slot) == 8, "typed column views assume 8-byte slots");

inline std::int64_t* iCol(Slot* c) { return reinterpret_cast<std::int64_t*>(c); }
inline const std::int64_t* iCol(const Slot* c) {
  return reinterpret_cast<const std::int64_t*>(c);
}
inline double* fCol(Slot* c) { return reinterpret_cast<double*>(c); }
inline const double* fCol(const Slot* c) { return reinterpret_cast<const double*>(c); }
inline std::uint64_t* rawCol(Slot* c) { return reinterpret_cast<std::uint64_t*>(c); }
inline const std::uint64_t* rawCol(const Slot* c) {
  return reinterpret_cast<const std::uint64_t*>(c);
}

/// Gt and Ge evaluate as Lt and Le with the operands swapped; Ne as Eq with
/// the result negated.  So each operand type needs three comparison loops.
constexpr bool swapsOperands(Op cmp) {
  switch (cmp) {
    case Op::GtI: case Op::GeI: case Op::GtU: case Op::GeU: case Op::GtUL: case Op::GeUL:
    case Op::GtF: case Op::GeF:
      return true;
    default:
      return false;
  }
}
constexpr bool negatesResult(Op cmp) {
  return cmp == Op::NeI || cmp == Op::NeF || cmp == Op::NeP;
}

// A pointer slot's raw word holds the region in its low 32 bits and the
// offset in its high 32 bits: pointer equality is word equality, and
// pointer arithmetic is one 64-bit add whose carry out of the offset word
// drops, as the per-item ptrPlus wraps the offset mod 2^32.
static_assert(sizeof(Ptr) == 8 && offsetof(Ptr, region) == 0 && offsetof(Ptr, offset) == 4 &&
                  std::endian::native == std::endian::little,
              "raw pointer words assume {int32 region, uint32 offset}, little-endian");

inline std::uint64_t ptrPlusRaw(std::uint64_t raw, std::int64_t index, std::int64_t elemSize) {
  return raw + (static_cast<std::uint64_t>(index) * static_cast<std::uint64_t>(elemSize) << 32);
}
inline std::uint32_t offsetOf(std::uint64_t raw) { return static_cast<std::uint32_t>(raw >> 32); }

static_assert(Vm::kBatchLanes <= 256, "DeferredAtomic::lane holds a lane in one byte");

/// A deferred atomic's argument as the builtin would see it: 32-bit words.
std::uint32_t atomicWord(AtomicOp op, const Slot& v) {
  return op == AtomicOp::AddF ? std::bit_cast<std::uint32_t>(static_cast<float>(v.f))
                              : static_cast<std::uint32_t>(v.i);
}

/// The lanes of one group: [off, off + cnt), or list[0, cnt) when `list` is
/// set.  Out-of-line lane loops take it by value, so their bounds are
/// locals that no column store can alias.
struct LaneSet {
  std::int32_t cnt;
  std::int32_t off;
  const std::int32_t* list;
};

/// Where a group's lanes access memory, from Vm::executeBatch's group
/// memory check.  `data` set: lane li's address is data + li * sizeof(C) when
/// `contiguous` (dense groups only), else data + the offset word of
/// addr[li].  `data` null: host[li], resolved lane by lane.
struct GroupAccess {
  std::byte* data;
  bool contiguous;
  const std::uint64_t* addr;
  std::byte* const* host;
};

/// Run `body(l, li)` for every lane `l` of `g`, `li` its position in the
/// group: unit-stride, or through the group's list.
template <typename F>
inline void forLanes(const LaneSet g, F body) {
  const std::int32_t cnt = g.cnt;
  const std::int32_t off = g.off;
  const std::int32_t* const list = g.list;
  if (!list) {
    for (std::int32_t li = 0; li < cnt; ++li) body(off + li, li);
  } else {
    for (std::int32_t li = 0; li < cnt; ++li) body(list[li], li);
  }
}

/// Run `access(lane, address)` for every lane of `g`, with unit-stride or
/// list-indexed lanes and the addressing `a` picks; C is the element type.
template <typename C, typename F>
inline void eachAccess(const LaneSet g, const GroupAccess a, F access) {
  std::byte* const data = a.data;
  const std::uint64_t* const addr = a.addr;
  std::byte* const* const host = a.host;
  if (data && a.contiguous) {
    forLanes(g, [&](std::int32_t l, std::int32_t li) { access(l, data + li * sizeof(C)); });
  } else if (data) {
    forLanes(g, [&](std::int32_t l, std::int32_t li) { access(l, data + offsetOf(addr[li])); });
  } else {
    forLanes(g, [&](std::int32_t l, std::int32_t li) { access(l, host[li]); });
  }
}

/// Load a C for every lane into the typed column view `out`.
template <typename C, typename V>
[[gnu::noinline]] void loadLanes(const LaneSet g, const GroupAccess a, V* out) {
  eachAccess<C>(g, a, [out](std::int32_t l, const std::byte* at) {
    C v;
    std::memcpy(&v, at, sizeof(C));
    out[l] = v;
  });
}

/// Store every lane's value of the typed column view `val` as a C.
template <typename C, typename V>
[[gnu::noinline]] void storeLanes(const LaneSet g, const GroupAccess a, const V* val) {
  eachAccess<C>(g, a, [val](std::int32_t l, std::byte* at) {
    const auto v = static_cast<C>(val[l]);
    std::memcpy(at, &v, sizeof(C));
  });
}

/// forLanes until `body(l)` returns false; returns that lane's position in
/// the group, or -1 when every lane ran.
template <typename F>
inline std::int32_t lanesUntil(const LaneSet g, F body) {
  for (std::int32_t li = 0; li < g.cnt; ++li) {
    if (!body(g.list ? g.list[li] : g.off + li)) return li;
  }
  return -1;
}

/// A growable array of T that never shrinks and never initializes what it
/// holds; growing drops the old contents.
template <typename T>
class Arena {
 public:
  T* reserve(std::size_t count) {
    if (count > capacity_) {
      storage_.reset(new std::byte[count * sizeof(T)]);
      capacity_ = count;
    }
    return reinterpret_cast<T*>(storage_.get());
  }

 private:
  std::unique_ptr<std::byte[]> storage_;
  std::size_t capacity_ = 0;
};

/// The batched interpreter's lane-strided slot and operand-stack arenas and
/// its lane-list storage, one set per host thread and kept across Vm
/// instances: ocl/queue.cpp builds a Vm for every launch chunk.  Nothing in
/// them survives a batch: each batch initializes its entry-live slots and
/// constant columns, and writes every other column before reading it.
struct BatchArenas {
  Arena<Slot> slots;
  Arena<Slot> stack;
  Arena<std::int32_t> laneLists;
};
thread_local BatchArenas batchArenas;

/// dst = x / y, or x % y when kRem, on every lane of `g`, for div.i and
/// rem.i (kSigned) or div.u and rem.u, divided in double precision by a
/// loop GCC vectorizes.  That is exact for 32-bit operands: the rounded
/// quotient is within 2^-21/|y| of x/y, and a quotient that is no integer
/// lies at least 1/|y| from one, so truncating it gives C's quotient and
/// x - q*y C's remainder (docs/VM.md, "Lane loops").  A branch-free scan
/// first looks for a lane only the exact loop may run: a zero divisor, a
/// signed operand that is not a sign-extended 32-bit value, or
/// INT_MIN / -1.  Returns false, having written nothing, when it finds one.
template <bool kSigned, bool kRem>
bool divideInDouble(const LaneSet g, const std::int64_t* xv, const std::int64_t* yv,
                    std::int64_t* dv) {
  std::uint64_t exact = 0;
  forLanes(g, [&](std::int32_t l, std::int32_t) {
    const std::int64_t a = xv[l];
    const std::int64_t b = yv[l];
    if constexpr (kSigned) {
      exact |= static_cast<std::uint64_t>(b == 0) |
               static_cast<std::uint64_t>(a != static_cast<std::int32_t>(a)) |
               static_cast<std::uint64_t>(b != static_cast<std::int32_t>(b)) |
               (static_cast<std::uint64_t>(a == std::numeric_limits<std::int32_t>::min()) &
                static_cast<std::uint64_t>(b == -1));
    } else {
      exact |= static_cast<std::uint64_t>(static_cast<std::uint32_t>(b) == 0);
    }
  });
  if (exact != 0) return false;
  using T = std::conditional_t<kSigned, std::int32_t, std::uint32_t>;
  forLanes(g, [=](std::int32_t l, std::int32_t) {
    const auto a = static_cast<T>(xv[l]);
    const auto b = static_cast<T>(yv[l]);
    const auto q = static_cast<T>(static_cast<double>(a) / static_cast<double>(b));
    dv[l] = kRem ? static_cast<T>(a - q * b) : q;
  });
  return true;
}

/// dst = x OP y on every lane of `g`, for a binary arithmetic opcode OP or
/// PtrAdd by `elemSize`: the one typed lane loop per op, which the stack
/// form (dst is x's column) and the register form (any operand and
/// destination columns) share.  A division stops at the first lane, in
/// group order, whose divisor is zero and returns its position; otherwise
/// the result is -1.
[[gnu::noinline]] std::int32_t arithLanes(Op op, const LaneSet g, const Slot* x, const Slot* y,
                                          Slot* dst, std::int64_t elemSize) {
  // 32-bit division runs in double precision unless a lane needs the exact
  // loop below, which also finds the lane that faults.
  const bool divided =
      (op == Op::DivI && divideInDouble<true, false>(g, iCol(x), iCol(y), iCol(dst))) ||
      (op == Op::RemI && divideInDouble<true, true>(g, iCol(x), iCol(y), iCol(dst))) ||
      (op == Op::DivU && divideInDouble<false, false>(g, iCol(x), iCol(y), iCol(dst))) ||
      (op == Op::RemU && divideInDouble<false, true>(g, iCol(x), iCol(y), iCol(dst)));
  if (divided) return -1;
  switch (op) {
#define KC_ARITH(OPNAME, VIEW, EXPR)                          \
  case Op::OPNAME: {                                          \
    const auto* xv = VIEW(x);                                 \
    const auto* yv = VIEW(y);                                 \
    auto* dv = VIEW(dst);                                     \
    forLanes(g, [=](std::int32_t l, std::int32_t) {           \
      const auto a = xv[l];                                   \
      const auto b = yv[l];                                   \
      (void)a;                                                \
      (void)b;                                                \
      dv[l] = EXPR;                                           \
    });                                                       \
    return -1;                                                \
  }
#define KC_DIVIDE(OPNAME, CAST, EXPR)                         \
  case Op::OPNAME: {                                          \
    const std::int64_t* xv = iCol(x);                         \
    const std::int64_t* yv = iCol(y);                         \
    std::int64_t* dv = iCol(dst);                             \
    return lanesUntil(g, [=](std::int32_t l) {                \
      const auto a = static_cast<CAST>(xv[l]);                \
      const auto b = static_cast<CAST>(yv[l]);                \
      if (b == 0) return false;                               \
      dv[l] = EXPR;                                           \
      return true;                                            \
    });                                                       \
  }
#define KC_I32(OPNAME, EXPR) KC_ARITH(OPNAME, iCol, static_cast<std::int32_t>(EXPR))
#define KC_I64(OPNAME, EXPR) KC_ARITH(OPNAME, iCol, static_cast<std::int64_t>(EXPR))
#define KC_U64(OPNAME, OPERATOR) \
  KC_I64(OPNAME, static_cast<std::uint64_t>(a) OPERATOR static_cast<std::uint64_t>(b))
#define KC_F32(OPNAME, OPERATOR) \
  KC_ARITH(OPNAME, fCol,         \
           static_cast<float>(static_cast<float>(a) OPERATOR static_cast<float>(b)))
#define KC_F64(OPNAME, OPERATOR) KC_ARITH(OPNAME, fCol, a OPERATOR b)
    KC_I32(AddI, a + b)
    KC_I32(SubI, a - b)
    KC_I32(MulI, a * b)
    KC_I32(AndI, a & b)
    KC_I32(OrI, a | b)
    KC_I32(XorI, a ^ b)
    KC_I32(ShlI, static_cast<std::int64_t>(static_cast<std::uint32_t>(a)
                                           << (static_cast<std::uint32_t>(b) & 31u)))
    KC_I32(ShrI, static_cast<std::int32_t>(a) >> (static_cast<std::uint32_t>(b) & 31u))
    KC_I32(ShrU, static_cast<std::uint32_t>(a) >> (static_cast<std::uint32_t>(b) & 31u))
    KC_DIVIDE(DivI, std::int64_t, static_cast<std::int32_t>(a / b))
    KC_DIVIDE(RemI, std::int64_t, static_cast<std::int32_t>(a % b))
    KC_DIVIDE(DivU, std::uint32_t, static_cast<std::int64_t>(a / b))
    KC_DIVIDE(RemU, std::uint32_t, static_cast<std::int64_t>(a % b))
    KC_U64(AddL, +)
    KC_U64(SubL, -)
    KC_U64(MulL, *)
    KC_I64(AndL, a & b)
    KC_I64(OrL, a | b)
    KC_I64(XorL, a ^ b)
    KC_I64(ShlL, static_cast<std::uint64_t>(a) << (static_cast<std::uint64_t>(b) & 63u))
    KC_I64(ShrL, a >> (static_cast<std::uint64_t>(b) & 63u))
    KC_I64(ShrUL, static_cast<std::uint64_t>(a) >> (static_cast<std::uint64_t>(b) & 63u))
    // INT64_MIN / -1 wraps, matching 2's-complement overflow
    KC_DIVIDE(DivL, std::int64_t,
              b == -1 && a == std::numeric_limits<std::int64_t>::min() ? a : a / b)
    KC_DIVIDE(RemL, std::int64_t, b == -1 ? 0 : a % b)
    KC_DIVIDE(DivUL, std::uint64_t, static_cast<std::int64_t>(a / b))
    KC_DIVIDE(RemUL, std::uint64_t, static_cast<std::int64_t>(a % b))
    KC_F32(AddF32, +)
    KC_F32(SubF32, -)
    KC_F32(MulF32, *)
    KC_F32(DivF32, /)
    KC_F64(AddF64, +)
    KC_F64(SubF64, -)
    KC_F64(MulF64, *)
    KC_F64(DivF64, /)
    KC_ARITH(PtrAdd, rawCol, ptrPlusRaw(a, static_cast<std::int64_t>(b), elemSize))
#undef KC_F64
#undef KC_F32
#undef KC_U64
#undef KC_I64
#undef KC_I32
#undef KC_DIVIDE
#undef KC_ARITH
    default:
      SKELCL_CHECK(false, std::string("no lane loop for ") + opName(op));
      return -1;
  }
}

/// Hand `store(l, li, holds)` comparison `cmp` of columns x and y for every
/// lane of `g`: one switch per dispatch, then one typed loop (Gt, Ge and Ne
/// run the Lt, Le and Eq loops: swapsOperands, negatesResult).  Pointers
/// compare as raw words.  The standalone comparisons, the fused
/// compare-branches and the register form share these loops.
template <typename Store>
[[gnu::always_inline]] inline void compareLanes(Op cmp, const LaneSet g, const Slot* x,
                                                const Slot* y, Store store) {
  if (swapsOperands(cmp)) std::swap(x, y);
  const bool flipped = negatesResult(cmp);
  switch (cmp) {
#define KC_COMPARE_LOOP(TYPE, VIEW, OPERATOR)                                            \
  {                                                                                      \
    const auto* xv = VIEW(x);                                                            \
    const auto* yv = VIEW(y);                                                            \
    forLanes(g, [&](std::int32_t l, std::int32_t li) {                                   \
      store(l, li, (static_cast<TYPE>(xv[l]) OPERATOR static_cast<TYPE>(yv[l])) != flipped); \
    });                                                                                  \
    return;                                                                              \
  }
    case Op::EqI: case Op::NeI: KC_COMPARE_LOOP(std::int64_t, iCol, ==)
    case Op::LtI: case Op::GtI: KC_COMPARE_LOOP(std::int64_t, iCol, <)
    case Op::LeI: case Op::GeI: KC_COMPARE_LOOP(std::int64_t, iCol, <=)
    case Op::LtU: case Op::GtU: KC_COMPARE_LOOP(std::uint32_t, iCol, <)
    case Op::LeU: case Op::GeU: KC_COMPARE_LOOP(std::uint32_t, iCol, <=)
    case Op::LtUL: case Op::GtUL: KC_COMPARE_LOOP(std::uint64_t, iCol, <)
    case Op::LeUL: case Op::GeUL: KC_COMPARE_LOOP(std::uint64_t, iCol, <=)
    case Op::EqF: case Op::NeF: KC_COMPARE_LOOP(double, fCol, ==)
    case Op::LtF: case Op::GtF: KC_COMPARE_LOOP(double, fCol, <)
    case Op::LeF: case Op::GeF: KC_COMPARE_LOOP(double, fCol, <=)
    case Op::EqP: case Op::NeP: KC_COMPARE_LOOP(std::uint64_t, rawCol, ==)
#undef KC_COMPARE_LOOP
    default:
      SKELCL_CHECK(false, std::string("no comparison loop for ") + opName(cmp));
  }
}

/// Lanes of `g` where comparison `cmp` holds.
[[gnu::noinline]] std::int32_t countHolds(Op cmp, const LaneSet g, const Slot* x,
                                          const Slot* y) {
  std::int32_t n = 0;
  compareLanes(cmp, g, x, y, [&](std::int32_t, std::int32_t, bool holds) { n += holds; });
  return n;
}

/// dst = 1 where comparison `cmp` holds, else 0, on every lane of `g`.
[[gnu::noinline]] void compareInto(Op cmp, const LaneSet g, const Slot* x, const Slot* y,
                                   Slot* dst) {
  std::int64_t* const d = iCol(dst);
  compareLanes(cmp, g, x, y, [=](std::int32_t l, std::int32_t, bool holds) { d[l] = holds; });
}

/// mask[li] = 1 for the lanes of `g` that take a branch on comparison `cmp`.
[[gnu::noinline]] void branchMask(Op cmp, const LaneSet g, const Slot* x, const Slot* y,
                                  bool jumpOnTrue, unsigned char* mask) {
  compareLanes(cmp, g, x, y, [=](std::int32_t, std::int32_t li, bool holds) {
    mask[li] = holds == jumpOnTrue ? 1 : 0;
  });
}

// A lane-list split in one pass: each lane of `g`, in group order, is
// written to the end of both `stay` and `taken`, and only the cursor of the
// list it belongs to advances (branch-free).  `stay` may be g's own list: a
// position is written no earlier than it is read.  Both return how many
// lanes take the branch.

/// Split `g` on comparison `cmp` of columns x and y.
[[gnu::noinline]] std::int32_t splitOnCompare(Op cmp, const LaneSet g, const Slot* x,
                                              const Slot* y, bool jumpOnTrue, std::int32_t* stay,
                                              std::int32_t* taken) {
  std::int32_t w = 0;
  std::int32_t t = 0;
  compareLanes(cmp, g, x, y, [&](std::int32_t l, std::int32_t, bool holds) {
    const std::int32_t takes = holds == jumpOnTrue ? 1 : 0;
    stay[w] = l;
    taken[t] = l;
    w += 1 - takes;
    t += takes;
  });
  return t;
}

/// Split `g` on whether column `cond` is non-zero.
[[gnu::noinline]] std::int32_t splitOnTruth(const LaneSet g, const std::int64_t* cond,
                                            bool jumpOnTrue, std::int32_t* stay,
                                            std::int32_t* taken) {
  std::int32_t w = 0;
  std::int32_t t = 0;
  forLanes(g, [&](std::int32_t l, std::int32_t) {
    const std::int32_t takes = (cond[l] != 0) == jumpOnTrue ? 1 : 0;
    stay[w] = l;
    taken[t] = l;
    w += 1 - takes;
    t += takes;
  });
  return t;
}

/// x = fmin(x, y), or fmax when kMax, rounded to float, on every lane of
/// `g`: the column kinds FminF and FmaxF.  Where the operands are ordered
/// and distinct, or bit-equal, std::fmin and std::fmax return what a select
/// returns, and the select loop vectorizes.  For a NaN operand or a -0/+0
/// pair the result is the libm's choice (glibc 2.36 returns the second of
/// two zeros), which no one select matches in both orders, so a
/// branch-free scan first looks for one, as divideInDouble does, and a
/// group that has one calls the std:: function on every lane, as the table
/// entry does.
template <bool kMax>
[[gnu::noinline]] void minMaxLanes(const LaneSet g, double* x, const double* y) {
  std::uint64_t libm = 0;
  forLanes(g, [&](std::int32_t l, std::int32_t) {
    const double a = x[l];
    const double b = y[l];
    libm |= static_cast<std::uint64_t>(a != a) | static_cast<std::uint64_t>(b != b) |
            (static_cast<std::uint64_t>(a == b) &
             static_cast<std::uint64_t>(std::bit_cast<std::uint64_t>(a) !=
                                        std::bit_cast<std::uint64_t>(b)));
  });
  if (libm != 0) {
    forLanes(g, [=](std::int32_t l, std::int32_t) {
      x[l] = static_cast<float>(kMax ? std::fmax(x[l], y[l]) : std::fmin(x[l], y[l]));
    });
    return;
  }
  forLanes(g, [=](std::int32_t l, std::int32_t) {
    const double a = x[l];
    const double b = y[l];
    x[l] = static_cast<float>(kMax ? (a < b ? b : a) : (b < a ? b : a));
  });
}

/// Apply the records `order` lists, in that order.  kOp is the one op the
/// batch logged, hoisting the dispatch out of the loop; None dispatches per
/// record.
template <AtomicOp kOp>
void applyInOrder(const DeferredAtomic* log, std::span<const std::uint32_t> order,
                  const MemRegion* regions) {
  for (const std::uint32_t i : order) {
    const DeferredAtomic& d = log[i];
    std::byte* const addr = regions[d.region].data + d.offset;
    if constexpr (kOp == AtomicOp::None) {
      applyAtomic(d.op, addr, d.a, d.b);
    } else {
      applyAtomicAs<kOp>(addr, d.a, d.b);
    }
  }
}

}  // namespace

void Vm::runKernelBatch(int functionIndex, std::span<const Slot> args, std::int64_t gidBase,
                        std::int64_t count, std::int64_t globalSize) {
  const auto& fn = program_.functions.at(static_cast<std::size_t>(functionIndex));
  SKELCL_CHECK(fn.isKernel, "runKernelBatch on a non-kernel function");
  SKELCL_CHECK(count >= 1 && count <= kBatchLanes, "batch lane count out of range");
  // A single lane runs per item, except when its atomics must join the log.
  if (program_.tier < 1 || !fn.batchable || (count == 1 && fn.atomicArgs.empty())) {
    for (std::int64_t l = 0; l < count; ++l) {
      runKernel(functionIndex, args, gidBase + l, globalSize);
    }
    return;
  }
  SKELCL_CHECK(args.size() == fn.paramTypes.size(), "kernel argument count mismatch");
  SKELCL_CHECK(fn.atomicArgs.empty() || regions_.size() <= 0x10000,
               "too many buffer arguments for deferred atomics");
  globalSize_ = globalSize;
  frameTop_ = 0;
  if (fn.numSlots + fn.maxStack > kLaneListColumns) {
    executeBatch<true>(functionIndex, args, gidBase, count);
  } else {
    executeBatch<false>(functionIndex, args, gidBase, count);
  }
}

void Vm::finishBatchAtomics(std::int32_t lanes, unsigned opsLogged) {
  if (batchAtomics_.empty()) return;
  // Counting sort by lane: work-item order, each lane's atomics in the
  // order its program issued them.
  std::uint32_t next[kBatchLanes + 1] = {};
  for (const DeferredAtomic& d : batchAtomics_) ++next[d.lane + 1];
  for (std::int32_t l = 0; l < lanes; ++l) next[l + 1] += next[l];
  atomicOrder_.resize(batchAtomics_.size());
  for (std::uint32_t i = 0; i < batchAtomics_.size(); ++i) {
    atomicOrder_[next[batchAtomics_[i].lane]++] = i;
  }
  if (keepAtomicLog_) {
    for (const std::uint32_t i : atomicOrder_) atomicLog_.push_back(batchAtomics_[i]);
  } else {
    const AtomicOp only = std::has_single_bit(opsLogged)
                              ? static_cast<AtomicOp>(std::countr_zero(opsLogged))
                              : AtomicOp::None;
    switch (only) {
#define KC_APPLY(OP)                                                              \
  case AtomicOp::OP:                                                              \
    applyInOrder<AtomicOp::OP>(batchAtomics_.data(), atomicOrder_, regions_.data()); \
    break;
      KC_APPLY(None)
      KC_APPLY(AddI)
      KC_APPLY(SubI)
      KC_APPLY(IncI)
      KC_APPLY(MinI)
      KC_APPLY(MaxI)
      KC_APPLY(CmpXchgI)
      KC_APPLY(AddF)
#undef KC_APPLY
    }
  }
  batchAtomics_.clear();
}

template <bool kLaneLists>
void Vm::executeBatch(int functionIndex, std::span<const Slot> args, std::int64_t gidBase,
                      std::int64_t count) {
  const auto& fn = program_.functions[static_cast<std::size_t>(functionIndex)];
  const int savedFunction = currentFunction_;
  currentFunction_ = functionIndex;

  const std::int32_t n = static_cast<std::int32_t>(count);
  const std::size_t numSlots = static_cast<std::size_t>(fn.numSlots);

  // Lane-strided arenas (this thread's BatchArenas): slot s of lane l at
  // slotBase[s*n + l], stack depth d of lane l at stackBase[d*n + l].  Only
  // the entry-live slots (FunctionCode::entrySlots) are filled, a parameter
  // with its argument and a local with zero as the sequential paths'
  // value-initialization would; every other slot is written before a lane
  // reads it.  Past the slots, column numSlots + k holds constant-pool entry
  // k in every lane, for the register form's constant operands; splits
  // leave these uniform columns alone.
  const std::size_t lanesPerColumn = static_cast<std::size_t>(n);
  const std::size_t poolSize = fn.pool.size();
  Slot* const slotBase = batchArenas.slots.reserve((numSlots + poolSize) * lanesPerColumn);
  Slot* const stackBase =
      batchArenas.stack.reserve(static_cast<std::size_t>(fn.maxStack) * lanesPerColumn + 1);
  for (const std::int32_t s : fn.entrySlots) {
    const auto p = static_cast<std::size_t>(s);
    std::fill_n(rawCol(slotBase + p * lanesPerColumn), n,
                p < args.size() ? std::bit_cast<std::uint64_t>(args[p]) : 0);
  }
  for (std::size_t k = 0; k < poolSize; ++k) {
    std::fill_n(rawCol(slotBase + (numSlots + k) * lanesPerColumn), n, fn.pool[k]);
  }
  batchAtomics_.clear();
  // Work-item id of each physical lane; compaction permutes it alongside
  // the columns, so lane -> gid stays exact.
  std::int64_t laneGid[kBatchLanes];
  for (std::int32_t l = 0; l < n; ++l) laneGid[l] = gidBase + l;

  // Bounds-check fast path.  Batchable kernels push no frame regions and make
  // no calls, so the region table cannot change under us.  The cold branch
  // delegates to resolve() for the precise fault message (setting globalId_
  // first so the message names the right work-item).
  const MemRegion* const regionTab = regions_.data();
  const std::size_t regionCount = regions_.size();
  const auto resolveLane = [&](Ptr p, std::uint32_t bytes, std::int64_t gid) -> std::byte* {
    if (p.region > 0 && static_cast<std::size_t>(p.region) < regionCount) {
      const MemRegion& r = regionTab[p.region];
      if (static_cast<std::uint64_t>(p.offset) + bytes <= r.size) return r.data + p.offset;
    }
    globalId_ = gid;
    resolve(p, bytes);  // [[noreturn]] here: throws the precise fault
    return nullptr;
  };

  /// A lane subset executing one control-flow path: the physical lanes
  /// [off, off+cnt) (compaction), or the `cnt` lanes listed in lane-list
  /// slot `off` (lane lists).  `retired` is the per-lane retired count along
  /// this path, inherited on splits; lane lists add laneBase[l] per lane,
  /// and `maxBase` bounds it over the group's lanes.
  struct Group {
    std::int32_t ip;
    std::int32_t sp;
    std::int32_t off;
    std::int32_t cnt;
    std::uint64_t retired;
    std::int64_t maxBase;
  };
  Group pending[kBatchLanes];  // live groups partition n lanes, so < n parked
  std::int32_t nPending = 0;
  unsigned char mask[kBatchLanes];     // divergence: takes-the-branch per lane
  std::uint64_t scratch[kBatchLanes];  // divergence: taken-lane staging
  std::uint64_t addr[kBatchLanes];     // memory access: lane li's raw pointer word
  std::byte* host[kBatchLanes];        // memory access: lane li's host address
  unsigned atomicOps = 0;              // bit AtomicOp for every op logged
  // Lane lists: one slot of kBatchLanes entries per live group, recycled
  // through freeSlots; laneBase is each lane's retired-count offset.
  std::int32_t* const listPool =
      kLaneLists ? batchArenas.laneLists.reserve((kBatchLanes + 1) * kBatchLanes) : nullptr;
  std::int16_t freeSlots[kBatchLanes + 1];
  std::int32_t nFree = 0;
  std::int64_t laneBase[kBatchLanes];
  if constexpr (kLaneLists) {
    for (std::int32_t slot = static_cast<std::int32_t>(kBatchLanes); slot >= 1; --slot) {
      freeSlots[nFree++] = static_cast<std::int16_t>(slot);
    }
    std::fill(laneBase, laneBase + n, std::int64_t{0});
  }

  // Current group.  It is dense when its lanes are the physical range
  // [laneOff, laneOff+cnt): always under compaction, and for the whole
  // batch under lane lists; lane loops are then unit-stride.
  std::int32_t off = 0;
  std::int32_t cnt = n;
  std::int32_t ip = 0;
  std::int32_t sp = 0;
  std::uint64_t retired = 0;
  std::int64_t maxBase = 0;
  std::int32_t laneOff = 0;
  bool dense = true;
  std::int32_t* lanes = listPool;
  // Lowest pc of a parked group (lane lists): reaching it means merging.
  std::int32_t minPendingIp = std::numeric_limits<std::int32_t>::max();

  const PackedInsn* const codeBase = fn.packed.data();
  const std::uint64_t* const pool = fn.pool.data();

  const auto slotAt = [&](std::int32_t s) {
    return slotBase + static_cast<std::size_t>(s) * static_cast<std::size_t>(n);
  };
  const auto stackAt = [&](std::int32_t d) {
    return stackBase + static_cast<std::size_t>(d) * static_cast<std::size_t>(n);
  };
  const auto listOf = [&](std::int32_t slot) {
    return listPool + static_cast<std::size_t>(slot) * static_cast<std::size_t>(kBatchLanes);
  };

  const auto enter = [&](const Group& g) {
    ip = g.ip;
    sp = g.sp;
    off = g.off;
    cnt = g.cnt;
    retired = g.retired;
    maxBase = g.maxBase;
    if constexpr (kLaneLists) {
      lanes = listOf(off);
      dense = cnt == n;
    } else {
      laneOff = off;
    }
  };
  const auto current = [&] { return Group{ip, sp, off, cnt, retired, maxBase}; };
  /// Lane lists: `a` absorbs `b`, a group at the same pc (lane sets are
  /// disjoint, so the lists concatenate).  The larger of the two keeps its
  /// retired count and its list; each joining lane's laneBase absorbs the
  /// difference.
  const auto merge = [&](Group& a, Group b) {
    if (b.cnt > a.cnt) std::swap(a, b);
    ++batchMerges_;
    const std::int32_t* joining = listOf(b.off);
    const std::int64_t delta =
        static_cast<std::int64_t>(b.retired) - static_cast<std::int64_t>(a.retired);
    if (delta != 0) {
      for (std::int32_t i = 0; i < b.cnt; ++i) laneBase[joining[i]] += delta;
    }
    a.maxBase = std::max(a.maxBase, b.maxBase + delta);
    std::copy(joining, joining + b.cnt, listOf(a.off) + a.cnt);
    freeSlots[nFree++] = static_cast<std::int16_t>(b.off);
    a.cnt += b.cnt;
  };
  /// Park `g`.  Lane lists merge it into the group already waiting at its
  /// pc, so at most one group waits per pc, and keep minPendingIp.
  const auto park = [&](const Group& g) {
    if constexpr (kLaneLists) {
      for (std::int32_t j = 0; j < nPending; ++j) {
        if (pending[j].ip == g.ip) {
          merge(pending[j], g);
          return;
        }
      }
      minPendingIp = std::min(minPendingIp, g.ip);
    }
    pending[nPending++] = g;
  };
  /// Enter the parked group with the lowest pc.
  const auto enterLowest = [&] {
    std::int32_t best = 0;
    for (std::int32_t j = 1; j < nPending; ++j) {
      if (pending[j].ip < pending[best].ip) best = j;
    }
    const Group g = pending[best];
    pending[best] = pending[--nPending];
    enter(g);
    if constexpr (kLaneLists) {
      minPendingIp = std::numeric_limits<std::int32_t>::max();
      for (std::int32_t j = 0; j < nPending; ++j) {
        minPendingIp = std::min(minPendingIp, pending[j].ip);
      }
    }
  };

  // The sequential per-item budget, checked on back-edges and builtin calls
  // as the per-item interpreter does.  The cold path finds the exact lane:
  // maxBase may overestimate after a split.
  const auto budget = static_cast<std::int64_t>(budget_);
  const auto budgetFault = [&] {
    std::int64_t exact = std::numeric_limits<std::int64_t>::min();
    for (std::int32_t i = 0; i < cnt; ++i) {
      const std::int32_t l = dense ? laneOff + i : lanes[i];
      std::int64_t base = 0;
      if constexpr (kLaneLists) base = laneBase[l];
      if (base + static_cast<std::int64_t>(retired) > budget) {
        globalId_ = laneGid[l];
        fault("instruction budget exceeded (infinite loop?)");
      }
      exact = std::max(exact, base);
    }
    maxBase = exact;
  };
  const auto checkBudget = [&] {
    if (static_cast<std::int64_t>(retired) + maxBase > budget) budgetFault();
  };

// Run BODY for every lane `l` of the current group (`li` is its position in
// the group): unit-stride when the group is dense, through the lane list
// otherwise.
#define KC_LANES(...)                                    \
  do {                                                   \
    if (!kLaneLists || dense) {                          \
      for (std::int32_t li = 0; li < cnt; ++li) {        \
        const std::int32_t l = laneOff + li;             \
        (void)li;                                        \
        __VA_ARGS__                                      \
      }                                                  \
    } else {                                             \
      for (std::int32_t li = 0; li < cnt; ++li) {        \
        const std::int32_t l = lanes[li];                \
        (void)li;                                        \
        __VA_ARGS__                                      \
      }                                                  \
    }                                                    \
  } while (0)

  // The current group's lanes for the out-of-line lane loops.
  const auto laneSet = [&] {
    return LaneSet{cnt, laneOff, kLaneLists && !dense ? lanes : nullptr};
  };
  // The group memory check (docs/VM.md, "Lane loops").  Lane li addresses
  // the raw pointer word ptr[l], advanced by idx[l] elements of `elemSize`
  // bytes when `idx` is given; the words go to addr[li].  When every lane
  // addresses `bytes` inside one region, the access is unchecked: through
  // the region's data, contiguous for a dense group whose offsets step by
  // exactly `bytes` from lane 0's.  Otherwise each lane is resolved in turn
  // into host[li], so a bad lane faults as resolve() does, on the same
  // work-item.  One out-of-line copy serves every load and store.
  const auto groupAccess = [&](std::uint32_t bytes, const std::uint64_t* ptr,
                               const std::int64_t* idx, std::int64_t elemSize)
      __attribute__((noinline)) -> GroupAccess {
    const LaneSet g = laneSet();
    const std::int32_t n = g.cnt;
    std::uint64_t* const words = addr;  // a local, so stores cannot move it
    const auto fill = [&](auto laneOf) {
      if (idx) {
        for (std::int32_t li = 0; li < n; ++li) {
          const std::int32_t l = laneOf(li);
          words[li] = ptrPlusRaw(ptr[l], idx[l], elemSize);
        }
      } else {
        for (std::int32_t li = 0; li < n; ++li) words[li] = ptr[laneOf(li)];
      }
    };
    if (g.list) {
      fill([&](std::int32_t li) { return g.list[li]; });
    } else {
      fill([&](std::int32_t li) { return g.off + li; });
    }
    const std::uint64_t first = words[0];
    const auto region = static_cast<std::uint32_t>(first);  // negative ids fail too
    if (region != 0 && region < regionCount && regionTab[region].size >= bytes) {
      const std::uint64_t limit = regionTab[region].size - bytes;
      const std::uint64_t off0 = offsetOf(first);
      std::uint64_t bad = 0;
      std::uint64_t stray = 0;
      for (std::int32_t li = 0; li < n; ++li) {
        const std::uint64_t a = words[li];
        bad |= ((a ^ first) & 0xFFFFFFFFu) | static_cast<std::uint64_t>(offsetOf(a) > limit);
        stray |= offsetOf(a) ^ (off0 + static_cast<std::uint64_t>(li) * bytes);
      }
      if (bad == 0) {
        const bool contiguous = stray == 0 && !g.list;
        return GroupAccess{regionTab[region].data + (contiguous ? off0 : 0), contiguous, words,
                           host};
      }
    }
    for (std::int32_t li = 0; li < n; ++li) {
      const std::int32_t l = g.list ? g.list[li] : g.off + li;
      host[li] = resolveLane(std::bit_cast<Ptr>(words[li]), bytes, laneGid[l]);
    }
    return GroupAccess{nullptr, false, words, host};
  };

  // A register-form operand's column: popped off the stack (y before x),
  // a slot's, or a constant's.
  const auto operand = [&](Src src, std::int32_t field) -> const Slot* {
    if (src == Src::Stack) return stackAt(--sp);
    return slotAt(src == Src::Slot ? field : static_cast<std::int32_t>(numSlots) + field);
  };
  // dst = x OP y over the group, for every binary arithmetic op, comparison
  // and PtrAdd (by elemSize), in either form.  A zero divisor faults on the
  // first lane, in group order, that has one.
  const auto binary = [&](Op op, const Slot* x, const Slot* y, Slot* dst,
                          std::int64_t elemSize) {
    if (opInfo(op).flags & kFusableCompare) return compareInto(op, laneSet(), x, y, dst);
    const std::int32_t zero = arithLanes(op, laneSet(), x, y, dst, elemSize);
    if (zero >= 0) {
      globalId_ = laneGid[dense ? laneOff + zero : lanes[zero]];
      fault(op == Op::DivI || op == Op::DivU || op == Op::DivL || op == Op::DivUL
                ? "integer division by zero"
                : "integer remainder by zero");
    }
  };

  // Divergence makes two groups, the lanes that fall through (stay) and the
  // lanes that jump to `target` (taken); the one with the lower pc runs
  // next, the other is parked.
  const auto runLower = [&](const Group& stay, const Group& taken) {
    ++batchSplits_;
    const bool backward = taken.ip < stay.ip;
    park(backward ? stay : taken);
    enter(backward ? taken : stay);
    if (backward) checkBudget();
  };
  const auto jump = [&](std::int32_t target) {
    if (target < ip) checkBudget();
    ip = target;
  };
  // Lane lists: `partition(stay, taken)` splits the group's lanes in one
  // pass, the stay lanes into the group's own list and the taken lanes into
  // a fresh one, and returns how many it took.  No data moves.
  const auto splitList = [&](std::int32_t target, auto partition) {
    const std::int32_t slot = freeSlots[--nFree];
    const std::int32_t nTaken = partition(lanes, listOf(slot));
    if (nTaken == 0) {
      freeSlots[nFree++] = static_cast<std::int16_t>(slot);
      return;
    }
    if (nTaken == cnt) {  // the fresh list holds the whole group
      freeSlots[nFree++] = static_cast<std::int16_t>(off);
      off = slot;
      lanes = listOf(slot);
      jump(target);
      return;
    }
    runLower(Group{ip, sp, off, cnt - nTaken, retired, maxBase},
             Group{target, sp, slot, nTaken, retired, maxBase});
  };
  // Compaction: mask[li] is 1 for the nTaken lanes that jump.  Stay lanes
  // keep the front of the group's segment of the branch's split slots, the
  // stack below it and laneGid (order preserved), taken lanes follow.
  const auto diverge = [&](std::int32_t target, std::int32_t nTaken) {
    // Branch-free: both destinations are written, one cursor advances.
    const auto partitionSeg = [&](std::uint64_t* seg) {
      std::int32_t w = 0;
      std::int32_t t = 0;
      for (std::int32_t l = 0; l < cnt; ++l) {
        const std::uint64_t v = seg[l];
        seg[w] = v;
        scratch[t] = v;
        w += 1 - mask[l];
        t += mask[l];
      }
      std::memcpy(seg + w, scratch, static_cast<std::size_t>(t) * sizeof(std::uint64_t));
    };
    const std::int32_t* const split = fn.splitSlots.data() + fn.splitBegin[ip - 1];
    const std::int32_t* const splitEnd = fn.splitSlots.data() + fn.splitBegin[ip];
    for (const std::int32_t* s = split; s != splitEnd; ++s) {
      partitionSeg(rawCol(slotAt(*s) + laneOff));
    }
    for (std::int32_t d = 0; d < sp; ++d) {
      partitionSeg(rawCol(stackAt(d) + laneOff));
    }
    partitionSeg(reinterpret_cast<std::uint64_t*>(laneGid + laneOff));
    batchColumnsMoved_ += static_cast<std::uint64_t>(splitEnd - split + sp + 1);
    const std::int32_t stayCnt = cnt - nTaken;
    runLower(Group{ip, sp, off, stayCnt, retired, maxBase},
             Group{target, sp, off + stayCnt, nTaken, retired, maxBase});
  };
  // A conditional branch to `target`.  A lane-list group partitions its
  // list in one pass (splitList).  A dense group first counts the lanes
  // that jump with `count()`, a loop that vectorizes, and ends there when
  // all of them jump or none does; otherwise it splits, by `partition` on
  // lane lists, or, under compaction, on the mask `markTaken()` fills.
  const auto condBranch = [&](std::int32_t target, auto count, auto partition,
                              auto markTaken) {
    if constexpr (kLaneLists) {
      if (!dense) return splitList(target, partition);
    }
    const std::int32_t nTaken = count();
    if (nTaken == 0) return;  // whole group falls through
    if (nTaken == cnt) return jump(target);
    if constexpr (kLaneLists) {
      splitList(target, partition);
    } else {
      markTaken();
      diverge(target, nTaken);
    }
  };

  for (;;) {
    if constexpr (kLaneLists) {
      // Reached a parked group's pc or passed it: park (merging with the
      // group that waits here, if any) and run the lowest.
      if (ip >= minPendingIp) {
        park(current());
        enterLowest();
      }
    }
    const PackedInsn insn = codeBase[ip];
    ++ip;
    retired += insn.weight;
    instructions_ += static_cast<std::uint64_t>(insn.weight) *
                     static_cast<std::uint64_t>(cnt);
    ++batchDispatches_;
    batchLaneSum_ += static_cast<std::uint64_t>(cnt);

    switch (insn.op) {
      case Op::PushI: {
        const std::int64_t v = insn.a;
        std::int64_t* col = iCol(stackAt(sp));
        KC_LANES(col[l] = v;);
        ++sp;
        break;
      }
      case Op::PushCI: {
        const std::int64_t v = static_cast<std::int64_t>(pool[insn.k]);
        std::int64_t* col = iCol(stackAt(sp));
        KC_LANES(col[l] = v;);
        ++sp;
        break;
      }
      case Op::PushCF: {
        double v;
        std::memcpy(&v, &pool[insn.k], sizeof v);
        double* col = fCol(stackAt(sp));
        KC_LANES(col[l] = v;);
        ++sp;
        break;
      }

      case Op::LoadSlot: {
        const std::uint64_t* src = rawCol(slotAt(insn.a));
        std::uint64_t* col = rawCol(stackAt(sp));
        KC_LANES(col[l] = src[l];);
        ++sp;
        break;
      }
      case Op::StoreSlot: {
        --sp;
        const std::uint64_t* col = rawCol(stackAt(sp));
        std::uint64_t* dst = rawCol(slotAt(insn.a));
        KC_LANES(dst[l] = col[l];);
        break;
      }
      case Op::StoreSlotChecked: {
        --sp;
        const Slot* col = stackAt(sp);
        Slot* dst = slotAt(insn.a);
        const auto bytes = static_cast<std::uint32_t>(insn.b);
        KC_LANES(resolveLane(col[l].p, bytes, laneGid[l]); dst[l] = col[l];);
        break;
      }
      case Op::LoadSlot2: {
        const std::uint64_t* sa = rawCol(slotAt(insn.a));
        const std::uint64_t* sb = rawCol(slotAt(insn.b));
        std::uint64_t* ca = rawCol(stackAt(sp));
        std::uint64_t* cb = rawCol(stackAt(sp + 1));
        KC_LANES(ca[l] = sa[l]; cb[l] = sb[l];);
        sp += 2;
        break;
      }

// Loads and stores: groupAccess checks the group and finds the addresses,
// then one typed lane loop per element type accesses them.
#define KC_LOAD(OPNAME, CTYPE, VIEW)                                                     \
  case Op::Load##OPNAME: {                                                               \
    Slot* col = stackAt(sp - 1);                                                         \
    loadLanes<CTYPE>(laneSet(), groupAccess(sizeof(CTYPE), rawCol(col), nullptr, 0),       \
                     VIEW(col));                                                         \
    break;                                                                               \
  }                                                                                      \
  case Op::LoadElem##OPNAME: {                                                           \
    Slot* col = stackAt(sp - 2);                                                         \
    loadLanes<CTYPE>(laneSet(),                                                          \
                     groupAccess(sizeof(CTYPE), rawCol(col), iCol(stackAt(sp - 1)), insn.a), \
                     VIEW(col));                                                         \
    --sp;                                                                                \
    break;                                                                               \
  }                                                                                      \
  case Op::LoadSlotElem##OPNAME: {                                                       \
    loadLanes<CTYPE>(laneSet(),                                                          \
                     groupAccess(sizeof(CTYPE), rawCol(slotAt(insn.a)), iCol(slotAt(insn.b)), \
                               insn.c),                                                  \
                     VIEW(stackAt(sp)));                                                 \
    ++sp;                                                                                \
    break;                                                                               \
  }
      KC_LOAD(I32, std::int32_t, iCol)
      KC_LOAD(U32, std::uint32_t, iCol)
      KC_LOAD(F32, float, fCol)
      KC_LOAD(F64, double, fCol)
      KC_LOAD(I64, std::int64_t, iCol)
#undef KC_LOAD

#define KC_STORE(OPNAME, CTYPE, VIEW)                                                    \
  case Op::Store##OPNAME:                                                                \
  case Op::TeeStore##OPNAME: {                                                           \
    const Slot* val = stackAt(sp - 1);                                                   \
    storeLanes<CTYPE>(laneSet(), groupAccess(sizeof(CTYPE), rawCol(stackAt(sp - 2)), nullptr, 0), \
                      VIEW(val));                                                        \
    if (insn.op == Op::TeeStore##OPNAME) {                                               \
      std::uint64_t* tee = rawCol(slotAt(insn.a));                                       \
      const std::uint64_t* raw = rawCol(val);                                            \
      KC_LANES(tee[l] = raw[l];);                                                        \
    }                                                                                    \
    sp -= 2;                                                                             \
    break;                                                                               \
  }
      KC_STORE(I32, std::int32_t, iCol)
      KC_STORE(I64, std::int64_t, iCol)
      KC_STORE(F32, float, fCol)
      KC_STORE(F64, double, fCol)
#undef KC_STORE

      case Op::PtrAddImm: {
        std::uint64_t* col = rawCol(stackAt(sp - 1));
        const std::uint64_t step = ptrPlusRaw(0, insn.b, insn.a);
        KC_LANES(col[l] += step;);
        break;
      }
      case Op::IncSlotI: {
        std::int64_t* col = iCol(slotAt(insn.a));
        const std::int64_t d = insn.b;
        KC_LANES(col[l] = static_cast<std::int32_t>(col[l] + d););
        break;
      }

      // Binary arithmetic, comparisons and PtrAdd (by its element size a),
      // stack form.
      case Op::PtrAdd:
      case Op::AddI: case Op::SubI: case Op::MulI: case Op::DivI: case Op::RemI:
      case Op::DivU: case Op::RemU: case Op::AndI: case Op::OrI: case Op::XorI:
      case Op::ShlI: case Op::ShrI: case Op::ShrU:
      case Op::AddL: case Op::SubL: case Op::MulL: case Op::DivL: case Op::RemL:
      case Op::DivUL: case Op::RemUL: case Op::AndL: case Op::OrL: case Op::XorL:
      case Op::ShlL: case Op::ShrL: case Op::ShrUL:
      case Op::AddF32: case Op::SubF32: case Op::MulF32: case Op::DivF32:
      case Op::AddF64: case Op::SubF64: case Op::MulF64: case Op::DivF64:
      case Op::EqI: case Op::NeI: case Op::LtI: case Op::LeI: case Op::GtI: case Op::GeI:
      case Op::LtU: case Op::LeU: case Op::GtU: case Op::GeU:
      case Op::LtUL: case Op::LeUL: case Op::GtUL: case Op::GeUL:
      case Op::EqF: case Op::NeF: case Op::LtF: case Op::LeF: case Op::GtF: case Op::GeF:
      case Op::EqP: case Op::NeP:
        --sp;
        binary(insn.op, stackAt(sp - 1), stackAt(sp), stackAt(sp - 1), insn.a);
        break;

      // Register form: the same lane loops on the operands' own columns.
      case Op::RegOp:
      case Op::RegStore: {
        const Slot* y = operand(regY(insn.c), insn.k);
        const Slot* x = operand(regX(insn.c), insn.b);
        Slot* dst = insn.op == Op::RegOp ? stackAt(sp++) : slotAt(insn.a);
        binary(regOp(insn.c), x, y, dst, regElemSize(insn.c));
        break;
      }

      case Op::NegI: {
        std::int64_t* col = iCol(stackAt(sp - 1));
        KC_LANES(col[l] = static_cast<std::int32_t>(-col[l]););
        break;
      }
      case Op::NotI: {
        std::int64_t* col = iCol(stackAt(sp - 1));
        KC_LANES(col[l] = static_cast<std::int32_t>(~col[l]););
        break;
      }

      case Op::NegL: {
        std::int64_t* col = iCol(stackAt(sp - 1));
        KC_LANES(col[l] = static_cast<std::int64_t>(-static_cast<std::uint64_t>(col[l])););
        break;
      }
      case Op::NotL: {
        std::int64_t* col = iCol(stackAt(sp - 1));
        KC_LANES(col[l] = ~col[l];);
        break;
      }

      case Op::NegF32: {
        double* col = fCol(stackAt(sp - 1));
        KC_LANES(col[l] = -static_cast<float>(col[l]););
        break;
      }
      case Op::NegF64: {
        double* col = fCol(stackAt(sp - 1));
        KC_LANES(col[l] = -col[l];);
        break;
      }

      case Op::LNot: {
        std::int64_t* col = iCol(stackAt(sp - 1));
        KC_LANES(col[l] = col[l] == 0 ? 1 : 0;);
        break;
      }

#define KC_CONV(OPNAME, SRCVIEW, DSTVIEW, EXPR)  \
  case Op::OPNAME: {                             \
    Slot* c = stackAt(sp - 1);                   \
    const auto* src = SRCVIEW(c);                \
    auto* dst = DSTVIEW(c);                      \
    KC_LANES(const auto v = src[l];              \
             dst[l] = EXPR;);                    \
    break;                                       \
  }
      KC_CONV(I2F32, iCol, fCol, static_cast<float>(v))
      KC_CONV(I2F64, iCol, fCol, static_cast<double>(v))
      KC_CONV(U2F32, iCol, fCol, static_cast<float>(static_cast<std::uint32_t>(v)))
      KC_CONV(U2F64, iCol, fCol, static_cast<double>(static_cast<std::uint32_t>(v)))
      KC_CONV(UL2F32, iCol, fCol, static_cast<float>(static_cast<std::uint64_t>(v)))
      KC_CONV(UL2F64, iCol, fCol, static_cast<double>(static_cast<std::uint64_t>(v)))
      KC_CONV(F2I, fCol, iCol, floatToInt<std::int32_t>(v))
      KC_CONV(F2L, fCol, iCol, floatToInt<std::int64_t>(v))
      KC_CONV(F2U, fCol, iCol, floatToInt<std::uint32_t>(v))
      KC_CONV(F2UL, fCol, iCol, floatToInt<std::uint64_t>(v))
      KC_CONV(F64toF32, fCol, fCol, static_cast<float>(v))
      KC_CONV(I2U, iCol, iCol,
              static_cast<std::int64_t>(static_cast<std::uint32_t>(v)))
      KC_CONV(U2I, iCol, iCol,
              static_cast<std::int32_t>(static_cast<std::uint32_t>(v)))
      KC_CONV(BoolNorm, iCol, iCol, v != 0 ? 1 : 0)
#undef KC_CONV

      case Op::Jmp:
        jump(insn.a);
        break;

      // Compare-branches and plain jz/jnz share condBranch: a dense group
      // counts the lanes that jump and splits only when some do and some do
      // not; a lane-list group partitions its list in the same pass that
      // evaluates the condition.
      case Op::CmpJz:
      case Op::CmpJnz:
      case Op::RegJz:
      case Op::RegJnz: {
        const bool reg = insn.op == Op::RegJz || insn.op == Op::RegJnz;
        const Op cmp = reg ? regOp(insn.c) : static_cast<Op>(insn.c);
        const Slot* y = reg ? operand(regY(insn.c), insn.k) : stackAt(--sp);
        const Slot* x = reg ? operand(regX(insn.c), insn.b) : stackAt(--sp);
        const bool jumpOnTrue = insn.op == Op::CmpJnz || insn.op == Op::RegJnz;
        condBranch(
            insn.a,
            [&] {
              const std::int32_t nTrue = countHolds(cmp, laneSet(), x, y);
              return jumpOnTrue ? nTrue : cnt - nTrue;
            },
            [&](std::int32_t* stay, std::int32_t* taken) {
              return splitOnCompare(cmp, laneSet(), x, y, jumpOnTrue, stay, taken);
            },
            [&] { branchMask(cmp, laneSet(), x, y, jumpOnTrue, mask); });
        break;
      }
      case Op::Jz:
      case Op::Jnz: {
        const bool jumpOnTrue = insn.op == Op::Jnz;
        const std::int64_t* cond = iCol(stackAt(--sp));
        condBranch(
            insn.a,
            [&] {
              std::int32_t nTrue = 0;
              KC_LANES(nTrue += cond[l] != 0 ? 1 : 0;);
              return jumpOnTrue ? nTrue : cnt - nTrue;
            },
            [&](std::int32_t* stay, std::int32_t* taken) {
              return splitOnTruth(laneSet(), cond, jumpOnTrue, stay, taken);
            },
            [&] { KC_LANES(mask[li] = (cond[l] != 0) == jumpOnTrue ? 1 : 0;); });
        break;
      }

      case Op::CallBuiltin: {
        checkBudget();
        const BuiltinDef& def = builtinTable()[static_cast<std::size_t>(insn.a)];
        const std::int32_t argc = insn.b;
        sp -= argc;
        if (def.column != BuiltinColumn::None) {
          // Arguments in columns sp, sp+1, ...; the result replaces the first.
          switch (def.column) {
#define KC_COLUMN1(KIND, VIEW, EXPR) \
  case BuiltinColumn::KIND: {          \
    auto* x = VIEW(stackAt(sp));       \
    KC_LANES(x[l] = EXPR;);            \
    break;                             \
  }
#define KC_COLUMN2(KIND, VIEW, EXPR)         \
  case BuiltinColumn::KIND: {                \
    auto* x = VIEW(stackAt(sp));             \
    const auto* y = VIEW(stackAt(sp + 1));   \
    KC_LANES(x[l] = EXPR;);                  \
    break;                                   \
  }
            KC_COLUMN1(GlobalId, iCol, x[l] == 0 ? laneGid[l] : 0)
            KC_COLUMN1(SqrtF, fCol, static_cast<float>(std::sqrt(x[l])))
            KC_COLUMN1(FabsF, fCol, static_cast<float>(std::fabs(x[l])))
            KC_COLUMN1(FloorF, fCol, static_cast<float>(std::floor(x[l])))
            KC_COLUMN2(MinI, iCol, std::min(x[l], y[l]))
            KC_COLUMN2(MaxI, iCol, std::max(x[l], y[l]))
#undef KC_COLUMN1
#undef KC_COLUMN2
            case BuiltinColumn::FminF:
              minMaxLanes<false>(laneSet(), fCol(stackAt(sp)), fCol(stackAt(sp + 1)));
              break;
            case BuiltinColumn::FmaxF:
              minMaxLanes<true>(laneSet(), fCol(stackAt(sp)), fCol(stackAt(sp + 1)));
              break;
            case BuiltinColumn::ClampI: {
              std::int64_t* x = iCol(stackAt(sp));
              const std::int64_t* lo = iCol(stackAt(sp + 1));
              const std::int64_t* hi = iCol(stackAt(sp + 2));
              KC_LANES(x[l] = std::min(std::max(x[l], lo[l]), hi[l]););
              break;
            }
            case BuiltinColumn::None:
              break;
          }
          ++sp;
          break;
        }
        if (def.atomic != AtomicOp::None) {
          // Deferred (FunctionCode::atomicArgs): the group memory check
          // faults now, on the right work-item; finishBatchAtomics applies
          // the records.  The result is dropped by the next instruction.
          const Slot* ptr = stackAt(sp);
          const Slot* va = argc > 1 ? stackAt(sp + 1) : ptr;
          const Slot* vb = argc > 2 ? stackAt(sp + 2) : ptr;
          const AtomicOp op = def.atomic;
          atomicOps |= 1u << static_cast<unsigned>(op);
          groupAccess(4, rawCol(ptr), nullptr, 0);  // fills addr
          const std::size_t logged = batchAtomics_.size();
          batchAtomics_.resize(logged + static_cast<std::size_t>(cnt));
          DeferredAtomic* const rec = batchAtomics_.data() + logged;
          KC_LANES(const std::uint64_t word = addr[li];
                   rec[li] = DeferredAtomic{offsetOf(word), static_cast<std::uint16_t>(word), op,
                                            static_cast<std::uint8_t>(laneGid[l] - gidBase),
                                            atomicWord(op, va[l]), atomicWord(op, vb[l])};);
          std::int64_t* res = iCol(stackAt(sp));
          KC_LANES(res[l] = 0;);
          ++sp;
          break;
        }
        SKELCL_CHECK(argc <= 8, "builtin arity exceeds batch marshalling buffer");
        const Slot* argCol[8];
        for (std::int32_t a2 = 0; a2 < argc; ++a2) argCol[a2] = stackAt(sp + a2);
        Slot argv[8];
        Slot* res = stackAt(sp);
        const BuiltinFn call = def.fn;
        // Geometry builtins read globalId_ through BuiltinCtx.
        switch (def.ret == BType::Void ? 0 : argc) {
          case 1:
            KC_LANES(globalId_ = laneGid[l]; argv[0] = argCol[0][l];
                     res[l] = call(*this, argv););
            break;
          case 2:
            KC_LANES(globalId_ = laneGid[l]; argv[0] = argCol[0][l]; argv[1] = argCol[1][l];
                     res[l] = call(*this, argv););
            break;
          default:
            KC_LANES(globalId_ = laneGid[l];
                     for (std::int32_t a2 = 0; a2 < argc; ++a2) argv[a2] = argCol[a2][l];
                     const Slot r = call(*this, argv);
                     if (def.ret != BType::Void) res[l] = r;);
            break;
        }
        if (def.ret != BType::Void) ++sp;
        break;
      }

      case Op::Dup: {
        const std::uint64_t* src = rawCol(stackAt(sp - 1));
        std::uint64_t* dst = rawCol(stackAt(sp));
        KC_LANES(dst[l] = src[l];);
        ++sp;
        break;
      }
      case Op::Drop:
        --sp;
        break;

      case Op::RetVoid: {
        // This group's lanes are done; continue with the lowest-pc group.
        if (nPending == 0) {
          finishBatchAtomics(n, atomicOps);
          currentFunction_ = savedFunction;
          return;
        }
        if constexpr (kLaneLists) freeSlots[nFree++] = static_cast<std::int16_t>(off);
        enterLowest();
        break;
      }

      case Op::Trap:
        globalId_ = laneGid[dense ? laneOff : lanes[0]];
        fault("non-void function reached the end without returning a value");
        break;

      // Excluded by FunctionCode::batchable, or never packed; reaching one is
      // a VM bug.
      case Op::PushF:
      case Op::LeaFrame:
      case Op::MemCopy:
      case Op::CallFn:
      case Op::Ret:
      default:
        globalId_ = laneGid[dense ? laneOff : lanes[0]];
        fault("non-batchable instruction in batched execution");
    }
  }
#undef KC_LANES
}

}  // namespace skelcl::kc
