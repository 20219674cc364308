// skelcheck: randomized differential state-machine testing for SkelCL.
//
// A Program is a (usually seeded) sequence of operations over a small pool
// of vectors: host reads/writes, distribution changes, skeleton calls with
// random additional arguments, pipeline fusion on/off, scheduler weights,
// device blacklisting and injected faults.  The runner (runner.hpp)
// executes it twice in lockstep -- once against the live SkelCL system and
// once against a pure host-side reference model (model.hpp) -- comparing
// error classes, coherence flags, distribution state, part layouts and, at
// probe points, full bitwise vector contents.  Failing programs shrink
// (shrink.hpp) to minimal repros serialized as replayable .skelcheck files.
//
// The op grammar, replay format and repro-to-regression-test workflow are
// documented in docs/TESTING.md.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace skelcl::check {

enum class ElemType { I32, F32 };

inline const char* elemName(ElemType t) { return t == ElemType::I32 ? "i32" : "f32"; }

// --- bit-pattern helpers ----------------------------------------------------
// All model values are stored as raw 32-bit patterns; interpretation happens
// at op-evaluation time.  Comparisons are bitwise, so -0.0f and NaN payloads
// must survive every conversion.

inline std::uint32_t bitsOfI(std::int32_t v) {
  std::uint32_t b;
  std::memcpy(&b, &v, 4);
  return b;
}
inline std::uint32_t bitsOfF(float v) {
  std::uint32_t b;
  std::memcpy(&b, &v, 4);
  return b;
}
inline std::int32_t asI(std::uint32_t b) {
  std::int32_t v;
  std::memcpy(&v, &b, 4);
  return v;
}
inline float asF(std::uint32_t b) {
  float v;
  std::memcpy(&v, &b, 4);
  return v;
}

/// Deterministic fill/poke/write value: both the runner (feeding the live
/// system) and the model call this, so the two sides agree by construction.
/// Float values are multiples of 0.25 with |v| < 256 -- exactly
/// representable, so host-computed references start from clean bits.
inline std::uint32_t valueAt(ElemType t, std::int64_t x) {
  if (t == ElemType::I32) return bitsOfI(static_cast<std::int32_t>(x));
  return bitsOfF(static_cast<float>(x % 1024) * 0.25f);
}

// --- op grammar -------------------------------------------------------------

enum class OpKind {
  Fill,        ///< host-write pool[a][i] = valueAt(base + i*step)
  Write,       ///< host-write pool[a][index] = valueAt(value)
  SetDist,     ///< pool[a].setDistribution(dist)
  Alias,       ///< pool[dst] = pool[a]  (handle copy: the two slots share data)
  Map,         ///< map over pool[a] into pool[dst] (fresh or in-place)
  Zip,         ///< zip pool[a], pool[b] into pool[dst]
  Reduce,      ///< reduce pool[a]; result compared bitwise
  Scan,        ///< scan pool[a] into pool[dst]
  Pipe,        ///< pipeline of map/zip stages over pool[a] into pool[dst]
  PipeReduce,  ///< pipeline + fused reduce over pool[a]
  Weights,     ///< setPartitionWeights on the current session
  Blacklist,   ///< skelcl::blacklistDevice(device)
  Fault,       ///< install a FaultPlan (transient rules + optional kill)
  Poke,        ///< write pool[a]'s device part directly + dataOnDevicesModified
  Probe,       ///< host-read pool[a]; full bitwise content comparison
  Session,     ///< switch the current session to slot `device` (created on
               ///< first use; slot 0 is the default session), then optionally
               ///< setPartitionWeights(weights) on it when `weights` is
               ///< non-empty — partition weights are per-session state
  Cancel,      ///< pause the lazily-created Service, submit pool[a] through a
               ///< map job: run=0 cancels it before it runs (state no-op),
               ///< run=1 resumes and stores the result into pool[dst].
               ///< F32-only (the service job interface is float).
  MapOverlap,  ///< 1D stencil over pool[a] into pool[dst] (fresh or in-place)
               ///< with halo exchange between row blocks: fn is a Stencil1
               ///< catalog function, `radius` the overlap, `pad` the boundary
               ///< policy (0 neutral ci/cf, 1 clamp)
  MatStencil,  ///< 2D stencil: reinterpret the first rows*cols elements of
               ///< pool[a] (rows = n / cols) as a Matrix, run a Stencil2
               ///< MapOverlap over it, and write the result back into the
               ///< first rows*cols elements of pool[dst]
};

enum class DistKind { Single, Block, WBlock, Copy, CopyCombine };

struct DistSpec {
  DistKind kind = DistKind::Block;
  int device = 0;               ///< Single
  std::vector<double> weights;  ///< WBlock
  std::string fn;               ///< CopyCombine: catalog function id
};

/// One pipeline stage.  Its extra argument is implied by the function's
/// shape: a scalar (ci/cf), or the vector or sizes token of `extraVec`.
struct StageSpec {
  bool isZip = false;
  int zipVec = -1;  ///< pool slot of the zip right-hand side
  std::string fn;   ///< catalog function id
  std::int64_t ci = 0;
  double cf = 0.0;
  bool hasScalar = false;
  int extraVec = -1;  ///< UnaryVec / UnarySizes extra-argument slot (-1 none)
};

struct Op {
  OpKind kind = OpKind::Probe;
  int a = -1;        ///< primary input slot
  int b = -1;        ///< zip second input slot
  int dst = -1;      ///< output slot
  bool inPlace = false;  ///< write into the existing pool[dst] via out()
  std::string fn;
  std::int64_t ci = 0;   ///< scalar extra (int value; also sizes unused)
  double cf = 0.0;       ///< scalar extra (float value)
  bool hasScalar = false;
  int extraVec = -1;     ///< MapVec / MapSizes extra-argument slot
  DistSpec dist;
  std::vector<double> weights;
  int device = -1;       ///< Blacklist / Poke device; Fault kill device (-1 none);
                         ///< Session slot (0..3)
  /// Fault transient rules: {device, class (0 transfer / 1 kernel), count<=3}.
  std::vector<std::array<std::int64_t, 3>> transients;
  /// Fault slowdown rules: {device, factor (2 tolerated / 8 watchdog-aborted),
  /// count (0 = every command)}.  Any command class.
  std::vector<std::array<std::int64_t, 3>> slows;
  /// Fault hang rules: {device, count>=1}.  Any command class; the watchdog
  /// aborts each hung command and the recovery layer degrades the device.
  std::vector<std::array<std::int64_t, 2>> hangs;
  bool run = false;  ///< Cancel: true = run to completion, false = cancel
  std::int64_t base = 0, step = 0;  ///< Fill / Poke pattern
  std::int64_t index = 0, value = 0;  ///< Write
  std::vector<StageSpec> stages;
  bool unfused = false;
  int radius = 1;  ///< MapOverlap / MatStencil overlap radius (>= 1)
  int pad = 0;     ///< MapOverlap / MatStencil boundary: 0 neutral, 1 clamp
  int cols = 1;    ///< MatStencil matrix width (>= 1)
};

struct Config {
  int devices = 4;
  int nodes = 1;          ///< docl cluster nodes (devices spread evenly); 1 = local
  ElemType elem = ElemType::I32;
  std::size_t n = 64;
  int kcopt = 2;          ///< SKELCL_KC_OPT tier: 0 ref, 1 fast, 2 rewrite+batch
  std::uint64_t seed = 0; ///< generator seed (0 for hand-written programs)
  int poolSize = 5;
};

struct Program {
  Config cfg;
  std::vector<Op> ops;
};

// --- replay files (program.cpp) ---------------------------------------------

/// Text form, replayable via `skelcheck --replay` (format: docs/TESTING.md).
std::string serialize(const Program& program);
/// Inverse of serialize.  Throws std::runtime_error on malformed input.
Program parse(const std::string& text);

}  // namespace skelcl::check
