// Interpreter throughput benchmark (docs/VM.md): runs mandelbrot-shaped,
// OSEM-shaped and Gaussian-blur-stencil kernels, plus the kernels SkelCL
// itself generates for a map, a reduce, a 2D stencil (and its halo pack
// kernel) and OSEM's step 1, on the kernelc VM across the whole tier
// ladder —
//   ref    tier 0, the guarded reference interpreter (SKELCL_KC_OPT=0)
//   fast   tier 1, peephole superinstructions + packed encoding
//   tier2  tier 2 pipeline (struct scalar replacement, call inlining,
//          register form) on the sequential interpreter
//   batch  tier 2 pipeline on the work-group-batched interpreter
//          (Vm::runKernelBatch, 256-lane groups)
// and reports Minstructions/s plus speedups over the tiers below.  Times are
// the bench thread's CPU time (CLOCK_THREAD_CPUTIME_ID), so a busy host
// preempting it does not count; fast and batch run as interleaved
// repetitions, each reported at its median, and batch/fast is the median of
// the per-repetition ratios.  Each row ends with the batched run's
// dispatches per work-item, mean live lanes per dispatch, columns moved per
// compaction split, and divergent splits and lane-list merges per
// work-item.  Outputs must be bit-identical and the
// retired-instruction counts equal across every run, otherwise the
// simulated GPU timings would drift; the benchmark exits nonzero on any
// divergence.
//
//   usage: bench_vm [--smoke] [--gate]
//     --smoke   small sizes (CI), one repetition: divergence checks only
//     --gate    additionally require batch >= 3x fast on mandelbrot, osem
//               and the map, reduce, stencil and halo pack kernels, and
//               batch >= 2.5x fast on OSEM's step 1
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "kernelc/program.hpp"
#include "kernelc/vm.hpp"
#include "osem/osem.hpp"
#include "osem/osem_kernels.hpp"

using namespace skelcl::kc;

namespace {

const char* const kMandelSrc = R"(
  __kernel void mandel(__global float* out, int width, int maxIter) {
    int gid = get_global_id(0);
    int px = gid % width;
    int py = gid / width;
    float cr = -2.0f + 3.0f * (float)px / (float)width;
    float ci = -1.5f + 3.0f * (float)py / (float)width;
    float zr = 0.0f; float zi = 0.0f;
    int it = 0;
    while (it < maxIter) {
      float zr2 = zr * zr; float zi2 = zi * zi;
      if (zr2 + zi2 > 4.0f) break;
      zi = 2.0f * zr * zi + ci;
      zr = zr2 - zi2 + cr;
      ++it;
    }
    out[gid] = (float)it;
  }
)";

const char* const kOsemSrc = R"(
  __kernel void project(__global float* img, __global float* out, int n, int span) {
    int gid = get_global_id(0);
    float acc = 0.0f;
    for (int i = 0; i < span; ++i) {
      acc = acc + img[(gid + i) % n] * 0.5f;
    }
    if (acc != 0.0f) acc = 1.0f / acc;
    out[gid] = acc;
  }
)";

// Vertical 5-tap Gaussian over a column-pitched image: each work-item reads
// its own column's taps at gid + t*512 from a halo-padded input.  Exercises
// register-form index arithmetic (t*512 reads the loop slot and a constant)
// and the LoadElem superinstructions on the tap and weight loads.
const char* const kBlurSrc = R"(
  __kernel void blur(__global float* in, __global float* w, __global float* out) {
    int gid = get_global_id(0);
    float acc = 0.0f;
    for (int t = 0; t < 5; t = t + 1) {
      acc = acc + w[t] * in[gid + t * 512];
    }
    out[gid] = acc;
  }
)";

// The exact kernel text SkelCL generates (src/core/detail/skeleton_exec.cpp
// templates, no additional arguments) for perfbench's cluster_mix: its
// 64-step map, its reduce, and its 2D Jacobi MapOverlap, whose program also
// carries the pack kernel (the stencil kernel is the one timed).  Every one
// calls the user function, so none batches unless tier 2 inlines it.  The
// map is a one-stage chain, whose functions carry the stage-0 prefix.
const char* const kHeavyStage =
    "float skelcl_s0_func(float x) { float s = x;"
    " for (int i = 0; i < 64; ++i) s = s * 0.5f + 1.0f; return s; }";
const char* const kAddFunc = "float func(float a, float b) { return a + b; }";
const char* const kJacobiFunc =
    "float func(__global float* m, int i, int s) {"
    "  return 0.25f * (m[i - s] + m[i - 1] + m[i + 1] + m[i + s]);"
    "}";

const std::string kSkelMapSrc =
    std::string(kHeavyStage) +
    "\n__kernel void skelcl_fused(__global float* skelcl_in, __global float* skelcl_out, "
    "int skelcl_n, int skelcl_base) {\n"
    "  int skelcl_i = get_global_id(0);\n"
    "  if (skelcl_i < skelcl_n) skelcl_out[skelcl_i] = skelcl_s0_func(skelcl_in[skelcl_i]);\n"
    "}\n";

const std::string kSkelReduceSrc =
    std::string(kAddFunc) +
    "\n__kernel void skelcl_reduce(__global float* skelcl_in, __global float* "
    "skelcl_partials, int skelcl_n, int skelcl_chunk) {\n"
    "  int skelcl_w = get_global_id(0);\n"
    "  int skelcl_begin = skelcl_w * skelcl_chunk;\n"
    "  int skelcl_end = min(skelcl_begin + skelcl_chunk, skelcl_n);\n"
    "  float skelcl_acc = skelcl_in[skelcl_begin];\n"
    "  for (int skelcl_i = skelcl_begin + 1; skelcl_i < skelcl_end; ++skelcl_i)\n"
    "    skelcl_acc = func(skelcl_acc, skelcl_in[skelcl_i]);\n"
    "  skelcl_partials[skelcl_w] = skelcl_acc;\n}\n";

const std::string kSkelJacobiSrc =
    std::string(kJacobiFunc) +
    "\n__kernel void skelcl_mo_pack(__global float* skelcl_src, __global float* skelcl_pad, "
    "int skelcl_total, int skelcl_rows, int skelcl_cols, int skelcl_stride, int skelcl_r, "
    "int skelcl_row0, int skelcl_prows, float skelcl_neutral) {\n"
    "  int skelcl_i = get_global_id(0);\n"
    "  if (skelcl_i < skelcl_total) {\n"
    "    int skelcl_prow = skelcl_i / skelcl_stride;\n"
    "    int skelcl_col = skelcl_i % skelcl_stride - skelcl_r;\n"
    "    int skelcl_arow = skelcl_row0 - skelcl_r + skelcl_prow;\n"
    "    if (skelcl_col < 0 || skelcl_col >= skelcl_cols || skelcl_arow < 0 || "
    "skelcl_arow >= skelcl_rows) {\n"
    "      int skelcl_crow = clamp(skelcl_arow, 0, skelcl_rows - 1);\n"
    "      int skelcl_ccol = clamp(skelcl_col, 0, skelcl_cols - 1);\n"
    "      if (skelcl_crow >= skelcl_row0 && skelcl_crow < skelcl_row0 + skelcl_prows) {\n"
    "        skelcl_pad[skelcl_i] = "
    "skelcl_src[(skelcl_crow - skelcl_row0) * skelcl_cols + skelcl_ccol];\n"
    "      } else {\n"
    "        skelcl_pad[skelcl_i] = skelcl_pad[(skelcl_crow - skelcl_row0 + skelcl_r) * "
    "skelcl_stride + skelcl_r + skelcl_ccol];\n"
    "      }\n"
    "    } else if (skelcl_arow >= skelcl_row0 && skelcl_arow < skelcl_row0 + skelcl_prows) "
    "{\n"
    "      skelcl_pad[skelcl_i] = "
    "skelcl_src[(skelcl_arow - skelcl_row0) * skelcl_cols + skelcl_col];\n"
    "    }\n"
    "  }\n}\n"
    "__kernel void skelcl_overlap2(__global float* skelcl_pad, __global float* skelcl_out, "
    "int skelcl_n, int skelcl_cols, int skelcl_stride, int skelcl_r) {\n"
    "  int skelcl_i = get_global_id(0);\n"
    "  if (skelcl_i < skelcl_n) {\n"
    "    int skelcl_row = skelcl_i / skelcl_cols;\n"
    "    int skelcl_col = skelcl_i % skelcl_cols;\n"
    "    skelcl_out[skelcl_i] = func(skelcl_pad, "
    "(skelcl_row + skelcl_r) * skelcl_stride + skelcl_col + skelcl_r, skelcl_stride);\n"
    "  }\n}\n";

// OSEM's step 1 as SkelCL generates it for Listing 3's Map<int(Index)>, a
// one-stage chain over the index range: the Event typedef, the user function
// (struct copy, forward-projection march, atomic back-projection march) with
// its two functions renamed for stage 0, and the chain kernel with its nine
// additional arguments (skeleton_exec.cpp, runChainOnce).
std::string skelOsemStep1Src() {
  using namespace skelcl::osem;
  std::string user = step1UserFunctionSource();
  for (const std::string name : {"osem_march(", "func("}) {
    for (std::size_t at = user.find(name); at != std::string::npos;
         at = user.find(name, at + std::strlen("skelcl_s0_") + name.size())) {
      user.insert(at, "skelcl_s0_");
    }
  }
  return eventTypedefSource() + "\n" + user +
         "\n__kernel void skelcl_fused(__global int* skelcl_out, int skelcl_n, "
         "int skelcl_base, __global Event* skelcl_s0_a0, int skelcl_s0_a1, int skelcl_s0_a2, "
         "__global float* skelcl_s0_a3, __global float* skelcl_s0_a4, int skelcl_s0_a5, "
         "int skelcl_s0_a6, int skelcl_s0_a7, float skelcl_s0_a8) {\n"
         "  int skelcl_i = get_global_id(0);\n"
         "  if (skelcl_i < skelcl_n) skelcl_out[skelcl_i] = skelcl_s0_func(skelcl_base + "
         "skelcl_i, skelcl_s0_a0, skelcl_s0_a1, skelcl_s0_a2, skelcl_s0_a3, skelcl_s0_a4, "
         "skelcl_s0_a5, skelcl_s0_a6, skelcl_s0_a7, skelcl_s0_a8);\n}\n";
}

struct RunResult {
  double seconds = 0.0;
  std::uint64_t instructions = 0;
  std::uint64_t dispatches = 0;  ///< batched dispatches (Vm::batchDispatches)
  std::uint64_t laneSum = 0;     ///< live lanes summed over them
  std::uint64_t splits = 0;      ///< divergent splits (Vm::batchSplits)
  std::uint64_t merges = 0;      ///< lane-list merges (Vm::batchMerges)
  std::uint64_t columnsMoved = 0;  ///< columns they partitioned (Vm::batchColumnsMoved)
};

/// CPU time the calling thread has used, in seconds.
double threadSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// One kernel argument: a buffer with its initial contents, or a scalar.
struct Arg {
  std::vector<std::byte> buffer;
  Slot scalar;
  bool isScalar = false;
};

/// `count` floats 0.25 * ((i*7 + seed) % 100 + 1).
Arg floats(std::int64_t count, int seed) {
  std::vector<float> v(static_cast<std::size_t>(count));
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = 0.25f * static_cast<float>((i * 7 + static_cast<std::size_t>(seed)) % 100 + 1);
  }
  Arg a;
  a.buffer.resize(v.size() * sizeof(float));
  std::memcpy(a.buffer.data(), v.data(), a.buffer.size());
  return a;
}
Arg zeros(std::int64_t bytes) {
  Arg a;
  a.buffer.assign(static_cast<std::size_t>(bytes), std::byte{0});
  return a;
}
Arg scalar(Slot value) {
  Arg a;
  a.scalar = value;
  a.isScalar = true;
  return a;
}
Arg integer(std::int64_t v) { return scalar(Slot::fromInt(v)); }

struct Workload {
  const char* name;
  std::string source;
  const char* kernel;
  std::int64_t items;
  std::vector<Arg> args;  ///< the kernel's parameters, in order
};

struct Config {
  const char* name;
  int tier;
  bool batch;
};

/// Run `w` under `cfg` on fresh copies of its buffers, which `buffers`
/// receives afterwards for the bit-identity check.
RunResult runWorkload(const Workload& w, const Config& cfg,
                      std::vector<std::vector<std::byte>>& buffers) {
  const auto program = compileProgram(w.source, CompileOptions{cfg.tier});

  buffers.clear();
  for (const Arg& a : w.args) {
    if (!a.isScalar) buffers.push_back(a.buffer);
  }
  std::vector<MemRegion> regions;
  std::vector<Slot> args;
  for (const Arg& a : w.args) {
    if (a.isScalar) {
      args.push_back(a.scalar);
      continue;
    }
    std::vector<std::byte>& b = buffers[regions.size()];
    regions.push_back(MemRegion{b.data(), b.size()});
    Ptr p;
    p.region = static_cast<std::int32_t>(regions.size());
    p.offset = 0;
    args.push_back(Slot::fromPtr(p));
  }

  Vm vm(*program, regions);
  const int k = program->findKernel(w.kernel);
  if (k < 0) {
    std::fprintf(stderr, "no kernel '%s'\n", w.kernel);
    std::exit(1);
  }
  const double t0 = threadSeconds();
  if (cfg.batch) {
    for (std::int64_t gid = 0; gid < w.items;) {
      const std::int64_t lanes = std::min<std::int64_t>(w.items - gid, Vm::kBatchLanes);
      vm.runKernelBatch(k, args, gid, lanes, w.items);
      gid += lanes;
    }
  } else {
    for (std::int64_t gid = 0; gid < w.items; ++gid) {
      vm.runKernel(k, args, gid, w.items);
    }
  }
  const double t1 = threadSeconds();

  RunResult r;
  r.seconds = t1 - t0;
  r.instructions = vm.instructionsExecuted();
  r.dispatches = vm.batchDispatches();
  r.laneSum = vm.batchLaneSum();
  r.splits = vm.batchSplits();
  r.merges = vm.batchMerges();
  r.columnsMoved = vm.batchColumnsMoved();
  return r;
}

constexpr Config kConfigs[] = {
    {"ref", 0, false},
    {"fast", 1, false},
    {"tier2", 2, false},
    {"batch", 2, true},
};
constexpr int kNumConfigs = static_cast<int>(sizeof(kConfigs) / sizeof(kConfigs[0]));

struct BenchOutcome {
  bool identical = true;
  double speedupBatchOverFast = 0.0;
};

/// Run ref and tier2 once, then fast and batch interleaved `reps` times;
/// every run is checked against ref.
BenchOutcome benchWorkload(const Workload& w, int reps) {
  constexpr int kRef = 0;
  constexpr int kFast = 1;
  constexpr int kTier2 = 2;
  constexpr int kBatch = 3;
  std::vector<double> seconds[kNumConfigs];
  std::vector<std::vector<std::byte>> refOut;
  std::vector<std::vector<std::byte>> out;
  const RunResult ref = runWorkload(w, kConfigs[kRef], refOut);
  seconds[kRef].push_back(ref.seconds);

  BenchOutcome outcome;
  RunResult batched;
  const auto runChecked = [&](int c) {
    const RunResult r = runWorkload(w, kConfigs[c], out);
    if (r.instructions != ref.instructions) {
      std::fprintf(stderr, "%s: retired-instruction mismatch: %s %llu vs ref %llu\n", w.name,
                   kConfigs[c].name, static_cast<unsigned long long>(r.instructions),
                   static_cast<unsigned long long>(ref.instructions));
      outcome.identical = false;
    }
    if (out != refOut) {
      std::fprintf(stderr, "%s: %s output is not bit-identical to ref\n", w.name,
                   kConfigs[c].name);
      outcome.identical = false;
    }
    seconds[c].push_back(r.seconds);
    if (c == kBatch) batched = r;
    return r.seconds;
  };
  runChecked(kTier2);
  std::vector<double> ratios;
  for (int rep = 0; rep < reps; ++rep) {
    const double fast = runChecked(kFast);
    const double batch = runChecked(kBatch);
    ratios.push_back(batch > 0 ? fast / batch : 0.0);
  }

  std::printf("%-12s %12llu instr  ", w.name,
              static_cast<unsigned long long>(ref.instructions));
  for (int c = 0; c < kNumConfigs; ++c) {
    const double sec = median(seconds[c]);
    const double mips = sec > 0 ? static_cast<double>(ref.instructions) / sec / 1e6 : 0.0;
    std::printf(" %s %8.1f Mi/s", kConfigs[c].name, mips);
  }
  const double batchSec = median(seconds[kBatch]);
  outcome.speedupBatchOverFast = median(ratios);
  std::printf("   batch/fast %.2fx  batch/ref %.2fx", outcome.speedupBatchOverFast,
              batchSec > 0 ? ref.seconds / batchSec : 0.0);
  // Where the batched interpreter's time goes: dispatches (one opcode over
  // one lane group) per work-item, how many lanes each one drives, how many
  // columns a divergent split partitions (0 on lane lists), and how often
  // groups split and, on lane lists, merge again.
  const auto items = static_cast<double>(w.items);
  const auto dispatches = static_cast<double>(batched.dispatches);
  const auto splits = static_cast<double>(batched.splits);
  std::printf("   %.3f disp/item  %.1f lanes/disp  %.1f cols/split  %.3f splits/item"
              "  %.3f merges/item\n",
              dispatches / items,
              dispatches > 0 ? static_cast<double>(batched.laneSum) / dispatches : 0.0,
              splits > 0 ? static_cast<double>(batched.columnsMoved) / splits : 0.0,
              splits / items, static_cast<double>(batched.merges) / items);
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool gate = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--gate") == 0) gate = true;
  }

  const int width = smoke ? 32 : 512;
  const std::int64_t mandelItems = static_cast<std::int64_t>(width) * width;
  const int maxIter = smoke ? 32 : 512;
  const std::int64_t osemItems = smoke ? 512 : 16384;
  const int osemSpan = smoke ? 64 : 512;
  const std::int64_t blurItems = smoke ? 1024 : 65536;

  const auto floatBytes = [](std::int64_t count) {
    return count * static_cast<std::int64_t>(sizeof(float));
  };
  const Workload mandel{"mandelbrot", kMandelSrc, "mandel", mandelItems,
                        {zeros(floatBytes(mandelItems)), integer(width), integer(maxIter)}};
  const Workload osem{"osem", kOsemSrc, "project", osemItems,
                      {floats(osemItems, 0), zeros(floatBytes(osemItems)), integer(osemItems),
                       integer(osemSpan)}};
  // Input is halo-padded: taps reach up to gid + 4*512 past the last item.
  const Workload blur{"blur", kBlurSrc, "blur", blurItems,
                      {floats(blurItems + 5 * 512, 0), floats(5, 1),
                       zeros(floatBytes(blurItems))}};

  // SkelCL's kernels, sized so the batched pass lasts tens of milliseconds
  // (shorter passes made the gated ratio noisy).
  const std::int64_t mapItems = smoke ? 1024 : 65536;
  const std::int64_t partials = smoke ? 64 : 4096;
  const std::int64_t chunk = smoke ? 16 : 256;
  const std::int64_t rows = smoke ? 8 : 2048;
  const std::int64_t cols = smoke ? 32 : 512;
  const std::int64_t stride = cols + 2;
  const Workload skelMap{"skelcl-map", kSkelMapSrc, "skelcl_fused", mapItems,
                         {floats(mapItems, 0), zeros(floatBytes(mapItems)), integer(mapItems),
                          integer(0)}};
  const Workload skelReduce{"skelcl-reduce", kSkelReduceSrc, "skelcl_reduce", partials,
                            {floats(partials * chunk, 0), zeros(floatBytes(partials)),
                             integer(partials * chunk), integer(chunk)}};
  const Workload skelJacobi{"skelcl-jacobi", kSkelJacobiSrc, "skelcl_overlap2", rows * cols,
                            {floats((rows + 2) * stride, 0), zeros(floatBytes(rows * cols)),
                             integer(rows * cols), integer(cols), integer(stride), integer(1)}};
  // The stencil's halo pack over one whole-matrix part (rows 0..rows-1).
  const Workload skelPack{"skelcl-pack", kSkelJacobiSrc, "skelcl_mo_pack",
                          (rows + 2) * stride,
                          {floats(rows * cols, 0), zeros(floatBytes((rows + 2) * stride)),
                           integer((rows + 2) * stride), integer(rows), integer(cols),
                           integer(stride), integer(1), integer(0), integer(rows),
                           scalar(Slot::fromFloat(0.0))}};

  // OSEM's step 1 on perfbench's 48^3 volume: the events of one subset.
  skelcl::osem::OsemConfig osemCfg;
  osemCfg.volume.nx = osemCfg.volume.ny = osemCfg.volume.nz = 48;
  osemCfg.eventsPerSubset = smoke ? 256 : 8192;
  osemCfg.numSubsets = 1;
  const skelcl::osem::OsemData osemData = skelcl::osem::OsemData::generate(osemCfg);
  const auto& vol = osemData.volume();
  const auto events = static_cast<std::int64_t>(osemData.subsetSize());
  const auto voxels = static_cast<std::int64_t>(vol.voxels());
  Arg eventBytes;
  eventBytes.buffer.resize(osemData.events.size() * sizeof(skelcl::osem::Event));
  std::memcpy(eventBytes.buffer.data(), osemData.events.data(), eventBytes.buffer.size());
  Arg ones = zeros(floatBytes(voxels));
  for (std::int64_t v = 0; v < voxels; ++v) {
    const float one = 1.0f;
    std::memcpy(ones.buffer.data() + v * 4, &one, 4);
  }
  const Workload skelOsem{"skelcl-osem1", skelOsemStep1Src(), "skelcl_fused", events,
                          {zeros(events * 4), integer(events), integer(0), eventBytes,
                           integer(0), integer(events), ones, zeros(floatBytes(voxels)),
                           integer(vol.nx), integer(vol.ny), integer(vol.nz),
                           scalar(Slot::fromFloat(vol.voxel))}};

  // Interleaved fast/batch repetitions; the gate reads their median ratio.
  const int reps = smoke ? 1 : 5;
  bool ok = true;
  const auto run = [&](const Workload& w, double gatedRatio) {
    const BenchOutcome r = benchWorkload(w, reps);
    ok = ok && r.identical;
    if (gate && !smoke && gatedRatio > 0 && r.speedupBatchOverFast < gatedRatio) {
      std::fprintf(stderr, "gate: %s batch/fast %.2fx < %.1fx\n", w.name,
                   r.speedupBatchOverFast, gatedRatio);
      ok = false;
    }
  };
  run(mandel, 3.0);
  run(osem, 3.0);
  run(blur, 0);
  run(skelMap, 3.0);
  run(skelReduce, 3.0);
  run(skelJacobi, 3.0);
  run(skelPack, 3.0);
  run(skelOsem, 2.5);
  return ok ? 0 : 1;
}
