// Stencil scaling on multi-GPU vectors and matrices (docs/MATRIX.md): 1D
// stencils over a float Vector, a 3x3 Gaussian blur and iterated Jacobi
// sweeps over an NxN float Matrix, distributed as blocks with halo exchange
// between neighbouring devices.
//
// Three questions, answered in one run:
//   scaling     -- simulated seconds for 1/2/4 GPUs; near-linear because the
//                  halo traffic (2 * radius rows or elements per internal
//                  boundary per sweep) is tiny next to the per-device compute
//   halo cost   -- the trace collector counts every kind-"halo" record, so
//                  the exchange volume is printed next to the timings
//   recovery    -- device 2 of 4 is killed a few commands into a Jacobi run;
//                  the runtime repartitions onto the survivors, re-exchanges
//                  halos and re-executes, and the result must be bit-identical
//                  to an undisturbed 3-GPU run
//
//   usage: bench_stencil [--smoke] [--size N] [--iters K]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "core/detail/trace.hpp"
#include "core/skelcl.hpp"
#include "sim/device_spec.hpp"

using namespace skelcl;

namespace {

// 3x3 Gaussian blur, radius 1 (the paper's stencil showcase).
constexpr const char* kGauss3 =
    "float func(__global float* m, int i, int s) {"
    "  return (m[i - s - 1] + 2.0f * m[i - s] + m[i - s + 1]"
    "        + 2.0f * m[i - 1] + 4.0f * m[i] + 2.0f * m[i + 1]"
    "        + m[i + s - 1] + 2.0f * m[i + s] + m[i + s + 1]) / 16.0f;"
    "}";

// 4-point Jacobi sweep, radius 1, clamped boundaries.
constexpr const char* kJacobi =
    "float func(__global float* m, int i, int s) {"
    "  return 0.25f * (m[i - s] + m[i - 1] + m[i + 1] + m[i + s]);"
    "}";

// 1D stencils: a radius-1 smoothing (run with both paddings) and a radius-3
// box filter.
constexpr const char* kSmooth3 =
    "float func(__global float* v, int i) {"
    "  return 0.25f * v[i - 1] + 0.5f * v[i] + 0.25f * v[i + 1];"
    "}";
constexpr const char* kBox7 =
    "float func(__global float* v, int i) {"
    "  return (v[i - 3] + v[i - 2] + v[i - 1] + v[i] + v[i + 1] + v[i + 2] + v[i + 3])"
    "         / 7.0f;"
    "}";

std::vector<float> pseudoRandom(std::size_t count) {
  std::vector<float> v(count);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<float>((i * 2654435761u) % 1000) / 500.0f - 1.0f;
  }
  return v;
}

std::vector<float> initValues(std::size_t n) { return pseudoRandom(n * n); }

struct StencilRun {
  double seconds = 0.0;
  std::size_t haloRecords = 0;
  std::uint64_t haloBytes = 0;
  std::vector<float> result;
};

void countHalos(StencilRun& run) {
  for (const trace::Record& r : trace::snapshot()) {
    if (r.kind == trace::Record::Kind::Halo) {
      ++run.haloRecords;
      run.haloBytes += r.bytes;
    }
  }
}

/// `calls` ping-pong applications of a 1D stencil over a vector of `length`
/// floats already resident on the devices.
StencilRun timed1D(int gpus, std::size_t length, const char* source, std::size_t radius,
                   Padding padding, int calls) {
  StencilRun run;
  init(sim::SystemConfig::teslaS1070(gpus));
  {
    MapOverlap<float(float)> stencil(source, radius, padding, 0.0f);
    Vector<float> a(pseudoRandom(length));
    Vector<float> b(length);
    stencil(out(b), a);  // warm-up: compile + upload (a is read-only, so unchanged)
    finish();
    trace::clear();
    resetSimClock();
    for (int c = 0; c < calls; ++c) {
      stencil(out(b), a);
      std::swap(a, b);
    }
    finish();
    run.seconds = simTimeSeconds();
    countHalos(run);
    run.result.assign(a.hostData(), a.hostData() + length);
  }
  terminate();
  return run;
}

/// One blur application over an NxN matrix already resident on the devices.
StencilRun timedBlur(int gpus, std::size_t n) {
  StencilRun run;
  init(sim::SystemConfig::teslaS1070(gpus));
  {
    MapOverlap<float(float)> blur(kGauss3, 1, Padding::Neutral, 0.0f);
    Matrix<float> in(n, n, initValues(n));
    blur(in);  // warm-up: compile + upload
    finish();
    trace::clear();
    resetSimClock();
    Matrix<float> out = blur(in);
    finish();
    run.seconds = simTimeSeconds();
    countHalos(run);
    run.result = out.toStdVector();
  }
  terminate();
  return run;
}

/// `iters` ping-pong Jacobi sweeps with no host round-trip in between: every
/// sweep re-exchanges the halo rows from device-resident data.
StencilRun timedJacobi(int gpus, std::size_t n, int iters) {
  StencilRun run;
  init(sim::SystemConfig::teslaS1070(gpus));
  {
    MapOverlap<float(float)> step(kJacobi, 1, Padding::Clamp);
    Matrix<float> a(n, n, initValues(n));
    Matrix<float> b(n, n);
    step(b, a);  // warm-up: compile + upload (a is read-only, so unchanged)
    finish();
    trace::clear();
    resetSimClock();
    for (int it = 0; it < iters; ++it) {
      step(b, a);
      std::swap(a, b);
    }
    finish();
    run.seconds = simTimeSeconds();
    countHalos(run);
    run.result = a.toStdVector();
  }
  terminate();
  return run;
}

/// Jacobi on 4 GPUs with device 2 killed a few commands in; returns the
/// result plus the survivor count through `survivors`.
StencilRun killedJacobi(std::size_t n, int iters, int* survivors) {
  StencilRun run;
  init(sim::SystemConfig::teslaS1070(4));
  {
    sim::FaultPlan plan(7);
    plan.killAfterCommands(2, 5);
    setFaultPlan(std::move(plan));
    MapOverlap<float(float)> step(kJacobi, 1, Padding::Clamp);
    Matrix<float> a(n, n, initValues(n));
    Matrix<float> b(n, n);
    for (int it = 0; it < iters; ++it) {
      step(b, a);
      std::swap(a, b);
    }
    finish();
    run.seconds = simTimeSeconds();
    run.result = a.toStdVector();
    *survivors = aliveDeviceCount();
  }
  terminate();
  return run;
}

/// Undisturbed 3-GPU Jacobi -- the survivor configuration from the start.
StencilRun cleanJacobi3(std::size_t n, int iters) {
  StencilRun run;
  init(sim::SystemConfig::teslaS1070(4));
  {
    blacklistDevice(2);
    MapOverlap<float(float)> step(kJacobi, 1, Padding::Clamp);
    Matrix<float> a(n, n, initValues(n));
    Matrix<float> b(n, n);
    for (int it = 0; it < iters; ++it) {
      step(b, a);
      std::swap(a, b);
    }
    finish();
    run.result = a.toStdVector();
  }
  terminate();
  return run;
}

bool bitIdentical(const std::vector<float>& x, const std::vector<float>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  trace::enableFromEnv();  // SKELCL_TRACE=out.json exports the last init cycle
  trace::enable();         // halo accounting needs records even without it
  std::size_t n = 512;
  std::size_t length = std::size_t{1} << 20;
  int iters = 10;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      // CI-sized run: small enough for the sanitizer jobs, still one halo
      // exchange per internal boundary per sweep and a mid-run device kill.
      smoke = true;
      n = 96;
      length = std::size_t{1} << 14;
      iters = 4;
    } else if (i + 1 < argc && std::strcmp(argv[i], "--size") == 0) {
      n = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (i + 1 < argc && std::strcmp(argv[i], "--iters") == 0) {
      iters = std::atoi(argv[++i]);
    }
  }

  std::printf("stencils on a %zux%zu float matrix, row-block distributed\n\n", n, n);
  bool ok = true;

  // --- Gaussian blur: one application -------------------------------------
  std::printf("3x3 Gaussian blur (radius 1, neutral boundary), one application:\n");
  std::printf("%-6s %12s %9s %14s %12s\n", "GPUs", "seconds", "speedup", "halo records",
              "halo KiB");
  const StencilRun blur1 = timedBlur(1, n);
  std::printf("%-6d %12.6f %8.2fx %14zu %12.1f\n", 1, blur1.seconds, 1.0,
              blur1.haloRecords, static_cast<double>(blur1.haloBytes) / 1024.0);
  for (int gpus : {2, 4}) {
    const StencilRun r = timedBlur(gpus, n);
    std::printf("%-6d %12.6f %8.2fx %14zu %12.1f\n", gpus, r.seconds,
                blur1.seconds / r.seconds, r.haloRecords,
                static_cast<double>(r.haloBytes) / 1024.0);
    // Per-element arithmetic is independent of the partitioning, so any
    // device count must produce the same bits -- this is the halo-exchange
    // correctness gate.
    const bool same = bitIdentical(r.result, blur1.result);
    if (!same) std::printf("       ^ DIVERGES from the 1-GPU result\n");
    ok = ok && same && r.haloRecords > 0;
    if (gpus == 4 && !smoke && blur1.seconds / r.seconds < 2.5) {
      std::printf("       ^ 4-GPU speedup below 2.5x\n");
      ok = false;
    }
  }

  // --- Jacobi sweeps: iterated halo exchange ------------------------------
  std::printf("\nJacobi (radius 1, clamped boundary), %d ping-pong sweeps:\n", iters);
  std::printf("%-6s %12s %9s %14s %12s\n", "GPUs", "seconds", "speedup", "halo records",
              "halo KiB");
  const StencilRun jac1 = timedJacobi(1, n, iters);
  std::printf("%-6d %12.6f %8.2fx %14zu %12.1f\n", 1, jac1.seconds, 1.0,
              jac1.haloRecords, static_cast<double>(jac1.haloBytes) / 1024.0);
  for (int gpus : {2, 4}) {
    const StencilRun r = timedJacobi(gpus, n, iters);
    std::printf("%-6d %12.6f %8.2fx %14zu %12.1f\n", gpus, r.seconds,
                jac1.seconds / r.seconds, r.haloRecords,
                static_cast<double>(r.haloBytes) / 1024.0);
    const bool same = bitIdentical(r.result, jac1.result);
    if (!same) std::printf("       ^ DIVERGES from the 1-GPU result\n");
    ok = ok && same && r.haloRecords > 0;
    if (gpus == 4 && !smoke && jac1.seconds / r.seconds < 2.5) {
      std::printf("       ^ 4-GPU speedup below 2.5x\n");
      ok = false;
    }
  }

  // --- 1D stencils: block-distributed vector ------------------------------
  constexpr int kCalls1D = 4;
  std::printf("\n1D stencils over %zu floats, block distributed, %d ping-pong calls:\n", length,
              kCalls1D);
  std::printf("%-18s %-6s %12s %9s %14s %12s\n", "stencil", "GPUs", "seconds", "speedup",
              "halo records", "halo KiB");
  struct Stencil1D {
    const char* name;
    const char* source;
    std::size_t radius;
    Padding padding;
  };
  for (const Stencil1D& st : {Stencil1D{"radius 1 neutral", kSmooth3, 1, Padding::Neutral},
                              Stencil1D{"radius 1 clamp", kSmooth3, 1, Padding::Clamp},
                              Stencil1D{"radius 3 clamp", kBox7, 3, Padding::Clamp}}) {
    const StencilRun one = timed1D(1, length, st.source, st.radius, st.padding, kCalls1D);
    for (int gpus : {1, 2, 4}) {
      const StencilRun r =
          gpus == 1 ? one : timed1D(gpus, length, st.source, st.radius, st.padding, kCalls1D);
      std::printf("%-18s %-6d %12.6f %8.2fx %14zu %12.1f\n", st.name, gpus, r.seconds,
                  one.seconds / r.seconds, r.haloRecords,
                  static_cast<double>(r.haloBytes) / 1024.0);
      // The matrix stencils' gate: the partitioning must not change a bit.
      const bool same = bitIdentical(r.result, one.result);
      if (!same) std::printf("       ^ DIVERGES from the 1-GPU result\n");
      ok = ok && same && (gpus == 1 || r.haloRecords > 0);
    }
  }

  // --- device death mid-sweep ----------------------------------------------
  int survivors = 0;
  const StencilRun killed = killedJacobi(n, iters, &survivors);
  const StencilRun clean3 = cleanJacobi3(n, iters);
  const bool recovered = bitIdentical(killed.result, clean3.result);
  std::printf("\ndevice 2 of 4 killed 5 commands into the first sweep:\n");
  std::printf("  survivors: %d (expect 3)\n", survivors);
  std::printf("  result vs undisturbed 3-GPU run: %s\n",
              recovered ? "bit-identical" : "DIFFERS");
  ok = ok && survivors == 3 && recovered;

  std::printf("\ncheck: %s\n", ok ? "PASS" : "FAIL");
  if (trace::flushToEnvPath()) {
    std::printf("trace written to $SKELCL_TRACE (open in chrome://tracing)\n");
  }
  return ok ? 0 : 1;
}
