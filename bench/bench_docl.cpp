// dOpenCL cluster benchmark (paper Section V): the same SkelCL workload on a
// growing cluster of 4-GPU nodes, comparing the flat (single-level) and
// two-level tree collective shapes.
//
// The flat reduce downloads every device's partials through the client's
// single GbE link — deviceCount latency-serialized network transfers.  The
// tree shape combines partials node-locally over PCIe first, so only one
// value per node crosses the network.  A fused Pipeline map -> reduce shares
// that gather, so its leg takes the same shape.  Results are bit-identical
// (the workload sums small floats, exact in fp32), so the table isolates the
// cost of collective shape from any numeric effect.
//
// --smoke: runs the 8-node x 4-GPU leg both ways and exits nonzero if the
// results diverge bitwise or the tree reduce (plain or fused) is not at
// least 2.5x faster.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/detail/trace.hpp"
#include "core/skelcl.hpp"
#include "docl/docl.hpp"

using namespace skelcl;

namespace {

constexpr std::size_t kSize = 1 << 18;

struct Result {
  double mapSeconds = 0.0;
  double reduceSeconds = 0.0;
  double scanSeconds = 0.0;
  double fusedSeconds = 0.0;
  float reduceValue = 0.0f;
  float fusedValue = 0.0f;
};

Result runWorkload() {
  Result res;
  Map<float(float)> heavy(
      "float func(float x) { float s = x;"
      " for (int i = 0; i < 48; ++i) s = s * 0.5f + 1.0f; return s; }");
  Reduce<float> sum("float func(float a, float b) { return a + b; }");
  Scan<float> prefix("float func(float a, float b) { return a + b; }");
  Vector<float> v(kSize);
  // i % 9 keeps every partial sum below 2^24, so float addition is exact and
  // flat vs tree reductions must agree bit for bit.
  for (std::size_t i = 0; i < kSize; ++i) v[i] = static_cast<float>(i % 9);

  {
    // Warm-up: compile all three skeleton programs outside the timed legs so
    // the table measures steady-state collective cost, not one-time JIT.
    Vector<float> warm(1024);
    for (std::size_t i = 0; i < warm.size(); ++i) warm[i] = 1.0f;
    Vector<float> warmMapped = heavy(warm);
    sum(warmMapped);
    prefix(warm);
    finish();
  }
  heavy(v);  // warm-up: distribute the real input
  finish();
  v.dataOnHostModified();
  resetSimClock();
  Vector<float> mapped = heavy(v);
  finish();
  res.mapSeconds = simTimeSeconds();

  resetSimClock();
  res.reduceValue = sum(mapped);
  finish();
  res.reduceSeconds = simTimeSeconds();

  resetSimClock();
  Vector<float> scanned = prefix(v);
  finish();
  scanned.toStdVector();  // include the result download in the scan leg
  res.scanSeconds = simTimeSeconds();

  // x * 0.5 + 1 keeps every element a multiple of 0.5 and every sum exact.
  Pipeline<float> fused;
  fused.map("float func(float x) { return x * 0.5f + 1.0f; }");
  const std::string add = "float func(float a, float b) { return a + b; }";
  fused.reduce(add, v);  // warm-up: compile the fused and node-combine kernels
  finish();
  resetSimClock();
  res.fusedValue = fused.reduce(add, v);
  finish();
  res.fusedSeconds = simTimeSeconds();
  return res;
}

Result runCluster(int nodes, int gpusPerNode, bool tree) {
  ::setenv("SKELCL_TREE_COLLECTIVES", tree ? "1" : "0", 1);
  docl::DistributedConfig cfg;
  for (int s = 0; s < nodes; ++s) {
    cfg.servers.push_back(sim::SystemConfig::teslaS1070(gpusPerNode));
  }
  docl::initSkelCL(cfg);
  const Result res = runWorkload();
  terminate();
  ::unsetenv("SKELCL_TREE_COLLECTIVES");
  return res;
}

/// Prints one flat-vs-tree leg; returns false if it misses the smoke gates.
bool checkLeg(const char* leg, double flatSeconds, double treeSeconds, float flatValue,
              float treeValue) {
  const double speedup = flatSeconds / treeSeconds;
  std::printf("  flat %s %.6f s, tree %s %.6f s (%.2fx)\n", leg, flatSeconds, leg, treeSeconds,
              speedup);
  std::printf("  flat result %.9g, tree result %.9g\n", static_cast<double>(flatValue),
              static_cast<double>(treeValue));
  if (std::memcmp(&flatValue, &treeValue, sizeof(float)) != 0) {
    std::printf("FAIL: flat and tree %s results are not bit-identical\n", leg);
    return false;
  }
  if (speedup < 2.5) {
    std::printf("FAIL: tree %s speedup %.2fx below the 2.5x floor\n", leg, speedup);
    return false;
  }
  return true;
}

int smoke() {
  const Result flat = runCluster(8, 4, /*tree=*/false);
  const Result tree = runCluster(8, 4, /*tree=*/true);
  std::printf("smoke: 8 nodes x 4 GPUs\n");
  const bool reduceOk = checkLeg("reduce", flat.reduceSeconds, tree.reduceSeconds,
                                 flat.reduceValue, tree.reduceValue);
  const bool fusedOk = checkLeg("fused reduce", flat.fusedSeconds, tree.fusedSeconds,
                                flat.fusedValue, tree.fusedValue);
  if (!reduceOk || !fusedOk) return 1;
  std::printf("OK\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // SKELCL_TRACE=out.json exports the last init cycle; lane names carry
  // "(node N)" tags so the tree shape of the collectives is visible.
  trace::enableFromEnv();
  if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) {
    const int rc = smoke();
    const char* tracePath = std::getenv("SKELCL_TRACE");
    if (tracePath != nullptr && tracePath[0] != '\0' &&
        trace::writeChromeTrace(tracePath)) {
      std::printf("trace written to $SKELCL_TRACE (open in chrome://tracing)\n");
    }
    return rc;
  }

  std::printf("identical SkelCL program on a growing docl cluster (4 GPUs per node)\n");
  std::printf("(map: compute-heavy; reduce/scan/fused map->reduce: collective-shape bound)\n\n");
  std::printf("%-8s %8s | %12s | %12s %12s %8s | %12s %12s | %12s %12s %8s\n", "nodes",
              "devices", "map (s)", "flat red (s)", "tree red (s)", "speedup", "flat scan (s)",
              "tree scan (s)", "flat fus (s)", "tree fus (s)", "speedup");
  for (const int nodes : {1, 2, 4, 8}) {
    const Result flat = runCluster(nodes, 4, /*tree=*/false);
    const Result tree = runCluster(nodes, 4, /*tree=*/true);
    std::printf("%-8d %8d | %12.6f | %12.6f %12.6f %7.2fx | %12.6f %12.6f | %12.6f %12.6f "
                "%7.2fx\n",
                nodes, nodes * 4, tree.mapSeconds, flat.reduceSeconds, tree.reduceSeconds,
                flat.reduceSeconds / tree.reduceSeconds, flat.scanSeconds, tree.scanSeconds,
                flat.fusedSeconds, tree.fusedSeconds, flat.fusedSeconds / tree.fusedSeconds);
    if (std::memcmp(&flat.reduceValue, &tree.reduceValue, sizeof(float)) != 0 ||
        std::memcmp(&flat.fusedValue, &tree.fusedValue, sizeof(float)) != 0) {
      std::printf("WARNING: flat/tree reduce results diverge at %d nodes\n", nodes);
    }
  }
  std::printf("\nflat collectives serialize one network transfer per device on the\n"
              "client NIC; the tree shape combines node-locally over PCIe and moves\n"
              "one value per node -- same program, same results, shorter critical path\n");
  const char* tracePath = std::getenv("SKELCL_TRACE");
  if (tracePath != nullptr && tracePath[0] != '\0' &&
      trace::writeChromeTrace(tracePath)) {
    std::printf("trace written to $SKELCL_TRACE (open in chrome://tracing)\n");
  }
  return 0;
}
