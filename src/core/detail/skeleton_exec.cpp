#include "core/detail/skeleton_exec.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "base/strings.hpp"
#include "core/detail/exec_graph.hpp"
#include "core/detail/session.hpp"
#include "kernelc/diagnostics.hpp"
#include "kernelc/lexer.hpp"
#include "kernelc/preprocessor.hpp"
#include "kernelc/vm.hpp"

namespace skelcl::detail {

namespace {

// The "unweighted block picks up scheduler weights" rule lives in
// Session::effectiveDistribution now (it is per-tenant state).

/// Two-level (node-aware) reduce/scan collectives are used on multi-node
/// (docl cluster) systems unless SKELCL_TREE_COLLECTIVES=0 forces the flat
/// single-level paths.  The env var exists so flat and tree shapes can be
/// compared on the same system (bench_docl --smoke runs both legs and
/// checks bit-identical results); read per call so a test can flip it.
bool treeCollectivesEnabled(const Session& sess) {
  if (!sess.multiNode()) return false;
  const char* env = std::getenv("SKELCL_TREE_COLLECTIVES");
  return env == nullptr || std::strcmp(env, "0") != 0;
}

/// One cluster node's run of consecutive entries in a per-device plan
/// (partitions list devices node by node).  The two-level collectives elect
/// the run's first device as the node's leader.
struct NodeRun {
  int node = 0;
  int leader = 0;
  std::size_t first = 0;  ///< index of the run's first plan entry
  std::size_t count = 0;  ///< plan entries in the run
};

template <typename Entry, typename DeviceOf>
std::vector<NodeRun> nodeRuns(const std::vector<int>& nodeOf, const std::vector<Entry>& plan,
                              DeviceOf deviceOf) {
  std::vector<NodeRun> runs;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const int device = deviceOf(plan[i]);
    const int node = nodeOf[static_cast<std::size_t>(device)];
    if (runs.empty() || runs.back().node != node) runs.push_back(NodeRun{node, device, i, 0});
    ++runs.back().count;
  }
  return runs;
}

/// lastWrite of `vector`'s part on `device`, appended to `deps` when valid —
/// consumers depend on producers instead of blocking on them.
void addPartDep(std::vector<ocl::Event>& deps, const VectorData* vector, int device) {
  if (vector == nullptr) return;
  const VectorData::DevicePart* part = vector->partOn(device);
  if (part != nullptr && part->lastWrite.valid()) deps.push_back(part->lastWrite);
}

/// Producer events of every input of a kernel stage on `device`: the inputs
/// themselves plus any vector additional arguments.
std::vector<ocl::Event> inputDeps(int device, const VectorData* input1,
                                  const VectorData* input2,
                                  const std::vector<ExtraArg>& extras) {
  std::vector<ocl::Event> deps;
  addPartDep(deps, input1, device);
  addPartDep(deps, input2, device);
  for (const ExtraArg& e : extras) {
    if (e.kind == ExtraArg::Kind::VectorRef) addPartDep(deps, e.vector, device);
  }
  return deps;
}

/// Deduplicated struct typedefs needed by the extra arguments.  Dedup is by
/// type *name*: two extras may share one struct type (one emitted typedef),
/// but two different definitions under the same name would silently shadow
/// each other in the generated translation unit, so that is an error.
std::string gatherTypedefs(const std::vector<ExtraArg>& extras) {
  std::string out;
  std::unordered_map<std::string, std::string> seen;  // type name -> definition
  for (const ExtraArg& e : extras) {
    if (e.typeDefinition.empty()) continue;
    const auto [it, inserted] = seen.emplace(e.typeName, e.typeDefinition);
    if (!inserted) {
      if (it->second != e.typeDefinition) {
        throw UsageError("conflicting definitions for kernel type '" + e.typeName +
                         "': two additional arguments register the same struct name "
                         "with different layouts");
      }
      continue;
    }
    out += e.typeDefinition;
    out += "\n";
  }
  return out;
}

/// ", TYPE skelcl_a0, __global U* skelcl_a1, ..." for the kernel signature.
/// Fused chains pass a per-stage prefix ("skelcl_s0_a", ...) so the merged
/// kernel's extra parameters cannot collide across stages.
std::string extraParams(const std::vector<ExtraArg>& extras,
                        const std::string& prefix = "skelcl_a") {
  std::string out;
  for (std::size_t i = 0; i < extras.size(); ++i) {
    const ExtraArg& e = extras[i];
    out += ", ";
    switch (e.kind) {
      case ExtraArg::Kind::Scalar:
        out += e.typeName + " " + prefix + std::to_string(i);
        break;
      case ExtraArg::Kind::VectorRef:
        out += "__global " + e.typeName + "* " + prefix + std::to_string(i);
        break;
      case ExtraArg::Kind::Sizes:
      case ExtraArg::Kind::Offsets:
        out += "int " + prefix + std::to_string(i);
        break;
    }
  }
  return out;
}

/// ", skelcl_a0, skelcl_a1, ..." for the user-function call.
std::string extraNames(const std::vector<ExtraArg>& extras,
                       const std::string& prefix = "skelcl_a") {
  std::string out;
  for (std::size_t i = 0; i < extras.size(); ++i) {
    out += ", " + prefix + std::to_string(i);
  }
  return out;
}

/// A vector additional argument that is also the skeleton's output would be
/// read by some work-items after others wrote it.  That race is undefined in
/// OpenCL, and here its result would depend on the host thread count and on
/// batched execution, so it is rejected before the skeleton touches anything.
void rejectOutputAsExtra(const std::vector<ExtraArg>& extras, const VectorData& output) {
  for (const ExtraArg& e : extras) {
    if (e.kind == ExtraArg::Kind::VectorRef && e.vector == &output) {
      throw UsageError(
          "a skeleton's output vector cannot also be passed as an additional argument: "
          "work-items would read elements that other work-items write");
    }
  }
}

/// Prepare all extra-argument vectors (they must carry an explicit
/// distribution, paper Section III-B) and bind extras to a kernel starting at
/// parameter `firstIndex` for `device`.
void prepareExtras(Session& sess, std::vector<ExtraArg>& extras) {
  for (const ExtraArg& e : extras) {
    if (e.kind == ExtraArg::Kind::Scalar) continue;
    SKELCL_CHECK(e.vector != nullptr, "extra argument vector missing");
    if (!e.vector->distribution().isSet()) {
      throw UsageError(
          "no meaningful default distribution exists for vectors passed as "
          "additional arguments; set one explicitly (paper Section III-B)");
    }
    if (e.kind == ExtraArg::Kind::VectorRef) e.vector->ensureOnDevices(sess);
  }
}

/// Re-execute `body` after permanent device failures *and* watchdog
/// timeouts.  Device death blacklists the dead device; a timeout only
/// *degrades* the straggler (reduced partition weight, escalating to a
/// blacklist after SharedDeviceState::kDegradeStrikes).  Either way the
/// recovery is identical: recover every input vector from its host copy (or
/// a surviving replica; see VectorData::recoverAfterDeviceLoss), discard the
/// pure output's partial device results, and run the whole skeleton again —
/// other graph stages may have executed (in-place kernels on other devices
/// already wrote f(x)), so inputs must be restored even when the failed
/// device's own data is intact.  Transient errors never reach this level —
/// the ExecGraph retry loop absorbs them — so anything caught here is final
/// for its device.  `resetOutput` is null when the output aliases an input
/// (the aliased input's recovery already restores the pre-skeleton bytes).
template <typename Body>
auto withDeviceLossRecovery(Session& sess, std::vector<VectorData*> inputs,
                            VectorData* resetOutput, Body&& body) -> decltype(body()) {
  for (int attempt = 0;; ++attempt) {
    try {
      return body();
    } catch (const ocl::CommandError& e) {
      const bool timedOut = e.status() == sim::status::WatchdogTimeout;
      if (!e.permanent() && !timedOut) throw;
      // Each device can contribute at most kDegradeStrikes timeouts plus one
      // loss before it is blacklisted, so the re-execution loop is bounded.
      SKELCL_CHECK(attempt < sess.deviceCount() * (SharedDeviceState::kDegradeStrikes + 1),
                   "skeleton failed on more devices than the system has");
      if (timedOut) {
        sess.shared().degradeDevice(e.device(), e.what());
      } else {
        sess.blacklistDevice(e.device(), e.what());
      }
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        VectorData* v = inputs[i];
        if (v == nullptr) continue;
        bool seen = false;
        for (std::size_t j = 0; j < i; ++j) seen = seen || inputs[j] == v;
        if (!seen) v->recoverAfterDeviceLoss(e.device());
      }
      if (resetOutput != nullptr) resetOutput->resetDeviceDataAfterLoss();
    }
  }
}

/// The input vectors of a skeleton call: the primary inputs plus every
/// vector additional argument (they all hold device parts a dead device may
/// have invalidated).
std::vector<VectorData*> recoveryInputs(VectorData* input1, VectorData* input2,
                                        const std::vector<ExtraArg>& extras) {
  std::vector<VectorData*> inputs{input1, input2};
  for (const ExtraArg& e : extras) {
    if (e.kind == ExtraArg::Kind::VectorRef) inputs.push_back(e.vector);
  }
  return inputs;
}

void bindExtras(Session& sess, ocl::Kernel& kernel, std::size_t firstIndex,
                const std::vector<ExtraArg>& extras, int device) {
  for (std::size_t i = 0; i < extras.size(); ++i) {
    const std::size_t arg = firstIndex + i;
    const ExtraArg& e = extras[i];
    switch (e.kind) {
      case ExtraArg::Kind::Scalar:
        if (e.scalarIsFloat) {
          kernel.setArg(arg, e.scalarF);
        } else {
          // Full 64 bits: the kernel narrows to the declared parameter type,
          // so long/ulong extras keep values beyond 2^31 intact.
          kernel.setArg(arg, e.scalarI);
        }
        break;
      case ExtraArg::Kind::VectorRef: {
        const VectorData::DevicePart* part = e.vector->partOn(device);
        if (part == nullptr || part->buffer == nullptr) {
          throw UsageError(
              "additional-argument vector has no data on device " + std::to_string(device) +
              "; give it copy distribution or a block distribution matching the input");
        }
        kernel.setArg(arg, *part->buffer);
        break;
      }
      case ExtraArg::Kind::Sizes:
        kernel.setArg(arg, static_cast<std::int32_t>(e.vector->partSizeOn(sess, device)));
        break;
      case ExtraArg::Kind::Offsets:
        kernel.setArg(arg, static_cast<std::int32_t>(e.vector->partOffsetOn(sess, device)));
        break;
    }
  }
}

}  // namespace

kc::Slot slotFromBytes(ElemKind kind, const std::byte* src) {
  switch (kind) {
    case ElemKind::F32: {
      float v;
      std::memcpy(&v, src, 4);
      return kc::Slot::fromFloat(v);
    }
    case ElemKind::F64: {
      double v;
      std::memcpy(&v, src, 8);
      return kc::Slot::fromFloat(v);
    }
    case ElemKind::I32:
    case ElemKind::U32: {
      std::int32_t v;
      std::memcpy(&v, src, 4);
      return kc::Slot::fromInt(v);
    }
    case ElemKind::Other:
      break;
  }
  throw UsageError("scalar element type required");
}

void slotToBytes(ElemKind kind, kc::Slot value, std::byte* dst) {
  switch (kind) {
    case ElemKind::F32: {
      const float v = static_cast<float>(value.f);
      std::memcpy(dst, &v, 4);
      return;
    }
    case ElemKind::F64:
      std::memcpy(dst, &value.f, 8);
      return;
    case ElemKind::I32:
    case ElemKind::U32: {
      const std::int32_t v = static_cast<std::int32_t>(value.i);
      std::memcpy(dst, &v, 4);
      return;
    }
    case ElemKind::Other:
      break;
  }
  throw UsageError("scalar element type required");
}

// ---------------------------------------------------------------------------
// Scan (paper III-C, Figure 2)
// ---------------------------------------------------------------------------

namespace {

void runScanOnce(Session& sess, const std::string& userSource, VectorData& input,
                 VectorData& output, const std::string& typeName) {
  SKELCL_CHECK(output.count() == input.count(), "scan output size mismatch");
  if (input.count() == 0) return;

  input.defaultDistribution(Distribution::block());
  const Distribution dist = input.distribution();
  input.ensureOnDevices(sess);
  const bool inPlace = &output == &input;
  output.setDistribution(dist);
  if (!inPlace) output.ensureOnDevicesNoUpload(sess);

  std::string source = userSource;
  source +=
      "\n__kernel void skelcl_scan_chunks(__global " + typeName + "* skelcl_in, __global " +
      typeName + "* skelcl_out, __global " + typeName +
      "* skelcl_sums, int skelcl_chunk, int skelcl_n) {\n"
      "  int skelcl_w = get_global_id(0);\n"
      "  int skelcl_begin = skelcl_w * skelcl_chunk;\n"
      "  int skelcl_end = min(skelcl_begin + skelcl_chunk, skelcl_n);\n"
      "  " + typeName + " skelcl_acc = skelcl_in[skelcl_begin];\n"
      "  skelcl_out[skelcl_begin] = skelcl_acc;\n"
      "  for (int skelcl_i = skelcl_begin + 1; skelcl_i < skelcl_end; ++skelcl_i) {\n"
      "    skelcl_acc = func(skelcl_acc, skelcl_in[skelcl_i]);\n"
      "    skelcl_out[skelcl_i] = skelcl_acc;\n"
      "  }\n"
      "  skelcl_sums[skelcl_w] = skelcl_acc;\n}\n"
      "__kernel void skelcl_scan_add(__global " + typeName + "* skelcl_data, __global " +
      typeName +
      "* skelcl_offsets, int skelcl_chunk, int skelcl_n, int skelcl_skip_first) {\n"
      "  int skelcl_w = get_global_id(0);\n"
      "  if (skelcl_skip_first && skelcl_w == 0) return;\n"
      "  int skelcl_begin = skelcl_w * skelcl_chunk;\n"
      "  int skelcl_end = min(skelcl_begin + skelcl_chunk, skelcl_n);\n"
      "  " + typeName + " skelcl_off = skelcl_offsets[skelcl_w];\n"
      "  for (int skelcl_i = skelcl_begin; skelcl_i < skelcl_end; ++skelcl_i)\n"
      "    skelcl_data[skelcl_i] = func(skelcl_off, skelcl_data[skelcl_i]);\n}\n";

  auto program = sess.programForSource(source);
  ocl::Kernel scanChunks(*program, "skelcl_scan_chunks");
  ocl::Kernel scanAdd(*program, "skelcl_scan_add");

  const auto hostProgram = sess.hostProgram(userSource);
  const int fn = hostProgram->findFunction("func");
  const ElemKind kind = input.elemKind();
  const std::size_t elem = input.elemSize();

  const auto& ranges = input.plannedPartition(sess);
  const bool crossDevice = dist.kind() == Distribution::Kind::Block;

  // The Figure 2 pipeline as a command graph (paper III-C): step 1 is
  // recorded on *every* device before any block-sum download, the downloads
  // overlap across PCIe links, one host stage computes every device's
  // offsets (it is the only stage needing cross-device data), and the offset
  // uploads plus step-4 maps again run breadth-first.  The old per-device
  // loop blocked the host between each device's steps and serialized the
  // whole pipeline ~deviceCount times.
  struct DeviceScan {
    PartRange range;
    std::size_t chunk = 0;
    std::size_t numChunks = 0;
    std::unique_ptr<ocl::Buffer> sums;
    std::unique_ptr<ocl::Buffer> offsets;
    std::vector<std::byte> hostSums;
    std::vector<std::byte> hostOffsets;
    bool skipFirst = true;  ///< decided by the host stage
    ExecGraph::NodeId step1 = 0;
  };
  std::vector<DeviceScan> devs;
  for (const PartRange& r : ranges) {
    if (r.size == 0) continue;
    DeviceScan d;
    d.range = r;
    const auto cores = static_cast<std::size_t>(sess.device(r.device).spec().cores);
    d.chunk = (r.size + 4 * cores - 1) / (4 * cores);
    d.numChunks = (r.size + d.chunk - 1) / d.chunk;
    d.sums = std::make_unique<ocl::Buffer>(sess.context(), sess.device(r.device),
                                           d.numChunks * elem);
    d.offsets = std::make_unique<ocl::Buffer>(sess.context(), sess.device(r.device),
                                              d.numChunks * elem);
    d.hostSums.resize(d.numChunks * elem);
    d.hostOffsets.resize(d.numChunks * elem);
    devs.push_back(std::move(d));
  }

  ExecGraph g(sess);
  std::uint64_t hostInstructions = 0;

  // Step 1: every GPU scans its local part independently.
  for (DeviceScan& d : devs) {
    const int dev = d.range.device;
    d.step1 = g.add(
        StageKind::Kernel, dev, "scan step1 dev" + std::to_string(dev),
        [&, &d = d, dev](std::span<const ocl::Event> deps) {
          const VectorData::DevicePart* inPart = input.partOn(dev);
          const VectorData::DevicePart* outPart = inPlace ? inPart : output.partOn(dev);
          scanChunks.setArg(0, *inPart->buffer);
          scanChunks.setArg(1, *outPart->buffer);
          scanChunks.setArg(2, *d.sums);
          scanChunks.setArg(3, static_cast<std::int32_t>(d.chunk));
          scanChunks.setArg(4, static_cast<std::int32_t>(d.range.size));
          return sess.queue(dev).enqueueNDRangeKernel(scanChunks, d.numChunks, 0, deps);
        },
        {}, inputDeps(dev, &input, nullptr, {}));
  }

  // Two-level (cluster) shape: block sums are concatenated on a per-node
  // leader device and cross the network as ONE download per node; offsets
  // come back as ONE upload per node and fan out to the members over the
  // node-internal PCIe links.  The host-side offset computation reads and
  // writes the same per-device arrays in the same order either way, so the
  // scan result is bit-identical to the flat shape for every operator.
  struct ScanNode {
    NodeRun run;
    std::unique_ptr<ocl::Buffer> nodeSums;     ///< concatenated member sums
    std::unique_ptr<ocl::Buffer> nodeOffsets;  ///< concatenated member offsets
    std::vector<std::byte> staging;            ///< host copy of the concatenation
  };
  std::vector<ScanNode> scanNodes;
  for (const NodeRun& run : nodeRuns(sess.deviceNodes(), devs,
                                     [](const DeviceScan& d) { return d.range.device; })) {
    scanNodes.emplace_back().run = run;
  }
  const bool tree = treeCollectivesEnabled(sess) && scanNodes.size() > 1;
  if (tree) {
    for (ScanNode& sn : scanNodes) {
      std::size_t totalChunks = 0;
      for (std::size_t m = sn.run.first; m < sn.run.first + sn.run.count; ++m) {
        totalChunks += devs[m].numChunks;
      }
      sn.nodeSums = std::make_unique<ocl::Buffer>(sess.context(), sess.device(sn.run.leader),
                                                  totalChunks * elem);
      sn.nodeOffsets = std::make_unique<ocl::Buffer>(
          sess.context(), sess.device(sn.run.leader), totalChunks * elem);
      sn.staging.resize(totalChunks * elem);
    }
  }

  // Step 2: download every device's block sums (overlapping reads), or — on
  // a cluster — gather them node-locally and download once per node.
  std::vector<ExecGraph::NodeId> sumReads;
  if (tree) {
    for (ScanNode& sn : scanNodes) {
      std::vector<ExecGraph::NodeId> copies;
      std::size_t dstOffset = 0;
      for (std::size_t m = sn.run.first; m < sn.run.first + sn.run.count; ++m) {
        DeviceScan& d = devs[m];
        copies.push_back(g.add(
            StageKind::Copy, sn.run.leader,
            "scan node" + std::to_string(sn.run.node) + " sums dev" +
                std::to_string(d.range.device),
            [&, &d = d, &sn = sn, dstOffset](std::span<const ocl::Event> deps) {
              return sess.queue(sn.run.leader).enqueueCopyBuffer(
                  *d.sums, *sn.nodeSums, 0, dstOffset, d.hostSums.size(), deps);
            },
            {d.step1}));
        dstOffset += d.hostSums.size();
      }
      sumReads.push_back(g.add(
          StageKind::Download, sn.run.leader,
          "scan node" + std::to_string(sn.run.node) + " sums download",
          [&, &sn = sn](std::span<const ocl::Event> deps) {
            const ocl::Event ev = sess.queue(sn.run.leader).enqueueReadBuffer(
                *sn.nodeSums, 0, sn.staging.size(), sn.staging.data(),
                /*blocking=*/false, deps);
            // Split the concatenation back into the per-device arrays the
            // host offsets stage reads (data effects are eager).
            std::size_t off = 0;
            for (std::size_t m = sn.run.first; m < sn.run.first + sn.run.count; ++m) {
              std::memcpy(devs[m].hostSums.data(), sn.staging.data() + off,
                          devs[m].hostSums.size());
              off += devs[m].hostSums.size();
            }
            return ev;
          },
          copies));
    }
  } else {
    for (DeviceScan& d : devs) {
      const int dev = d.range.device;
      sumReads.push_back(g.add(
          StageKind::Download, dev, "scan sums dev" + std::to_string(dev),
          [&, &d = d, dev](std::span<const ocl::Event> deps) {
            return sess.queue(dev).enqueueReadBuffer(*d.sums, 0, d.hostSums.size(),
                                                     d.hostSums.data(), /*blocking=*/false,
                                                     deps);
          },
          {d.step1}));
    }
  }

  // Step 3: one host stage computes the combined offsets of every device:
  // the fold of all previous devices' totals combined with the exclusive
  // prefix of the local chunk sums.
  const ExecGraph::NodeId offsetsNode = g.add(
      StageKind::Host, -1, "scan offsets host",
      [&](std::span<const ocl::Event> deps) {
        auto& system = sess.system();
        system.advanceHost(ExecGraph::latestEnd(system, deps));
        kc::Vm vm(*hostProgram, {});
        bool haveDeviceOffset = false;
        kc::Slot deviceOffset{};  // fold of the totals of all previous devices
        for (DeviceScan& d : devs) {
          bool haveChunkOffset = false;
          kc::Slot chunkOffset{};
          for (std::size_t w = 0; w < d.numChunks; ++w) {
            kc::Slot combined{};
            bool haveCombined = false;
            if (crossDevice && haveDeviceOffset && haveChunkOffset) {
              combined = vm.callFunction(fn, std::array<kc::Slot, 2>{deviceOffset, chunkOffset});
              haveCombined = true;
            } else if (crossDevice && haveDeviceOffset) {
              combined = deviceOffset;
              haveCombined = true;
            } else if (haveChunkOffset) {
              combined = chunkOffset;
              haveCombined = true;
            }
            if (haveCombined) {
              slotToBytes(kind, combined, d.hostOffsets.data() + w * elem);
            } else {
              // chunk 0 of the first device: no offset (skipped by the kernel)
              std::memset(d.hostOffsets.data() + w * elem, 0, elem);
            }
            // fold this chunk's total into the running chunk offset
            const kc::Slot sum = slotFromBytes(kind, d.hostSums.data() + w * elem);
            chunkOffset = haveChunkOffset
                              ? vm.callFunction(fn, std::array<kc::Slot, 2>{chunkOffset, sum})
                              : sum;
            haveChunkOffset = true;
          }
          // The step-4 map skips only the very first chunk of the first
          // device (paper Figure 2, bottom).
          d.skipFirst = !(crossDevice && haveDeviceOffset);
          // the device's total feeds the next device's offset
          if (crossDevice) {
            deviceOffset = haveDeviceOffset
                               ? vm.callFunction(fn, std::array<kc::Slot, 2>{deviceOffset,
                                                                             chunkOffset})
                               : chunkOffset;
            haveDeviceOffset = true;
          }
        }
        hostInstructions = vm.instructionsExecuted();
        const auto span =
            system.reserveHostCompute(input.count() / 64 + 64, hostInstructions);
        return ocl::Event(span.start, span.end, system.clockEpoch());
      },
      sumReads);

  // Step 4: upload the offsets and run the implicitly created map on every
  // device (paper Figure 2, bottom).  On a cluster the offsets cross the
  // network once per node (to the leader) and fan out over PCIe.
  std::vector<std::pair<int, ExecGraph::NodeId>> step4;
  // The map on d's device, once `offsetsReady` has put its offsets there.
  const auto addScanAdd = [&](DeviceScan& d, ExecGraph::NodeId offsetsReady) {
    const int dev = d.range.device;
    step4.emplace_back(dev, g.add(
        StageKind::Kernel, dev, "scan step2 dev" + std::to_string(dev),
        [&, &d = d, dev](std::span<const ocl::Event> deps) {
          const VectorData::DevicePart* outPart =
              inPlace ? input.partOn(dev) : output.partOn(dev);
          scanAdd.setArg(0, *outPart->buffer);
          scanAdd.setArg(1, *d.offsets);
          scanAdd.setArg(2, static_cast<std::int32_t>(d.chunk));
          scanAdd.setArg(3, static_cast<std::int32_t>(d.range.size));
          scanAdd.setArg(4, static_cast<std::int32_t>(d.skipFirst ? 1 : 0));
          return sess.queue(dev).enqueueNDRangeKernel(scanAdd, d.numChunks, 0, deps);
        },
        {offsetsReady, d.step1}));
  };
  if (tree) {
    for (ScanNode& sn : scanNodes) {
      const ExecGraph::NodeId up = g.add(
          StageKind::Upload, sn.run.leader,
          "scan node" + std::to_string(sn.run.node) + " offsets upload",
          [&, &sn = sn](std::span<const ocl::Event> deps) {
            std::size_t off = 0;
            for (std::size_t m = sn.run.first; m < sn.run.first + sn.run.count; ++m) {
              std::memcpy(sn.staging.data() + off, devs[m].hostOffsets.data(),
                          devs[m].hostOffsets.size());
              off += devs[m].hostOffsets.size();
            }
            return sess.queue(sn.run.leader).enqueueWriteBuffer(
                *sn.nodeOffsets, 0, sn.staging.size(), sn.staging.data(),
                /*blocking=*/false, deps);
          },
          {offsetsNode});
      std::size_t srcOffset = 0;
      for (std::size_t m = sn.run.first; m < sn.run.first + sn.run.count; ++m) {
        DeviceScan& d = devs[m];
        const int dev = d.range.device;
        const ExecGraph::NodeId scatter = g.add(
            StageKind::Copy, dev,
            "scan node" + std::to_string(sn.run.node) + " offsets dev" + std::to_string(dev),
            [&, &d = d, &sn = sn, dev, srcOffset](std::span<const ocl::Event> deps) {
              return sess.queue(dev).enqueueCopyBuffer(*sn.nodeOffsets, *d.offsets,
                                                       srcOffset, 0, d.hostOffsets.size(),
                                                       deps);
            },
            {up});
        srcOffset += d.hostOffsets.size();
        addScanAdd(d, scatter);
      }
    }
  } else {
    for (DeviceScan& d : devs) {
      const int dev = d.range.device;
      const ExecGraph::NodeId up = g.add(
          StageKind::Upload, dev, "scan offsets dev" + std::to_string(dev),
          [&, &d = d, dev](std::span<const ocl::Event> deps) {
            return sess.queue(dev).enqueueWriteBuffer(*d.offsets, 0, d.hostOffsets.size(),
                                                      d.hostOffsets.data(), /*blocking=*/false,
                                                      deps);
          },
          {offsetsNode});
      addScanAdd(d, up);
    }
  }

  g.run();
  for (const auto& [dev, node] : step4) {
    (inPlace ? input : output).recordDeviceWrite(dev, g.event(node));
  }
  output.markDevicesModified();
}

}  // namespace

void runScan(Session& session, const std::string& userSource, VectorData& input,
             VectorData& output, const std::string& typeName) {
  std::lock_guard<std::recursive_mutex> lock(session.shared().mutex());
  const bool inPlace = &output == &input;
  withDeviceLossRecovery(session, {&input}, inPlace ? nullptr : &output, [&] {
    runScanOnce(session, userSource, input, output, typeName);
  });
}

// ---------------------------------------------------------------------------
// Map / Zip / Pipeline: one element-wise chain engine
// ---------------------------------------------------------------------------

namespace {

std::string stagePrefix(std::size_t s) { return "skelcl_s" + std::to_string(s) + "_"; }

/// `source` preprocessed, with the functions it defines renamed to
/// prefix+name.  Keeps the user functions of different stages apart in the
/// single merged translation unit (each stage defines its own `func`, and
/// possibly helpers with colliding names).  A definition or prototype is an
/// identifier followed by `(` outside any braces; a use is the same name
/// followed by `(` and not preceded by `.` or `->`.  Struct members,
/// variables and parameters that share a function's name are never followed
/// by `(`, so they keep theirs.  Macros expand first: `#define APPLY helper`
/// ... `APPLY(x)` reaches the renamed helper, and one stage's macros cannot
/// leak into the next.  A source that fails to preprocess or lex raises the
/// ocl::BuildError its program build would.
std::string renameFunctions(const std::string& source, const std::string& prefix) {
  std::string text;
  std::vector<kc::Token> tokens;
  try {
    text = kc::preprocess(source);
    tokens = kc::Lexer(text).run();
  } catch (const kc::CompileError& e) {
    throw ocl::BuildError(e.what(), e.what());
  }
  // tokens ends with Eof, so tokens[t + 1] exists for every t checked here
  const auto isCall = [&](std::size_t t) {
    return tokens[t].kind == kc::Tok::Identifier && tokens[t + 1].kind == kc::Tok::LParen;
  };
  std::vector<std::string> defined;
  int depth = 0;
  for (std::size_t t = 0; t + 1 < tokens.size(); ++t) {
    if (tokens[t].kind == kc::Tok::LBrace) ++depth;
    if (tokens[t].kind == kc::Tok::RBrace) --depth;
    if (depth == 0 && isCall(t)) defined.push_back(tokens[t].text);
  }
  std::vector<std::size_t> lineStart{0};
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\n') lineStart.push_back(i + 1);
  }
  std::string out;
  std::size_t copied = 0;
  for (std::size_t t = 0; t + 1 < tokens.size(); ++t) {
    const bool member =
        t > 0 && (tokens[t - 1].kind == kc::Tok::Dot || tokens[t - 1].kind == kc::Tok::Arrow);
    if (member || !isCall(t) ||
        std::find(defined.begin(), defined.end(), tokens[t].text) == defined.end()) {
      continue;
    }
    const kc::SourceLoc loc = tokens[t].loc;
    const std::size_t at = lineStart[static_cast<std::size_t>(loc.line - 1)] +
                           static_cast<std::size_t>(loc.column - 1);
    out.append(text, copied, at - copied);
    out += prefix;
    copied = at;
  }
  out.append(text, copied);
  return out;
}

/// The whole chain as one nested call expression evaluated at element `idx`:
/// skelcl_s1_func(skelcl_s0_func(skelcl_in[idx], ...), skelcl_zin1[idx], ...).
/// The innermost operand is the input element (`skelcl_base + idx`, the
/// global index, for an index input); with no stages it is the whole
/// expression.
std::string chainExprAt(const ChainInput& input, std::span<const FusedStage> stages,
                        const std::string& idx) {
  std::string expr =
      input.vector != nullptr ? "skelcl_in[" + idx + "]" : "skelcl_base + " + idx;
  for (std::size_t s = 0; s < stages.size(); ++s) {
    const FusedStage& st = stages[s];
    std::string call = stagePrefix(s) + "func(" + expr;
    if (st.zipInput != nullptr) {
      call += ", skelcl_zin" + std::to_string(s) + "[" + idx + "]";
    }
    call += extraNames(st.extras, stagePrefix(s) + "a");
    call += ")";
    expr = std::move(call);
  }
  return expr;
}

/// "__global TIn* skelcl_in, __global TZ* skelcl_zinS, ": the chain's input
/// buffers (an index input has none), which lead every chain kernel's
/// parameter list.
std::string chainInputParams(const ChainInput& input, std::span<const FusedStage> stages) {
  std::string out;
  if (input.vector != nullptr) out = "__global " + input.typeName + "* skelcl_in, ";
  for (std::size_t s = 0; s < stages.size(); ++s) {
    if (stages[s].zipInput != nullptr) {
      out += "__global " + stages[s].zipTypeName + "* skelcl_zin" + std::to_string(s) + ", ";
    }
  }
  return out;
}

/// Every stage's extras, each stage with its own prefix ("skelcl_s0_a0", ...).
std::string chainExtraParams(std::span<const FusedStage> stages) {
  std::string out;
  for (std::size_t s = 0; s < stages.size(); ++s) {
    out += extraParams(stages[s].extras, stagePrefix(s) + "a");
  }
  return out;
}

/// Bind the buffers of chainInputParams on `device`; returns the next index.
std::size_t bindChainInputs(ocl::Kernel& kernel, const ChainInput& input,
                            std::span<const FusedStage> stages, int device) {
  std::size_t arg = 0;
  if (input.vector != nullptr) kernel.setArg(arg++, *input.vector->partOn(device)->buffer);
  for (const FusedStage& st : stages) {
    if (st.zipInput != nullptr) kernel.setArg(arg++, *st.zipInput->partOn(device)->buffer);
  }
  return arg;
}

/// Bind the extras of chainExtraParams from `arg` on; returns the next index.
std::size_t bindChainExtras(Session& sess, ocl::Kernel& kernel, std::size_t arg,
                            std::span<const FusedStage> stages, int device) {
  for (const FusedStage& st : stages) {
    bindExtras(sess, kernel, arg, st.extras, device);
    arg += st.extras.size();
  }
  return arg;
}

/// Merged struct typedefs of every stage's extras followed by `extras`
/// (deduplicated, conflicting definitions rejected), then every stage's user
/// source renamed apart.
std::string fusedSourcePrelude(std::span<const FusedStage> stages,
                               const std::vector<ExtraArg>& extras = {}) {
  std::vector<ExtraArg> all;
  for (const FusedStage& st : stages) all.insert(all.end(), st.extras.begin(), st.extras.end());
  all.insert(all.end(), extras.begin(), extras.end());
  std::string source = gatherTypedefs(all);
  for (std::size_t s = 0; s < stages.size(); ++s) {
    source += renameFunctions(stages[s].userSource, stagePrefix(s));
    source += "\n";
  }
  return source;
}

/// Producer events of every chain input on `device`.
std::vector<ocl::Event> chainDeps(int device, const ChainInput& input,
                                  std::span<const FusedStage> stages) {
  std::vector<ocl::Event> deps;
  addPartDep(deps, input.vector, device);
  for (const FusedStage& st : stages) {
    addPartDep(deps, st.zipInput, device);
    for (const ExtraArg& e : st.extras) {
      if (e.kind == ExtraArg::Kind::VectorRef) addPartDep(deps, e.vector, device);
    }
  }
  return deps;
}

std::vector<VectorData*> chainRecoveryInputs(const ChainInput& input,
                                             std::span<const FusedStage> stages) {
  std::vector<VectorData*> inputs{input.vector};
  for (const FusedStage& st : stages) {
    if (st.zipInput != nullptr) inputs.push_back(st.zipInput);
    for (const ExtraArg& e : st.extras) {
      if (e.kind == ExtraArg::Kind::VectorRef) inputs.push_back(e.vector);
    }
  }
  return inputs;
}

/// Fusion eligibility: no intermediate is observed by the host, and every
/// zip input either has no distribution yet or already matches the chain's.
/// (An extra argument can only alias an intermediate through an observe
/// sink, so the observe rule subsumes that case.)
bool chainEligible(VectorData& input, const std::vector<FusedStage>& stages) {
  const Distribution dist =
      input.distribution().isSet() ? input.distribution() : Distribution::block();
  for (const FusedStage& st : stages) {
    if (st.observeSink != nullptr) return false;
    if (st.zipInput != nullptr) {
      const Distribution& zd = st.zipInput->distribution();
      if (zd.isSet() && !(zd == dist)) return false;
    }
  }
  return true;
}

/// Check the zip sizes before anything is touched, resolve the chain's
/// distribution (paper III-C), give it to every chain input and materialize
/// them.  An index input keeps its own distribution.  A vector input follows
/// Zip's rule against stage 0's zip input: a distribution set on one side
/// carries over, two set ones that differ become block for both, and block
/// is the default.  Every later zip input takes the chain's distribution
/// (only unset or matching ones are eligible).
Distribution materializeChainInputs(Session& sess, const ChainInput& input,
                                    std::span<FusedStage> stages) {
  for (const FusedStage& st : stages) {
    SKELCL_CHECK(st.zipInput == nullptr || st.zipInput->count() == input.count(),
                 "zip inputs must have the same size");
  }
  VectorData* in = input.vector;
  VectorData* zip0 = stages.empty() ? nullptr : stages.front().zipInput;
  Distribution dist;
  if (in == nullptr) {
    dist = input.indexDist.isSet() ? input.indexDist : Distribution::block();
  } else if (zip0 == nullptr) {
    in->defaultDistribution(Distribution::block());
    dist = in->distribution();
  } else {
    const Distribution& d1 = in->distribution();
    const Distribution& d2 = zip0->distribution();
    dist = d1.isSet() ? d1 : d2;
    if (!dist.isSet() || (d1.isSet() && d2.isSet() && !(d1 == d2))) {
      dist = Distribution::block();
    }
    in->setDistribution(dist);
  }
  for (FusedStage& st : stages) {
    if (st.zipInput != nullptr && st.zipInput != in) st.zipInput->setDistribution(dist);
  }
  if (in != nullptr) in->ensureOnDevices(sess);
  for (FusedStage& st : stages) {
    if (st.zipInput != nullptr && st.zipInput != in) st.zipInput->ensureOnDevices(sess);
  }
  return dist;
}

bool chainWritesInput(const VectorData& output, const ChainInput& input,
                      std::span<const FusedStage> stages) {
  if (&output == input.vector) return true;
  for (const FusedStage& st : stages) {
    if (st.zipInput == &output) return true;
  }
  return false;
}

/// ONE generated kernel per device evaluates the whole chain element-wise —
/// no intermediate vectors exist anywhere.  The output is allocated before
/// the extras are prepared.
void runChainOnce(Session& sess, const ChainInput& input, std::span<FusedStage> stages,
                  VectorData& output) {
  const Distribution dist = materializeChainInputs(sess, input, stages);
  output.setDistribution(dist);
  if (!chainWritesInput(output, input, stages)) output.ensureOnDevicesNoUpload(sess);
  for (FusedStage& st : stages) prepareExtras(sess, st.extras);

  const std::string source = fusedSourcePrelude(stages) + "__kernel void skelcl_fused(" +
                             chainInputParams(input, stages) + "__global " +
                             stages.back().outTypeName +
                             "* skelcl_out, int skelcl_n, int skelcl_base" +
                             chainExtraParams(stages) +
                             ") {\n"
                             "  int skelcl_i = get_global_id(0);\n"
                             "  if (skelcl_i < skelcl_n) skelcl_out[skelcl_i] = " +
                             chainExprAt(input, stages, "skelcl_i") + ";\n}\n";

  auto program = sess.programForSource(source);
  ocl::Kernel kernel(*program, "skelcl_fused");

  // One kernel stage per device, recorded breadth-first on the command
  // graph: argument binding happens at issue time, dependencies are the
  // producer events of the inputs, and nothing blocks the host.  (In the
  // in-place case `output` aliases an input, so output.partOn is the right
  // part either way.)  A one-stage chain traces as the map or zip kernel it
  // is; a longer one as a single fused record per device.
  const bool fused = stages.size() > 1;
  const std::string label = fused ? "fused x" + std::to_string(stages.size())
                            : stages.front().zipInput != nullptr ? "zip"
                                                                 : "map";
  const auto ranges = sess.partition(dist, input.count());
  ExecGraph g(sess);
  std::vector<std::pair<int, ExecGraph::NodeId>> launches;
  for (const PartRange& r : ranges) {
    if (r.size == 0) continue;
    launches.emplace_back(
        r.device,
        g.add(fused ? StageKind::Fused : StageKind::Kernel, r.device,
              label + " dev" + std::to_string(r.device),
              [&, r](std::span<const ocl::Event> deps) {
                std::size_t arg = bindChainInputs(kernel, input, stages, r.device);
                kernel.setArg(arg++, *output.partOn(r.device)->buffer);
                kernel.setArg(arg++, static_cast<std::int32_t>(r.size));
                kernel.setArg(arg++, static_cast<std::int32_t>(r.offset));
                bindChainExtras(sess, kernel, arg, stages, r.device);
                return sess.queue(r.device).enqueueNDRangeKernel(kernel, r.size, 0, deps);
              },
              {}, chainDeps(r.device, input, stages)));
  }
  g.run();
  if (!launches.empty()) {
    for (const auto& [device, node] : launches) {
      output.recordDeviceWrite(device, g.event(node));
    }
    output.markDevicesModified();
  }
}

/// The unfused fallback: every stage as its own one-stage chain,
/// intermediates in heap temporaries — or in the observe sinks whose
/// presence made the chain ineligible in the first place.
void runChainUnfused(Session& sess, VectorData& input, const std::string& inTypeName,
                     std::vector<FusedStage>& stages, VectorData& output) {
  const std::size_t n = input.count();
  VectorData* cur = &input;
  std::string curType = inTypeName;
  std::vector<std::unique_ptr<VectorData>> temps;
  for (std::size_t s = 0; s < stages.size(); ++s) {
    FusedStage& st = stages[s];
    const bool last = s + 1 == stages.size();
    if (st.observeSink != nullptr) {
      SKELCL_CHECK(st.observeSink->count() == n &&
                       st.observeSink->elemSize() == st.outElemSize,
                   "observed intermediate has the wrong size");
    }
    VectorData* dst = &output;
    if (!last) {
      if (st.observeSink != nullptr) {
        dst = st.observeSink;
      } else {
        temps.push_back(std::make_unique<VectorData>(n, st.outElemSize, st.outElemKind));
        dst = temps.back().get();
      }
    }
    runChain(sess, ChainInput{cur, curType}, std::span<FusedStage>(&st, 1), *dst);
    if (last && st.observeSink != nullptr && st.observeSink != &output) {
      const std::byte* bytes = dst->hostRead(&sess);
      std::memcpy(st.observeSink->hostWrite(&sess), bytes, n * st.outElemSize);
    }
    cur = dst;
    curType = st.outTypeName;
  }
}

}  // namespace

void runChain(Session& session, const ChainInput& input, std::span<FusedStage> stages,
              VectorData& output) {
  std::lock_guard<std::recursive_mutex> lock(session.shared().mutex());
  for (const FusedStage& st : stages) rejectOutputAsExtra(st.extras, output);
  withDeviceLossRecovery(session, chainRecoveryInputs(input, stages),
                         chainWritesInput(output, input, stages) ? nullptr : &output,
                         [&] { runChainOnce(session, input, stages, output); });
}

bool runFusedChain(Session& session, VectorData& input, const std::string& inTypeName,
                   std::vector<FusedStage>& stages, VectorData& output,
                   bool forceUnfused) {
  SKELCL_CHECK(!stages.empty(), "skeleton pipeline has no stages");
  SKELCL_CHECK(output.count() == input.count(), "pipeline output size mismatch");
  std::lock_guard<std::recursive_mutex> lock(session.shared().mutex());
  for (const FusedStage& st : stages) rejectOutputAsExtra(st.extras, output);
  if (forceUnfused || !chainEligible(input, stages)) {
    runChainUnfused(session, input, inTypeName, stages, output);
    return false;
  }
  runChain(session, ChainInput{&input, inTypeName}, stages, output);
  return true;
}

// ---------------------------------------------------------------------------
// Reduce (paper III-C, three steps), optionally over a fused map/zip chain
// ---------------------------------------------------------------------------

namespace {

const char* reduceKernelName(std::span<const FusedStage> stages) {
  return stages.empty() ? "skelcl_reduce" : "skelcl_fused_reduce";
}

/// The step-1 kernel: each work-item folds a contiguous chunk of elements
/// with the reduce operator `func`.  Element i is the chain evaluated at i —
/// the chain result never materializes — or, with no stages, `skelcl_in[i]`.
std::string reduceKernelSource(const ChainInput& input, std::span<const FusedStage> stages,
                               const std::string& typeName, const std::string& reduceSource,
                               const std::vector<ExtraArg>& extras) {
  return fusedSourcePrelude(stages, extras) + reduceSource + "\n__kernel void " +
         reduceKernelName(stages) + "(" + chainInputParams(input, stages) + "__global " +
         typeName + "* skelcl_partials, int skelcl_n, int skelcl_chunk" +
         chainExtraParams(stages) + extraParams(extras) +
         ") {\n"
         "  int skelcl_w = get_global_id(0);\n"
         "  int skelcl_begin = skelcl_w * skelcl_chunk;\n"
         "  int skelcl_end = min(skelcl_begin + skelcl_chunk, skelcl_n);\n"
         "  " + typeName + " skelcl_acc = " + chainExprAt(input, stages, "skelcl_begin") + ";\n"
         "  for (int skelcl_i = skelcl_begin + 1; skelcl_i < skelcl_end; ++skelcl_i)\n"
         "    skelcl_acc = func(skelcl_acc, " + chainExprAt(input, stages, "skelcl_i") +
         extraNames(extras) + ");\n"
         "  skelcl_partials[skelcl_w] = skelcl_acc;\n}\n";
}

kc::Slot runReduceOnce(Session& sess, const ChainInput& chain, std::vector<FusedStage>& stages,
                       const std::string& reduceSource, std::vector<ExtraArg>& extras) {
  VectorData& input = *chain.vector;
  SKELCL_CHECK(input.count() > 0, "reduce of an empty vector");

  materializeChainInputs(sess, chain, stages);
  for (FusedStage& st : stages) prepareExtras(sess, st.extras);

  std::vector<PartRange> ranges = input.plannedPartition(sess);
  if (input.distribution().kind() == Distribution::Kind::Copy) {
    // Every device holds the full data; reducing each copy would multiply
    // the result.  Reduce the first copy only.
    ranges.resize(1);
  }

  const std::string typeName = stages.empty() ? chain.typeName : stages.back().outTypeName;
  const ElemKind kind = stages.empty() ? input.elemKind() : stages.back().outElemKind;
  const std::size_t elemSize = stages.empty() ? input.elemSize() : stages.back().outElemSize;

  auto program = sess.programForSource(
      reduceKernelSource(chain, stages, typeName, reduceSource, extras));
  ocl::Kernel kernel(*program, reduceKernelName(stages));

  // Step 1: device-local reductions to small intermediate vectors (Section V
  // explains why a single value per GPU would be wasteful).  All step-1
  // kernels are recorded before any gather, so they overlap across devices.
  struct Pending {
    int device = 0;
    std::size_t numPartials = 0;
    std::size_t chunk = 0;
    std::size_t gatherOffset = 0;  ///< byte offset into `gathered`
    std::unique_ptr<ocl::Buffer> partials;
    ExecGraph::NodeId kernelNode = 0;
  };
  std::vector<Pending> pending;
  std::size_t gatheredBytes = 0;
  for (const PartRange& r : ranges) {
    if (r.size == 0) continue;
    const auto cores = static_cast<std::size_t>(sess.device(r.device).spec().cores);
    Pending p;
    p.device = r.device;
    p.chunk = (r.size + 4 * cores - 1) / (4 * cores);
    p.numPartials = (r.size + p.chunk - 1) / p.chunk;
    p.partials = std::make_unique<ocl::Buffer>(sess.context(), sess.device(r.device),
                                               p.numPartials * elemSize);
    p.gatherOffset = gatheredBytes;
    gatheredBytes += p.numPartials * elemSize;
    pending.push_back(std::move(p));
  }
  SKELCL_CHECK(!pending.empty(), "reduce produced no device work");

  ExecGraph g(sess);
  auto rangeOf = [&ranges](int device) -> const PartRange& {
    for (const PartRange& r : ranges) {
      if (r.device == device) return r;
    }
    throw UsageError("reduce: no part range for device");
  };
  const std::string step1Label =
      stages.empty() ? "reduce step1" : "fused x" + std::to_string(stages.size()) + " reduce";
  for (Pending& p : pending) {
    p.kernelNode = g.add(
        stages.empty() ? StageKind::Kernel : StageKind::Fused, p.device,
        step1Label + " dev" + std::to_string(p.device),
        [&, &p = p](std::span<const ocl::Event> deps) {
          const PartRange& r = rangeOf(p.device);
          std::size_t arg = bindChainInputs(kernel, chain, stages, p.device);
          kernel.setArg(arg++, *p.partials);
          kernel.setArg(arg++, static_cast<std::int32_t>(r.size));
          kernel.setArg(arg++, static_cast<std::int32_t>(p.chunk));
          arg = bindChainExtras(sess, kernel, arg, stages, p.device);
          bindExtras(sess, kernel, arg, extras, p.device);
          return sess.queue(p.device).enqueueNDRangeKernel(kernel, p.numPartials, 0, deps);
        },
        {}, chainDeps(p.device, chain, stages));
  }

  // Step 2: gather the intermediate results on the CPU.
  //
  // Flat path: one non-blocking read per device, dependent on that device's
  // step-1 kernel, overlapping across PCIe links instead of serializing on
  // the host.  On a cluster every one of those reads crosses the network, so
  // the client NIC serializes deviceCount downloads.
  //
  // Tree path (multi-node): combine node-locally first.  The members'
  // partials are copied to a buffer on the node's leader over the
  // node-internal PCIe links, the leader folds them with the zero-stage
  // skelcl_reduce kernel of the operator in two passes (a wide chunked pass,
  // then one work-item folding the pass-1 partials — a serial
  // single-work-item fold of thousands of partials would dominate the tree
  // critical path), and only ONE value per node crosses the network.  The
  // host then folds the node values in node order — the same regrouping an
  // associative operator allows, and the same one whether or not a chain
  // produced the elements.
  struct NodeGroup {
    NodeRun run;
    std::size_t totalPartials = 0;
    std::size_t combineChunk = 0;             ///< pass-1 elements per work-item
    std::size_t combineWidth = 0;             ///< pass-1 work-items
    std::unique_ptr<ocl::Buffer> nodeBuf;     ///< concatenated member partials
    std::unique_ptr<ocl::Buffer> nodeScratch; ///< pass-1 partials on the leader
    std::unique_ptr<ocl::Buffer> nodeResult;  ///< one combined element
  };
  std::vector<NodeGroup> groups;
  for (const NodeRun& run :
       nodeRuns(sess.deviceNodes(), pending, [](const Pending& p) { return p.device; })) {
    groups.emplace_back().run = run;
  }
  const bool tree = treeCollectivesEnabled(sess) && groups.size() > 1;

  std::vector<std::byte> gathered(tree ? groups.size() * elemSize : gatheredBytes);
  std::vector<ExecGraph::NodeId> gatherNodes;
  std::shared_ptr<ocl::Program> combineProgram;
  std::optional<ocl::Kernel> combineKernel;
  if (tree) {
    // The node combine folds a buffer of partials: a zero-stage reduce over
    // `typeName` elements.
    combineProgram = sess.programForSource(reduceKernelSource(
        ChainInput{chain.vector, typeName}, {}, typeName, reduceSource, extras));
    combineKernel.emplace(*combineProgram, reduceKernelName({}));
    for (NodeGroup& ng : groups) {
      const int leader = ng.run.leader;
      for (std::size_t m = ng.run.first; m < ng.run.first + ng.run.count; ++m) {
        ng.totalPartials += pending[m].numPartials;
      }
      const auto cores = static_cast<std::size_t>(sess.device(leader).spec().cores);
      ng.combineWidth = std::min(cores, ng.totalPartials);
      ng.combineChunk = (ng.totalPartials + ng.combineWidth - 1) / ng.combineWidth;
      ng.combineWidth = (ng.totalPartials + ng.combineChunk - 1) / ng.combineChunk;
      ng.nodeBuf = std::make_unique<ocl::Buffer>(sess.context(), sess.device(leader),
                                                 ng.totalPartials * elemSize);
      ng.nodeScratch = std::make_unique<ocl::Buffer>(sess.context(), sess.device(leader),
                                                     ng.combineWidth * elemSize);
      ng.nodeResult =
          std::make_unique<ocl::Buffer>(sess.context(), sess.device(leader), elemSize);
    }
    for (std::size_t k = 0; k < groups.size(); ++k) {
      NodeGroup& ng = groups[k];
      const int leader = ng.run.leader;
      const std::string nodeLabel = "reduce node" + std::to_string(ng.run.node);
      // Node-local combine: member partials -> leader (PCIe only, no NIC).
      std::vector<ExecGraph::NodeId> copies;
      std::size_t dstOffset = 0;
      for (std::size_t m = ng.run.first; m < ng.run.first + ng.run.count; ++m) {
        Pending& p = pending[m];
        copies.push_back(g.add(
            StageKind::Copy, leader, nodeLabel + " gather dev" + std::to_string(p.device),
            [&, &p = p, &ng = ng, leader, dstOffset](std::span<const ocl::Event> deps) {
              return sess.queue(leader).enqueueCopyBuffer(
                  *p.partials, *ng.nodeBuf, 0, dstOffset, p.numPartials * elemSize, deps);
            },
            {p.kernelNode}));
        dstOffset += p.numPartials * elemSize;
      }
      const ExecGraph::NodeId combine1 = g.add(
          StageKind::Kernel, leader, nodeLabel + " combine1",
          [&, &ng = ng, leader](std::span<const ocl::Event> deps) {
            // Wide pass: each work-item folds a contiguous chunk of the
            // node's partials (global device order preserved within chunks).
            combineKernel->setArg(0, *ng.nodeBuf);
            combineKernel->setArg(1, *ng.nodeScratch);
            combineKernel->setArg(2, static_cast<std::int32_t>(ng.totalPartials));
            combineKernel->setArg(3, static_cast<std::int32_t>(ng.combineChunk));
            bindExtras(sess, *combineKernel, 4, extras, leader);
            return sess.queue(leader).enqueueNDRangeKernel(*combineKernel, ng.combineWidth, 0,
                                                           deps);
          },
          copies);
      const ExecGraph::NodeId combine = g.add(
          StageKind::Kernel, leader, nodeLabel + " combine2",
          [&, &ng = ng, leader](std::span<const ocl::Event> deps) {
            // Serial pass: one work-item folds the pass-1 partials in order,
            // so the node result is a left fold of chunked left folds — the
            // grouping any associative operator allows.
            combineKernel->setArg(0, *ng.nodeScratch);
            combineKernel->setArg(1, *ng.nodeResult);
            combineKernel->setArg(2, static_cast<std::int32_t>(ng.combineWidth));
            combineKernel->setArg(3, static_cast<std::int32_t>(ng.combineWidth));
            bindExtras(sess, *combineKernel, 4, extras, leader);
            return sess.queue(leader).enqueueNDRangeKernel(*combineKernel, 1, 0, deps);
          },
          {combine1});
      gatherNodes.push_back(g.add(
          StageKind::Download, leader, nodeLabel + " download",
          [&, &ng = ng, leader, k](std::span<const ocl::Event> deps) {
            return sess.queue(leader).enqueueReadBuffer(*ng.nodeResult, 0, elemSize,
                                                        gathered.data() + k * elemSize,
                                                        /*blocking=*/false, deps);
          },
          {combine}));
    }
  } else {
    for (Pending& p : pending) {
      gatherNodes.push_back(g.add(
          StageKind::Download, p.device, "reduce gather dev" + std::to_string(p.device),
          [&, &p = p](std::span<const ocl::Event> deps) {
            return sess.queue(p.device).enqueueReadBuffer(
                *p.partials, 0, p.numPartials * elemSize, gathered.data() + p.gatherOffset,
                /*blocking=*/false, deps);
          },
          {p.kernelNode}));
    }
  }

  // Step 3: the CPU folds the intermediate results (order preserved, so a
  // non-commutative but associative operator is fine, paper II-A).  The host
  // stage is the single sync point of the whole plan.  It re-binds the
  // scalar extras (runFusedReduce admits no others).
  const auto hostProgram = sess.hostProgram(reduceSource);
  const int fn = hostProgram->findFunction("func");
  std::vector<kc::Slot> foldArgs(2);
  for (const ExtraArg& e : extras) {
    foldArgs.push_back(e.scalarIsFloat ? kc::Slot::fromFloat(e.scalarF)
                                       : kc::Slot::fromInt(e.scalarI));
  }
  kc::Slot acc{};
  g.add(StageKind::Host, -1, "reduce host fold",
        [&](std::span<const ocl::Event> deps) {
          auto& system = sess.system();
          system.advanceHost(ExecGraph::latestEnd(system, deps));
          kc::Vm vm(*hostProgram, {});
          const std::size_t total = gathered.size() / elemSize;
          acc = slotFromBytes(kind, gathered.data());
          for (std::size_t i = 1; i < total; ++i) {
            foldArgs[0] = acc;
            foldArgs[1] = slotFromBytes(kind, gathered.data() + i * elemSize);
            acc = vm.callFunction(fn, foldArgs);
          }
          const auto span = system.reserveHostCompute(gathered.size(), vm.instructionsExecuted());
          return ocl::Event(span.start, span.end, system.clockEpoch());
        },
        gatherNodes);
  g.run();
  return acc;
}

}  // namespace

kc::Slot runReduce(Session& session, const std::string& userSource, VectorData& input,
                   const std::string& typeName, std::vector<ExtraArg>& extras) {
  std::vector<FusedStage> none;
  return runFusedReduce(session, input, typeName, none, userSource, extras,
                        /*forceUnfused=*/false);
}

kc::Slot runFusedReduce(Session& session, VectorData& input, const std::string& inTypeName,
                        std::vector<FusedStage>& stages,
                        const std::string& reduceSource,
                        std::vector<ExtraArg>& reduceExtras,
                        bool forceUnfused, bool* ranFused) {
  // The host fold applies the bare operator with the scalars re-bound, so
  // only scalar extras are allowed — rejected before anything runs, whatever
  // the element count and whether or not the chain fuses.
  for (const ExtraArg& e : reduceExtras) {
    SKELCL_CHECK(e.kind == ExtraArg::Kind::Scalar,
                 "reduce supports only scalar additional arguments");
  }
  std::lock_guard<std::recursive_mutex> lock(session.shared().mutex());
  const bool fused = !stages.empty() && !forceUnfused && chainEligible(input, stages);
  if (ranFused != nullptr) *ranFused = fused;
  if (!stages.empty() && !fused) {
    VectorData temp(input.count(), stages.back().outElemSize, stages.back().outElemKind);
    runChainUnfused(session, input, inTypeName, stages, temp);
    return runReduce(session, reduceSource, temp, stages.back().outTypeName, reduceExtras);
  }
  const ChainInput chain{&input, inTypeName};
  return withDeviceLossRecovery(session, chainRecoveryInputs(chain, stages), nullptr, [&] {
    return runReduceOnce(session, chain, stages, reduceSource, reduceExtras);
  });
}

// ---------------------------------------------------------------------------
// MapOverlap (1D / 2D stencils with inter-device halo exchange)
// ---------------------------------------------------------------------------

namespace {

/// One contiguous run of in-range halo rows owned by another part of the
/// same block partition (a vector's rows are its elements).
struct HaloSegment {
  std::size_t begin = 0;       ///< global row index (inclusive)
  std::size_t end = 0;         ///< global row index (exclusive)
  std::size_t ownerIndex = 0;  ///< index into the partition plan
};

/// Decompose the in-range portion of the halo interval [lo, hi) into
/// per-owner contiguous segments, in ascending global order.  Block
/// partitions are contiguous, disjoint and covering (checked in
/// Distribution::partition), so the segments are simply the intersections
/// with every part other than `self` — when the radius exceeds a
/// neighbour's part, a halo spans several owners (multi-hop).
std::vector<HaloSegment> haloSegments(const std::vector<PartRange>& ranges, std::size_t self,
                                      std::ptrdiff_t lo, std::ptrdiff_t hi,
                                      std::size_t count) {
  std::vector<HaloSegment> segs;
  const std::size_t begin = lo < 0 ? 0 : static_cast<std::size_t>(lo);
  const std::size_t end =
      hi > static_cast<std::ptrdiff_t>(count) ? count : static_cast<std::size_t>(hi);
  if (begin >= end) return segs;
  for (std::size_t q = 0; q < ranges.size(); ++q) {
    if (q == self) continue;
    const std::size_t s = std::max(begin, ranges[q].offset);
    const std::size_t e = std::min(end, ranges[q].offset + ranges[q].size);
    if (s < e) segs.push_back(HaloSegment{s, e, q});
  }
  std::sort(segs.begin(), segs.end(),
            [](const HaloSegment& a, const HaloSegment& b) { return a.begin < b.begin; });
  return segs;
}

/// `count` copies of the neutral element as raw bytes (scalar kinds only —
/// the skeleton front ends restrict elements to float/double/int/uint).
std::vector<std::byte> neutralBytes(const ExtraArg& neutral, ElemKind kind, std::size_t elem,
                                    std::size_t count) {
  std::vector<std::byte> out(count * elem);
  const kc::Slot v = neutral.scalarIsFloat ? kc::Slot::fromFloat(neutral.scalarF)
                                           : kc::Slot::fromInt(neutral.scalarI);
  for (std::size_t i = 0; i < count; ++i) slotToBytes(kind, v, out.data() + i * elem);
  return out;
}

void bindNeutral(ocl::Kernel& kernel, std::size_t arg, const ExtraArg& neutral) {
  if (neutral.scalarIsFloat) {
    kernel.setArg(arg, neutral.scalarF);
  } else {
    kernel.setArg(arg, neutral.scalarI);
  }
}

/// The stencil program.  Contiguous padded rows keep the 1D stencil call
/// func(pad, i + r); a block with column padding adds the pack kernel, which
/// assembles the padded part (interior from the part's own rows, column
/// padding and out-of-range rows from the boundary policy; in-range halo rows
/// were uploaded before it runs and are left untouched), and calls
/// func(pad, center, stride).  The row/col index costs the 1D stencil about a
/// third more kernel time, so it stays layout-specific (docs/MATRIX.md).
std::string overlapSource(const std::string& userSource, const std::string& typeName,
                          bool contiguous, Padding padding,
                          const std::vector<ExtraArg>& extras) {
  std::string source = gatherTypedefs(extras) + userSource + "\n";
  if (!contiguous) {
    source += "__kernel void skelcl_mo_pack(__global " + typeName + "* skelcl_src, __global " +
              typeName +
              "* skelcl_pad, int skelcl_total, int skelcl_rows, int skelcl_cols, "
              "int skelcl_stride, int skelcl_r, int skelcl_row0, int skelcl_prows, " +
              typeName +
              " skelcl_neutral) {\n"
              "  int skelcl_i = get_global_id(0);\n"
              "  if (skelcl_i < skelcl_total) {\n"
              "    int skelcl_prow = skelcl_i / skelcl_stride;\n"
              "    int skelcl_col = skelcl_i % skelcl_stride - skelcl_r;\n"
              "    int skelcl_arow = skelcl_row0 - skelcl_r + skelcl_prow;\n"
              "    if (skelcl_col < 0 || skelcl_col >= skelcl_cols || skelcl_arow < 0 || "
              "skelcl_arow >= skelcl_rows) {\n";
    if (padding == Padding::Neutral) {
      source += "      skelcl_pad[skelcl_i] = skelcl_neutral;\n";
    } else {
      // The clamped cell is always present: in the part's own rows, or in an
      // uploaded halo row (the clipped halo row range always reaches the
      // matrix edge whenever an out-of-matrix row exists).  Halo-row cells
      // are never written by this kernel, so the read is safe under any
      // work-item order.
      source +=
          "      int skelcl_crow = clamp(skelcl_arow, 0, skelcl_rows - 1);\n"
          "      int skelcl_ccol = clamp(skelcl_col, 0, skelcl_cols - 1);\n"
          "      if (skelcl_crow >= skelcl_row0 && skelcl_crow < skelcl_row0 + skelcl_prows) {\n"
          "        skelcl_pad[skelcl_i] = "
          "skelcl_src[(skelcl_crow - skelcl_row0) * skelcl_cols + skelcl_ccol];\n"
          "      } else {\n"
          "        skelcl_pad[skelcl_i] = skelcl_pad[(skelcl_crow - skelcl_row0 + skelcl_r) * "
          "skelcl_stride + skelcl_r + skelcl_ccol];\n"
          "      }\n";
    }
    source +=
        "    } else if (skelcl_arow >= skelcl_row0 && skelcl_arow < skelcl_row0 + skelcl_prows) "
        "{\n"
        "      skelcl_pad[skelcl_i] = "
        "skelcl_src[(skelcl_arow - skelcl_row0) * skelcl_cols + skelcl_col];\n"
        "    }\n"
        "  }\n}\n";
  }
  source += std::string("__kernel void ") + (contiguous ? "skelcl_overlap" : "skelcl_overlap2") +
            "(__global " + typeName + "* skelcl_pad, __global " + typeName +
            "* skelcl_out, int skelcl_n, " +
            (contiguous ? "" : "int skelcl_cols, int skelcl_stride, ") + "int skelcl_r" +
            extraParams(extras) +
            ") {\n"
            "  int skelcl_i = get_global_id(0);\n"
            "  if (skelcl_i < skelcl_n) ";
  if (contiguous) {
    source += "skelcl_out[skelcl_i] = func(skelcl_pad, skelcl_i + skelcl_r" +
              extraNames(extras) + ");\n}\n";
  } else {
    source += "{\n"
              "    int skelcl_row = skelcl_i / skelcl_cols;\n"
              "    int skelcl_col = skelcl_i % skelcl_cols;\n"
              "    skelcl_out[skelcl_i] = func(skelcl_pad, "
              "(skelcl_row + skelcl_r) * skelcl_stride + skelcl_col + skelcl_r, skelcl_stride" +
              extraNames(extras) + ");\n  }\n}\n";
  }
  return source;
}

/// The one halo engine.  Each device part of `input` (a vector, or a
/// matrix's row vector) is staged into a padded block of (partRows + 2r) rows
/// by stride = cols + 2 colRadius scalars: a vector is cols = 1,
/// colRadius = 0; a matrix is cols = columnCount(), colRadius = r.  Segment
/// planning, staging, the halo gets and puts, the stencil launch and the
/// output bookkeeping are shared; only the apron (the padding ring around
/// the part) is built per layout.  Recorded order, stage-outer / part-inner so
/// the in-order device queues admit every halo get before any compute:
///   contiguous rows (colRadius = 0): gets, interior copies, puts, edges,
///                                    kernels;
///   column padding:                  gets, puts, packs, kernels.
void runMapOverlapOnce(Session& sess, const std::string& userSource, VectorData& input,
                       VectorData& output, const std::string& typeName, std::size_t cols,
                       std::size_t colRadius, std::size_t radius, Padding padding,
                       const ExtraArg& neutral, std::vector<ExtraArg>& extras) {
  const std::size_t rows = input.count();
  if (rows == 0) return;  // empty in, empty out

  // Stencils need the contiguous block layout; any other distribution is
  // switched to block (as zip does for mismatched inputs, paper III-C).
  if (input.distribution().kind() != Distribution::Kind::Block) {
    input.setDistribution(Distribution::block());
  }
  input.ensureOnDevices(sess);
  output.setDistribution(input.distribution());
  output.ensureOnDevicesNoUpload(sess);
  prepareExtras(sess, extras);

  const std::size_t rowBytes = input.elemSize();
  const std::size_t elem = rowBytes / cols;
  const std::size_t stride = cols + 2 * colRadius;
  const std::size_t padRowBytes = stride * elem;
  const std::ptrdiff_t R = static_cast<std::ptrdiff_t>(radius);
  // Without column padding the padded rows are contiguous: device copies and
  // fills build the apron and a halo segment lands as one upload.  Packing a
  // vector with the kernel instead took about 100x their device time
  // (docs/MATRIX.md).
  const bool contiguous = colRadius == 0;

  auto program =
      sess.programForSource(overlapSource(userSource, typeName, contiguous, padding, extras));
  std::optional<ocl::Kernel> pack;
  if (!contiguous) pack.emplace(*program, "skelcl_mo_pack");
  ocl::Kernel kernel(*program, contiguous ? "skelcl_overlap" : "skelcl_overlap2");

  const std::vector<PartRange> ranges = input.plannedPartition(sess);

  struct PartPlan {
    PartRange range;                              ///< row range
    std::unique_ptr<ocl::Buffer> padded;          ///< (rows + 2r) x stride scalars
    std::vector<HaloSegment> segs;                ///< halo row segments, ascending
    std::vector<std::vector<std::byte>> staging;  ///< one per segment
    std::vector<std::byte> neutralStage;          ///< contiguous neutral edge source
    std::size_t missTop = 0;                      ///< out-of-range padded rows, top
    std::size_t missBottom = 0;                   ///< out-of-range padded rows, bottom
    std::vector<ExecGraph::NodeId> segWrites;     ///< per segment: its get, then last put
    std::vector<ExecGraph::NodeId> ready;         ///< what the stencil kernel waits on
    ExecGraph::NodeId interior = 0;
  };
  std::vector<PartPlan> plans;
  for (std::size_t pi = 0; pi < ranges.size(); ++pi) {
    const PartRange& r = ranges[pi];
    PartPlan p;
    p.range = r;
    const std::ptrdiff_t off = static_cast<std::ptrdiff_t>(r.offset);
    const std::ptrdiff_t hiEnd = off + static_cast<std::ptrdiff_t>(r.size) + R;
    p.padded = std::make_unique<ocl::Buffer>(sess.context(), sess.device(r.device),
                                             (r.size + 2 * radius) * padRowBytes);
    p.segs = haloSegments(ranges, pi, off - R, hiEnd, rows);
    for (const HaloSegment& s : p.segs) {
      p.staging.emplace_back((s.end - s.begin) * rowBytes);
    }
    p.missTop = off < R ? static_cast<std::size_t>(R - off) : 0;
    p.missBottom = hiEnd > static_cast<std::ptrdiff_t>(rows)
                       ? static_cast<std::size_t>(hiEnd - static_cast<std::ptrdiff_t>(rows))
                       : 0;
    if (contiguous && padding == Padding::Neutral && (p.missTop > 0 || p.missBottom > 0)) {
      p.neutralStage = neutralBytes(neutral, input.elemKind(), elem,
                                    std::max(p.missTop, p.missBottom) * stride);
    }
    plans.push_back(std::move(p));
  }

  ExecGraph g(sess);

  // Halo exchange, step 1: read each segment from its owner (kind "halo").
  for (PartPlan& p : plans) {
    for (std::size_t si = 0; si < p.segs.size(); ++si) {
      const HaloSegment& s = p.segs[si];
      const PartRange& owner = ranges[s.ownerIndex];
      std::byte* dst = p.staging[si].data();
      std::vector<ocl::Event> ext;
      addPartDep(ext, &input, owner.device);
      p.segWrites.push_back(g.add(
          StageKind::Halo, owner.device,
          "halo get dev" + std::to_string(owner.device) + "->dev" +
              std::to_string(p.range.device),
          [&sess, &input, owner, s, dst, rowBytes](std::span<const ocl::Event> deps) {
            return sess.queue(owner.device)
                .enqueueReadBuffer(*input.partOn(owner.device)->buffer,
                                   (s.begin - owner.offset) * rowBytes,
                                   (s.end - s.begin) * rowBytes, dst, /*blocking=*/false, deps);
          },
          {}, std::move(ext)));
    }
  }
  // Contiguous apron, interior: one device-local copy of the part's own rows.
  for (PartPlan& p : plans) {
    if (!contiguous) continue;
    const PartRange r = p.range;
    std::vector<ocl::Event> ext;
    addPartDep(ext, &input, r.device);
    ocl::Buffer* padded = p.padded.get();
    p.interior = g.add(
        StageKind::Copy, r.device, "overlap interior dev" + std::to_string(r.device),
        [&sess, &input, r, padded, padRowBytes, radius](std::span<const ocl::Event> deps) {
          return sess.queue(r.device).enqueueCopyBuffer(*input.partOn(r.device)->buffer,
                                                        *padded, 0, radius * padRowBytes,
                                                        r.size * padRowBytes, deps);
        },
        {}, std::move(ext));
    p.ready.push_back(p.interior);
  }
  // Halo exchange, step 2: write the staged segments into the padded block,
  // one upload per contiguous run — the whole segment when padded rows are
  // contiguous, else one row (kind "halo").
  for (PartPlan& p : plans) {
    const PartRange r = p.range;
    ocl::Buffer* padded = p.padded.get();
    for (std::size_t si = 0; si < p.segs.size(); ++si) {
      const HaloSegment& s = p.segs[si];
      const ExecGraph::NodeId get = p.segWrites[si];
      const std::size_t run = contiguous ? s.end - s.begin : 1;
      for (std::size_t row = s.begin; row < s.end; row += run) {
        const std::byte* src = p.staging[si].data() + (row - s.begin) * rowBytes;
        // padded row of global row g is g + radius - r.offset
        const std::size_t dstOff = ((row + radius - r.offset) * stride + colRadius) * elem;
        const std::size_t bytes = run * rowBytes;
        p.segWrites[si] = g.add(
            StageKind::Halo, r.device,
            "halo put dev" + std::to_string(ranges[s.ownerIndex].device) + "->dev" +
                std::to_string(r.device),
            [&sess, r, padded, src, dstOff, bytes](std::span<const ocl::Event> deps) {
              return sess.queue(r.device).enqueueWriteBuffer(*padded, dstOff, bytes, src,
                                                             /*blocking=*/false, deps);
            },
            {get});
        p.ready.push_back(p.segWrites[si]);
      }
    }
  }
  // The rest of the apron: out-of-range rows (and the column padding) from
  // the boundary policy.
  for (PartPlan& p : plans) {
    const PartRange r = p.range;
    ocl::Buffer* padded = p.padded.get();
    const std::size_t padRows = r.size + 2 * radius;
    if (!contiguous) {
      std::vector<ocl::Event> ext;
      addPartDep(ext, &input, r.device);
      const std::size_t total = padRows * stride;
      const ExecGraph::NodeId packed = g.add(
          StageKind::Kernel, r.device, "overlap pack dev" + std::to_string(r.device),
          [&, r, padded, total](std::span<const ocl::Event> deps) {
            pack->setArg(0, *input.partOn(r.device)->buffer);
            pack->setArg(1, *padded);
            pack->setArg(2, static_cast<std::int32_t>(total));
            pack->setArg(3, static_cast<std::int32_t>(rows));
            pack->setArg(4, static_cast<std::int32_t>(cols));
            pack->setArg(5, static_cast<std::int32_t>(stride));
            pack->setArg(6, static_cast<std::int32_t>(radius));
            pack->setArg(7, static_cast<std::int32_t>(r.offset));
            pack->setArg(8, static_cast<std::int32_t>(r.size));
            bindNeutral(*pack, 9, neutral);
            return sess.queue(r.device).enqueueNDRangeKernel(*pack, total, 0, deps);
          },
          p.ready, std::move(ext));
      p.ready = {packed};
    } else if (padding == Padding::Neutral) {
      auto fill = [&](std::size_t firstRow, std::size_t count) {
        const std::byte* src = p.neutralStage.data();
        const std::size_t dstOff = firstRow * padRowBytes;
        const std::size_t bytes = count * padRowBytes;
        p.ready.push_back(
            g.add(StageKind::Upload, r.device, "overlap edge dev" + std::to_string(r.device),
                  [&sess, r, padded, src, dstOff, bytes](std::span<const ocl::Event> deps) {
                    return sess.queue(r.device).enqueueWriteBuffer(*padded, dstOff, bytes, src,
                                                                   /*blocking=*/false, deps);
                  }));
      };
      if (p.missTop > 0) fill(0, p.missTop);
      if (p.missBottom > 0) fill(padRows - p.missBottom, p.missBottom);
    } else {
      // Clamp: replicate the global edge row.  Whenever an end of the padded
      // block is out of range, the edge row is already *in* the block — in
      // the interior if this part owns it, otherwise inside the fetched halo
      // (the clipped halo interval always reaches the edge).
      auto writerOf = [&](std::size_t global) -> ExecGraph::NodeId {
        if (global >= r.offset && global < r.offset + r.size) return p.interior;
        for (std::size_t si = 0; si < p.segs.size(); ++si) {
          if (global >= p.segs[si].begin && global < p.segs[si].end) return p.segWrites[si];
        }
        throw UsageError("map-overlap: clamp source element not staged");
      };
      auto clampCopies = [&](std::size_t global, std::size_t firstRow, std::size_t count) {
        const std::size_t srcOff = (global + radius - r.offset) * padRowBytes;
        const ExecGraph::NodeId dep = writerOf(global);
        for (std::size_t k = 0; k < count; ++k) {
          const std::size_t dstOff = (firstRow + k) * padRowBytes;
          p.ready.push_back(g.add(
              StageKind::Copy, r.device, "overlap edge dev" + std::to_string(r.device),
              [&sess, r, padded, srcOff, dstOff, padRowBytes](std::span<const ocl::Event> deps) {
                return sess.queue(r.device).enqueueCopyBuffer(*padded, *padded, srcOff, dstOff,
                                                              padRowBytes, deps);
              },
              {dep}));
        }
      };
      if (p.missTop > 0) clampCopies(0, 0, p.missTop);
      if (p.missBottom > 0) clampCopies(rows - 1, padRows - p.missBottom, p.missBottom);
    }
  }
  // Stencil kernels, one per part: (pad, out, n, r) in the 1D form,
  // (pad, out, n, cols, stride, r) in the row/col form, then the extras.
  const std::vector<std::size_t> shapeArgs =
      contiguous ? std::vector<std::size_t>{radius}
                 : std::vector<std::size_t>{cols, stride, radius};
  std::vector<std::pair<int, ExecGraph::NodeId>> launches;
  for (PartPlan& p : plans) {
    const PartRange r = p.range;
    ocl::Buffer* padded = p.padded.get();
    std::vector<ocl::Event> ext;
    for (const ExtraArg& e : extras) {
      if (e.kind == ExtraArg::Kind::VectorRef) addPartDep(ext, e.vector, r.device);
    }
    const std::size_t nOut = r.size * cols;
    launches.emplace_back(
        r.device,
        g.add(StageKind::Kernel, r.device, "overlap dev" + std::to_string(r.device),
              [&, r, padded, nOut](std::span<const ocl::Event> deps) {
                kernel.setArg(0, *padded);
                kernel.setArg(1, *output.partOn(r.device)->buffer);
                kernel.setArg(2, static_cast<std::int32_t>(nOut));
                std::size_t arg = 3;
                for (const std::size_t v : shapeArgs) {
                  kernel.setArg(arg++, static_cast<std::int32_t>(v));
                }
                bindExtras(sess, kernel, arg, extras, r.device);
                return sess.queue(r.device).enqueueNDRangeKernel(kernel, nOut, 0, deps);
              },
              p.ready, std::move(ext)));
  }
  g.run();
  for (const auto& [device, node] : launches) {
    output.recordDeviceWrite(device, g.event(node));
  }
  if (!launches.empty()) output.markDevicesModified();
}

/// Shared front of both ranks: lock, the in-place and aliasing checks, and
/// device-loss recovery around the engine.
void runMapOverlap(Session& session, const std::string& userSource, VectorData& input,
                   VectorData& output, const std::string& typeName, std::size_t cols,
                   std::size_t colRadius, std::size_t radius, Padding padding,
                   const ExtraArg& neutral, std::vector<ExtraArg>& extras) {
  std::lock_guard<std::recursive_mutex> lock(session.shared().mutex());
  SKELCL_CHECK(&output != &input,
               "map-overlap cannot run in place: the stencil reads neighbours of every element");
  rejectOutputAsExtra(extras, output);
  withDeviceLossRecovery(session, recoveryInputs(&input, nullptr, extras), &output, [&] {
    runMapOverlapOnce(session, userSource, input, output, typeName, cols, colRadius, radius,
                      padding, neutral, extras);
  });
}

}  // namespace

void runMapOverlap1D(Session& session, const std::string& userSource, VectorData& input,
                     VectorData& output, const std::string& typeName, std::size_t radius,
                     Padding padding, const ExtraArg& neutral, std::vector<ExtraArg>& extras) {
  SKELCL_CHECK(output.count() == input.count(), "map-overlap output size mismatch");
  runMapOverlap(session, userSource, input, output, typeName, /*cols=*/1, /*colRadius=*/0,
                radius, padding, neutral, extras);
}

void runMapOverlap2D(Session& session, const std::string& userSource, MatrixData& input,
                     MatrixData& output, const std::string& typeName, std::size_t radius,
                     Padding padding, const ExtraArg& neutral, std::vector<ExtraArg>& extras) {
  SKELCL_CHECK(output.rowCount() == input.rowCount() &&
                   output.columnCount() == input.columnCount(),
               "map-overlap output shape mismatch");
  runMapOverlap(session, userSource, input.rowVector(), output.rowVector(), typeName,
                input.columnCount(), /*colRadius=*/radius, radius, padding, neutral, extras);
}

// ---------------------------------------------------------------------------
// MapPairs (all-pairs combination of two vectors into a matrix)
// ---------------------------------------------------------------------------

namespace {

void runMapPairsOnce(Session& sess, const std::string& userSource, VectorData& left,
                     VectorData& right, MatrixData& output, const std::string& leftType,
                     const std::string& rightType, const std::string& outType,
                     std::vector<ExtraArg>& extras) {
  const std::size_t rows = left.count();
  const std::size_t cols = right.count();
  if (rows == 0) return;  // empty left, empty output matrix

  // The output rows are block-partitioned; the left input follows the same
  // row blocks and the right input is replicated so every device holds the
  // full columns it combines with its rows.
  if (left.distribution().kind() != Distribution::Kind::Block) {
    left.setDistribution(Distribution::block());
  }
  if (right.distribution().kind() != Distribution::Kind::Copy) {
    right.setDistribution(Distribution::copy());
  }
  left.ensureOnDevices(sess);
  right.ensureOnDevices(sess);
  VectorData& out = output.rowVector();
  out.setDistribution(left.distribution());
  out.ensureOnDevicesNoUpload(sess);
  prepareExtras(sess, extras);

  std::string source = gatherTypedefs(extras);
  source += userSource;
  source += "\n__kernel void skelcl_pairs(__global " + leftType + "* skelcl_a, __global " +
            rightType + "* skelcl_b, __global " + outType +
            "* skelcl_out, int skelcl_n, int skelcl_cols" + extraParams(extras) +
            ") {\n"
            "  int skelcl_i = get_global_id(0);\n"
            "  if (skelcl_i < skelcl_n) skelcl_out[skelcl_i] = "
            "func(skelcl_a[skelcl_i / skelcl_cols], skelcl_b[skelcl_i % skelcl_cols]" +
            extraNames(extras) + ");\n}\n";
  auto program = sess.programForSource(source);
  ocl::Kernel kernel(*program, "skelcl_pairs");

  const std::vector<PartRange> ranges = left.plannedPartition(sess);
  ExecGraph g(sess);
  std::vector<std::pair<int, ExecGraph::NodeId>> launches;
  for (const PartRange& r : ranges) {
    const std::size_t nOut = r.size * cols;
    launches.emplace_back(
        r.device,
        g.add(StageKind::Kernel, r.device, "pairs dev" + std::to_string(r.device),
              [&, r, nOut](std::span<const ocl::Event> deps) {
                kernel.setArg(0, *left.partOn(r.device)->buffer);
                kernel.setArg(1, *right.partOn(r.device)->buffer);
                kernel.setArg(2, *out.partOn(r.device)->buffer);
                kernel.setArg(3, static_cast<std::int32_t>(nOut));
                kernel.setArg(4, static_cast<std::int32_t>(cols));
                bindExtras(sess, kernel, 5, extras, r.device);
                return sess.queue(r.device).enqueueNDRangeKernel(kernel, nOut, 0, deps);
              },
              {}, inputDeps(r.device, &left, &right, extras)));
  }
  g.run();
  for (const auto& [device, node] : launches) {
    out.recordDeviceWrite(device, g.event(node));
  }
  if (!launches.empty()) out.markDevicesModified();
}

}  // namespace

void runMapPairs(Session& session, const std::string& userSource, VectorData& left,
                 VectorData& right, MatrixData& output, const std::string& leftType,
                 const std::string& rightType, const std::string& outType,
                 std::vector<ExtraArg>& extras) {
  std::lock_guard<std::recursive_mutex> lock(session.shared().mutex());
  SKELCL_CHECK(output.rowCount() == left.count() && output.columnCount() == right.count(),
               "map-pairs output shape mismatch");
  rejectOutputAsExtra(extras, output.rowVector());
  withDeviceLossRecovery(session, recoveryInputs(&left, &right, extras), &output.rowVector(),
                         [&] {
                           runMapPairsOnce(session, userSource, left, right, output, leftType,
                                           rightType, outType, extras);
                         });
}

}  // namespace skelcl::detail
