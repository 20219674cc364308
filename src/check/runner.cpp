#include "check/runner.hpp"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <sstream>
#include <type_traits>
#include <utility>
#include <vector>

#include "base/error.hpp"
#include "check/funcs.hpp"
#include "check/model.hpp"
#include "check/vector_access.hpp"
#include "core/service.hpp"
#include "core/skelcl.hpp"
#include "docl/docl.hpp"
#include "ocl/buffer.hpp"

namespace skelcl::check {

namespace {

// --- sanitization -----------------------------------------------------------

int wrapIndex(int v, int range) {
  const int m = v % range;
  return m < 0 ? m + range : m;
}

bool fnValid(const std::string& id, ElemType t, bool FnInfo::*role) {
  const FnInfo* fi = fnInfo(id);
  return fi != nullptr && fi->*role && (t == ElemType::I32 ? fi->forInt : fi->forFloat);
}

bool shapeIn(const std::string& id, FnShape a, FnShape b) {
  const FnShape s = fnInfo(id)->shape;
  return s == a || s == b;
}

bool shapeHasScalar(const std::string& id) {
  const FnShape s = fnInfo(id)->shape;
  return s == FnShape::UnaryScalar || s == FnShape::BinaryScalar;
}

/// Session ops address a small fixed set of tenant slots (0 = default).
constexpr int kMaxSessions = 4;

void clampWeights(std::vector<double>& weights) {
  if (weights.size() > 8) weights.resize(8);
  for (double& w : weights) {
    if (!std::isfinite(w) || w < 0.0) w = 0.0;
    if (w > 16.0) w = 16.0;
  }
}

}  // namespace

void sanitize(Program& p) {
  Config& c = p.cfg;
  // teslaS1070 models 1, 2 or 4 GPUs.
  c.devices = c.devices >= 4 ? 4 : (c.devices >= 2 ? 2 : 1);
  // Cluster runs spread the devices evenly across nodes, so the node count
  // must divide the device count (both are powers of 2 after clamping).
  c.nodes = c.nodes >= 4 ? 4 : (c.nodes >= 2 ? 2 : 1);
  if (c.nodes > c.devices) c.nodes = c.devices;
  // n = 0 is a legal configuration: empty vectors flow through every
  // skeleton (reduce raises UsageError on both sides, which still compares).
  if (c.n > 4096) c.n = 4096;
  if (c.poolSize < 1) c.poolSize = 1;
  if (c.poolSize > 12) c.poolSize = 12;
  c.kcopt = c.kcopt < 0 ? 0 : (c.kcopt > 2 ? 2 : c.kcopt);
  const int pool = c.poolSize;
  const auto n = static_cast<std::int64_t>(c.n);
  const ElemType t = c.elem;

  for (Op& op : p.ops) {
    op.a = wrapIndex(op.a, pool);
    op.b = wrapIndex(op.b, pool);
    op.dst = wrapIndex(op.dst, pool);
    op.extraVec = wrapIndex(op.extraVec, pool);
    if (!std::isfinite(op.cf)) op.cf = 0.0;

    switch (op.kind) {
      case OpKind::Fill:
      case OpKind::Alias:
      case OpKind::Probe:
        break;
      case OpKind::Write:
        if (n == 0) {
          // No element to write; degrade to a probe of the slot.
          op.kind = OpKind::Probe;
          break;
        }
        op.index = ((op.index % n) + n) % n;
        break;
      case OpKind::SetDist: {
        DistSpec& d = op.dist;
        d.device = wrapIndex(d.device, c.devices);
        for (double& w : d.weights) {
          if (!std::isfinite(w) || w < 0.0) w = 0.0;
        }
        if (d.kind == DistKind::WBlock && d.weights.empty()) d.kind = DistKind::Block;
        if (d.kind == DistKind::CopyCombine &&
            (!fnValid(d.fn, t, &FnInfo::combineUse) ||
             fnInfo(d.fn)->shape != FnShape::Binary)) {
          d.fn = "add";
        }
        break;
      }
      case OpKind::Map:
        if (!fnValid(op.fn, t, &FnInfo::mapUse)) op.fn = "neg";
        op.hasScalar = shapeHasScalar(op.fn);
        break;
      case OpKind::Zip:
        if (!fnValid(op.fn, t, &FnInfo::zipUse)) op.fn = "add";
        op.hasScalar = shapeHasScalar(op.fn);
        break;
      case OpKind::Reduce:
        if (!fnValid(op.fn, t, &FnInfo::redUse)) op.fn = "add";
        op.hasScalar = shapeHasScalar(op.fn);
        break;
      case OpKind::Scan:
        if (!fnValid(op.fn, t, &FnInfo::scanUse) ||
            fnInfo(op.fn)->shape != FnShape::Binary) {
          op.fn = "add";
        }
        op.hasScalar = false;
        break;
      case OpKind::Pipe:
      case OpKind::PipeReduce: {
        if (op.stages.size() > 4) op.stages.resize(4);
        for (StageSpec& st : op.stages) {
          if (!std::isfinite(st.cf)) st.cf = 0.0;
          if (st.isZip) {
            st.zipVec = wrapIndex(st.zipVec, pool);
            if (!fnValid(st.fn, t, &FnInfo::zipUse) ||
                !shapeIn(st.fn, FnShape::Binary, FnShape::BinaryScalar)) {
              st.fn = "add";
            }
          } else if (!fnValid(st.fn, t, &FnInfo::mapUse)) {
            st.fn = "neg";
          }
          st.hasScalar = shapeHasScalar(st.fn);
          // Only vector and sizes extras name a slot.
          st.extraVec = shapeIn(st.fn, FnShape::UnaryVec, FnShape::UnarySizes)
                            ? wrapIndex(st.extraVec, pool)
                            : -1;
        }
        if (op.kind == OpKind::PipeReduce) {
          if (!fnValid(op.fn, t, &FnInfo::redUse) ||
              !shapeIn(op.fn, FnShape::Binary, FnShape::BinaryScalar)) {
            op.fn = "add";
          }
          op.hasScalar = shapeHasScalar(op.fn);
        }
        break;
      }
      case OpKind::Weights:
        clampWeights(op.weights);
        break;
      case OpKind::Session:
        op.device = wrapIndex(op.device, kMaxSessions);
        clampWeights(op.weights);
        break;
      case OpKind::Blacklist:
        op.device = wrapIndex(op.device, c.devices);
        break;
      case OpKind::Fault: {
        if (op.transients.size() > 3) op.transients.resize(3);
        for (auto& tr : op.transients) {
          tr[0] = tr[0] < 0 ? -1 : wrapIndex(static_cast<int>(tr[0]), c.devices);
          tr[1] = tr[1] ? 1 : 0;
          if (tr[2] < 1) tr[2] = 1;
          if (tr[2] > 3) tr[2] = 3;
        }
        if (op.slows.size() > 2) op.slows.resize(2);
        for (auto& s : op.slows) {
          s[0] = wrapIndex(static_cast<int>(s[0]), c.devices);
          // Two canonical factors: 2 (tolerated by the 4x slack) and 8
          // (watchdog-aborted).
          s[1] = s[1] < 5 ? 2 : 8;
          if (s[2] < 0) s[2] = 0;
          if (s[2] > 3) s[2] = 3;
        }
        if (op.hangs.size() > 1) op.hangs.erase(op.hangs.begin() + 1, op.hangs.end());
        for (auto& h : op.hangs) {
          h[0] = wrapIndex(static_cast<int>(h[0]), c.devices);
          if (h[1] < 1) h[1] = 1;
          if (h[1] > 2) h[1] = 2;
        }
        op.device = op.device < 0 ? -1 : wrapIndex(op.device, c.devices);
        if (op.value < 0) op.value = 0;
        if (op.value > 500) op.value = 500;
        break;
      }
      case OpKind::Cancel:
        // The service map-job interface is float; for i32 programs the op
        // degrades to a plain probe of its input slot.
        if (t == ElemType::I32) {
          op.kind = OpKind::Probe;
          break;
        }
        if (!fnValid(op.fn, t, &FnInfo::mapUse) ||
            fnInfo(op.fn)->shape != FnShape::Unary) {
          op.fn = "neg";
        }
        break;
      case OpKind::Poke:
        op.device = wrapIndex(op.device, c.devices);
        break;
      case OpKind::MapOverlap:
        if (fnInfo(op.fn) == nullptr || fnInfo(op.fn)->shape != FnShape::Stencil1) {
          op.fn = "s1sum";
        }
        op.radius = 1 + wrapIndex(op.radius - 1, 3);
        op.pad = op.pad ? 1 : 0;
        op.hasScalar = false;
        break;
      case OpKind::MatStencil:
        if (fnInfo(op.fn) == nullptr || fnInfo(op.fn)->shape != FnShape::Stencil2) {
          op.fn = "s2sum";
        }
        op.radius = 1 + wrapIndex(op.radius - 1, 2);
        op.pad = op.pad ? 1 : 0;
        op.cols = 1 + wrapIndex(op.cols - 1, 64);
        op.hasScalar = false;
        break;
    }
  }
}

namespace {

// --- error classification ---------------------------------------------------

enum class ErrClass { None, Usage, Resource, DataLoss, Command, Other };

const char* errName(ErrClass c) {
  switch (c) {
    case ErrClass::None: return "none";
    case ErrClass::Usage: return "UsageError";
    case ErrClass::Resource: return "ResourceError";
    case ErrClass::DataLoss: return "DataLossError";
    case ErrClass::Command: return "CommandError";
    case ErrClass::Other: return "other error";
  }
  return "?";
}

const char* opName(OpKind k) {
  switch (k) {
    case OpKind::Fill: return "fill";
    case OpKind::Write: return "write";
    case OpKind::SetDist: return "setdist";
    case OpKind::Alias: return "alias";
    case OpKind::Map: return "map";
    case OpKind::Zip: return "zip";
    case OpKind::Reduce: return "reduce";
    case OpKind::Scan: return "scan";
    case OpKind::Pipe: return "pipe";
    case OpKind::PipeReduce: return "pipereduce";
    case OpKind::Weights: return "weights";
    case OpKind::Blacklist: return "blacklist";
    case OpKind::Fault: return "fault";
    case OpKind::Poke: return "poke";
    case OpKind::Probe: return "probe";
    case OpKind::Session: return "session";
    case OpKind::Cancel: return "cancel";
    case OpKind::MapOverlap: return "mapoverlap";
    case OpKind::MatStencil: return "matstencil";
  }
  return "?";
}

template <typename F>
ErrClass classifySystem(F&& body, std::string* msg) {
  try {
    body();
    return ErrClass::None;
  } catch (const ocl::CommandError& e) {
    *msg = e.what();
    return ErrClass::Command;
  } catch (const DataLossError& e) {
    *msg = e.what();
    return ErrClass::DataLoss;
  } catch (const ResourceError& e) {
    *msg = e.what();
    return ErrClass::Resource;
  } catch (const UsageError& e) {
    *msg = e.what();
    return ErrClass::Usage;
  } catch (const std::exception& e) {
    *msg = e.what();
    return ErrClass::Other;
  }
}

template <typename F>
ErrClass classifyModel(F&& body, std::string* msg) {
  try {
    body();
    return ErrClass::None;
  } catch (const ModelCommandError& e) {
    *msg = e.what;
    return ErrClass::Command;
  } catch (const DataLossError& e) {
    *msg = e.what();
    return ErrClass::DataLoss;
  } catch (const ResourceError& e) {
    *msg = e.what();
    return ErrClass::Resource;
  } catch (const UsageError& e) {
    *msg = e.what();
    return ErrClass::Usage;
  } catch (const std::exception& e) {
    *msg = e.what();
    return ErrClass::Other;
  }
}

// --- the lockstep driver ----------------------------------------------------

template <typename T>
class Driver {
  static_assert(std::is_same_v<T, std::int32_t> || std::is_same_v<T, float>);

 public:
  explicit Driver(const Program& p) : prog_(p), elem_(p.cfg.elem), n_(p.cfg.n) {}

  RunResult run() {
    ::setenv("SKELCL_KC_OPT", std::to_string(prog_.cfg.kcopt).c_str(), 1);
    ::unsetenv("SKELCL_FAULTS");    // the program installs its own plans
    ::unsetenv("SKELCL_WATCHDOG");  // model mirrors the default watchdog config
    // Cluster programs rely on the default tree-collective shape, which the
    // model mirrors; keep a user's env override out of the comparison.
    ::unsetenv("SKELCL_TREE_COLLECTIVES");
    sim::SystemConfig system;
    if (prog_.cfg.nodes > 1) {
      docl::DistributedConfig cluster;
      for (int s = 0; s < prog_.cfg.nodes; ++s) {
        cluster.servers.push_back(
            sim::SystemConfig::teslaS1070(prog_.cfg.devices / prog_.cfg.nodes));
      }
      system = docl::flatten(cluster);
    } else {
      system = sim::SystemConfig::teslaS1070(prog_.cfg.devices);
    }
    std::vector<int> cores;
    for (const auto& d : system.devices) cores.push_back(d.cores);
    skelcl::init(std::move(system));
    RunResult res;
    try {
      res = runOps(cores);
    } catch (const std::exception& e) {
      res = RunResult{false, -1, std::string("harness error: ") + e.what()};
    }
    // Stop the service executor, leave the default session and drop tenant
    // sessions before terminate.
    service_.reset();
    svcSession_.reset();
    scope_.reset();
    sessions_.clear();
    skelcl::terminate();
    return res;
  }

 private:
  static T fromBits(std::uint32_t b) {
    if constexpr (std::is_same_v<T, float>) {
      return asF(b);
    } else {
      return asI(b);
    }
  }
  static std::uint32_t toBits(T v) {
    if constexpr (std::is_same_v<T, float>) {
      return bitsOfF(v);
    } else {
      return bitsOfI(v);
    }
  }
  static T scalarValue(std::int64_t ci, double cf) {
    if constexpr (std::is_same_v<T, float>) {
      return static_cast<float>(cf);
    } else {
      return static_cast<std::int32_t>(ci);
    }
  }
  /// The system binds int scalars as 32-bit kernel ints; feed the model the
  /// identically truncated value.
  static std::int64_t normCi(std::int64_t ci) {
    return static_cast<std::int64_t>(static_cast<std::int32_t>(ci));
  }

  using SysPool = std::vector<Vector<T>>;
  using ModPool = std::vector<std::shared_ptr<MVec>>;

  RunResult runOps(const std::vector<int>& cores) {
    Model model(prog_.cfg, cores);
    SysPool pool;
    ModPool mpool;
    pool.reserve(prog_.cfg.poolSize);
    for (int i = 0; i < prog_.cfg.poolSize; ++i) {
      pool.emplace_back(n_);
      mpool.push_back(std::make_shared<MVec>(n_));
    }

    for (int step = 0; step < static_cast<int>(prog_.ops.size()); ++step) {
      const Op& op = prog_.ops[step];
      std::uint32_t sysBits = 0, modBits = 0;
      bool sysFused = false, modFused = false;
      std::vector<std::uint32_t> sysContents, modContents;
      std::string sysMsg, modMsg;

      const ErrClass sc = classifySystem(
          [&] { execSystem(op, pool, sysBits, sysFused, sysContents); }, &sysMsg);
      const ErrClass mc = classifyModel(
          [&] { execModel(op, model, mpool, modBits, modFused, modContents); }, &modMsg);

      if (sc != mc) {
        return fail(step, op,
                    std::string("error class mismatch: system=") + errName(sc) +
                        (sysMsg.empty() ? "" : " (" + sysMsg + ")") +
                        ", model=" + errName(mc) +
                        (modMsg.empty() ? "" : " (" + modMsg + ")"));
      }
      if (sc == ErrClass::None) {
        if ((op.kind == OpKind::Reduce || op.kind == OpKind::PipeReduce) &&
            sysBits != modBits) {
          std::ostringstream os;
          os << "result mismatch: system=0x" << std::hex << sysBits << ", model=0x"
             << modBits;
          return fail(step, op, os.str());
        }
        if ((op.kind == OpKind::Pipe || op.kind == OpKind::PipeReduce) &&
            sysFused != modFused) {
          return fail(step, op,
                      std::string("fusion mismatch: system ") +
                          (sysFused ? "fused" : "unfused") + ", model " +
                          (modFused ? "fused" : "unfused"));
        }
        if (op.kind == OpKind::Probe) {
          for (std::size_t i = 0; i < n_; ++i) {
            if (sysContents[i] != modContents[i]) {
              std::ostringstream os;
              os << "content mismatch at [" << i << "]: system=0x" << std::hex
                 << sysContents[i] << ", model=0x" << modContents[i];
              return fail(step, op, os.str());
            }
          }
        }
      }

      const std::string div = compareState(model, pool, mpool);
      if (!div.empty()) return fail(step, op, div);
    }
    return RunResult{};
  }

  RunResult fail(int step, const Op& op, const std::string& why) const {
    return RunResult{false, step,
                     "op #" + std::to_string(step) + " (" + opName(op.kind) + "): " + why};
  }

  // --- system side ----------------------------------------------------------

  /// Switch the driver thread's current session to tenant slot `slot`
  /// (created lazily; slot 0 is the runtime's default session).  The old
  /// scope must be torn down *before* the new one is built: SessionScope
  /// restores its predecessor on destruction.
  void switchSession(int slot) {
    scope_.reset();
    if (slot == 0) return;
    auto& session = sessions_[slot];
    if (session == nullptr) {
      session = skelcl::createSession({"check" + std::to_string(slot), 1.0, 0});
    }
    scope_ = std::make_unique<SessionScope>(session);
  }

  template <typename Skel, typename... Extras>
  void applyElementwise(Skel& skel, const Op& op, SysPool& pool, const Extras&... extras) {
    if (op.inPlace) {
      skel(out(pool[op.dst]), pool[op.a], extras...);
    } else {
      pool[op.dst] = skel(pool[op.a], extras...);
    }
  }

  template <typename Skel, typename... Extras>
  void applyZip(Skel& skel, const Op& op, SysPool& pool, const Extras&... extras) {
    if (op.inPlace) {
      skel(out(pool[op.dst]), pool[op.a], pool[op.b], extras...);
    } else {
      pool[op.dst] = skel(pool[op.a], pool[op.b], extras...);
    }
  }

  /// Call `f` with the additional arguments a catalog function of `fn`'s
  /// shape takes: its scalar, or the vector or sizes token of `extraVec`.
  template <typename F>
  void withExtras(const std::string& fn, std::int64_t ci, double cf, int extraVec,
                  SysPool& pool, F&& f) {
    switch (fnInfo(fn)->shape) {
      case FnShape::UnaryScalar:
      case FnShape::BinaryScalar:
        f(scalarValue(ci, cf));
        break;
      case FnShape::UnaryVec:
        f(pool[extraVec]);
        break;
      case FnShape::UnarySizes:
        f(pool[extraVec].sizes());
        break;
      default:
        f();
        break;
    }
  }

  void buildStages(Pipeline<T>& p, const Op& op, SysPool& pool) {
    for (const StageSpec& st : op.stages) {
      const std::string src = fnSource(st.fn, elem_);
      withExtras(st.fn, st.ci, st.cf, st.extraVec, pool, [&](const auto&... extras) {
        if (st.isZip) {
          p.zip(pool[st.zipVec], src, extras...);
        } else {
          p.map(src, extras...);
        }
      });
    }
  }

  void execSystem(const Op& op, SysPool& pool, std::uint32_t& bits, bool& fused,
                  std::vector<std::uint32_t>& contents) {
    switch (op.kind) {
      case OpKind::Fill: {
        T* p = pool[op.a].hostDataWrite();
        for (std::size_t i = 0; i < n_; ++i) {
          p[i] = fromBits(valueAt(elem_, op.base + static_cast<std::int64_t>(i) * op.step));
        }
        break;
      }
      case OpKind::Write:
        pool[op.a].hostDataWrite()[op.index] = fromBits(valueAt(elem_, op.value));
        break;
      case OpKind::SetDist:
        pool[op.a].setDistribution(makeDistribution(op.dist, elem_));
        break;
      case OpKind::Alias:
        pool[op.dst] = pool[op.a];
        break;
      case OpKind::Map: {
        Map<T(T)> skel(fnSource(op.fn, elem_));
        withExtras(op.fn, op.ci, op.cf, op.extraVec, pool, [&](const auto&... extras) {
          applyElementwise(skel, op, pool, extras...);
        });
        break;
      }
      case OpKind::Zip: {
        Zip<T(T, T)> skel(fnSource(op.fn, elem_));
        withExtras(op.fn, op.ci, op.cf, op.extraVec, pool,
                   [&](const auto&... extras) { applyZip(skel, op, pool, extras...); });
        break;
      }
      case OpKind::Reduce: {
        Reduce<T(T)> skel(fnSource(op.fn, elem_));
        withExtras(op.fn, op.ci, op.cf, op.extraVec, pool,
                   [&](const auto&... extras) { bits = toBits(skel(pool[op.a], extras...)); });
        break;
      }
      case OpKind::Scan: {
        Scan<T(T, T)> skel(fnSource(op.fn, elem_));
        if (op.inPlace) {
          skel(out(pool[op.dst]), pool[op.a]);
        } else {
          pool[op.dst] = skel(pool[op.a]);
        }
        break;
      }
      case OpKind::Pipe: {
        Pipeline<T> p;
        buildStages(p, op, pool);
        p.forceUnfused(op.unfused);
        if (op.inPlace) {
          p(out(pool[op.dst]), pool[op.a]);
        } else {
          pool[op.dst] = p(pool[op.a]);
        }
        fused = p.lastRunFused();
        break;
      }
      case OpKind::PipeReduce: {
        Pipeline<T> p;
        buildStages(p, op, pool);
        p.forceUnfused(op.unfused);
        const std::string src = fnSource(op.fn, elem_);
        withExtras(op.fn, op.ci, op.cf, op.extraVec, pool, [&](const auto&... extras) {
          bits = toBits(p.reduce(src, pool[op.a], extras...));
        });
        fused = p.lastRunFused();
        break;
      }
      case OpKind::Weights:
        skelcl::setPartitionWeights(op.weights);
        break;
      case OpKind::Session:
        switchSession(op.device);
        if (!op.weights.empty()) skelcl::setPartitionWeights(op.weights);
        break;
      case OpKind::Blacklist:
        skelcl::blacklistDevice(op.device);
        break;
      case OpKind::Fault: {
        sim::FaultPlan plan;
        for (const auto& tr : op.transients) {
          if (tr[1] == 0) {
            plan.failTransfers(static_cast<int>(tr[0]), static_cast<int>(tr[2]));
          } else {
            plan.failKernels(static_cast<int>(tr[0]), static_cast<int>(tr[2]));
          }
        }
        for (const auto& s : op.slows) {
          plan.slowDevice(static_cast<int>(s[0]), static_cast<double>(s[1]),
                          static_cast<int>(s[2]));
        }
        for (const auto& h : op.hangs) {
          plan.hangCommands(static_cast<int>(h[0]), static_cast<int>(h[1]));
        }
        if (op.device >= 0) plan.killAfterCommands(op.device, static_cast<int>(op.value));
        skelcl::setFaultPlan(std::move(plan));
        break;
      }
      case OpKind::Cancel: {
        ensureService();
        // Pausing first makes the submit/cancel race deterministic: the
        // executor cannot pick the job up until resume().
        service_->pause();
        if (op.run) {
          const T* hd = pool[op.a].hostData();
          std::vector<float> in(hd, hd + n_);
          auto h = service_->submitMap(svcSession_, fnSource(op.fn, elem_), std::move(in));
          service_->resume();
          h.wait();  // rethrows job errors (injected faults, exhaustion)
          const std::vector<float>& res = h.output();
          T* dst = pool[op.dst].hostDataWrite();
          for (std::size_t i = 0; i < n_; ++i) dst[i] = static_cast<T>(res[i]);
        } else {
          // Dummy input: a cancelled job must leave no trace, so do not even
          // host-read the source slot (that would issue download commands).
          auto h = service_->submitMap(svcSession_, fnSource(op.fn, elem_),
                                       std::vector<float>(n_, 0.0f));
          const bool cancelled = h.cancel();
          service_->resume();
          SKELCL_CHECK(cancelled, "cancel raced a paused executor");
          try {
            h.wait();
          } catch (const CancelledError&) {
            // expected: cancellation is the op's success path
          }
        }
        break;
      }
      case OpKind::Poke: {
        const auto* part = pool[op.a].impl().partOn(op.device);
        if (part != nullptr && part->buffer != nullptr) {
          std::byte* raw = part->buffer->data();
          for (std::size_t i = 0; i < part->size; ++i) {
            const std::uint32_t b =
                valueAt(elem_, op.base + static_cast<std::int64_t>(i) * op.step);
            std::memcpy(raw + i * 4, &b, 4);
          }
          pool[op.a].dataOnDevicesModified();
        }
        break;
      }
      case OpKind::Probe: {
        const T* hd = pool[op.a].hostData();
        contents.resize(n_);
        for (std::size_t i = 0; i < n_; ++i) contents[i] = toBits(hd[i]);
        break;
      }
      case OpKind::MapOverlap: {
        MapOverlap<T(T)> skel(fnSource(op.fn, elem_), static_cast<std::size_t>(op.radius),
                              op.pad ? Padding::Clamp : Padding::Neutral,
                              scalarValue(op.ci, op.cf));
        if (op.inPlace) {
          skel(out(pool[op.dst]), pool[op.a]);
        } else {
          pool[op.dst] = skel(pool[op.a]);
        }
        break;
      }
      case OpKind::MatStencil: {
        const auto cols = static_cast<std::size_t>(op.cols);
        const std::size_t rows = n_ / cols;
        const T* hd = pool[op.a].hostData();
        std::vector<T> init(rows * cols);
        for (std::size_t i = 0; i < init.size(); ++i) init[i] = hd[i];
        const Matrix<T> m(rows, cols, init);
        MapOverlap<T(T)> skel(fnSource(op.fn, elem_), static_cast<std::size_t>(op.radius),
                              op.pad ? Padding::Clamp : Padding::Neutral,
                              scalarValue(op.ci, op.cf));
        const Matrix<T> res = skel(m);
        const std::vector<T> flat = res.toStdVector();
        T* dst = pool[op.dst].hostDataWrite();
        for (std::size_t i = 0; i < flat.size(); ++i) dst[i] = flat[i];
        break;
      }
    }
  }

  // --- model side -----------------------------------------------------------

  /// Model side of withExtras.
  std::vector<MExtra> modelExtras(const std::string& fn, std::int64_t ci, double cf,
                                  int extraVec, ModPool& mpool) const {
    MExtra e;
    switch (fnInfo(fn)->shape) {
      case FnShape::UnaryScalar:
      case FnShape::BinaryScalar:
        e.kind = MExtra::Kind::Scalar;
        e.ci = normCi(ci);
        e.cf = cf;
        return {e};
      case FnShape::UnaryVec:
        e.kind = MExtra::Kind::VectorRef;
        e.vec = mpool[extraVec].get();
        return {e};
      case FnShape::UnarySizes:
        e.kind = MExtra::Kind::Sizes;
        e.vec = mpool[extraVec].get();
        return {e};
      default:
        return {};
    }
  }

  std::vector<MExtra> modelExtras(const Op& op, ModPool& mpool) const {
    return modelExtras(op.fn, op.ci, op.cf, op.extraVec, mpool);
  }

  std::vector<MStage> modelStages(const Op& op, ModPool& mpool) const {
    std::vector<MStage> stages;
    for (const StageSpec& st : op.stages) {
      stages.push_back(MStage{st.fn, st.isZip ? mpool[st.zipVec].get() : nullptr,
                              modelExtras(st.fn, st.ci, st.cf, st.extraVec, mpool)});
    }
    return stages;
  }

  void execModel(const Op& op, Model& model, ModPool& mpool, std::uint32_t& bits,
                 bool& fused, std::vector<std::uint32_t>& contents) {
    switch (op.kind) {
      case OpKind::Fill:
        model.fill(*mpool[op.a], op.base, op.step);
        break;
      case OpKind::Write:
        model.write(*mpool[op.a], op.index, op.value);
        break;
      case OpKind::SetDist:
        model.setDist(*mpool[op.a], makeDistribution(op.dist, elem_));
        break;
      case OpKind::Alias:
        mpool[op.dst] = mpool[op.a];
        break;
      case OpKind::Map: {
        auto extras = modelExtras(op, mpool);
        if (op.inPlace) {
          model.map(op.fn, *mpool[op.a], *mpool[op.dst], std::move(extras));
        } else {
          auto tmp = std::make_shared<MVec>(n_);
          model.map(op.fn, *mpool[op.a], *tmp, std::move(extras));
          mpool[op.dst] = tmp;
        }
        break;
      }
      case OpKind::Zip: {
        auto extras = modelExtras(op, mpool);
        if (op.inPlace) {
          model.zip(op.fn, *mpool[op.a], *mpool[op.b], *mpool[op.dst], std::move(extras));
        } else {
          auto tmp = std::make_shared<MVec>(n_);
          model.zip(op.fn, *mpool[op.a], *mpool[op.b], *tmp, std::move(extras));
          mpool[op.dst] = tmp;
        }
        break;
      }
      case OpKind::Reduce:
        bits = model.reduce(op.fn, *mpool[op.a], modelExtras(op, mpool));
        break;
      case OpKind::Scan:
        if (op.inPlace) {
          model.scan(op.fn, *mpool[op.a], *mpool[op.dst]);
        } else {
          auto tmp = std::make_shared<MVec>(n_);
          model.scan(op.fn, *mpool[op.a], *tmp);
          mpool[op.dst] = tmp;
        }
        break;
      case OpKind::Pipe: {
        auto stages = modelStages(op, mpool);
        if (op.inPlace) {
          fused = model.pipe(*mpool[op.a], stages, *mpool[op.dst], op.unfused);
        } else {
          auto tmp = std::make_shared<MVec>(n_);
          fused = model.pipe(*mpool[op.a], stages, *tmp, op.unfused);
          mpool[op.dst] = tmp;
        }
        break;
      }
      case OpKind::PipeReduce: {
        auto stages = modelStages(op, mpool);
        bits = model.pipeReduce(*mpool[op.a], stages, op.fn, modelExtras(op, mpool),
                                op.unfused, &fused);
        break;
      }
      case OpKind::Weights:
        model.setWeights(op.weights);
        break;
      case OpKind::Session:
        model.switchSession(op.device);
        if (!op.weights.empty()) model.setWeights(op.weights);
        break;
      case OpKind::Blacklist:
        model.blacklist(op.device);
        break;
      case OpKind::Fault:
        model.installFaults(op.transients, op.slows, op.hangs, op.device, op.value);
        break;
      case OpKind::Cancel:
        if (op.run) {
          model.serviceMap(op.fn, *mpool[op.a], *mpool[op.dst]);
        }
        // run=0: the system cancels the job before it runs on a dummy input;
        // no model state changes.
        break;
      case OpKind::Poke:
        model.poke(*mpool[op.a], op.device, op.base, op.step);
        break;
      case OpKind::Probe:
        contents = model.probe(*mpool[op.a]);
        break;
      case OpKind::MapOverlap: {
        const std::uint32_t neutral = neutralBits(op);
        if (op.inPlace) {
          model.mapOverlap(op.fn, op.radius, op.pad != 0, neutral, *mpool[op.a],
                           *mpool[op.dst]);
        } else {
          auto tmp = std::make_shared<MVec>(n_);
          model.mapOverlap(op.fn, op.radius, op.pad != 0, neutral, *mpool[op.a], *tmp);
          mpool[op.dst] = tmp;
        }
        break;
      }
      case OpKind::MatStencil:
        model.matStencil(op.fn, op.radius, op.pad != 0, neutralBits(op),
                         static_cast<std::size_t>(op.cols), *mpool[op.a], *mpool[op.dst]);
        break;
    }
  }

  /// The neutral element's bit pattern: the system builds it through
  /// scalarValue, so truncate/convert identically.
  std::uint32_t neutralBits(const Op& op) const {
    return toBits(scalarValue(op.ci, op.cf));
  }

  // --- state comparison -------------------------------------------------------

  std::string compareState(Model& model, SysPool& pool, ModPool& mpool) const {
    std::ostringstream os;
    if (skelcl::aliveDeviceCount() != model.aliveCount()) {
      os << "alive device count: system=" << skelcl::aliveDeviceCount()
         << ", model=" << model.aliveCount();
      return os.str();
    }
    for (std::size_t s = 0; s < pool.size(); ++s) {
      detail::VectorData& vd = pool[s].impl();
      const MVec& mv = *mpool[s];
      for (std::size_t u = 0; u < s; ++u) {
        const bool sysAlias = &pool[u].impl() == &vd;
        const bool modAlias = mpool[u] == mpool[s];
        if (sysAlias != modAlias) {
          os << "slot " << s << " aliasing with slot " << u << ": system="
             << (sysAlias ? "aliased" : "distinct")
             << ", model=" << (modAlias ? "aliased" : "distinct");
          return os.str();
        }
      }
      if (vd.hostValid() != mv.hostValid) {
        os << "slot " << s << " hostValid: system=" << vd.hostValid()
           << ", model=" << mv.hostValid;
        return os.str();
      }
      if (vd.devicesValid() != mv.devicesValid) {
        os << "slot " << s << " devicesValid: system=" << vd.devicesValid()
           << ", model=" << mv.devicesValid;
        return os.str();
      }
      if (!(vd.distribution() == mv.requested)) {
        os << "slot " << s << " requested distribution: system="
           << vd.distribution().describe() << ", model=" << mv.requested.describe();
        return os.str();
      }
      if (!(vd.currentDistribution() == mv.current)) {
        os << "slot " << s << " current distribution: system="
           << vd.currentDistribution().describe() << ", model=" << mv.current.describe();
        return os.str();
      }
      const auto& sp = detail::VectorDataTestAccess::parts(vd);
      if (sp.size() != mv.parts.size()) {
        os << "slot " << s << " part count: system=" << sp.size()
           << ", model=" << mv.parts.size();
        return os.str();
      }
      for (std::size_t i = 0; i < sp.size(); ++i) {
        const auto& a = sp[i];
        const MPart& b = mv.parts[i];
        if (a.device != b.device || a.offset != b.offset || a.size != b.size ||
            (a.buffer != nullptr) != b.hasBuf) {
          os << "slot " << s << " part " << i << ": system={dev " << a.device << ", off "
             << a.offset << ", size " << a.size << ", buf " << (a.buffer != nullptr)
             << "}, model={dev " << b.device << ", off " << b.offset << ", size "
             << b.size << ", buf " << b.hasBuf << "}";
          return os.str();
        }
        if (a.buffer != nullptr && a.size > 0) {
          if (b.data.size() != a.size ||
              std::memcmp(a.buffer->data(), b.data.data(), a.size * 4) != 0) {
            std::size_t j = 0;
            std::uint32_t sb = 0;
            for (; j < a.size; ++j) {
              std::memcpy(&sb, a.buffer->data() + j * 4, 4);
              if (j >= b.data.size() || sb != b.data[j]) break;
            }
            os << "slot " << s << " part " << i << " (device " << a.device
               << ") contents differ at [" << j << "]: system=0x" << std::hex << sb
               << ", model=0x" << (j < b.data.size() ? b.data[j] : 0u);
            return os.str();
          }
        }
      }
      if (vd.hostValid() && n_ > 0) {  // n = 0: both buffers may be null
        const auto& hb = detail::VectorDataTestAccess::host(vd);
        if (std::memcmp(hb.data(), mv.host.data(), n_ * 4) != 0) {
          std::size_t j = 0;
          std::uint32_t sb = 0;
          for (; j < n_; ++j) {
            std::memcpy(&sb, hb.data() + j * 4, 4);
            if (sb != mv.host[j]) break;
          }
          os << "slot " << s << " host contents differ at [" << j << "]: system=0x"
             << std::hex << sb << ", model=0x" << mv.host[j];
          return os.str();
        }
      }
    }
    return "";
  }

  /// Lazily start the multi-tenant Service the Cancel op exercises (its own
  /// executor thread and a dedicated tenant session, like a real client).
  void ensureService() {
    if (service_ == nullptr) {
      service_ = std::make_unique<Service>();
      svcSession_ = service_->createSession({"svccheck", 1.0, 0});
    }
  }

  Program prog_;
  ElemType elem_;
  std::size_t n_;
  std::map<int, std::shared_ptr<Session>> sessions_;  ///< tenant slot -> session
  std::unique_ptr<SessionScope> scope_;               ///< active non-default slot
  std::unique_ptr<Service> service_;                  ///< Cancel-op service
  std::shared_ptr<detail::Session> svcSession_;
};

}  // namespace

RunResult runProgram(const Program& program) {
  Program prog = program;
  sanitize(prog);
  if (prog.cfg.elem == ElemType::I32) {
    return Driver<std::int32_t>(prog).run();
  }
  return Driver<float>(prog).run();
}

}  // namespace skelcl::check
