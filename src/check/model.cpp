#include "check/model.hpp"

#include <algorithm>
#include <functional>
#include <memory>

#include "base/error.hpp"
#include "check/funcs.hpp"

namespace skelcl::check {

MPart* MVec::partOn(int device) {
  for (MPart& p : parts) {
    if (p.device == device) return &p;
  }
  return nullptr;
}

Distribution makeDistribution(const DistSpec& spec, ElemType t) {
  switch (spec.kind) {
    case DistKind::Single:
      return Distribution::single(spec.device);
    case DistKind::Block:
      return Distribution::block();
    case DistKind::WBlock:
      return Distribution::block(spec.weights);
    case DistKind::Copy:
      return Distribution::copy();
    case DistKind::CopyCombine:
      return Distribution::copy(fnSource(spec.fn, t));
  }
  throw UsageError("skelcheck: invalid DistSpec kind");
}

// ---------------------------------------------------------------------------
// MGraph: mirror of detail::ExecGraph::run over the model's fault injector.
//
// Nodes execute in insertion order.  A node whose dependency failed is
// poisoned without issuing (no command is counted).  Device nodes loop:
// bind-check (UsageError escapes immediately, exactly like a setArg/bindExtras
// throw inside a real issue lambda), then one injector decision per attempt;
// Lost or max_attempts exhausted records the FIRST failure and continues with
// the remaining nodes; the saved failure is thrown after the last node.
// Effects run only on a None decision — a faulted command moves no data.
// ---------------------------------------------------------------------------

class MGraph {
 public:
  using NodeId = std::size_t;

  explicit MGraph(Model& m) : m_(m) {}

  NodeId add(int device, int cls, std::function<void()> bindCheck,
             std::function<void()> effect, std::vector<NodeId> deps = {}) {
    nodes_.push_back(Node{device, cls, false, std::move(bindCheck), std::move(effect),
                          std::move(deps), false});
    return nodes_.size() - 1;
  }

  NodeId addHost(std::function<void()> effect, std::vector<NodeId> deps = {}) {
    nodes_.push_back(Node{-1, 0, true, nullptr, std::move(effect), std::move(deps), false});
    return nodes_.size() - 1;
  }

  void run() {
    std::unique_ptr<ModelCommandError> failure;
    for (Node& node : nodes_) {
      bool depFailed = false;
      for (const NodeId d : node.deps) depFailed = depFailed || nodes_[d].failed;
      if (depFailed) {
        node.failed = true;
        continue;
      }
      if (node.host) {
        node.effect();
        continue;
      }
      for (int failedAttempts = 0;;) {
        if (node.bindCheck) node.bindCheck();
        const Model::Decision d = m_.onCommand(node.device, node.cls);
        if (d == Model::Decision::None) {
          node.effect();
          break;
        }
        if (d == Model::Decision::Timeout) {
          // Watchdog abort: escalates immediately, no retry attempts (the
          // real ExecGraph re-issuing would just burn another deadline).
          if (!failure) {
            failure = std::make_unique<ModelCommandError>(ModelCommandError{
                node.device, false, true, "model: watchdog timeout"});
          }
          node.failed = true;
          break;
        }
        ++failedAttempts;
        if (d == Model::Decision::Lost || failedAttempts >= m_.maxAttempts()) {
          if (!failure) {
            failure = std::make_unique<ModelCommandError>(ModelCommandError{
                node.device, d == Model::Decision::Lost, false,
                d == Model::Decision::Lost ? "model: device lost"
                                           : "model: transient fault persisted"});
          }
          node.failed = true;
          break;
        }
      }
    }
    if (failure) throw *failure;
  }

 private:
  struct Node {
    int device;
    int cls;
    bool host;
    std::function<void()> bindCheck;
    std::function<void()> effect;
    std::vector<NodeId> deps;
    bool failed;
  };

  Model& m_;
  std::vector<Node> nodes_;
};

namespace {

/// Mirror of skeleton_exec.cpp's NodeRun: one cluster node's run of
/// consecutive entries in a per-device plan; the run's first device leads.
struct NodeRun {
  int node = 0;
  int leader = 0;
  std::size_t first = 0;
  std::size_t count = 0;
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

}  // namespace

// ---------------------------------------------------------------------------
// Model: construction, runtime + fault-injector mirrors
// ---------------------------------------------------------------------------

Model::Model(const Config& cfg, std::vector<int> cores)
    : cfg_(cfg),
      cores_(std::move(cores)),
      dead_(static_cast<std::size_t>(cfg.devices), 0),
      health_(static_cast<std::size_t>(cfg.devices), 1.0),
      degrade_counts_(static_cast<std::size_t>(cfg.devices), 0),
      cmd_counts_(static_cast<std::size_t>(cfg.devices), 0),
      inj_dead_(static_cast<std::size_t>(cfg.devices), 0) {
  SKELCL_CHECK(cores_.size() == static_cast<std::size_t>(cfg_.devices),
               "model: one core count per device required");
  for (int d = 0; d < cfg_.devices; ++d) alive_.push_back(d);
  // Mirror of docl::flatten's device->node map: devices spread evenly, in
  // order, across the nodes (the runner builds exactly that cluster config).
  SKELCL_CHECK(cfg_.nodes >= 1 && cfg_.devices % cfg_.nodes == 0,
               "model: node count must divide device count");
  const int perNode = cfg_.devices / cfg_.nodes;
  for (int d = 0; d < cfg_.devices; ++d) node_of_.push_back(d / perNode);
}

std::vector<PartRange> Model::partitionFor(const Distribution& d, std::size_t n) const {
  const Distribution eff = effective(d);
  if (multiNode()) return eff.partition(n, alive_, node_of_);
  return eff.partition(n, alive_);
}

Model::Decision Model::onCommand(int device, int cls) {
  if (!faults_active_ || device < 0) return Decision::None;
  const std::uint64_t n = ++cmd_counts_[static_cast<std::size_t>(device)];
  if (inj_dead_[static_cast<std::size_t>(device)]) return Decision::Lost;
  // Kill rules preempt transients (fault.cpp checks them first).
  if (kill_device_ == device && n > static_cast<std::uint64_t>(kill_after_)) {
    inj_dead_[static_cast<std::size_t>(device)] = 1;
    return Decision::Lost;
  }
  for (TransRule& r : trans_) {
    if ((r.device != -1 && r.device != device) || r.cls != cls) continue;
    if (r.remaining <= 0) continue;
    --r.remaining;
    return Decision::Transient;
  }
  // Slow/hang rules apply to any command class.  The real injector returns
  // the first matching rule's decision, so stop scanning either way; a
  // counted rule is consumed whether the slowdown is tolerated or aborted.
  for (SlowRule& r : slows_) {
    if (r.device != -1 && r.device != device) continue;
    if (r.remaining == 0) continue;
    if (r.remaining > 0) --r.remaining;
    return r.factor > kWatchdogSlack ? Decision::Timeout : Decision::None;
  }
  for (HangRule& r : hangs_) {
    if (r.device != -1 && r.device != device) continue;
    if (r.remaining <= 0) continue;
    --r.remaining;
    return Decision::Timeout;
  }
  return Decision::None;
}

void Model::installFaults(const std::vector<std::array<std::int64_t, 3>>& transients,
                          const std::vector<std::array<std::int64_t, 3>>& slows,
                          const std::vector<std::array<std::int64_t, 2>>& hangs,
                          int killDevice, std::int64_t killAfter) {
  trans_.clear();
  for (const auto& t : transients) {
    trans_.push_back(TransRule{static_cast<int>(t[0]), static_cast<int>(t[1]),
                               static_cast<int>(t[2])});
  }
  slows_.clear();
  for (const auto& s : slows) {
    // count 0 means "every command" (a persistent straggler).
    slows_.push_back(SlowRule{static_cast<int>(s[0]), static_cast<double>(s[1]),
                              s[2] == 0 ? -1 : static_cast<int>(s[2])});
  }
  hangs_.clear();
  for (const auto& h : hangs) {
    hangs_.push_back(HangRule{static_cast<int>(h[0]), static_cast<int>(h[1])});
  }
  kill_device_ = killDevice;
  kill_after_ = killAfter;
  // install() resets command counters AND the injector's dead flags (the
  // runtime blacklist is a separate, persistent notion).  Degrade state
  // (health_, degrade_counts_) is runtime state and survives installs.
  std::fill(cmd_counts_.begin(), cmd_counts_.end(), 0);
  std::fill(inj_dead_.begin(), inj_dead_.end(), 0);
  faults_active_ =
      !trans_.empty() || !slows_.empty() || !hangs_.empty() || killDevice >= 0;
}

void Model::allocCheck(int device) {
  // ocl::Device::allocate: allocation on an injector-dead device throws a
  // permanent CommandError before any graph work.
  if (inj_dead_[static_cast<std::size_t>(device)]) {
    throw ModelCommandError{device, true, false, "model: allocation on dead device"};
  }
}

const std::vector<double>& Model::applicableWeights() const {
  static const std::vector<double> kNone;
  const auto it = sessions_.find(cur_session_);
  if (it == sessions_.end()) return kNone;
  const std::vector<double>& weights = it->second.weights;
  if (weights.empty()) return kNone;
  if (weights.size() != static_cast<std::size_t>(cfg_.devices)) return kNone;
  double aliveTotal = 0.0;
  for (int d : alive_) aliveTotal += weights[static_cast<std::size_t>(d)];
  if (!(aliveTotal > 0.0)) return kNone;
  return weights;
}

std::uint64_t Model::partitionEpoch() const {
  const auto it = sessions_.find(cur_session_);
  return device_epoch_ + (it == sessions_.end() ? 0 : it->second.weightEpoch);
}

Distribution Model::effective(const Distribution& d) const {
  if (d.kind() == Distribution::Kind::Block && d.weights().empty()) {
    std::vector<double> w = applicableWeights();
    // Mirror of Session::effectiveDistribution's health folding: degraded
    // devices shrink an unweighted block (or scale the session weights).
    bool anyDegraded = false;
    for (const double h : health_) anyDegraded = anyDegraded || h != 1.0;
    if (!w.empty()) {
      if (anyDegraded) {
        SKELCL_CHECK(w.size() == health_.size(),
                     "partition weights and device health must both cover every device");
        for (std::size_t i = 0; i < w.size(); ++i) {
          w[i] *= health_[i];
        }
      }
      return Distribution::block(w);
    }
    if (anyDegraded) return Distribution::block(health_);
  }
  return d;
}

void Model::setWeights(std::vector<double> weights) {
  SessState& s = sessions_[cur_session_];
  s.weights = std::move(weights);
  ++s.weightEpoch;
}

void Model::switchSession(int slot) { cur_session_ = slot; }

void Model::blacklist(int device) { blacklistDevice(device); }

void Model::blacklistDevice(int device) {
  SKELCL_CHECK(device >= 0 && device < cfg_.devices, "device index out of range");
  if (dead_[static_cast<std::size_t>(device)]) return;
  dead_[static_cast<std::size_t>(device)] = 1;
  alive_.clear();
  for (int d = 0; d < cfg_.devices; ++d) {
    if (!dead_[static_cast<std::size_t>(d)]) alive_.push_back(d);
  }
  if (alive_.empty()) {
    throw ResourceError("device " + std::to_string(device) +
                        " failed and no devices survive");
  }
  ++device_epoch_;
}

void Model::degradeDevice(int device) {
  // Mirror of SharedDeviceState::degradeDevice: idempotent on dead devices,
  // strike counting, escalation to the blacklist at kDegradeStrikes.
  SKELCL_CHECK(device >= 0 && device < cfg_.devices, "device index out of range");
  if (dead_[static_cast<std::size_t>(device)]) return;
  const int strikes = ++degrade_counts_[static_cast<std::size_t>(device)];
  if (strikes >= kDegradeStrikes) {
    blacklistDevice(device);
    return;
  }
  health_[static_cast<std::size_t>(device)] = kDegradedHealth;
  ++device_epoch_;
}

// ---------------------------------------------------------------------------
// VectorData mirror
// ---------------------------------------------------------------------------

const std::vector<PartRange>& Model::plannedPartition(MVec& v) {
  SKELCL_CHECK(v.requested.isSet(), "vector has no distribution");
  const std::uint64_t epoch = partitionEpoch();
  if (!v.plannedValid || v.plannedSession != cur_session_ || v.plannedEpoch != epoch) {
    v.planned = partitionFor(v.requested, v.n);
    v.plannedValid = true;
    v.plannedSession = cur_session_;
    v.plannedEpoch = epoch;
  }
  return v.planned;
}

std::size_t Model::partSizeOn(MVec& v, int device) {
  for (const PartRange& p : plannedPartition(v)) {
    if (p.device == device) return p.size;
  }
  return 0;
}

bool Model::partsMatchRequested(MVec& v) {
  if (!v.devicesValid) return false;
  const auto& want = plannedPartition(v);
  if (want.size() != v.parts.size()) return false;
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (want[i].device != v.parts[i].device || want[i].offset != v.parts[i].offset ||
        want[i].size != v.parts[i].size) {
      return false;
    }
  }
  return true;
}

void Model::setDistribution(MVec& v, const Distribution& d) {
  SKELCL_CHECK(d.isSet(), "cannot set an empty distribution");
  v.requested = d;
  v.plannedValid = false;
}

void Model::defaultDistribution(MVec& v, const Distribution& d) {
  if (!v.requested.isSet()) {
    v.requested = d;
    v.plannedValid = false;
  }
}

void Model::ensureOnDevices(MVec& v) {
  SKELCL_CHECK(v.requested.isSet(), "vector has no distribution");
  if (partsMatchRequested(v)) {
    v.current = v.requested;  // adopt e.g. copy() -> copy(combine)
    return;
  }
  ensureHostValid(v);
  materializeParts(v, /*upload=*/true);
}

void Model::ensureOnDevicesNoUpload(MVec& v) {
  SKELCL_CHECK(v.requested.isSet(), "vector has no distribution");
  if (partsMatchRequested(v)) {
    v.current = v.requested;
    return;
  }
  materializeParts(v, /*upload=*/false);
  v.hostValid = false;  // the kernel will produce the data
}

void Model::materializeParts(MVec& v, bool upload) {
  v.parts.clear();
  for (const PartRange& r : plannedPartition(v)) {
    MPart part;
    part.device = r.device;
    part.offset = r.offset;
    part.size = r.size;
    if (r.size > 0) {
      allocCheck(r.device);
      part.hasBuf = true;
      part.data.assign(r.size * v.w, 0);  // fresh buffers read as zero bytes
    }
    v.parts.push_back(std::move(part));
  }
  if (upload) {
    // Mirror of VectorData::materializeParts' upload graph, including the
    // cluster copy-broadcast: one upload per node to the node's first part
    // (the leader), siblings filled by peer copies that depend on it (and
    // are counted against the *destination* device, like the real enqueue).
    const bool treeBroadcast =
        multiNode() && v.requested.kind() == Distribution::Kind::Copy && v.n > 0;
    MGraph g(*this);
    MPart* leader = nullptr;
    MGraph::NodeId leaderId = 0;
    int leaderNode = -1;
    for (MPart& part : v.parts) {
      if (part.size == 0) continue;
      MPart* p = &part;
      const int node = node_of_[static_cast<std::size_t>(p->device)];
      if (treeBroadcast && leader != nullptr && node == leaderNode) {
        MPart* src = leader;
        g.add(p->device, /*cls=*/0, nullptr,
              [src, p] { std::copy(src->data.begin(), src->data.end(), p->data.begin()); },
              {leaderId});
        continue;
      }
      const MGraph::NodeId id = g.add(p->device, /*cls=*/0, nullptr, [&v, p] {
        std::copy(v.host.begin() + static_cast<std::ptrdiff_t>(p->offset * v.w),
                  v.host.begin() + static_cast<std::ptrdiff_t>((p->offset + p->size) * v.w),
                  p->data.begin());
      });
      leader = p;
      leaderId = id;
      leaderNode = node;
    }
    g.run();
  }
  // Flags adopt only after a fully successful upload graph — a failed upload
  // leaves current/devicesValid stale over freshly rebuilt parts, exactly
  // like the system.
  v.current = v.requested;
  v.devicesValid = true;
}

void Model::downloadParts(MVec& v) {
  MGraph g(*this);
  for (MPart& part : v.parts) {
    if (part.size == 0) continue;
    MPart* p = &part;
    g.add(p->device, /*cls=*/0, nullptr, [&v, p] {
      std::copy(p->data.begin(), p->data.end(),
                v.host.begin() + static_cast<std::ptrdiff_t>(p->offset * v.w));
    });
  }
  g.run();
}

void Model::ensureHostValid(MVec& v) {
  if (v.hostValid) return;
  SKELCL_CHECK(v.devicesValid, "vector holds no valid data");
  if (v.requested.isSet() && partsMatchRequested(v)) v.current = v.requested;
  if (v.current.kind() == Distribution::Kind::Copy) {
    combineCopiesToHost(v);
  } else {
    downloadParts(v);
  }
  v.hostValid = true;
}

void Model::combineCopiesToHost(MVec& v) {
  SKELCL_CHECK(!v.parts.empty(), "copy distribution without parts");
  const bool combine = v.current.hasCombine() && v.parts.size() >= 2 && v.n > 0;

  MGraph g(*this);
  std::vector<MGraph::NodeId> reads;
  std::vector<std::vector<std::uint32_t>> staged(v.parts.size());
  for (std::size_t p = 0; p < v.parts.size(); ++p) {
    MPart& part = v.parts[p];
    if (part.size == 0 || (p > 0 && !combine)) continue;
    std::vector<std::uint32_t>* dst = &v.host;
    if (p > 0) {
      staged[p].resize(v.n);
      dst = &staged[p];
    }
    MPart* pp = &part;
    reads.push_back(g.add(pp->device, /*cls=*/0, nullptr, [&v, pp, dst] {
      // full-vector read from the replica buffer
      std::copy(pp->data.begin(), pp->data.begin() + static_cast<std::ptrdiff_t>(v.n),
                dst->begin());
    }));
  }

  if (combine) {
    const std::string fn = idForSource(v.current.combineSource());
    SKELCL_CHECK(!fn.empty(), "model: combine source not in the skelcheck catalog");
    g.addHost(
        [this, &v, &staged, fn] {
          for (std::size_t p = 1; p < v.parts.size(); ++p) {
            if (v.parts[p].size == 0) continue;  // download skipped; nothing staged
            const std::vector<std::uint32_t>& other = staged[p];
            for (std::size_t i = 0; i < v.n; ++i) {
              v.host[i] = eval(fn, v.host[i], other[i], 0, 0.0);
            }
          }
        },
        reads);
  }
  g.run();

  if (combine) v.devicesValid = false;
}

void Model::markDevicesModified(MVec& v) {
  SKELCL_CHECK(v.devicesValid || v.parts.empty(),
               "dataOnDevicesModified on a vector without device data");
  if (!v.parts.empty()) {
    v.devicesValid = true;
    v.hostValid = false;
  }
}

void Model::markHostModified(MVec& v) {
  v.hostValid = true;
  v.devicesValid = false;
}

void Model::recoverAfterDeviceLoss(MVec& v, int deadDevice) {
  v.plannedValid = false;
  if (v.parts.empty()) return;

  if (v.hostValid) {
    v.parts.clear();
    v.devicesValid = false;
    return;
  }

  MPart* dead = v.partOn(deadDevice);
  if (dead == nullptr || dead->size == 0) return;

  if (v.current.kind() == Distribution::Kind::Copy && !v.current.hasCombine()) {
    for (auto it = v.parts.begin(); it != v.parts.end(); ++it) {
      if (it->device == deadDevice) {
        v.parts.erase(it);
        break;
      }
    }
    if (!v.parts.empty()) return;
    v.devicesValid = false;
    throw DataLossError("device " + std::to_string(deadDevice) +
                        " held the last replica of a copy-distributed vector");
  }

  v.devicesValid = false;
  v.hostValid = true;
  v.parts.clear();
  throw DataLossError("device " + std::to_string(deadDevice) +
                      " held the only current copy");
}

void Model::resetDeviceDataAfterLoss(MVec& v) {
  v.plannedValid = false;
  v.parts.clear();
  v.devicesValid = false;
  v.hostValid = true;
}

// ---------------------------------------------------------------------------
// Host-level ops
// ---------------------------------------------------------------------------

void Model::fill(MVec& v, std::int64_t base, std::int64_t step) {
  ensureHostValid(v);
  markHostModified(v);
  for (std::size_t i = 0; i < v.n; ++i) {
    v.host[i] = valueAt(cfg_.elem, base + static_cast<std::int64_t>(i) * step);
  }
}

void Model::write(MVec& v, std::int64_t index, std::int64_t value) {
  ensureHostValid(v);
  markHostModified(v);
  v.host[static_cast<std::size_t>(index)] = valueAt(cfg_.elem, value);
}

void Model::poke(MVec& v, int device, std::int64_t base, std::int64_t step) {
  MPart* part = v.partOn(device);
  if (part == nullptr || !part->hasBuf) return;  // runner skips identically
  for (std::size_t i = 0; i < part->size; ++i) {
    part->data[i] = valueAt(cfg_.elem, base + static_cast<std::int64_t>(i) * step);
  }
  markDevicesModified(v);  // may throw UsageError when device data is stale
}

const std::vector<std::uint32_t>& Model::probe(MVec& v) {
  ensureHostValid(v);
  return v.host;
}

// ---------------------------------------------------------------------------
// Skeleton mirror
// ---------------------------------------------------------------------------

std::uint32_t Model::eval(const std::string& fn, std::uint32_t a, std::uint32_t b,
                          std::int64_t ci, double cf) const {
  return evalFn(fn, cfg_.elem, a, b, ci, cf);
}

void Model::prepareExtras(std::vector<MExtra>& extras) {
  for (MExtra& e : extras) {
    if (e.kind == MExtra::Kind::Scalar) continue;
    SKELCL_CHECK(e.vec != nullptr, "extra argument vector missing");
    if (!e.vec->requested.isSet()) {
      throw UsageError(
          "no meaningful default distribution exists for vectors passed as "
          "additional arguments; set one explicitly (paper Section III-B)");
    }
    if (e.kind == MExtra::Kind::VectorRef) ensureOnDevices(*e.vec);
  }
}

void Model::bindExtrasCheck(const std::vector<MExtra>& extras, int device) {
  for (const MExtra& e : extras) {
    if (e.kind != MExtra::Kind::VectorRef) continue;
    const MPart* part = e.vec->partOn(device);
    if (part == nullptr || !part->hasBuf) {
      throw UsageError("additional-argument vector has no data on device " +
                       std::to_string(device) +
                       "; give it copy distribution or a block distribution matching "
                       "the input");
    }
  }
}

void Model::bindStageExtrasCheck(std::span<const MStage> stages, int device) {
  for (const MStage& st : stages) bindExtrasCheck(st.extras, device);
}

template <typename Body>
auto Model::withRecovery(std::vector<MVec*> inputs, MVec* resetOutput, Body&& body)
    -> decltype(body()) {
  for (int attempt = 0;; ++attempt) {
    try {
      return body();
    } catch (const ModelCommandError& e) {
      if (!e.permanent && !e.timedOut) throw;
      // Watchdog strikes degrade before blacklisting, so a device can fail
      // kDegradeStrikes + 1 times (strikes, then the post-blacklist retry
      // runs elsewhere) before it stops appearing in plans.
      SKELCL_CHECK(attempt < cfg_.devices * (kDegradeStrikes + 1),
                   "skeleton failed on more devices than the system has");
      if (e.timedOut) {
        degradeDevice(e.device);
      } else {
        blacklistDevice(e.device);
      }
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        MVec* v = inputs[i];
        if (v == nullptr) continue;
        bool seen = false;
        for (std::size_t j = 0; j < i; ++j) seen = seen || inputs[j] == v;
        if (!seen) recoverAfterDeviceLoss(*v, e.device);
      }
      if (resetOutput != nullptr) resetDeviceDataAfterLoss(*resetOutput);
    }
  }
}

void Model::map(const std::string& fn, MVec& input, MVec& output,
                std::vector<MExtra> extras) {
  MStage stage{fn, nullptr, std::move(extras)};
  runChain(input, {&stage, 1}, output);
}

void Model::serviceMap(const std::string& fn, MVec& src, MVec& dst) {
  // The driver host-reads the source slot to build the job's input copy.
  probe(src);
  // The executor runs the job under the service's own session (no weights),
  // on fresh host-only vectors: a Vector<float> built from the copied input
  // and the skeleton's fresh output vector, which it then host-reads.
  const int saved = cur_session_;
  cur_session_ = kServiceSessionSlot;
  MVec in(src.n);
  in.host = src.host;
  MVec out(src.n);
  try {
    map(fn, in, out, {});
    probe(out);
  } catch (...) {
    cur_session_ = saved;
    throw;
  }
  cur_session_ = saved;
  // The driver writes handle.output() into the destination slot's host copy.
  ensureHostValid(dst);
  markHostModified(dst);
  dst.host = out.host;
}

void Model::zip(const std::string& fn, MVec& left, MVec& right, MVec& output,
                std::vector<MExtra> extras) {
  MStage stage{fn, &right, std::move(extras)};
  runChain(left, {&stage, 1}, output);
}

// ---------------------------------------------------------------------------
// MapOverlap mirror (runMapOverlapOnce)
// ---------------------------------------------------------------------------

namespace {

/// Truncation the VM applies after every int32 operation.
std::int32_t trunc32(std::int64_t v) { return static_cast<std::int32_t>(v); }

/// Mirror of skeleton_exec.cpp's HaloSegment decomposition: the in-range
/// portion of [lo, hi) split into per-owner contiguous row segments, ascending.
struct MSeg {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t ownerIndex = 0;
};

std::vector<MSeg> haloSegs(const std::vector<PartRange>& ranges, std::size_t self,
                           std::ptrdiff_t lo, std::ptrdiff_t hi, std::size_t count) {
  std::vector<MSeg> segs;
  const std::size_t begin = lo < 0 ? 0 : static_cast<std::size_t>(lo);
  const std::size_t end =
      hi > static_cast<std::ptrdiff_t>(count) ? count : static_cast<std::size_t>(hi);
  if (begin >= end) return segs;
  for (std::size_t q = 0; q < ranges.size(); ++q) {
    if (q == self) continue;
    const std::size_t s = std::max(begin, ranges[q].offset);
    const std::size_t e = std::min(end, ranges[q].offset + ranges[q].size);
    if (s < e) segs.push_back(MSeg{s, e, q});
  }
  std::sort(segs.begin(), segs.end(),
            [](const MSeg& a, const MSeg& b) { return a.begin < b.begin; });
  return segs;
}

}  // namespace

std::uint32_t Model::stencilEval(const std::string& fn, const std::vector<std::uint32_t>& pad,
                                 std::size_t center, std::size_t stride) const {
  const std::size_t c = center;
  if (cfg_.elem == ElemType::I32) {
    const auto I = [&](std::size_t k) { return static_cast<std::int64_t>(asI(pad[k])); };
    if (fn == "s1sum") return bitsOfI(trunc32(trunc32(I(c - 1) + I(c)) + I(c + 1)));
    if (fn == "s1diff") return bitsOfI(trunc32(I(c + 1) - I(c - 1)));
    if (fn == "s2sum") {
      std::int64_t t = trunc32(I(c - stride) + I(c - 1));
      t = trunc32(t + I(c));
      t = trunc32(t + I(c + 1));
      return bitsOfI(trunc32(t + I(c + stride)));
    }
  } else {
    const auto F = [&](std::size_t k) { return asF(pad[k]); };
    if (fn == "s1sum") {
      const float t = F(c - 1) + F(c);
      return bitsOfF(t + F(c + 1));
    }
    if (fn == "s1diff") return bitsOfF(F(c + 1) - F(c - 1));
    if (fn == "s2sum") {
      float t = F(c - stride) + F(c - 1);
      t = t + F(c);
      t = t + F(c + 1);
      return bitsOfF(t + F(c + stride));
    }
  }
  throw UsageError("model: unknown stencil function '" + fn + "'");
}

void Model::overlapOnce(const std::string& fn, std::size_t radius, std::size_t colRadius,
                        bool clampPad, std::uint32_t neutral, MVec& input, MVec& output) {
  const std::size_t rows = input.n;
  if (rows == 0) return;  // empty in, empty out

  if (input.requested.kind() != Distribution::Kind::Block) {
    setDistribution(input, Distribution::block());
  }
  ensureOnDevices(input);
  setDistribution(output, input.requested);
  ensureOnDevicesNoUpload(output);

  const std::size_t cols = input.w;
  const std::size_t stride = cols + 2 * colRadius;
  const bool contiguous = colRadius == 0;
  const std::ptrdiff_t R = static_cast<std::ptrdiff_t>(radius);
  const std::vector<PartRange> ranges = plannedPartition(input);

  struct Plan {
    PartRange range;                                  ///< row range
    std::vector<MSeg> segs;                           ///< halo row segments
    std::vector<std::vector<std::uint32_t>> staging;  ///< one per segment
    std::vector<std::uint32_t> padded;                ///< (rows + 2r) x stride words
    std::size_t missTop = 0, missBottom = 0;          ///< out-of-range padded rows
    std::vector<MGraph::NodeId> segWrites;            ///< per segment: get, then last put
    std::vector<MGraph::NodeId> ready;                ///< the stencil kernel's deps
    MGraph::NodeId interior = 0;
  };
  std::vector<Plan> plans;
  for (std::size_t pi = 0; pi < ranges.size(); ++pi) {
    const PartRange& r = ranges[pi];
    Plan p;
    p.range = r;
    const std::ptrdiff_t off = static_cast<std::ptrdiff_t>(r.offset);
    const std::ptrdiff_t hiEnd = off + static_cast<std::ptrdiff_t>(r.size) + R;
    allocCheck(r.device);  // the padded buffer's allocation gate
    p.padded.assign((r.size + 2 * radius) * stride, 0);
    p.segs = haloSegs(ranges, pi, off - R, hiEnd, rows);
    for (const MSeg& s : p.segs) p.staging.emplace_back((s.end - s.begin) * cols, 0);
    p.missTop = off < R ? static_cast<std::size_t>(R - off) : 0;
    p.missBottom = hiEnd > static_cast<std::ptrdiff_t>(rows)
                       ? static_cast<std::size_t>(hiEnd - static_cast<std::ptrdiff_t>(rows))
                       : 0;
    plans.push_back(std::move(p));
  }

  // Stage-outer / part-inner, matching the engine's recorded order.
  MGraph g(*this);
  MVec* in = &input;
  // Halo exchange, step 1: read each segment from its owner.
  for (Plan& p : plans) {
    for (std::size_t si = 0; si < p.segs.size(); ++si) {
      const MSeg s = p.segs[si];
      const PartRange owner = ranges[s.ownerIndex];
      std::vector<std::uint32_t>* stage = &p.staging[si];
      p.segWrites.push_back(g.add(owner.device, /*cls=*/0, nullptr, [in, owner, s, stage, cols] {
        MPart* po = in->partOn(owner.device);
        const auto srcOff = static_cast<std::ptrdiff_t>((s.begin - owner.offset) * cols);
        std::copy(po->data.begin() + srcOff,
                  po->data.begin() + srcOff + static_cast<std::ptrdiff_t>(stage->size()),
                  stage->begin());
      }));
    }
  }
  // Contiguous apron, interior: one device-local copy of the part's own rows.
  for (Plan& p : plans) {
    if (!contiguous) continue;
    const PartRange r = p.range;
    Plan* pp = &p;
    p.interior = g.add(r.device, /*cls=*/0, nullptr, [in, pp, r, radius, stride] {
      MPart* ip = in->partOn(r.device);
      std::copy(ip->data.begin(),
                ip->data.begin() + static_cast<std::ptrdiff_t>(r.size * stride),
                pp->padded.begin() + static_cast<std::ptrdiff_t>(radius * stride));
    });
    p.ready.push_back(p.interior);
  }
  // Halo exchange, step 2: staged segments into the padded block, one upload
  // per contiguous run (the whole segment, or one row under column padding).
  for (Plan& p : plans) {
    const PartRange r = p.range;
    Plan* pp = &p;
    for (std::size_t si = 0; si < p.segs.size(); ++si) {
      const MSeg s = p.segs[si];
      const MGraph::NodeId get = p.segWrites[si];
      const std::size_t run = contiguous ? s.end - s.begin : 1;
      for (std::size_t row = s.begin; row < s.end; row += run) {
        const std::size_t srcOff = (row - s.begin) * cols;
        const std::size_t dstOff = (row + radius - r.offset) * stride + colRadius;
        const std::size_t count = run * cols;
        p.segWrites[si] = g.add(
            r.device, /*cls=*/0, nullptr,
            [pp, si, srcOff, dstOff, count] {
              const auto src = pp->staging[si].begin() + static_cast<std::ptrdiff_t>(srcOff);
              std::copy(src, src + static_cast<std::ptrdiff_t>(count),
                        pp->padded.begin() + static_cast<std::ptrdiff_t>(dstOff));
            },
            {get});
        p.ready.push_back(p.segWrites[si]);
      }
    }
  }
  // The rest of the apron: out-of-range rows (and the column padding).
  for (Plan& p : plans) {
    const PartRange r = p.range;
    Plan* pp = &p;
    const std::size_t padRows = r.size + 2 * radius;
    if (!contiguous) {
      // Mirror of skelcl_mo_pack: interior rows + boundary policy; in-range
      // halo rows were uploaded above and are left untouched.
      const std::size_t total = padRows * stride;
      const MGraph::NodeId packed = g.add(
          r.device, /*cls=*/1, nullptr,
          [in, pp, r, rows, cols, stride, radius, neutral, clampPad, total] {
            MPart* ip = in->partOn(r.device);
            const auto row0 = static_cast<std::ptrdiff_t>(r.offset);
            const auto prows = static_cast<std::ptrdiff_t>(r.size);
            const auto nrows = static_cast<std::ptrdiff_t>(rows);
            const auto ncols = static_cast<std::ptrdiff_t>(cols);
            const auto rad = static_cast<std::ptrdiff_t>(radius);
            const auto str = static_cast<std::ptrdiff_t>(stride);
            for (std::size_t i = 0; i < total; ++i) {
              const std::ptrdiff_t prow = static_cast<std::ptrdiff_t>(i) / str;
              const std::ptrdiff_t col = static_cast<std::ptrdiff_t>(i) % str - rad;
              const std::ptrdiff_t arow = row0 - rad + prow;
              if (col < 0 || col >= ncols || arow < 0 || arow >= nrows) {
                if (!clampPad) {
                  pp->padded[i] = neutral;
                  continue;
                }
                const std::ptrdiff_t crow = std::clamp<std::ptrdiff_t>(arow, 0, nrows - 1);
                const std::ptrdiff_t ccol = std::clamp<std::ptrdiff_t>(col, 0, ncols - 1);
                pp->padded[i] =
                    crow >= row0 && crow < row0 + prows
                        ? ip->data[static_cast<std::size_t>((crow - row0) * ncols + ccol)]
                        : pp->padded[static_cast<std::size_t>((crow - row0 + rad) * str + rad +
                                                              ccol)];
              } else if (arow >= row0 && arow < row0 + prows) {
                pp->padded[i] = ip->data[static_cast<std::size_t>((arow - row0) * ncols + col)];
              }
            }
          },
          p.ready);
      p.ready = {packed};
    } else if (!clampPad) {
      auto fill = [&](std::size_t firstRow, std::size_t count) {
        const auto first = static_cast<std::ptrdiff_t>(firstRow * stride);
        const auto last = static_cast<std::ptrdiff_t>((firstRow + count) * stride);
        p.ready.push_back(g.add(r.device, /*cls=*/0, nullptr, [pp, neutral, first, last] {
          std::fill(pp->padded.begin() + first, pp->padded.begin() + last, neutral);
        }));
      };
      if (p.missTop > 0) fill(0, p.missTop);
      if (p.missBottom > 0) fill(padRows - p.missBottom, p.missBottom);
    } else {
      auto writerOf = [&](std::size_t global) -> MGraph::NodeId {
        if (global >= r.offset && global < r.offset + r.size) return pp->interior;
        for (std::size_t si = 0; si < pp->segs.size(); ++si) {
          if (global >= pp->segs[si].begin && global < pp->segs[si].end) {
            return pp->segWrites[si];
          }
        }
        throw UsageError("map-overlap: clamp source element not staged");
      };
      auto clampCopies = [&](std::size_t global, std::size_t firstRow, std::size_t count) {
        const auto src = static_cast<std::ptrdiff_t>((global + radius - r.offset) * stride);
        const MGraph::NodeId dep = writerOf(global);
        for (std::size_t k = 0; k < count; ++k) {
          const auto dst = static_cast<std::ptrdiff_t>((firstRow + k) * stride);
          const auto len = static_cast<std::ptrdiff_t>(stride);
          p.ready.push_back(g.add(
              r.device, /*cls=*/0, nullptr,
              [pp, src, dst, len] {
                std::copy(pp->padded.begin() + src, pp->padded.begin() + src + len,
                          pp->padded.begin() + dst);
              },
              {dep}));
        }
      };
      if (p.missTop > 0) clampCopies(0, 0, p.missTop);
      if (p.missBottom > 0) clampCopies(rows - 1, padRows - p.missBottom, p.missBottom);
    }
  }
  // Stencil kernels, one per part.
  MVec* outp = &output;
  for (Plan& p : plans) {
    const PartRange r = p.range;
    Plan* pp = &p;
    g.add(
        r.device, /*cls=*/1, nullptr,
        [this, fn, pp, outp, r, cols, stride, radius, colRadius] {
          MPart* po = outp->partOn(r.device);
          for (std::size_t i = 0; i < r.size * cols; ++i) {
            const std::size_t center = (i / cols + radius) * stride + i % cols + colRadius;
            po->data[i] = stencilEval(fn, pp->padded, center, stride);
          }
        },
        p.ready);
  }
  g.run();
  if (!plans.empty()) markDevicesModified(output);
}

void Model::mapOverlap(const std::string& fn, int radius, bool clampPad, std::uint32_t neutral,
                       MVec& input, MVec& output) {
  SKELCL_CHECK(output.n == input.n, "map-overlap output size mismatch");
  SKELCL_CHECK(&output != &input,
               "map-overlap cannot run in place: the stencil reads neighbours of every element");
  withRecovery({&input}, &output, [&] {
    overlapOnce(fn, static_cast<std::size_t>(radius), /*colRadius=*/0, clampPad, neutral, input,
                output);
  });
}

void Model::matStencil(const std::string& fn, int radius, bool clampPad, std::uint32_t neutral,
                       std::size_t cols, MVec& src, MVec& dst) {
  // The driver host-reads the source slot to build the matrix.
  ensureHostValid(src);
  const std::size_t rows = src.n / cols;
  MVec min(rows, cols), mout(rows, cols);
  std::copy(src.host.begin(), src.host.begin() + static_cast<std::ptrdiff_t>(rows * cols),
            min.host.begin());
  const auto r = static_cast<std::size_t>(radius);
  withRecovery({&min}, &mout, [&] { overlapOnce(fn, r, r, clampPad, neutral, min, mout); });
  // toStdVector(): the matrix host-read downloads the row parts.
  ensureHostValid(mout);
  // The driver writes the flattened result into the destination's host copy.
  ensureHostValid(dst);
  markHostModified(dst);
  std::copy(mout.host.begin(), mout.host.end(), dst.host.begin());
}

std::uint32_t Model::reduceOnce(MVec& input, std::vector<MStage>& stages,
                                const std::string& fn, std::vector<MExtra>& extras) {
  SKELCL_CHECK(input.n > 0, "reduce of an empty vector");

  materializeChainInputs(input, stages);
  for (MStage& st : stages) prepareExtras(st.extras);

  std::vector<PartRange> ranges = plannedPartition(input);
  if (input.requested.kind() == Distribution::Kind::Copy) ranges.resize(1);

  std::int64_t ci = 0;  // the scalar extra, if any (pipeReduce admits no others)
  double cf = 0.0;
  for (const MExtra& e : extras) {
    ci = e.ci;
    cf = e.cf;
  }

  struct Pending {
    int device = 0;
    std::size_t chunk = 0;
    std::size_t numPartials = 0;
    PartRange range;
    std::vector<std::uint32_t> partials;
    MGraph::NodeId kernelNode = 0;
  };
  std::vector<Pending> pending;
  for (const PartRange& r : ranges) {
    if (r.size == 0) continue;
    const auto cores = static_cast<std::size_t>(cores_[static_cast<std::size_t>(r.device)]);
    Pending p;
    p.device = r.device;
    p.chunk = (r.size + 4 * cores - 1) / (4 * cores);
    p.numPartials = (r.size + p.chunk - 1) / p.chunk;
    p.range = r;
    allocCheck(r.device);
    p.partials.assign(p.numPartials, 0);
    pending.push_back(std::move(p));
  }
  SKELCL_CHECK(!pending.empty(), "reduce produced no device work");

  MGraph g(*this);
  for (Pending& p : pending) {
    Pending* pp = &p;
    const int dev = p.device;
    p.kernelNode = g.add(
        dev, /*cls=*/1,
        [this, &stages, &extras, dev] {
          bindStageExtrasCheck(stages, dev);
          bindExtrasCheck(extras, dev);
        },
        [this, fn, &input, &stages, pp, ci, cf, dev] {
          MPart* in = input.partOn(dev);
          for (std::size_t w = 0; w < pp->numPartials; ++w) {
            const std::size_t begin = w * pp->chunk;
            const std::size_t end = std::min(begin + pp->chunk, pp->range.size);
            std::uint32_t acc = chainEval(stages, in->data[begin], dev, begin);
            for (std::size_t i = begin + 1; i < end; ++i) {
              acc = eval(fn, acc, chainEval(stages, in->data[i], dev, i), ci, cf);
            }
            pp->partials[w] = acc;
          }
        });
  }

  // Mirror of the step-2 gather, including the cluster tree shape: partials
  // are copied to a per-node leader (commands on the leader), combined there
  // with a two-pass kernel (wide chunked pass, then a single-work-item fold
  // of the pass-1 partials), and one value per node reaches the host fold.
  // Command devices, classes, order and dependencies all match runReduceOnce.
  struct NodeGroup {
    NodeRun run;
    std::size_t totalPartials = 0;
    std::size_t combineChunk = 0;
    std::size_t combineWidth = 0;
    std::vector<std::uint32_t> nodeBuf;
    std::vector<std::uint32_t> nodeScratch;
    std::uint32_t nodeResult = 0;
  };
  std::vector<NodeGroup> groups;
  for (const NodeRun& run :
       nodeRuns(node_of_, pending, [](const Pending& p) { return p.device; })) {
    groups.emplace_back().run = run;
  }
  const bool tree = multiNode() && groups.size() > 1;

  std::vector<std::uint32_t> gathered;
  std::vector<MGraph::NodeId> gatherNodes;
  if (tree) {
    gathered.assign(groups.size(), 0);
    for (NodeGroup& ng : groups) {
      for (std::size_t m = ng.run.first; m < ng.run.first + ng.run.count; ++m) {
        ng.totalPartials += pending[m].numPartials;
      }
      const auto cores =
          static_cast<std::size_t>(cores_[static_cast<std::size_t>(ng.run.leader)]);
      ng.combineWidth = std::min(cores, ng.totalPartials);
      ng.combineChunk = (ng.totalPartials + ng.combineWidth - 1) / ng.combineWidth;
      ng.combineWidth = (ng.totalPartials + ng.combineChunk - 1) / ng.combineChunk;
      allocCheck(ng.run.leader);  // nodeBuf
      allocCheck(ng.run.leader);  // nodeScratch
      allocCheck(ng.run.leader);  // nodeResult
      ng.nodeBuf.assign(ng.totalPartials, 0);
      ng.nodeScratch.assign(ng.combineWidth, 0);
    }
    for (std::size_t k = 0; k < groups.size(); ++k) {
      NodeGroup* gp = &groups[k];
      const int leader = gp->run.leader;
      std::vector<MGraph::NodeId> copies;
      std::size_t dstOff = 0;
      for (std::size_t m = gp->run.first; m < gp->run.first + gp->run.count; ++m) {
        Pending* pp = &pending[m];
        const std::size_t at = dstOff;
        copies.push_back(g.add(leader, /*cls=*/0, nullptr, [pp, gp, at] {
          std::copy(pp->partials.begin(), pp->partials.end(),
                    gp->nodeBuf.begin() + static_cast<std::ptrdiff_t>(at));
        }, {pp->kernelNode}));
        dstOff += pp->numPartials;
      }
      const MGraph::NodeId combine1 = g.add(
          leader, /*cls=*/1, [this, &extras, leader] { bindExtrasCheck(extras, leader); },
          [this, fn, gp, ci, cf] {
            for (std::size_t w = 0; w < gp->combineWidth; ++w) {
              const std::size_t begin = w * gp->combineChunk;
              const std::size_t end =
                  std::min(begin + gp->combineChunk, gp->totalPartials);
              std::uint32_t nacc = gp->nodeBuf[begin];
              for (std::size_t i = begin + 1; i < end; ++i) {
                nacc = eval(fn, nacc, gp->nodeBuf[i], ci, cf);
              }
              gp->nodeScratch[w] = nacc;
            }
          },
          copies);
      const MGraph::NodeId combine = g.add(
          leader, /*cls=*/1, [this, &extras, leader] { bindExtrasCheck(extras, leader); },
          [this, fn, gp, ci, cf] {
            std::uint32_t nacc = gp->nodeScratch[0];
            for (std::size_t i = 1; i < gp->nodeScratch.size(); ++i) {
              nacc = eval(fn, nacc, gp->nodeScratch[i], ci, cf);
            }
            gp->nodeResult = nacc;
          },
          {combine1});
      gatherNodes.push_back(g.add(leader, /*cls=*/0, nullptr,
                                  [gp, &gathered, k] { gathered[k] = gp->nodeResult; },
                                  {combine}));
    }
  } else {
    std::size_t total = 0;
    for (const Pending& p : pending) total += p.numPartials;
    gathered.assign(total, 0);
    std::size_t off = 0;
    for (Pending& p : pending) {
      Pending* pp = &p;
      const std::size_t at = off;
      gatherNodes.push_back(g.add(p.device, /*cls=*/0, nullptr, [pp, &gathered, at] {
        std::copy(pp->partials.begin(), pp->partials.end(),
                  gathered.begin() + static_cast<std::ptrdiff_t>(at));
      }, {p.kernelNode}));
      off += p.numPartials;
    }
  }

  std::uint32_t acc = 0;
  g.addHost(
      [this, fn, &gathered, &acc, ci, cf] {
        acc = gathered[0];
        for (std::size_t i = 1; i < gathered.size(); ++i) {
          acc = eval(fn, acc, gathered[i], ci, cf);
        }
      },
      gatherNodes);
  g.run();
  return acc;
}

std::uint32_t Model::reduce(const std::string& fn, MVec& input, std::vector<MExtra> extras) {
  std::vector<MStage> none;
  return pipeReduce(input, none, fn, std::move(extras), /*forceUnfused=*/false, nullptr);
}

void Model::scanOnce(const std::string& fn, MVec& input, MVec& output) {
  SKELCL_CHECK(output.n == input.n, "scan output size mismatch");
  if (input.n == 0) return;

  defaultDistribution(input, Distribution::block());
  const Distribution dist = input.requested;  // raw: weights apply via the plan
  ensureOnDevices(input);
  const bool inPlace = &output == &input;
  setDistribution(output, dist);
  if (!inPlace) ensureOnDevicesNoUpload(output);

  const std::vector<PartRange> ranges = plannedPartition(input);
  const bool crossDevice = dist.kind() == Distribution::Kind::Block;

  struct DeviceScan {
    PartRange range;
    std::size_t chunk = 0;
    std::size_t numChunks = 0;
    std::vector<std::uint32_t> devSums, hostSums, hostOffsets, devOffsets;
    bool skipFirst = true;
    MGraph::NodeId step1 = 0;
  };
  std::vector<DeviceScan> devs;
  for (const PartRange& r : ranges) {
    if (r.size == 0) continue;
    DeviceScan d;
    d.range = r;
    const auto cores = static_cast<std::size_t>(cores_[static_cast<std::size_t>(r.device)]);
    d.chunk = (r.size + 4 * cores - 1) / (4 * cores);
    d.numChunks = (r.size + d.chunk - 1) / d.chunk;
    allocCheck(r.device);  // sums buffer
    d.devSums.assign(d.numChunks, 0);
    allocCheck(r.device);  // offsets buffer
    d.devOffsets.assign(d.numChunks, 0);
    d.hostSums.assign(d.numChunks, 0);
    d.hostOffsets.assign(d.numChunks, 0);
    devs.push_back(std::move(d));
  }

  MGraph g(*this);

  for (DeviceScan& d : devs) {
    DeviceScan* dd = &d;
    const int dev = d.range.device;
    d.step1 = g.add(dev, /*cls=*/1, nullptr, [this, fn, &input, &output, inPlace, dd, dev] {
      MPart* in = input.partOn(dev);
      MPart* out = inPlace ? in : output.partOn(dev);
      for (std::size_t w = 0; w < dd->numChunks; ++w) {
        const std::size_t begin = w * dd->chunk;
        const std::size_t end = std::min(begin + dd->chunk, dd->range.size);
        std::uint32_t acc = in->data[begin];
        out->data[begin] = acc;
        for (std::size_t i = begin + 1; i < end; ++i) {
          acc = eval(fn, acc, in->data[i], 0, 0.0);
          out->data[i] = acc;
        }
        dd->devSums[w] = acc;
      }
    });
  }

  // Mirror of the step-2 sum downloads, including the cluster tree shape:
  // member sums are copied to a per-node leader and cross to the host as one
  // download per node; the offsets later cross back once per node and fan
  // out by per-member copies.  Command devices/classes/order match
  // runScanOnce.
  struct ScanNode {
    NodeRun run;
    std::vector<std::uint32_t> nodeSums, nodeOffsets;
  };
  std::vector<ScanNode> scanNodes;
  for (const NodeRun& run :
       nodeRuns(node_of_, devs, [](const DeviceScan& d) { return d.range.device; })) {
    scanNodes.emplace_back().run = run;
  }
  const bool tree = multiNode() && scanNodes.size() > 1;
  if (tree) {
    for (ScanNode& sn : scanNodes) {
      std::size_t totalChunks = 0;
      for (std::size_t m = sn.run.first; m < sn.run.first + sn.run.count; ++m) {
        totalChunks += devs[m].numChunks;
      }
      allocCheck(sn.run.leader);  // nodeSums
      allocCheck(sn.run.leader);  // nodeOffsets
      sn.nodeSums.assign(totalChunks, 0);
      sn.nodeOffsets.assign(totalChunks, 0);
    }
  }

  std::vector<MGraph::NodeId> sumReads;
  if (tree) {
    for (ScanNode& sn : scanNodes) {
      ScanNode* sp = &sn;
      std::vector<MGraph::NodeId> copies;
      std::size_t dstOff = 0;
      for (std::size_t m = sn.run.first; m < sn.run.first + sn.run.count; ++m) {
        DeviceScan* dd = &devs[m];
        const std::size_t at = dstOff;
        copies.push_back(g.add(sn.run.leader, /*cls=*/0, nullptr, [dd, sp, at] {
          std::copy(dd->devSums.begin(), dd->devSums.end(),
                    sp->nodeSums.begin() + static_cast<std::ptrdiff_t>(at));
        }, {dd->step1}));
        dstOff += dd->numChunks;
      }
      sumReads.push_back(g.add(sn.run.leader, /*cls=*/0, nullptr,
                               [sp, &devs] {
                                 std::size_t off = 0;
                                 for (std::size_t m = sp->run.first;
                                      m < sp->run.first + sp->run.count; ++m) {
                                   DeviceScan& d = devs[m];
                                   std::copy(sp->nodeSums.begin() +
                                                 static_cast<std::ptrdiff_t>(off),
                                             sp->nodeSums.begin() +
                                                 static_cast<std::ptrdiff_t>(off +
                                                                             d.numChunks),
                                             d.hostSums.begin());
                                   off += d.numChunks;
                                 }
                               },
                               copies));
    }
  } else {
    for (DeviceScan& d : devs) {
      DeviceScan* dd = &d;
      sumReads.push_back(g.add(d.range.device, /*cls=*/0, nullptr,
                               [dd] { dd->hostSums = dd->devSums; }, {d.step1}));
    }
  }

  const MGraph::NodeId offsetsNode = g.addHost(
      [this, fn, &devs, crossDevice] {
        bool haveDeviceOffset = false;
        std::uint32_t deviceOffset = 0;
        for (DeviceScan& d : devs) {
          bool haveChunkOffset = false;
          std::uint32_t chunkOffset = 0;
          for (std::size_t w = 0; w < d.numChunks; ++w) {
            std::uint32_t combined = 0;
            bool haveCombined = false;
            if (crossDevice && haveDeviceOffset && haveChunkOffset) {
              combined = eval(fn, deviceOffset, chunkOffset, 0, 0.0);
              haveCombined = true;
            } else if (crossDevice && haveDeviceOffset) {
              combined = deviceOffset;
              haveCombined = true;
            } else if (haveChunkOffset) {
              combined = chunkOffset;
              haveCombined = true;
            }
            d.hostOffsets[w] = haveCombined ? combined : 0;
            const std::uint32_t sum = d.hostSums[w];
            chunkOffset = haveChunkOffset ? eval(fn, chunkOffset, sum, 0, 0.0) : sum;
            haveChunkOffset = true;
          }
          d.skipFirst = !(crossDevice && haveDeviceOffset);
          if (crossDevice) {
            deviceOffset = haveDeviceOffset ? eval(fn, deviceOffset, chunkOffset, 0, 0.0)
                                            : chunkOffset;
            haveDeviceOffset = true;
          }
        }
      },
      sumReads);

  auto addStep2 = [&](DeviceScan* dd, int dev, MGraph::NodeId offsetsReady) {
    g.add(dev, /*cls=*/1, nullptr,
          [this, fn, &input, &output, inPlace, dd, dev] {
            MPart* out = inPlace ? input.partOn(dev) : output.partOn(dev);
            for (std::size_t w = 0; w < dd->numChunks; ++w) {
              if (dd->skipFirst && w == 0) continue;
              const std::size_t begin = w * dd->chunk;
              const std::size_t end = std::min(begin + dd->chunk, dd->range.size);
              const std::uint32_t offv = dd->devOffsets[w];
              for (std::size_t i = begin; i < end; ++i) {
                out->data[i] = eval(fn, offv, out->data[i], 0, 0.0);
              }
            }
          },
          {offsetsReady, dd->step1});
  };
  if (tree) {
    for (ScanNode& sn : scanNodes) {
      ScanNode* sp = &sn;
      const MGraph::NodeId up = g.add(sn.run.leader, /*cls=*/0, nullptr,
                                      [sp, &devs] {
                                        std::size_t off = 0;
                                        for (std::size_t m = sp->run.first;
                                             m < sp->run.first + sp->run.count; ++m) {
                                          DeviceScan& d = devs[m];
                                          std::copy(d.hostOffsets.begin(),
                                                    d.hostOffsets.end(),
                                                    sp->nodeOffsets.begin() +
                                                        static_cast<std::ptrdiff_t>(off));
                                          off += d.numChunks;
                                        }
                                      },
                                      {offsetsNode});
      std::size_t srcOff = 0;
      for (std::size_t m = sn.run.first; m < sn.run.first + sn.run.count; ++m) {
        DeviceScan* dd = &devs[m];
        const int dev = dd->range.device;
        const std::size_t at = srcOff;
        const MGraph::NodeId scatter = g.add(dev, /*cls=*/0, nullptr, [dd, sp, at] {
          std::copy(sp->nodeOffsets.begin() + static_cast<std::ptrdiff_t>(at),
                    sp->nodeOffsets.begin() +
                        static_cast<std::ptrdiff_t>(at + dd->numChunks),
                    dd->devOffsets.begin());
        }, {up});
        srcOff += dd->numChunks;
        addStep2(dd, dev, scatter);
      }
    }
  } else {
    for (DeviceScan& d : devs) {
      DeviceScan* dd = &d;
      const int dev = d.range.device;
      const MGraph::NodeId up = g.add(dev, /*cls=*/0, nullptr,
                                      [dd] { dd->devOffsets = dd->hostOffsets; },
                                      {offsetsNode});
      addStep2(dd, dev, up);
    }
  }

  g.run();
  markDevicesModified(output);
}

void Model::scan(const std::string& fn, MVec& input, MVec& output) {
  const bool inPlace = &output == &input;
  withRecovery({&input}, inPlace ? nullptr : &output,
               [&] { scanOnce(fn, input, output); });
}

// ---------------------------------------------------------------------------
// Element-wise chains (map, zip and pipelines)
// ---------------------------------------------------------------------------

namespace {

/// Mirror of skeleton_exec.cpp's rejectOutputAsExtra: before anything is
/// touched.
void rejectOutputAsExtra(std::span<const MStage> stages, const MVec& output) {
  for (const MStage& st : stages) {
    for (const MExtra& e : st.extras) {
      if (e.kind == MExtra::Kind::VectorRef && e.vec == &output) {
        throw UsageError("model: output vector passed as an additional argument");
      }
    }
  }
}

}  // namespace

bool Model::chainEligible(MVec& input, const std::vector<MStage>& stages) const {
  const Distribution dist =
      input.requested.isSet() ? input.requested : Distribution::block();
  for (const MStage& st : stages) {
    if (st.zipVec != nullptr) {
      const Distribution& zd = st.zipVec->requested;
      if (zd.isSet() && !(zd == dist)) return false;
    }
  }
  return true;
}

Distribution Model::materializeChainInputs(MVec& input, std::span<MStage> stages) {
  for (const MStage& st : stages) {
    SKELCL_CHECK(st.zipVec == nullptr || st.zipVec->n == input.n,
                 "zip inputs must have the same size");
  }
  MVec* zip0 = stages.empty() ? nullptr : stages.front().zipVec;
  Distribution dist;
  if (zip0 == nullptr) {
    defaultDistribution(input, Distribution::block());
    dist = input.requested;
  } else {
    // Zip's rule: both set and different -> both block.
    const Distribution& d1 = input.requested;
    const Distribution& d2 = zip0->requested;
    dist = d1.isSet() ? d1 : d2;
    if (!dist.isSet() || (d1.isSet() && d2.isSet() && !(d1 == d2))) {
      dist = Distribution::block();
    }
    setDistribution(input, dist);
  }
  for (MStage& st : stages) {
    if (st.zipVec != nullptr && st.zipVec != &input) setDistribution(*st.zipVec, dist);
  }
  ensureOnDevices(input);
  for (MStage& st : stages) {
    if (st.zipVec != nullptr && st.zipVec != &input) ensureOnDevices(*st.zipVec);
  }
  return dist;
}

bool Model::chainWritesInput(const MVec& output, const MVec& input,
                             std::span<const MStage> stages) const {
  if (&output == &input) return true;
  for (const MStage& st : stages) {
    if (st.zipVec == &output) return true;
  }
  return false;
}

std::vector<MVec*> Model::chainRecoveryInputs(MVec& input,
                                              std::span<const MStage> stages) const {
  std::vector<MVec*> inputs{&input};
  for (const MStage& st : stages) {
    if (st.zipVec != nullptr) inputs.push_back(st.zipVec);
    for (const MExtra& e : st.extras) {
      if (e.kind == MExtra::Kind::VectorRef) inputs.push_back(e.vec);
    }
  }
  return inputs;
}

std::uint32_t Model::chainEval(std::span<const MStage> stages, std::uint32_t v, int device,
                               std::size_t j) {
  for (const MStage& st : stages) {
    const FnInfo* info = fnInfo(st.fn);
    SKELCL_CHECK(info != nullptr, "model: unknown function id");
    std::uint32_t b = st.zipVec != nullptr ? st.zipVec->partOn(device)->data[j] : 0;
    std::int64_t ci = 0;
    double cf = 0.0;
    switch (info->shape) {
      case FnShape::Unary:
      case FnShape::Binary:
        break;
      case FnShape::UnaryScalar:
      case FnShape::BinaryScalar:
        ci = st.extras[0].ci;
        cf = st.extras[0].cf;
        break;
      case FnShape::UnaryVec:
        b = st.extras[0].vec->partOn(device)->data[0];
        break;
      case FnShape::UnarySizes:
        ci = static_cast<std::int32_t>(partSizeOn(*st.extras[0].vec, device));
        break;
      case FnShape::Stencil1:
      case FnShape::Stencil2:
        throw UsageError("model: stencil function used elementwise");
    }
    v = eval(st.fn, v, b, ci, cf);
  }
  return v;
}

void Model::chainOnce(MVec& input, std::span<MStage> stages, MVec& output) {
  const Distribution dist = materializeChainInputs(input, stages);
  setDistribution(output, dist);
  if (!chainWritesInput(output, input, stages)) ensureOnDevicesNoUpload(output);
  for (MStage& st : stages) prepareExtras(st.extras);

  const auto ranges = partitionFor(dist, input.n);
  MGraph g(*this);
  bool launched = false;
  for (const PartRange& r : ranges) {
    if (r.size == 0) continue;
    launched = true;
    const int dev = r.device;
    g.add(
        dev, /*cls=*/1, [this, stages, dev] { bindStageExtrasCheck(stages, dev); },
        [this, &input, stages, &output, dev, r] {
          MPart* in = input.partOn(dev);
          MPart* out = output.partOn(dev);
          for (std::size_t j = 0; j < r.size; ++j) {
            out->data[j] = chainEval(stages, in->data[j], dev, j);
          }
        });
  }
  g.run();
  if (launched) markDevicesModified(output);
}

void Model::runChain(MVec& input, std::span<MStage> stages, MVec& output) {
  rejectOutputAsExtra(stages, output);
  withRecovery(chainRecoveryInputs(input, stages),
               chainWritesInput(output, input, stages) ? nullptr : &output,
               [&] { chainOnce(input, stages, output); });
}

void Model::chainUnfused(MVec& input, std::vector<MStage>& stages, MVec& output) {
  MVec* cur = &input;
  std::vector<std::unique_ptr<MVec>> temps;
  for (std::size_t s = 0; s < stages.size(); ++s) {
    MVec* dst = &output;
    if (s + 1 < stages.size()) {
      temps.push_back(std::make_unique<MVec>(input.n));
      dst = temps.back().get();
    }
    runChain(*cur, {&stages[s], 1}, *dst);
    cur = dst;
  }
}

bool Model::pipe(MVec& input, std::vector<MStage>& stages, MVec& output,
                 bool forceUnfused) {
  SKELCL_CHECK(!stages.empty(), "skeleton pipeline has no stages");
  SKELCL_CHECK(output.n == input.n, "pipeline output size mismatch");
  rejectOutputAsExtra(stages, output);
  if (forceUnfused || !chainEligible(input, stages)) {
    chainUnfused(input, stages, output);
    return false;
  }
  runChain(input, stages, output);
  return true;
}

std::uint32_t Model::pipeReduce(MVec& input, std::vector<MStage>& stages,
                                const std::string& reduceFn,
                                std::vector<MExtra> reduceExtras, bool forceUnfused,
                                bool* ranFused) {
  for (const MExtra& e : reduceExtras) {
    SKELCL_CHECK(e.kind == MExtra::Kind::Scalar,
                 "reduce supports only scalar additional arguments");
  }
  const bool fused = !stages.empty() && !forceUnfused && chainEligible(input, stages);
  if (ranFused != nullptr) *ranFused = fused;
  if (!stages.empty() && !fused) {
    MVec temp(input.n);
    chainUnfused(input, stages, temp);
    return reduce(reduceFn, temp, std::move(reduceExtras));
  }
  return withRecovery(chainRecoveryInputs(input, stages), nullptr,
                      [&] { return reduceOnce(input, stages, reduceFn, reduceExtras); });
}

}  // namespace skelcl::check
