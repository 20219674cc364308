#include "check/generator.hpp"

#include <string>
#include <vector>

#include "check/funcs.hpp"
#include "check/runner.hpp"

namespace skelcl::check {

namespace {

/// splitmix64: tiny, seedable, and independent of the standard library's
/// unspecified engine implementations.
struct Rng {
  explicit Rng(std::uint64_t seed) : s(seed) {}

  std::uint64_t next() {
    s += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = s;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound).
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }
  int range(int lo, int hi) {  // inclusive
    return lo + static_cast<int>(below(static_cast<std::uint64_t>(hi - lo + 1)));
  }
  bool chance(int percent) { return static_cast<int>(below(100)) < percent; }

  std::uint64_t s;
};

std::vector<std::string> fnsFor(ElemType t, bool FnInfo::*role) {
  std::vector<std::string> out;
  for (const FnInfo& f : catalog()) {
    if (f.*role && (t == ElemType::I32 ? f.forInt : f.forFloat)) out.push_back(f.id);
  }
  return out;
}

/// Stencil functions carry no role flags (they are only reachable through
/// the mapoverlap/matstencil ops), so they are collected by shape instead.
std::vector<std::string> fnsOfShape(ElemType t, FnShape shape) {
  std::vector<std::string> out;
  for (const FnInfo& f : catalog()) {
    if (f.shape == shape && (t == ElemType::I32 ? f.forInt : f.forFloat)) {
      out.push_back(f.id);
    }
  }
  return out;
}

std::vector<std::string> filterShapes(std::vector<std::string> fns, FnShape a, FnShape b) {
  std::vector<std::string> out;
  for (auto& id : fns) {
    const FnShape s = fnInfo(id)->shape;
    if (s == a || s == b) out.push_back(id);
  }
  return out;
}

const std::string& pick(Rng& rng, const std::vector<std::string>& v) {
  return v[rng.below(v.size())];
}

}  // namespace

Program generate(std::uint64_t seed, int numOps) {
  Rng rng(seed * 0x2545F4914F6CDD1Dull + 0x123456789ABCDEFull);
  Program p;
  Config& cfg = p.cfg;
  cfg.seed = seed;
  const int devChoices[3] = {1, 2, 4};
  cfg.devices = devChoices[seed % 3];
  cfg.elem = ((seed / 3) % 2) ? ElemType::F32 : ElemType::I32;
  cfg.kcopt = static_cast<int>((seed / 6) % 3);
  // About a third of the programs run on a docl cluster (devices spread
  // evenly across nodes, node-aware partitions + tree collectives); the
  // node count always divides the device count since both are powers of 2.
  const int nodeChoices[3] = {1, 1, 2};
  cfg.nodes = std::min(nodeChoices[(seed / 18) % 3], cfg.devices);
  if (cfg.nodes == 2 && cfg.devices == 4 && rng.chance(50)) cfg.nodes = 4;
  const std::size_t sizes[] = {0, 1, 2, 3, 4, 7, 17, 33, 64, 100, 137, 200};
  cfg.n = sizes[rng.below(std::size(sizes))];
  cfg.poolSize = rng.range(3, 6);
  const ElemType t = cfg.elem;

  const auto mapFns = fnsFor(t, &FnInfo::mapUse);
  const auto unaryFns = filterShapes(mapFns, FnShape::Unary, FnShape::Unary);
  const auto zipFns = fnsFor(t, &FnInfo::zipUse);
  const auto zipStageFns = filterShapes(zipFns, FnShape::Binary, FnShape::BinaryScalar);
  const auto redFns = fnsFor(t, &FnInfo::redUse);
  const auto scanFns = filterShapes(fnsFor(t, &FnInfo::scanUse), FnShape::Binary,
                                    FnShape::Binary);
  const auto combFns = filterShapes(fnsFor(t, &FnInfo::combineUse), FnShape::Binary,
                                    FnShape::Binary);
  const auto sten1Fns = fnsOfShape(t, FnShape::Stencil1);
  const auto sten2Fns = fnsOfShape(t, FnShape::Stencil2);

  auto slot = [&] { return rng.range(0, cfg.poolSize - 1); };
  auto smallI = [&] { return static_cast<std::int64_t>(rng.range(-4, 4)); };
  auto smallF = [&] { return rng.range(-16, 16) * 0.25; };
  auto fillScalar = [&](Op& op, const std::string& fn) {
    if (fnInfo(fn)->shape == FnShape::UnaryScalar ||
        fnInfo(fn)->shape == FnShape::BinaryScalar) {
      op.hasScalar = true;
      op.ci = smallI();
      op.cf = smallF();
    }
  };
  auto randomDist = [&] {
    DistSpec d;
    switch (rng.below(5)) {
      case 0:
        d.kind = DistKind::Single;
        d.device = rng.range(0, cfg.devices - 1);
        break;
      case 1:
        d.kind = DistKind::Block;
        break;
      case 2: {
        d.kind = DistKind::WBlock;
        // Mostly one weight per device; occasionally short or zero-heavy
        // lists to exercise the weight-validation paths.
        const int len = rng.chance(80) ? cfg.devices : rng.range(1, cfg.devices);
        const double choices[] = {0.0, 0.5, 1.0, 2.0, 3.0};
        for (int i = 0; i < len; ++i) d.weights.push_back(choices[rng.below(5)]);
        break;
      }
      case 3:
        d.kind = DistKind::Copy;
        break;
      default:
        d.kind = DistKind::CopyCombine;
        d.fn = pick(rng, combFns);
        break;
    }
    return d;
  };
  // An extra-argument vector needs a distribution before the skeleton
  // touches it; leave it unset sometimes to exercise the UsageError.
  auto extraVecSlot = [&] {
    const int s = slot();
    if (rng.chance(85)) {
      Op sd;
      sd.kind = OpKind::SetDist;
      sd.a = s;
      sd.dist.kind = rng.chance(70) ? DistKind::Copy : DistKind::Block;
      p.ops.push_back(std::move(sd));
    }
    return s;
  };
  auto makeStages = [&](Op& op) {
    const int count = rng.range(1, 3);
    for (int i = 0; i < count; ++i) {
      StageSpec st;
      st.isZip = rng.chance(40);
      if (st.isZip) {
        st.zipVec = slot();
        st.fn = pick(rng, zipStageFns);
      } else {
        st.fn = pick(rng, mapFns);
        const FnShape sh = fnInfo(st.fn)->shape;
        if (sh == FnShape::UnaryVec || sh == FnShape::UnarySizes) st.extraVec = extraVecSlot();
      }
      if (fnInfo(st.fn)->shape == FnShape::UnaryScalar ||
          fnInfo(st.fn)->shape == FnShape::BinaryScalar) {
        st.hasScalar = true;
        st.ci = smallI();
        st.cf = smallF();
      }
      op.stages.push_back(std::move(st));
    }
    op.unfused = rng.chance(30);
  };

  // Seed every slot with deterministic contents.
  for (int s = 0; s < cfg.poolSize; ++s) {
    Op op;
    op.kind = OpKind::Fill;
    op.a = s;
    op.base = rng.range(-64, 64);
    op.step = rng.range(-3, 3);
    p.ops.push_back(std::move(op));
  }

  int blacklistsLeft = cfg.devices - 1;
  while (static_cast<int>(p.ops.size()) < numOps) {
    Op op;
    const int roll = static_cast<int>(rng.below(100));
    if (roll < 10) {  // fill
      op.kind = OpKind::Fill;
      op.a = slot();
      op.base = rng.range(-64, 64);
      op.step = rng.range(-3, 3);
    } else if (roll < 17) {  // write
      op.kind = OpKind::Write;
      op.a = slot();
      // sanitize() turns writes into probes when n == 0.
      op.index = cfg.n > 0 ? static_cast<std::int64_t>(rng.below(cfg.n)) : 0;
      op.value = rng.range(-256, 256);
    } else if (roll < 31) {  // setdist
      op.kind = OpKind::SetDist;
      op.a = slot();
      op.dist = randomDist();
    } else if (roll < 34) {  // alias
      op.kind = OpKind::Alias;
      op.a = slot();
      op.dst = slot();
    } else if (roll < 44) {  // map
      op.kind = OpKind::Map;
      op.a = slot();
      op.dst = slot();
      op.inPlace = rng.chance(40);
      op.fn = pick(rng, mapFns);
      fillScalar(op, op.fn);
      const FnShape sh = fnInfo(op.fn)->shape;
      if (sh == FnShape::UnaryVec || sh == FnShape::UnarySizes) op.extraVec = extraVecSlot();
    } else if (roll < 53) {  // zip
      op.kind = OpKind::Zip;
      op.a = slot();
      op.b = slot();
      op.dst = slot();
      op.inPlace = rng.chance(40);
      op.fn = pick(rng, zipFns);
      fillScalar(op, op.fn);
    } else if (roll < 60) {  // reduce
      op.kind = OpKind::Reduce;
      op.a = slot();
      op.fn = pick(rng, redFns);
      fillScalar(op, op.fn);
    } else if (roll < 65) {  // scan
      op.kind = OpKind::Scan;
      op.a = slot();
      op.dst = slot();
      op.inPlace = rng.chance(40);
      op.fn = pick(rng, scanFns);
    } else if (roll < 72) {  // pipe
      op.kind = OpKind::Pipe;
      op.a = slot();
      op.dst = slot();
      op.inPlace = rng.chance(40);
      makeStages(op);
    } else if (roll < 77) {  // pipereduce
      op.kind = OpKind::PipeReduce;
      op.a = slot();
      op.fn = pick(rng, redFns);
      fillScalar(op, op.fn);
      makeStages(op);
    } else if (roll < 81) {  // weights
      op.kind = OpKind::Weights;
      const int len = rng.chance(75) ? cfg.devices : rng.range(0, cfg.devices);
      const double choices[] = {0.0, 0.5, 1.0, 2.0, 4.0};
      for (int i = 0; i < len; ++i) op.weights.push_back(choices[rng.below(5)]);
    } else if (roll < 83 && blacklistsLeft > 0) {  // blacklist
      op.kind = OpKind::Blacklist;
      op.device = rng.range(0, cfg.devices - 1);
      --blacklistsLeft;
    } else if (roll < 87) {  // fault
      op.kind = OpKind::Fault;
      const int rules = rng.range(0, 2);
      for (int i = 0; i < rules; ++i) {
        op.transients.push_back({static_cast<std::int64_t>(rng.range(-1, cfg.devices - 1)),
                                 static_cast<std::int64_t>(rng.below(2)),
                                 static_cast<std::int64_t>(rng.range(1, 3))});
      }
      if (rng.chance(40)) {  // straggler rule (slow device)
        // Watchdog-aborting stragglers (factor 8) rack up degrade strikes
        // that eventually blacklist the device, so they draw on the same
        // budget as explicit blacklists; tolerated ones (factor 2) are free.
        const bool aborted = rng.chance(50) && blacklistsLeft > 0;
        if (aborted) --blacklistsLeft;
        op.slows.push_back({static_cast<std::int64_t>(rng.range(0, cfg.devices - 1)),
                            static_cast<std::int64_t>(aborted ? 8 : 2),
                            static_cast<std::int64_t>(rng.range(0, 3))});
      }
      if (rng.chance(20) && blacklistsLeft > 0) {  // hang rule
        --blacklistsLeft;  // hangs are always watchdog-aborted
        op.hangs.push_back({static_cast<std::int64_t>(rng.range(0, cfg.devices - 1)),
                            static_cast<std::int64_t>(rng.range(1, 2))});
      }
      if (rng.chance(25) && blacklistsLeft > 0) {
        op.device = rng.range(0, cfg.devices - 1);
        op.value = rng.range(5, 60);
        --blacklistsLeft;  // the kill eventually blacklists one device
      } else {
        op.device = -1;
      }
    } else if (roll < 89) {  // poke
      op.kind = OpKind::Poke;
      op.a = slot();
      op.device = rng.range(0, cfg.devices - 1);
      op.base = rng.range(-64, 64);
      op.step = rng.range(-3, 3);
    } else if (roll < 91) {  // session switch (slot 0 = default), maybe with weights
      op.kind = OpKind::Session;
      op.device = rng.range(0, 3);
      if (rng.chance(50)) {
        const int len = rng.chance(75) ? cfg.devices : rng.range(1, cfg.devices);
        const double choices[] = {0.0, 0.5, 1.0, 2.0, 4.0};
        for (int i = 0; i < len; ++i) op.weights.push_back(choices[rng.below(5)]);
      }
    } else if (roll < 93 && t == ElemType::F32) {  // service map job: run or cancel
      op.kind = OpKind::Cancel;
      op.a = slot();
      op.dst = slot();
      op.fn = pick(rng, unaryFns);
      op.run = rng.chance(50);
    } else if (roll < 97) {  // mapoverlap (1D stencil)
      op.kind = OpKind::MapOverlap;
      op.a = slot();
      op.dst = slot();
      op.inPlace = rng.chance(25);
      op.fn = pick(rng, sten1Fns);
      op.radius = rng.range(1, 3);
      op.pad = rng.chance(50) ? 1 : 0;
      op.ci = smallI();
      op.cf = smallF();
    } else if (roll < 99) {  // matstencil (2D stencil over a matrix view)
      op.kind = OpKind::MatStencil;
      op.a = slot();
      op.dst = slot();
      op.fn = pick(rng, sten2Fns);
      op.radius = rng.range(1, 2);
      const int colChoices[] = {1, 2, 3, 5, 8, 13};
      op.cols = colChoices[rng.below(std::size(colChoices))];
      op.pad = rng.chance(50) ? 1 : 0;
      op.ci = smallI();
      op.cf = smallF();
    } else {  // probe
      op.kind = OpKind::Probe;
      op.a = slot();
    }
    p.ops.push_back(std::move(op));
  }

  // Final full-content probes: every slot is compared bitwise at the end.
  for (int s = 0; s < cfg.poolSize; ++s) {
    Op op;
    op.kind = OpKind::Probe;
    op.a = s;
    p.ops.push_back(std::move(op));
  }

  sanitize(p);
  return p;
}

}  // namespace skelcl::check
