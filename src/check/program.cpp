// Replay-file serialization for skelcheck programs (format: docs/TESTING.md).
//
//   skelcheck v1
//   config devices=4 elem=i32 n=137 kcopt=1 seed=42 pool=5
//   fill a=0 base=3 step=1
//   map a=0 dst=1 fn=addc inplace=0 ci=3 cf=0
//   pipe a=0 dst=1 inplace=0 unfused=0 st=m:addc:i3 st=z:1:madd:i-2
//   fault kill=1 after=12 t=0:k:2 t=-1:t:1 s=2:8:1 h=1:1
//   session slot=1 w=2,1,0,1
//   cancel a=0 dst=1 fn=neg run=0
//   probe a=0
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/check.hpp"

namespace skelcl::check {

namespace {

std::string fmtD(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string distToken(const DistSpec& d) {
  switch (d.kind) {
    case DistKind::Single: return "single:" + std::to_string(d.device);
    case DistKind::Block: return "block";
    case DistKind::WBlock: {
      std::string s = "wblock:";
      for (std::size_t i = 0; i < d.weights.size(); ++i) {
        if (i) s += ',';
        s += fmtD(d.weights[i]);
      }
      return s;
    }
    case DistKind::Copy: return "copy";
    case DistKind::CopyCombine: return "copy+" + d.fn;
  }
  return "block";
}

std::string stageToken(const StageSpec& st) {
  std::string s = st.isZip ? "z:" + std::to_string(st.zipVec) + ":" + st.fn : "m:" + st.fn;
  if (st.hasScalar) s += ":i" + std::to_string(st.ci) + ":f" + fmtD(st.cf);
  if (st.extraVec >= 0) s += ":e" + std::to_string(st.extraVec);
  return s;
}

// --- parsing helpers --------------------------------------------------------

[[noreturn]] void bad(int line, const std::string& why) {
  throw std::runtime_error("skelcheck parse error, line " + std::to_string(line) + ": " +
                           why);
}

std::vector<std::string> splitWs(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream is(s);
  std::string tok;
  while (is >> tok) out.push_back(tok);
  return out;
}

std::vector<std::string> splitChar(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == sep) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  out.push_back(cur);
  return out;
}

std::int64_t toI(const std::string& s, int line) {
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0') bad(line, "not an integer: '" + s + "'");
  return v;
}

double toD(const std::string& s, int line) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0') bad(line, "not a number: '" + s + "'");
  return v;
}

std::vector<double> toDList(const std::string& s, int line) {
  std::vector<double> out;
  if (s.empty()) return out;
  for (const std::string& part : splitChar(s, ',')) out.push_back(toD(part, line));
  return out;
}

DistSpec parseDist(const std::string& v, int line) {
  DistSpec d;
  if (v.rfind("single:", 0) == 0) {
    d.kind = DistKind::Single;
    d.device = static_cast<int>(toI(v.substr(7), line));
  } else if (v == "block") {
    d.kind = DistKind::Block;
  } else if (v.rfind("wblock:", 0) == 0) {
    d.kind = DistKind::WBlock;
    d.weights = toDList(v.substr(7), line);
  } else if (v == "copy") {
    d.kind = DistKind::Copy;
  } else if (v.rfind("copy+", 0) == 0) {
    d.kind = DistKind::CopyCombine;
    d.fn = v.substr(5);
  } else {
    bad(line, "unknown distribution '" + v + "'");
  }
  return d;
}

StageSpec parseStage(const std::string& v, int line) {
  StageSpec st;
  const auto parts = splitChar(v, ':');
  std::size_t i = 0;
  if (parts.empty()) bad(line, "empty stage");
  if (parts[0] == "m") {
    if (parts.size() < 2) bad(line, "map stage needs a function");
    st.fn = parts[1];
    i = 2;
  } else if (parts[0] == "z") {
    if (parts.size() < 3) bad(line, "zip stage needs a slot and a function");
    st.isZip = true;
    st.zipVec = static_cast<int>(toI(parts[1], line));
    st.fn = parts[2];
    i = 3;
  } else {
    bad(line, "stage must start with m: or z:");
  }
  for (; i < parts.size(); ++i) {
    if (parts[i].empty()) bad(line, "empty stage field");
    if (parts[i][0] == 'i') {
      st.ci = toI(parts[i].substr(1), line);
      st.hasScalar = true;
    } else if (parts[i][0] == 'f') {
      st.cf = toD(parts[i].substr(1), line);
      st.hasScalar = true;
    } else if (parts[i][0] == 'e') {
      st.extraVec = static_cast<int>(toI(parts[i].substr(1), line));
    } else {
      bad(line, "unknown stage field '" + parts[i] + "'");
    }
  }
  return st;
}

std::array<std::int64_t, 3> parseTransient(const std::string& v, int line) {
  const auto parts = splitChar(v, ':');
  if (parts.size() != 3) bad(line, "transient rule must be dev:class:count");
  std::int64_t cls;
  if (parts[1] == "t") {
    cls = 0;
  } else if (parts[1] == "k") {
    cls = 1;
  } else {
    bad(line, "transient class must be t or k");
  }
  return {toI(parts[0], line), cls, toI(parts[2], line)};
}

std::array<std::int64_t, 3> parseSlow(const std::string& v, int line) {
  const auto parts = splitChar(v, ':');
  if (parts.size() != 3) bad(line, "slow rule must be dev:factor:count");
  return {toI(parts[0], line), toI(parts[1], line), toI(parts[2], line)};
}

std::array<std::int64_t, 2> parseHang(const std::string& v, int line) {
  const auto parts = splitChar(v, ':');
  if (parts.size() != 2) bad(line, "hang rule must be dev:count");
  return {toI(parts[0], line), toI(parts[1], line)};
}

OpKind kindFor(const std::string& name, int line) {
  if (name == "fill") return OpKind::Fill;
  if (name == "write") return OpKind::Write;
  if (name == "setdist") return OpKind::SetDist;
  if (name == "alias") return OpKind::Alias;
  if (name == "map") return OpKind::Map;
  if (name == "zip") return OpKind::Zip;
  if (name == "reduce") return OpKind::Reduce;
  if (name == "scan") return OpKind::Scan;
  if (name == "pipe") return OpKind::Pipe;
  if (name == "pipereduce") return OpKind::PipeReduce;
  if (name == "weights") return OpKind::Weights;
  if (name == "session") return OpKind::Session;
  if (name == "blacklist") return OpKind::Blacklist;
  if (name == "fault") return OpKind::Fault;
  if (name == "poke") return OpKind::Poke;
  if (name == "probe") return OpKind::Probe;
  if (name == "cancel") return OpKind::Cancel;
  if (name == "mapoverlap") return OpKind::MapOverlap;
  if (name == "matstencil") return OpKind::MatStencil;
  bad(line, "unknown op '" + name + "'");
}

}  // namespace

std::string serialize(const Program& p) {
  std::ostringstream os;
  os << "skelcheck v1\n";
  os << "config devices=" << p.cfg.devices;
  // Emitted only for cluster programs so single-node replay files stay
  // byte-identical to the pre-cluster format.
  if (p.cfg.nodes > 1) os << " nodes=" << p.cfg.nodes;
  os << " elem=" << elemName(p.cfg.elem)
     << " n=" << p.cfg.n << " kcopt=" << p.cfg.kcopt << " seed=" << p.cfg.seed
     << " pool=" << p.cfg.poolSize << "\n";
  for (const Op& op : p.ops) {
    switch (op.kind) {
      case OpKind::Fill:
        os << "fill a=" << op.a << " base=" << op.base << " step=" << op.step;
        break;
      case OpKind::Write:
        os << "write a=" << op.a << " index=" << op.index << " value=" << op.value;
        break;
      case OpKind::SetDist:
        os << "setdist a=" << op.a << " dist=" << distToken(op.dist);
        break;
      case OpKind::Alias:
        os << "alias a=" << op.a << " dst=" << op.dst;
        break;
      case OpKind::Map:
        os << "map a=" << op.a << " dst=" << op.dst << " fn=" << op.fn
           << " inplace=" << op.inPlace;
        if (op.hasScalar) os << " ci=" << op.ci << " cf=" << fmtD(op.cf);
        if (op.extraVec >= 0) os << " extra=" << op.extraVec;
        break;
      case OpKind::Zip:
        os << "zip a=" << op.a << " b=" << op.b << " dst=" << op.dst << " fn=" << op.fn
           << " inplace=" << op.inPlace;
        if (op.hasScalar) os << " ci=" << op.ci << " cf=" << fmtD(op.cf);
        break;
      case OpKind::Reduce:
        os << "reduce a=" << op.a << " fn=" << op.fn;
        if (op.hasScalar) os << " ci=" << op.ci << " cf=" << fmtD(op.cf);
        break;
      case OpKind::Scan:
        os << "scan a=" << op.a << " dst=" << op.dst << " fn=" << op.fn
           << " inplace=" << op.inPlace;
        break;
      case OpKind::Pipe:
        os << "pipe a=" << op.a << " dst=" << op.dst << " inplace=" << op.inPlace
           << " unfused=" << op.unfused;
        for (const StageSpec& st : op.stages) os << " st=" << stageToken(st);
        break;
      case OpKind::PipeReduce:
        os << "pipereduce a=" << op.a << " fn=" << op.fn << " unfused=" << op.unfused;
        if (op.hasScalar) os << " ci=" << op.ci << " cf=" << fmtD(op.cf);
        for (const StageSpec& st : op.stages) os << " st=" << stageToken(st);
        break;
      case OpKind::Weights: {
        os << "weights w=";
        for (std::size_t i = 0; i < op.weights.size(); ++i) {
          if (i) os << ',';
          os << fmtD(op.weights[i]);
        }
        break;
      }
      case OpKind::Session: {
        os << "session slot=" << op.device;
        if (!op.weights.empty()) {
          os << " w=";
          for (std::size_t i = 0; i < op.weights.size(); ++i) {
            if (i) os << ',';
            os << fmtD(op.weights[i]);
          }
        }
        break;
      }
      case OpKind::Blacklist:
        os << "blacklist device=" << op.device;
        break;
      case OpKind::Fault:
        os << "fault kill=" << op.device << " after=" << op.value;
        for (const auto& tr : op.transients) {
          os << " t=" << tr[0] << (tr[1] ? ":k:" : ":t:") << tr[2];
        }
        for (const auto& s : op.slows) {
          os << " s=" << s[0] << ':' << s[1] << ':' << s[2];
        }
        for (const auto& h : op.hangs) {
          os << " h=" << h[0] << ':' << h[1];
        }
        break;
      case OpKind::Poke:
        os << "poke a=" << op.a << " device=" << op.device << " base=" << op.base
           << " step=" << op.step;
        break;
      case OpKind::Probe:
        os << "probe a=" << op.a;
        break;
      case OpKind::Cancel:
        os << "cancel a=" << op.a << " dst=" << op.dst << " fn=" << op.fn
           << " run=" << op.run;
        break;
      case OpKind::MapOverlap:
        os << "mapoverlap a=" << op.a << " dst=" << op.dst << " fn=" << op.fn
           << " inplace=" << op.inPlace << " r=" << op.radius << " pad=" << op.pad
           << " ci=" << op.ci << " cf=" << fmtD(op.cf);
        break;
      case OpKind::MatStencil:
        os << "matstencil a=" << op.a << " dst=" << op.dst << " fn=" << op.fn
           << " r=" << op.radius << " pad=" << op.pad << " cols=" << op.cols
           << " ci=" << op.ci << " cf=" << fmtD(op.cf);
        break;
    }
    os << "\n";
  }
  return os.str();
}

Program parse(const std::string& text) {
  Program p;
  std::istringstream is(text);
  std::string line;
  int lineNo = 0;
  bool sawHeader = false, sawConfig = false;
  while (std::getline(is, line)) {
    ++lineNo;
    if (line.empty() || line[0] == '#') continue;
    const auto toks = splitWs(line);
    if (toks.empty()) continue;
    if (!sawHeader) {
      if (toks[0] != "skelcheck") bad(lineNo, "missing 'skelcheck v1' header");
      sawHeader = true;
      continue;
    }
    if (toks[0] == "config") {
      for (std::size_t i = 1; i < toks.size(); ++i) {
        const auto kv = splitChar(toks[i], '=');
        if (kv.size() != 2) bad(lineNo, "malformed field '" + toks[i] + "'");
        const std::string& k = kv[0];
        const std::string& v = kv[1];
        if (k == "devices") {
          p.cfg.devices = static_cast<int>(toI(v, lineNo));
        } else if (k == "nodes") {
          p.cfg.nodes = static_cast<int>(toI(v, lineNo));
          if (p.cfg.nodes < 1) bad(lineNo, "nodes must be >= 1");
        } else if (k == "elem") {
          if (v == "i32") {
            p.cfg.elem = ElemType::I32;
          } else if (v == "f32") {
            p.cfg.elem = ElemType::F32;
          } else {
            bad(lineNo, "elem must be i32 or f32");
          }
        } else if (k == "n") {
          p.cfg.n = static_cast<std::size_t>(toI(v, lineNo));
        } else if (k == "kcopt") {
          p.cfg.kcopt = static_cast<int>(toI(v, lineNo));
        } else if (k == "seed") {
          p.cfg.seed = static_cast<std::uint64_t>(toI(v, lineNo));
        } else if (k == "pool") {
          p.cfg.poolSize = static_cast<int>(toI(v, lineNo));
        } else {
          bad(lineNo, "unknown config key '" + k + "'");
        }
      }
      sawConfig = true;
      continue;
    }
    if (!sawConfig) bad(lineNo, "ops before the config line");
    Op op;
    op.kind = kindFor(toks[0], lineNo);
    for (std::size_t i = 1; i < toks.size(); ++i) {
      const std::string& tok = toks[i];
      const auto eq = tok.find('=');
      if (eq == std::string::npos) bad(lineNo, "malformed field '" + tok + "'");
      const std::string k = tok.substr(0, eq);
      const std::string v = tok.substr(eq + 1);
      if (k == "a") {
        op.a = static_cast<int>(toI(v, lineNo));
      } else if (k == "b") {
        op.b = static_cast<int>(toI(v, lineNo));
      } else if (k == "dst") {
        op.dst = static_cast<int>(toI(v, lineNo));
      } else if (k == "fn") {
        op.fn = v;
      } else if (k == "inplace") {
        op.inPlace = toI(v, lineNo) != 0;
      } else if (k == "unfused") {
        op.unfused = toI(v, lineNo) != 0;
      } else if (k == "ci") {
        op.ci = toI(v, lineNo);
        op.hasScalar = true;
      } else if (k == "cf") {
        op.cf = toD(v, lineNo);
        op.hasScalar = true;
      } else if (k == "extra") {
        op.extraVec = static_cast<int>(toI(v, lineNo));
      } else if (k == "base") {
        op.base = toI(v, lineNo);
      } else if (k == "step") {
        op.step = toI(v, lineNo);
      } else if (k == "index") {
        op.index = toI(v, lineNo);
      } else if (k == "value") {
        op.value = toI(v, lineNo);
      } else if (k == "device") {
        op.device = static_cast<int>(toI(v, lineNo));
      } else if (k == "slot") {
        op.device = static_cast<int>(toI(v, lineNo));
      } else if (k == "kill") {
        op.device = static_cast<int>(toI(v, lineNo));
      } else if (k == "after") {
        op.value = toI(v, lineNo);
      } else if (k == "dist") {
        op.dist = parseDist(v, lineNo);
      } else if (k == "w") {
        op.weights = toDList(v, lineNo);
      } else if (k == "st") {
        op.stages.push_back(parseStage(v, lineNo));
      } else if (k == "t") {
        op.transients.push_back(parseTransient(v, lineNo));
      } else if (k == "s") {
        op.slows.push_back(parseSlow(v, lineNo));
      } else if (k == "h") {
        op.hangs.push_back(parseHang(v, lineNo));
      } else if (k == "run") {
        op.run = toI(v, lineNo) != 0;
      } else if (k == "r") {
        op.radius = static_cast<int>(toI(v, lineNo));
      } else if (k == "pad") {
        op.pad = static_cast<int>(toI(v, lineNo));
      } else if (k == "cols") {
        op.cols = static_cast<int>(toI(v, lineNo));
      } else {
        bad(lineNo, "unknown field '" + k + "'");
      }
    }
    p.ops.push_back(std::move(op));
  }
  if (!sawHeader || !sawConfig) {
    throw std::runtime_error("skelcheck parse error: missing header or config line");
  }
  return p;
}

}  // namespace skelcl::check
