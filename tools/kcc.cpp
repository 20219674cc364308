// kcc — kernel-language compiler driver (developer tool).
//
//   kcc FILE.cl            compile; print diagnostics or "ok" and whether
//                          each kernel batches (or why not)
//   kcc -d FILE.cl         compile and disassemble every function
//   kcc -p FILE.cl         dump the packed (16-byte) dispatch encoding
//   kcc -r FILE.cl         dump the Insn IR right after the rewrite pass and
//                          call inlining (before peephole): struct field
//                          loads and argument binding show as ;w=0
//   kcc -O<tier> ...       compile at tier 0/1/2 instead of the default
//   kcc -e 'EXPR' ARGS...  compile `double f(double...)`-style one-liners and
//                          evaluate: kcc -e 'sqrt(x*x + 1.0f)' 3
//
// Useful for debugging skeleton source generation: pipe the source SkelCL
// generates into kcc -d to see exactly what the device will execute.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "kernelc/diagnostics.hpp"
#include "kernelc/disasm.hpp"
#include "kernelc/program.hpp"
#include "kernelc/rewrite.hpp"

namespace {

std::string readFile(const char* path) {
  if (std::strcmp(path, "-") == 0) {
    std::ostringstream ss;
    ss << std::cin.rdbuf();
    return ss.str();
  }
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "kcc: cannot open %s\n", path);
    std::exit(2);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

int evalExpression(const std::string& expr, const std::vector<double>& args) {
  // Wrap the expression in a function with parameters x, y, z, ...
  std::string params;
  const char* names[] = {"x", "y", "z", "w"};
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i > 0) params += ", ";
    params += std::string("float ") + names[i];
  }
  const std::string source = "float f(" + params + ") { return " + expr + "; }";
  const auto program = skelcl::kc::compileProgram(source);
  skelcl::kc::Vm vm(*program, {});
  std::vector<skelcl::kc::Slot> slots;
  for (double a : args) slots.push_back(skelcl::kc::Slot::fromFloat(a));
  const auto result = vm.callFunction(program->findFunction("f"), slots);
  std::printf("%g\n", result.f);
  std::printf("(%llu instructions)\n",
              static_cast<unsigned long long>(vm.instructionsExecuted()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool disassemble = false;
  bool packed = false;
  bool postRewrite = false;
  int tier = -1;  // -1: keep the SKELCL_KC_OPT / built-in default
  int argi = 1;
  while (argi < argc && argv[argi][0] == '-' && std::strcmp(argv[argi], "-") != 0 &&
         std::strcmp(argv[argi], "-e") != 0) {
    if (std::strcmp(argv[argi], "-d") == 0) {
      disassemble = true;
    } else if (std::strcmp(argv[argi], "-p") == 0) {
      packed = true;
    } else if (std::strcmp(argv[argi], "-r") == 0) {
      postRewrite = true;
    } else if (std::strncmp(argv[argi], "-O", 2) == 0 && argv[argi][2] >= '0' &&
               argv[argi][2] <= '2' && argv[argi][3] == '\0') {
      tier = argv[argi][2] - '0';
    } else {
      std::fprintf(stderr, "kcc: unknown flag %s\n", argv[argi]);
      return 2;
    }
    ++argi;
  }
  if (argi < argc && std::strcmp(argv[argi], "-e") == 0) {
    if (argi + 1 >= argc) {
      std::fprintf(stderr, "kcc: -e needs an expression\n");
      return 2;
    }
    std::vector<double> args;
    for (int i = argi + 2; i < argc; ++i) args.push_back(std::atof(argv[i]));
    try {
      return evalExpression(argv[argi + 1], args);
    } catch (const skelcl::kc::CompileError& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
  }
  if (argi >= argc) {
    std::fprintf(stderr,
                 "usage: kcc [-d|-p|-r] [-O<0|1|2>] FILE.cl | kcc -e 'EXPR' [args...]\n"
                 "       (FILE may be '-' for stdin)\n");
    return 2;
  }

  const std::string source = readFile(argv[argi]);
  try {
    if (postRewrite) {
      // Compile the naive IR (tier 0) and run the rewrite and inlining passes
      // alone, so the dump shows their effect before peephole fusion obscures
      // the windows.
      const auto program =
          skelcl::kc::compileProgram(source, skelcl::kc::CompileOptions{0});
      std::vector<skelcl::kc::FunctionCode> fns = program->functions;
      std::vector<int> applied;
      for (skelcl::kc::FunctionCode& fn : fns) applied.push_back(skelcl::kc::rewriteOptimize(fn));
      const int inlined = skelcl::kc::inlineCalls(fns);
      for (std::size_t i = 0; i < fns.size(); ++i) {
        std::printf("; %d rewrite(s)\n", applied[i]);
        std::fputs(skelcl::kc::disassemble(fns[i]).c_str(), stdout);
        std::fputs("\n", stdout);
      }
      std::printf("; %d call(s) inlined\n", inlined);
      return 0;
    }
    const auto program =
        tier >= 0 ? skelcl::kc::compileProgram(source, skelcl::kc::CompileOptions{tier})
                  : skelcl::kc::compileProgram(source);
    if (disassemble || packed) {
      for (const auto& fn : program->functions) {
        std::fputs((packed ? skelcl::kc::disassemblePacked(fn)
                           : skelcl::kc::disassemble(fn))
                       .c_str(),
                   stdout);
        std::fputs("\n", stdout);
      }
    } else {
      std::printf("ok: %zu function(s), %llu tokens\n", program->functions.size(),
                  static_cast<unsigned long long>(program->complexity));
      // How each kernel would launch (docs/VM.md): the launch itself can
      // still fall back (SKELCL_KC_BATCH=0, one work-item, aliased buffers).
      for (const auto& fn : program->functions) {
        if (!fn.isKernel) continue;
        if (program->tier < 2) {
          std::printf("kernel %s: per item (%s)\n", fn.name.c_str(),
                      skelcl::kc::batchFallbackName(skelcl::kc::BatchFallback::NotTier2));
        } else if (fn.batchable) {
          std::printf("kernel %s: batched%s\n", fn.name.c_str(),
                      fn.atomicArgs.empty() ? "" : " (atomics deferred)");
        } else {
          std::printf("kernel %s: per item (%s)\n", fn.name.c_str(),
                      skelcl::kc::batchFallbackName(fn.batchFallback));
        }
      }
    }
    return 0;
  } catch (const skelcl::kc::CompileError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
}
